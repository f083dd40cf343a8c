import random
from itertools import product

import numpy as np
import pytest
from sympy import Matrix, eye
from sympy.matrices.normalforms import smith_normal_form

from cohomkit.linalg import SparseElimination, eliminate
from cohomkit.sweep import _MAX_CANDIDATES, SweepElimination, candidate_order


def dense_to_rows(mat):
    for i, row in enumerate(mat):
        yield i, {j: v for j, v in enumerate(row) if v}


def random_matrix(rng, nrows, ncols, lo=-9, hi=9, density=0.7):
    return [[rng.randint(lo, hi) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]


def snf_nonzero_diagonal(mat):
    m = smith_normal_form(Matrix(mat))
    diag = [abs(m[i, i]) for i in range(min(m.shape))]
    return sorted(d for d in diag if d)


def modular_cokernel_factors(mat, modulus):
    """Invariant factors (> 1) of coker(A) as a Z/M-module, via an integer
    Smith form of A stacked over M*I.  Free Z/M summands show up as M."""
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    stacked = Matrix(mat).col_join(modulus * eye(ncols))
    m = smith_normal_form(stacked)
    diag = [abs(m[i, i]) for i in range(min(m.shape))]
    return sorted(d for d in diag if d != 1)


def reconstruct_diagonal(elim, mat):
    """Replay the journals against a dense copy: returns U @ A @ V mod M."""
    nrows, ncols, m = elim.nrows, elim.ncols, elim.modulus
    cols_u = []
    for k in range(nrows):
        vec = elim.apply_row_transform({k: 1})
        cols_u.append([vec.get(r, 0) % m for r in range(nrows)])
    cols_v = []
    for k in range(ncols):
        vec = elim.apply_col_transform({k: 1})
        cols_v.append([vec.get(r, 0) % m for r in range(ncols)])
    u = [[cols_u[j][i] for j in range(nrows)] for i in range(nrows)]
    v = [[cols_v[j][i] for j in range(ncols)] for i in range(ncols)]

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b))) % m
                 for j in range(len(b[0]))] for i in range(len(a))]

    return matmul(matmul(u, mat), v)


@pytest.mark.parametrize("seed", range(6))
def test_exact_factors_match_sympy_snf(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(2, 6), rng.randint(2, 6)
    mat = random_matrix(rng, nrows, ncols)
    elim = eliminate(dense_to_rows(mat), nrows, ncols, modulus=0)
    got = sorted(f for f in elim.invariant_factors())
    assert got == snf_nonzero_diagonal(mat)


@pytest.mark.parametrize("seed,modulus", [(s, m) for s in range(5)
                                          for m in (4, 6, 9, 12)])
def test_modular_cokernel_matches_stacked_snf(seed, modulus):
    rng = random.Random(100 * seed + modulus)
    nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
    mat = random_matrix(rng, nrows, ncols, lo=0, hi=modulus - 1)
    elim = eliminate(dense_to_rows(mat), nrows, ncols, modulus=modulus)
    # columns without a pivot are free Z/M summands of the cokernel
    free = ncols - len(elim.pivots)
    got = sorted(elim.nontrivial_factors() + [modulus] * free)
    assert got == modular_cokernel_factors(mat, modulus)


@pytest.mark.parametrize("seed,modulus", [(0, 4), (1, 6), (2, 8), (3, 9),
                                          (4, 12), (5, 16)])
def test_journal_reconstructs_diagonal(seed, modulus):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(2, 6), rng.randint(2, 6)
    mat = random_matrix(rng, nrows, ncols, lo=0, hi=modulus - 1)
    elim = eliminate(dense_to_rows(mat), nrows, ncols, modulus=modulus)
    d = reconstruct_diagonal(elim, mat)
    expected = [[0] * ncols for _ in range(nrows)]
    for r, c, v in elim.pivots:
        expected[r][c] = v % modulus
    assert d == expected


def test_solve_finds_planted_solutions_modular():
    rng = random.Random(77)
    modulus = 12
    for _ in range(20):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
        mat = random_matrix(rng, nrows, ncols, lo=0, hi=modulus - 1)
        x = [rng.randrange(modulus) for _ in range(ncols)]
        b = {}
        for i in range(nrows):
            s = sum(mat[i][j] * x[j] for j in range(ncols)) % modulus
            if s:
                b[i] = s
        elim = eliminate(dense_to_rows(mat), nrows, ncols, modulus=modulus)
        assert elim.solvable(b)
        sol = elim.solve(b)
        assert sol is not None
        for i in range(nrows):
            s = sum(mat[i][j] * sol.get(j, 0) for j in range(ncols)) % modulus
            assert s == b.get(i, 0)


def test_solvable_matches_dense_enumeration():
    rng = random.Random(13)
    modulus = 6
    hits = misses = 0
    for _ in range(25):
        nrows, ncols = rng.randint(2, 3), rng.randint(2, 3)
        mat = random_matrix(rng, nrows, ncols, lo=0, hi=modulus - 1)
        elim = eliminate(dense_to_rows(mat), nrows, ncols, modulus=modulus)
        b_vec = [rng.randrange(modulus) for _ in range(nrows)]
        b = {i: v for i, v in enumerate(b_vec) if v}
        truth = any(
            all(sum(mat[i][j] * x[j] for j in range(ncols)) % modulus
                == b_vec[i] for i in range(nrows))
            for x in product(range(modulus), repeat=ncols))
        assert elim.solvable(b) == truth
        sol = elim.solve(b)
        assert (sol is not None) == truth
        hits += truth
        misses += not truth
    assert hits and misses  # the sample exercised both branches


def test_solve_exact_mode():
    rng = random.Random(5)
    for _ in range(10):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
        mat = random_matrix(rng, nrows, ncols)
        x = [rng.randint(-4, 4) for _ in range(ncols)]
        b = {}
        for i in range(nrows):
            s = sum(mat[i][j] * x[j] for j in range(ncols))
            if s:
                b[i] = s
        elim = eliminate(dense_to_rows(mat), nrows, ncols, modulus=0)
        sol = elim.solve(b)
        assert sol is not None
        for i in range(nrows):
            assert sum(mat[i][j] * sol.get(j, 0) for j in range(ncols)) == b.get(i, 0)
    # 2x = 1 has no integer solution
    elim = eliminate([(0, {0: 2})], 1, 1, modulus=0)
    assert elim.solve({0: 1}) is None
    assert not elim.solvable({0: 1})


def test_coker_vector_inverts_row_transform():
    rng = random.Random(21)
    mat = random_matrix(rng, 5, 4, lo=0, hi=11)
    elim = eliminate(dense_to_rows(mat), 5, 4, modulus=12)
    for r in range(5):
        back = elim.apply_row_transform(elim.coker_vector(r))
        assert back == {r: 1}


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        SparseElimination(2, 2, modulus=-1)


@pytest.mark.parametrize("seed,modulus", [(s, m) for s in range(4)
                                          for m in (4, 9, 36)])
def test_sweep_agrees_with_journaled(seed, modulus):
    rng = random.Random(seed * 31 + modulus)
    nrows, ncols = rng.randint(4, 30), rng.randint(4, 30)
    mat = random_matrix(rng, nrows, ncols, lo=0, hi=modulus - 1, density=0.3)
    slow = eliminate(dense_to_rows(mat), nrows, ncols, modulus=modulus)
    fast = SweepElimination(nrows, ncols, modulus)
    for i, entries in dense_to_rows(mat):
        fast.add_row(i, entries)
    fast.run()
    assert fast.nontrivial_factors() == slow.nontrivial_factors()
    assert len(fast.invariant_factors()) == len(slow.invariant_factors())


def test_sweep_on_structured_kernel():
    # block diagonal with known chain: diag(2, 4, 0, 1) mod 8
    rows = [(0, {0: 2}), (1, {1: 4}), (3, {3: 1})]
    fast = SweepElimination(4, 4, 8)
    for i, entries in rows:
        fast.add_row(i, entries)
    fast.run()
    assert fast.nontrivial_factors() == [2, 4]


def journaled_sweep(mat, nrows, ncols, modulus):
    elim = SweepElimination(nrows, ncols, modulus)
    for i, entries in dense_to_rows(mat):
        elim.add_row(i, entries)
    return elim.run()


def sweep_matrix(seed, modulus):
    rng = random.Random(seed * 31 + modulus)
    nrows, ncols = rng.randint(4, 30), rng.randint(4, 30)
    mat = random_matrix(rng, nrows, ncols, lo=0, hi=modulus - 1, density=0.3)
    return rng, mat, nrows, ncols


def mat_vec(mat, x, modulus):
    return {i: s for i, row in enumerate(mat)
            if (s := sum(v * x.get(j, 0) for j, v in enumerate(row)) % modulus)}


@pytest.mark.parametrize("seed,modulus", [(s, m) for s in range(4)
                                          for m in (4, 9, 36)])
def test_sweep_journal_reconstructs_diagonal(seed, modulus):
    _, mat, nrows, ncols = sweep_matrix(seed, modulus)
    elim = journaled_sweep(mat, nrows, ncols, modulus)
    d = reconstruct_diagonal(elim, mat)
    expected = [[0] * ncols for _ in range(nrows)]
    for r, c, v in elim.pivots:
        expected[r][c] = v % modulus
    assert d == expected
    assert len(elim.pivots) == elim.unit_pivot_count + len(elim._core.pivots)


@pytest.mark.parametrize("seed,modulus", [(s, m) for s in range(4)
                                          for m in (4, 9, 36)])
def test_sweep_coker_vectors_invert_row_transform(seed, modulus):
    _, mat, nrows, _ = sweep_matrix(seed, modulus)
    elim = journaled_sweep(mat, nrows, len(mat[0]), modulus)
    for r in range(nrows):
        assert elim.apply_row_transform(elim.coker_vector(r)) == {r: 1}


@pytest.mark.parametrize("seed,modulus", [(s, m) for s in range(4)
                                          for m in (4, 9, 36)])
def test_sweep_solve(seed, modulus):
    rng, mat, nrows, ncols = sweep_matrix(seed, modulus)
    elim = journaled_sweep(mat, nrows, ncols, modulus)
    # the residue reducer alone is an independent oracle for solvability
    oracle = eliminate(dense_to_rows(mat), nrows, ncols, modulus=modulus)
    for _ in range(5):
        b = mat_vec(mat, {j: rng.randrange(modulus) for j in range(ncols)},
                    modulus)
        assert elim.solvable(b)
        x = elim.solve(b)
        assert x is not None and mat_vec(mat, x, modulus) == b
    # off the image: add a cokernel vector at a row whose diagonal entry is
    # not a unit (a pivotless row, or a nontrivial pivot)
    units = {r for r, _, s in elim.pivots if elim.pivot_factor(s) == 1}
    for r in [r for r in range(nrows) if r not in units][:3]:
        b = mat_vec(mat, {j: rng.randrange(modulus) for j in range(ncols)},
                    modulus)
        for i, v in elim.coker_vector(r).items():
            b[i] = (b.get(i, 0) + v) % modulus
        b = {i: v for i, v in b.items() if v}
        assert not oracle.solvable(b)
        assert not elim.solvable(b)
        assert elim.solve(b) is None
    for _ in range(5):
        b = {i: rng.randrange(modulus) for i in range(nrows)}
        x = elim.solve(b)
        assert (x is not None) == elim.solvable(b) == oracle.solvable(b)
        if x is not None:
            assert mat_vec(mat, x, modulus) == {i: v for i, v in b.items() if v}


def test_sweep_solvable_matches_dense_enumeration():
    rng = random.Random(13)
    modulus = 6
    hits = misses = 0
    for _ in range(25):
        nrows, ncols = rng.randint(2, 3), rng.randint(2, 3)
        mat = random_matrix(rng, nrows, ncols, lo=0, hi=modulus - 1)
        elim = journaled_sweep(mat, nrows, ncols, modulus)
        b_vec = [rng.randrange(modulus) for _ in range(nrows)]
        b = {i: v for i, v in enumerate(b_vec) if v}
        truth = any(
            all(sum(mat[i][j] * x[j] for j in range(ncols)) % modulus
                == b_vec[i] for i in range(nrows))
            for x in product(range(modulus), repeat=ncols))
        assert elim.solvable(b) == truth
        assert (elim.solve(b) is not None) == truth
        hits += truth
        misses += not truth
    assert hits and misses


@pytest.mark.parametrize("size", [1_000, _MAX_CANDIDATES, 250_000])
def test_candidate_order_matches_stable_argsort(size):
    rng = np.random.default_rng(size)
    for high in (3, 20, 10 ** 6):   # few distinct scores: many ties
        scores = rng.integers(0, high, size=size)
        expected = np.argsort(scores, kind="stable")[:_MAX_CANDIDATES]
        assert np.array_equal(candidate_order(scores), expected)
