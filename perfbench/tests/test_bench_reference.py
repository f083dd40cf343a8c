"""The references on small cases, checked from first principles."""

from itertools import product

import numpy as np
import pytest

import reference as ref

V4 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def cyclic_table(n):
    return np.array([[(a + b) % n for b in range(n)] for a in range(n)])


def s3_table():
    perms = sorted(product(range(3), repeat=3))
    perms = [p for p in perms if len(set(p)) == 3]
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[q[i]] for i in range(3))] for q in perms]
                     for p in perms])


def naive_coboundary(table, f, den):
    """Loop over every tuple, straight from the definition."""
    n, k = len(table), f.ndim
    out = np.zeros((n,) * (k + 1), dtype=np.int64)
    for g in product(range(n), repeat=k + 1):
        total = f[g[1:]]
        for i in range(k):
            merged = g[:i] + (table[g[i]][g[i + 1]],) + g[i + 2:]
            total += (-1) ** (i + 1) * f[merged]
        total += (-1) ** (k + 1) * f[g[:k]]
        out[g] = total % den
    return out


@pytest.mark.parametrize("label, degree, want", [
    ("cyclic:4", 1, [4]), ("cyclic:4", 2, []), ("cyclic:4", 3, [4]),
    ("cyclic:4", 4, []),
    ("dihedral:3", 3, [6]), ("sym:3", 4, []),
    ("dihedral:4", 2, [2]), ("dihedral:4", 3, [2, 2, 4]),
    ("dihedral:4", 4, [2, 2]),
    ("quaternion:8", 2, []), ("quaternion:8", 3, [8]),
    ("product:cyclic:2 x cyclic:2", 3, [2, 2, 2]),
    ("product:cyclic:2 x cyclic:2", 4, [2, 2]),
    ("elem:2^3", 3, [2] * 7), ("elem:2^3", 4, [2] * 8),
    ("product:cyclic:3 x cyclic:4", 3, [12]),
    ("product:cyclic:2 x cyclic:6", 3, [2, 2, 6]),
])
def test_closed_forms(label, degree, want):
    assert ref.expected_factors(label, degree) == want


def test_kunneth_agrees_with_the_dihedral_form_for_v4():
    for q in range(1, 8):
        assert ref.invariant_factors(
            ref.integral_cohomology("product:cyclic:2 x cyclic:2", q)) == \
            ref.invariant_factors(ref.integral_cohomology("dihedral:2", q))


def test_invariant_factors_regroup_primes():
    assert ref.invariant_factors([2, 4, 3]) == [2, 12]
    assert ref.invariant_factors([6, 2]) == [2, 6]
    assert ref.invariant_factors([]) == []


def test_sylow_cyclic():
    assert ref.sylow_all_cyclic(cyclic_table(6))
    assert ref.sylow_all_cyclic(s3_table())
    assert not ref.sylow_all_cyclic(V4)


def test_check_factors_rejects_wrong_lists():
    ref.check_factors("dihedral:4", cyclic_table(8), 3, [2, 2, 4])
    with pytest.raises(ref.Reject):
        ref.check_factors("dihedral:4", cyclic_table(8), 3, [2, 4])
    with pytest.raises(ref.Reject):      # 3 does not divide 8
        ref.check_factors("dihedral:4", cyclic_table(8), 3, [2, 3])
    with pytest.raises(ref.Reject):      # Sylow subgroups of Z/8 are cyclic
        ref.check_factors("elem:2^3", cyclic_table(8), 4, [2] * 8)


@pytest.mark.parametrize("table", [cyclic_table(4), np.array(V4), s3_table()])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_dense_coboundary_matches_the_definition(table, degree):
    rng = np.random.default_rng(degree)
    f = ref.random_cochain(rng, len(table), degree, 6, 0.7)
    d = ref.coboundary(table, f, 6)
    assert np.array_equal(d, naive_coboundary(table, f, 6))
    assert not np.any(ref.coboundary(table, d, 6))       # d d = 0
    assert np.array_equal(d, ref.normalize(d))


def test_omega_is_a_cocycle_and_only_multiples_of_n_bound():
    for n in (2, 3, 4):
        assert not np.any(ref.coboundary(cyclic_table(n), ref.omega(n, 1), n))
    # Z/3: a primitive of a denominator-3 cocycle may be taken with
    # denominator 9; try every normalized 2-cochain of that kind
    table = cyclic_table(3)
    target = ref.rescale(ref.omega(3, 1), 3, 9)
    found = False
    for values in product(range(9), repeat=4):
        rho = np.zeros((3, 3), dtype=np.int64)
        rho[1:, 1:] = np.array(values).reshape(2, 2)
        if np.array_equal(ref.coboundary(table, rho, 9), target):
            found = True
            break
    assert not found
    assert not np.any(ref.omega(3, 3))


def test_descend_recovers_a_planted_defect_and_rejects_a_corrupted_one():
    rng = np.random.default_rng(0)
    # Z/4 -> Z/2, reduction mod 2
    cover, images = cyclic_table(4), np.array([0, 1, 0, 1])
    mu = ref.random_cochain(rng, 2, 3, 4, 1.0)
    rho = ref.random_cochain(rng, 4, 2, 4, 1.0)
    psi = np.mod(ref.pullback(images, mu) + ref.coboundary(cover, rho, 4), 4)
    nu = ref.descend(cover, images, psi, 4, 2)
    assert np.array_equal(nu, ref.coboundary(cyclic_table(2), mu, 4))
    bad = psi.copy()
    bad[1, 1, 3] = (bad[1, 1, 3] + 1) % 4
    with pytest.raises(ref.Reject):
        ref.descend(cover, images, bad, 4, 2)


@pytest.mark.parametrize("cover, images, base", [
    (cyclic_table(9), np.arange(9) % 3, cyclic_table(3)),
    (s3_table(), None, cyclic_table(2)),
])
def test_the_opposite_skeleton_descends_to_the_reversed_inverse(
        cover, images, base):
    if images is None:      # the sign of S3: the transpositions go to 1
        images = np.array([int(cover[x][x] == 0 and x != 0) for x in range(6)])
    rng = np.random.default_rng(2)
    nb, n = len(base), len(cover)
    mu = ref.random_cochain(rng, nb, 3, 9, 1.0)
    rho = ref.random_cochain(rng, n, 2, 9, 1.0)
    psi = np.mod(ref.pullback(images, mu) + ref.coboundary(cover, rho, 9), 9)
    nu = ref.descend(cover, images, psi, 9, nb)
    inv = np.argmax(base == 0, axis=1)
    # the opposite: transposed table, grading then inversion, -psi(c, b, a)
    opposite = ref.descend(cover.T, inv[images],
                           np.mod(-psi.transpose(2, 1, 0), 9), 9, nb)
    assert np.array_equal(opposite, ref.reversed_inverse(nu, 9, base))
    if nb == 3:     # inversion is not the identity here, so the law is sharp
        assert not np.array_equal(opposite, np.mod(-nu.transpose(3, 2, 1, 0), 9))


def test_text_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    cover, images = cyclic_table(4), np.array([0, 1, 0, 1])
    psi = ref.random_cochain(rng, 4, 3, 8, 0.5)
    path = str(tmp_path / "s.skeleton")
    ref.write_skeleton(path, "C4", cover, "C2", cyclic_table(2), images, psi, 8)
    c, b, im, got, den = ref.read_skeleton(path)
    assert np.array_equal(c, cover) and np.array_equal(b, cyclic_table(2))
    assert np.array_equal(im, images)
    assert ref.same_cochain(got, den, psi, 8)
