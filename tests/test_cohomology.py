import random
import subprocess
import sys
import textwrap

import pytest

import cohomkit.cohomology as cohomology
from cohomkit.cochains import (
    Cochain,
    CochainError,
    coboundary,
    is_cocycle,
    random_qz_cochain,
    zero_cochain,
)
from cohomkit.cohomology import (
    SIZE_BUDGET_ENV,
    SizeBudgetError,
    class_coordinates,
    clear_caches,
    coboundary_primitive,
    compute_cohomology,
    get_elimination,
    is_coboundary,
    size_budget,
)
from cohomkit.groups import catalog_labels, from_label
from cohomkit.qz import QZ

from _factories import abelian_invariant_factors, commutator_quotient_table
from test_cochains import carry_cocycle


# shape table computed once and cross-checked against the modular pipeline
# and the abelianization oracle elsewhere in the suite; frozen here so any
# regression in either engine trips immediately
KNOWN_SHAPES = {
    "cyclic:1": ([], [], [], []),
    "cyclic:2": ([2], [], [2], []),
    "cyclic:3": ([3], [], [3], []),
    "cyclic:4": ([4], [], [4], []),
    "cyclic:5": ([5], [], [5], []),
    "cyclic:6": ([6], [], [6], []),
    "product:cyclic:2 x cyclic:2": ([2, 2], [2], [2, 2, 2], [2, 2]),
    "sym:3": ([2], [], [6], []),
    "dihedral:4": ([2, 2], [2], [2, 2, 4], [2, 2]),
    "quaternion:8": ([2, 2], [], [8], []),
}


@pytest.mark.parametrize("label", sorted(KNOWN_SHAPES))
def test_known_shapes(label):
    g = from_label(label)
    for degree in (1, 2, 3, 4):
        h = compute_cohomology(g, degree)
        assert h.invariant_factors == KNOWN_SHAPES[label][degree - 1], \
            f"{label} degree {degree}"


def test_abelianization_oracle_small():
    # degree 1 equals the abelianization, computed here by element-order
    # counting on the commutator quotient (no cochain machinery involved)
    for label in catalog_labels(8):
        g = from_label(label)
        expected = abelian_invariant_factors(commutator_quotient_table(g))
        got = compute_cohomology(g, 1).invariant_factors
        assert got == expected, label


def test_describe_and_order():
    d4 = from_label("dihedral:4")
    h3 = compute_cohomology(d4, 3)
    assert h3.describe() == "H^3 = Z/2 + Z/2 + Z/4"
    assert h3.order == 16
    assert not h3.is_trivial()
    h4 = compute_cohomology(from_label("cyclic:6"), 4)
    assert h4.describe() == "H^4 = 0"
    assert h4.order == 1
    assert h4.is_trivial()


def test_degree_validation():
    with pytest.raises(ValueError):
        compute_cohomology(from_label("cyclic:2"), 0)


def test_generator_contract():
    # cyclic:5 and cyclic:6 at degree 3 pin a journal corner: their class
    # images leave group-order multiples on pivotless rows, which the
    # coordinate readout must tolerate
    cases = [("cyclic:4", 3), ("product:cyclic:2 x cyclic:2", 4),
             ("sym:3", 3), ("dihedral:4", 2), ("cyclic:5", 3),
             ("cyclic:6", 3)]
    for label, degree in cases:
        g = from_label(label)
        h = compute_cohomology(g, degree)
        gens = h.generators
        assert len(gens) == len(h.invariant_factors)
        for i, z in enumerate(gens):
            assert z.group.table == g.table and z.degree == degree
            assert is_cocycle(z)
            assert not is_coboundary(z)
            coords = class_coordinates(z, h)
            expected = [0] * len(gens)
            expected[i] = 1
            assert coords == expected
            # the i-th factor annihilates the i-th generator, exactly
            assert is_coboundary(z.scale(h.invariant_factors[i]))
            if h.invariant_factors[i] > 2:
                assert not is_coboundary(z.scale(h.invariant_factors[i] - 1))


def test_class_coordinates_are_linear_and_kill_coboundaries():
    g = from_label("product:cyclic:2 x cyclic:2")
    h = compute_cohomology(g, 4)
    assert h.invariant_factors == [2, 2]
    rng = random.Random(9)
    z1, z2 = h.generators
    b = coboundary(random_qz_cochain(g, 3, rng, 4))
    assert class_coordinates(b, h) == [0, 0]
    assert class_coordinates(z1 + z2, h) == [1, 1]
    assert class_coordinates(z1 + b, h) == [1, 0]
    assert class_coordinates(z1 + z1, h) == [0, 0]
    with pytest.raises(CochainError):
        class_coordinates(random_qz_cochain(g, 4, rng, 4, density=1.0), h)


def test_carry_cocycle_generates():
    # the carry cocycle has maximal order in H^3(cyclic:n)
    for n in (2, 3, 4, 6):
        g = from_label(f"cyclic:{n}")
        h = compute_cohomology(g, 3)
        assert h.invariant_factors == [n]
        (c,) = class_coordinates(carry_cocycle(n), h),
        from math import gcd
        assert gcd(c[0], n) == 1


def test_is_coboundary_low_degrees():
    c2 = from_label("cyclic:2")
    assert is_coboundary(Cochain(c2, 0, "qz", {}))
    chi = Cochain(c2, 1, "qz", {(1,): QZ(1, 2)})
    assert not is_coboundary(chi)
    assert is_coboundary(chi.scale(2))
    with pytest.raises(CochainError):
        is_coboundary(Cochain(c2, 1, "int", {}))


def test_is_coboundary_rejects_non_cocycles():
    g = from_label("cyclic:4")
    rng = random.Random(2)
    f = random_qz_cochain(g, 2, rng, 8, density=1.0)
    assert not is_cocycle(f)
    with pytest.raises(CochainError):
        is_coboundary(f)
    with pytest.raises(ValueError):
        is_coboundary(coboundary(f), method="gaussian")


def test_dual_methods_agree_on_knowns():
    rng = random.Random(17)
    for label in ("cyclic:4", "sym:3", "product:cyclic:2 x cyclic:2"):
        g = from_label(label)
        for degree in (2, 3):
            b = coboundary(random_qz_cochain(g, degree - 1, rng, 6))
            assert is_coboundary(b, "bockstein")
            assert is_coboundary(b, "bounded")
        h = compute_cohomology(g, 3)
        for z in h.generators:
            assert not is_coboundary(z, "bockstein")
            assert not is_coboundary(z, "bounded")


def test_primitive_round_trip():
    rng = random.Random(29)
    for label in ("cyclic:4", "cyclic:6", "sym:3",
                  "product:cyclic:2 x cyclic:2", "dihedral:4"):
        g = from_label(label)
        for degree in (2, 3):
            f = coboundary(random_qz_cochain(g, degree - 1, rng, 8))
            p = coboundary_primitive(f)
            assert p.degree == degree - 1 and p.kind == "qz"
            assert coboundary(p) == f


def test_primitive_rejects_nontrivial_classes():
    g = from_label("cyclic:4")
    with pytest.raises(CochainError):
        coboundary_primitive(carry_cocycle(4))
    rng = random.Random(4)
    with pytest.raises(CochainError):
        coboundary_primitive(random_qz_cochain(g, 3, rng, 8, density=1.0))


def test_size_budget_enforced(monkeypatch):
    monkeypatch.delenv(SIZE_BUDGET_ENV, raising=False)
    assert size_budget() == 161051
    big = from_label("cyclic:16")
    with pytest.raises(SizeBudgetError):
        compute_cohomology(big, 4)
    with pytest.raises(SizeBudgetError):
        get_elimination(big, 4)
    # order 12 at degree 4 sits exactly on the default boundary
    assert (12 - 1) ** 5 == 161051


def test_size_budget_override(monkeypatch):
    clear_caches()
    monkeypatch.setenv(SIZE_BUDGET_ENV, "100")
    assert size_budget() == 100
    with pytest.raises(SizeBudgetError):
        compute_cohomology(from_label("cyclic:6"), 2)  # 125 cells
    compute_cohomology(from_label("cyclic:4"), 2)  # 27 cells, fine
    monkeypatch.setenv(SIZE_BUDGET_ENV, "lots")
    with pytest.raises(SizeBudgetError):
        size_budget()
    clear_caches()


def test_results_are_cached():
    g = from_label("cyclic:5")
    assert compute_cohomology(g, 3) is compute_cohomology(g, 3)
    twin = from_label("cyclic:5")
    assert compute_cohomology(twin, 3) is compute_cohomology(g, 3)


@pytest.mark.parametrize("label", ["dihedral:6", "product:cyclic:2 x cyclic:6"])
def test_order_twelve_generator_contract(label):
    h = compute_cohomology(from_label(label), 3)
    assert h.invariant_factors == [2, 2, 6]
    gens = h.generators
    assert len(gens) == 3
    for i, gen in enumerate(gens):
        assert is_cocycle(gen)
        assert class_coordinates(gen, h) == [int(i == j) for j in range(3)]


def test_exactness_checks_survive_optimized_mode():
    # under -O every assert is stripped; the generator's cocycle check must
    # still raise when the cocycle test is made to fail
    script = textwrap.dedent("""
        import cohomkit.cohomology as cohomology
        from cohomkit import InternalCheckError, from_label

        print("debug", __debug__)
        cohomology.is_cocycle = lambda f: False
        h = cohomology.compute_cohomology(from_label("cyclic:2"), 1)
        try:
            h.generators
        except InternalCheckError as exc:
            print("raised", exc)
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False", "raised generator failed the cocycle check"]


def test_zero_cocycle_needs_no_elimination(monkeypatch):
    # elem:2^4 at degree 4 is over the default budget, so any elimination
    # would raise; zero bounds, with zero as its primitive, without one
    def no_elimination(group, degree):
        pytest.fail("zero cocycle reached get_elimination")

    monkeypatch.delenv(SIZE_BUDGET_ENV, raising=False)
    monkeypatch.setattr(cohomology, "get_elimination", no_elimination)
    zero = zero_cochain(from_label("elem:2^4"), 4)
    assert is_coboundary(zero)
    primitive = coboundary_primitive(zero)
    assert primitive.is_zero()
    assert (primitive.group, primitive.degree, primitive.kind) == (
        zero.group, 3, "qz")


def test_differential_rows_match_the_face_rows():
    # the cross-check's own row builder is the oracle for the primary
    # route's matrix rows, row by row and in ascending row order
    from itertools import product

    from cohomkit.cohomology import differential_rows
    from cohomkit.modular import _face_row

    modulus = 97
    for label in catalog_labels(8):
        g = from_label(label)
        for degree in range(4):
            got = list(differential_rows(g, degree))
            indices = [i for i, _ in got]
            assert indices == sorted(set(indices)), (label, degree)
            expected = {}
            for i, key in enumerate(product(range(1, g.order), repeat=degree + 1)):
                row = _face_row(g, key, modulus)
                if row:
                    expected[i] = row
            assert all(row and all(row.values()) for _, row in got)
            assert {i: {c: v % modulus for c, v in row.items()}
                    for i, row in got} == expected, (label, degree)


def test_class_coordinates_reject_another_groups_cohomology():
    c4 = from_label("cyclic:4")
    f = carry_cocycle(4)
    for other in (compute_cohomology(from_label("cyclic:2"), 3),
                  compute_cohomology(from_label("cyclic:8"), 3),
                  compute_cohomology(c4, 2)):
        with pytest.raises(CochainError):
            class_coordinates(f, other)
    assert class_coordinates(f, compute_cohomology(c4, 3)) == class_coordinates(f)
