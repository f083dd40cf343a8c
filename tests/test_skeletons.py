import random
from itertools import product

import pytest

from cohomkit.cochains import (
    Cochain,
    CochainError,
    coboundary,
    coboundary_at,
    pullback,
    random_qz_cochain,
    zero_cochain,
)
from cohomkit.cohomology import class_coordinates, compute_cohomology
from cohomkit.groups import GroupHom, enumerate_surjections, from_label
from cohomkit.qz import QZ
from cohomkit.skeletons import (
    DescentError,
    PentagonDefect,
    QuasiMonoidalSkeleton,
    fiber_product,
    opposite,
    pentagon_defect,
    trivial_skeleton,
    twist,
)

from _factories import random_skeleton
from test_cochains import carry_cocycle

V4 = "product:cyclic:2 x cyclic:2"


def test_constructor_validation():
    c4 = from_label("cyclic:4")
    c2 = from_label("cyclic:2")
    h = GroupHom(c4, c2, (0, 1, 0, 1))
    ok = QuasiMonoidalSkeleton(c4, c2, h, zero_cochain(c4, 3))
    assert ok.cover is c4 and ok.base is c2
    with pytest.raises(CochainError):  # grading not surjective
        QuasiMonoidalSkeleton(c4, c2, GroupHom(c4, c2, (0, 0, 0, 0)),
                              zero_cochain(c4, 3))
    with pytest.raises(CochainError):  # associator on the wrong group
        QuasiMonoidalSkeleton(c4, c2, h, zero_cochain(c2, 3))
    with pytest.raises(CochainError):  # wrong degree
        QuasiMonoidalSkeleton(c4, c2, h, zero_cochain(c4, 2))
    with pytest.raises(CochainError):  # wrong coefficients
        QuasiMonoidalSkeleton(c4, c2, h, zero_cochain(c4, 3, "int"))
    with pytest.raises(CochainError):  # base mismatch
        QuasiMonoidalSkeleton(c4, from_label("cyclic:3"), h, zero_cochain(c4, 3))


def test_defect_validation():
    c3 = from_label("cyclic:3")
    rng = random.Random(1)
    bad = random_qz_cochain(c3, 4, rng, 8, density=1.0)
    from cohomkit.cochains import is_cocycle
    assert not is_cocycle(bad)
    with pytest.raises(CochainError):
        PentagonDefect(c3, bad)
    with pytest.raises(CochainError):  # wrong degree
        PentagonDefect(c3, zero_cochain(c3, 3))


def test_identity_grading_defect_is_plain_coboundary():
    g = from_label("sym:3")
    rng = random.Random(5)
    psi = random_qz_cochain(g, 3, rng, 8)
    sk = QuasiMonoidalSkeleton(g, g, GroupHom.identity(g), psi)
    nu = pentagon_defect(sk)
    assert nu.base is g
    assert nu.cocycle == coboundary(psi)


def test_cocycle_associator_gives_zero_defect():
    for n in (2, 3, 4):
        g = from_label(f"cyclic:{n}")
        sk = QuasiMonoidalSkeleton(g, g, GroupHom.identity(g), carry_cocycle(n))
        assert pentagon_defect(sk).cocycle.is_zero()
    assert pentagon_defect(trivial_skeleton(from_label("sym:3"))).cocycle.is_zero()


def test_floor_associator_descends_to_zero():
    # cover cyclic:4 graded onto cyclic:2; the carry associator's coboundary
    # vanishes, and it vanishes fiberwise, so the descended defect is zero
    c4 = from_label("cyclic:4")
    c2 = from_label("cyclic:2")
    h = GroupHom(c4, c2, (0, 1, 0, 1))
    sk = QuasiMonoidalSkeleton(c4, c2, h, carry_cocycle(4))
    nu = pentagon_defect(sk)
    assert nu.cocycle.is_zero()
    # dense cross-check of the constancy that descent relies on
    fibers = {}
    for key in product(range(1, 4), repeat=4):
        val = coboundary_at(sk.associator, key)
        bkey = tuple(h.images[x] for x in key)
        fibers.setdefault(bkey, set()).add(val)
    assert all(len(vals) == 1 for vals in fibers.values())


def test_random_skeleton_defect_matches_planted_value():
    # the factory plants psi = pullback(mu) + coboundary(rho), so the defect
    # must equal coboundary(mu) on the nose
    rng = random.Random(99)
    for _ in range(12):
        sk, mu = random_skeleton(rng)
        nu = pentagon_defect(sk)
        assert nu.cocycle == coboundary(mu)
        assert nu.cocycle.group.table == sk.base.table


def test_descent_failure_reports_offending_fiber():
    c4 = from_label("cyclic:4")
    c2 = from_label("cyclic:2")
    h = GroupHom(c4, c2, (0, 1, 0, 1))
    # a generic associator does not descend
    rng = random.Random(3)
    for _ in range(10):
        psi = random_qz_cochain(c4, 3, rng, 16, density=1.0)
        sk = QuasiMonoidalSkeleton(c4, c2, h, psi)
        try:
            pentagon_defect(sk)
        except DescentError as err:
            a, b = err.first_key, err.second_key
            assert len(a) == len(b) == 4
            va = coboundary_at(psi, a)
            vb = coboundary_at(psi, b)
            assert va != vb
            assert tuple(h.images[x] if x else 0 for x in a) \
                == tuple(h.images[x] if x else 0 for x in b)
            break
    else:
        pytest.fail("no random associator failed descent")


def test_twist_law_entrywise():
    rng = random.Random(21)
    for _ in range(8):
        sk, _ = random_skeleton(rng)
        lam = random_qz_cochain(sk.base, 3, rng, 8)
        twisted = twist(sk, lam)
        assert twisted.cover is sk.cover
        assert pentagon_defect(twisted).cocycle \
            == pentagon_defect(sk).cocycle + coboundary(lam)


def test_twist_validation():
    sk = trivial_skeleton(from_label("cyclic:2"))
    rng = random.Random(1)
    with pytest.raises(CochainError):
        twist(sk, random_qz_cochain(from_label("cyclic:3"), 3, rng, 4))
    with pytest.raises(CochainError):
        twist(sk, random_qz_cochain(from_label("cyclic:2"), 2, rng, 4))


def test_twist_by_coboundary_fixes_class():
    rng = random.Random(8)
    sk, _ = random_skeleton(rng, cover_label="dihedral:4", base_label=V4)
    base = sk.base
    h4 = compute_cohomology(base, 4)
    before = class_coordinates(pentagon_defect(sk).cocycle, h4)
    lam = coboundary(random_qz_cochain(base, 2, rng, 4))
    after = class_coordinates(pentagon_defect(twist(sk, lam)).cocycle, h4)
    assert before == after


def test_opposite_negates_class_and_is_involutive():
    rng = random.Random(31)
    for _ in range(6):
        sk, _ = random_skeleton(rng, cover_label="dihedral:4", base_label=V4)
        h4 = compute_cohomology(sk.base, 4)
        coords = class_coordinates(pentagon_defect(sk).cocycle, h4)
        op = opposite(sk)
        assert op.base.table == sk.base.table
        coords_op = class_coordinates(pentagon_defect(op).cocycle, h4)
        factors = h4.invariant_factors
        assert coords_op == [(-c) % f for c, f in zip(coords, factors)]
        back = opposite(op)
        assert back.associator == sk.associator
        assert back.grading.images == sk.grading.images
        assert back.cover.table == sk.cover.table


def test_opposite_associator_pointwise():
    rng = random.Random(12)
    sk, _ = random_skeleton(rng, cover_label="cyclic:4", base_label="cyclic:2")
    op = opposite(sk)
    for a, b, c in product(range(1, 4), repeat=3):
        assert op.associator.value((a, b, c)) == -sk.associator.value((c, b, a))


def test_fiber_product_adds_classes():
    rng = random.Random(47)
    base = from_label(V4)
    h4 = compute_cohomology(base, 4)
    for _ in range(5):
        left, _ = random_skeleton(rng, cover_label="dihedral:4", base_label=V4)
        right, _ = random_skeleton(rng, cover_label=V4, base_label=V4)
        prod_sk = fiber_product(left, right)
        assert prod_sk.base.table == base.table
        assert prod_sk.cover.order \
            == sum(1 for a in range(left.cover.order)
                   for b in range(right.cover.order)
                   if left.grading.images[a] == right.grading.images[b])
        cl = class_coordinates(pentagon_defect(left).cocycle, h4)
        cr = class_coordinates(pentagon_defect(right).cocycle, h4)
        cp = class_coordinates(pentagon_defect(prod_sk).cocycle, h4)
        factors = h4.invariant_factors
        assert cp == [(x + y) % f for x, y, f in zip(cl, cr, factors)]


def test_fiber_product_with_trivial_is_neutral():
    rng = random.Random(53)
    sk, mu = random_skeleton(rng, cover_label="dihedral:4", base_label=V4)
    prod_sk = fiber_product(sk, trivial_skeleton(sk.base))
    assert pentagon_defect(prod_sk).cocycle == pentagon_defect(sk).cocycle


def test_fiber_product_base_mismatch():
    a = trivial_skeleton(from_label("cyclic:2"))
    b = trivial_skeleton(from_label("cyclic:3"))
    with pytest.raises(CochainError):
        fiber_product(a, b)


def test_product_with_opposite_bounds():
    # C x op(C) carries class c + (-c) = 0, so its defect is a coboundary
    from cohomkit.cohomology import is_coboundary
    rng = random.Random(61)
    sk, _ = random_skeleton(rng, cover_label=V4, base_label=V4)
    both = fiber_product(sk, opposite(sk))
    assert is_coboundary(pentagon_defect(both).cocycle)


def _pointwise_descent_error(sk):
    """The first descent failure of a per-tuple scan in lexicographic order,
    evaluated with coboundary_at: (message, first_key, second_key)."""
    images = sk.grading.images
    seen = {}
    for key in product(range(1, sk.cover.order), repeat=4):
        value = coboundary_at(sk.associator, key)
        base_key = tuple(images[k] for k in key)
        if 0 in base_key:
            if value:
                witness = tuple(k if b else 0 for k, b in zip(key, base_key))
                return ("coboundary of the associator does not vanish over "
                        f"base tuple {base_key}: cover tuples {witness} -> 0 "
                        f"and {key} -> {value}", witness, key)
            continue
        prior = seen.setdefault(base_key, (value, key))
        if prior[0] != value:
            return ("coboundary of the associator is not constant over base "
                    f"tuple {base_key}: cover tuples {prior[1]} -> {prior[0]} "
                    f"and {key} -> {value}", prior[1], key)
    return None


def test_descent_error_matches_a_pointwise_scan():
    rng = random.Random(17)
    kinds = set()
    for cover_label, base_label in (("cyclic:4", "cyclic:2"),
                                    ("dihedral:4", V4),
                                    ("quaternion:8", "cyclic:2")):
        cover, base = from_label(cover_label), from_label(base_label)
        homs = enumerate_surjections(cover, base)
        for trial in range(7):
            hom = homs[rng.randrange(len(homs))]
            if trial % 2:
                # a descending associator broken at one tuple
                key = tuple(rng.randrange(1, cover.order) for _ in range(3))
                psi = (pullback(hom, random_qz_cochain(base, 3, rng, 4))
                       + Cochain(cover, 3, "qz", {key: QZ(1, 3)}))
            else:
                psi = random_qz_cochain(cover, 3, rng, 6, density=rng.random())
            sk = QuasiMonoidalSkeleton(cover, base, hom, psi)
            expected = _pointwise_descent_error(sk)
            assert expected is not None, (cover_label, trial)
            with pytest.raises(DescentError) as err:
                pentagon_defect(sk)
            got = (str(err.value), err.value.first_key, err.value.second_key)
            assert got == expected, (cover_label, trial)
            kinds.add("vanish" in got[0])
    assert kinds == {True, False}
