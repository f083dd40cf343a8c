import random
from itertools import product

import pytest

from cohomkit.cochains import (
    Cochain,
    CochainError,
    INT_KIND,
    QZ_KIND,
    average_last,
    coboundary,
    coboundary_at,
    cochain_dimension,
    from_int_vector,
    index_to_tuple,
    is_cocycle,
    lcm_denominator,
    pullback,
    qz_from_scaled_vector,
    random_qz_cochain,
    scaled_lift_vector,
    to_int_vector,
    torsion_primitive,
    tuple_to_index,
    zero_cochain,
)
from cohomkit.groups import GroupHom, from_label
from cohomkit.qz import QZ

from _factories import naive_coboundary


def carry_cocycle(n: int) -> Cochain:
    """The classic degree-3 cocycle a * carry(b, c) / n on cyclic:n."""
    g = from_label(f"cyclic:{n}")
    entries = {}
    for a, b, c in product(range(1, n), repeat=3):
        q = QZ(a * ((b + c) // n), n)
        if q:
            entries[(a, b, c)] = q
    return Cochain(g, 3, QZ_KIND, entries)


def test_validation_rejects_bad_entries():
    c3 = from_label("cyclic:3")
    with pytest.raises(CochainError):
        Cochain(c3, 2, QZ_KIND, {(1,): QZ(1, 3)})  # wrong arity
    with pytest.raises(CochainError):
        Cochain(c3, 2, QZ_KIND, {(0, 1): QZ(1, 3)})  # identity slot
    with pytest.raises(CochainError):
        Cochain(c3, 2, QZ_KIND, {(1, 3): QZ(1, 3)})  # out of range
    with pytest.raises(CochainError):
        Cochain(c3, 2, QZ_KIND, {(1, 1): 1})  # int value in qz cochain
    with pytest.raises(CochainError):
        Cochain(c3, 2, INT_KIND, {(1, 1): QZ(1, 3)})
    with pytest.raises(CochainError):
        Cochain(c3, -1, QZ_KIND, {})
    with pytest.raises(CochainError):
        Cochain(c3, 2, "rational", {})


def test_zero_values_are_dropped_and_identity_reads_zero():
    c3 = from_label("cyclic:3")
    f = Cochain(c3, 2, QZ_KIND, {(1, 1): QZ(0), (1, 2): QZ(1, 3)})
    assert set(f.support()) == {(1, 2)}
    assert f.value((1, 1)) == QZ(0)
    assert f.value((0, 2)) == QZ(0)
    assert f.value((1, 2)) == QZ(1, 3)
    assert not f.is_zero()
    assert zero_cochain(c3, 2).is_zero()


def test_module_structure():
    c4 = from_label("cyclic:4")
    rng = random.Random(11)
    f = random_qz_cochain(c4, 2, rng, 8)
    g = random_qz_cochain(c4, 2, rng, 8)
    assert f + g == g + f
    assert (f - g) + g == f
    assert f + (-f) == zero_cochain(c4, 2)
    assert f.scale(3) == f + f + f
    assert f.scale(0).is_zero()
    with pytest.raises(CochainError):
        f + random_qz_cochain(from_label("cyclic:3"), 2, rng, 8)
    with pytest.raises(CochainError):
        f + random_qz_cochain(c4, 3, rng, 8)


def test_frozen_coboundary_degree1_qz():
    c3 = from_label("cyclic:3")
    f = Cochain(c3, 1, QZ_KIND, {(1,): QZ(1, 3)})
    df = coboundary(f)
    assert df.entries == {
        (1, 1): QZ(2, 3),
        (1, 2): QZ(1, 3),
        (2, 1): QZ(1, 3),
        (2, 2): QZ(2, 3),
    }


def test_frozen_coboundary_degree1_int():
    c3 = from_label("cyclic:3")
    f = Cochain(c3, 1, INT_KIND, {(1,): 1})
    df = coboundary(f)
    assert df.entries == {
        (1, 1): 2,
        (1, 2): 1,
        (2, 1): 1,
        (2, 2): -1,
    }


def test_known_cocycles():
    # f(1) = 1/2 on cyclic:2 is a 1-cocycle (a character)
    c2 = from_label("cyclic:2")
    assert is_cocycle(Cochain(c2, 1, QZ_KIND, {(1,): QZ(1, 2)}))
    # the single-entry 3-cochain on cyclic:2 is the carry cocycle
    w = Cochain(c2, 3, QZ_KIND, {(1, 1, 1): QZ(1, 2)})
    assert w == carry_cocycle(2)
    assert is_cocycle(w)
    for n in (3, 4, 5, 6):
        assert is_cocycle(carry_cocycle(n))
    # a generic random cochain is not a cocycle
    rng = random.Random(3)
    f = random_qz_cochain(from_label("cyclic:4"), 2, rng, 8, density=1.0)
    assert not is_cocycle(f)


@pytest.mark.parametrize("label,degree", [
    ("cyclic:4", 1), ("cyclic:4", 2), ("cyclic:4", 3),
    ("sym:3", 1), ("sym:3", 2),
    ("product:cyclic:2 x cyclic:2", 2),
    ("dihedral:4", 2),
])
def test_coboundary_matches_dense_oracle(label, degree):
    g = from_label(label)
    rng = random.Random(degree * 101 + g.order)
    for trial in range(4):
        f = random_qz_cochain(g, degree, rng, 12)
        assert coboundary(f) == naive_coboundary(f)


def test_coboundary_squares_to_zero():
    rng = random.Random(7)
    for label in ("cyclic:5", "sym:3", "dihedral:4",
                  "product:cyclic:2 x cyclic:2"):
        g = from_label(label)
        for degree in (1, 2, 3):
            f = random_qz_cochain(g, degree, rng, 8)
            assert coboundary(coboundary(f)).is_zero()
    # and over int coefficients
    c6 = from_label("cyclic:6")
    f = Cochain(c6, 2, INT_KIND,
                {k: rng.randrange(-5, 6) for k in product(range(1, 6), repeat=2)})
    assert coboundary(coboundary(f)).is_zero()


def test_coboundary_at_agrees_pointwise():
    g = from_label("sym:3")
    rng = random.Random(19)
    f = random_qz_cochain(g, 2, rng, 8)
    df = coboundary(f)
    for key in product(range(g.order), repeat=3):
        assert coboundary_at(f, key) == df.value(key)


def test_pullback_commutes_with_coboundary():
    c4 = from_label("cyclic:4")
    c2 = from_label("cyclic:2")
    h = GroupHom(c4, c2, (0, 1, 0, 1))
    rng = random.Random(23)
    for degree in (1, 2, 3):
        f = random_qz_cochain(c2, degree, rng, 6)
        assert coboundary(pullback(h, f)) == pullback(h, coboundary(f))
    w = Cochain(c2, 3, QZ_KIND, {(1, 1, 1): QZ(1, 2)})
    fw = pullback(h, w)
    assert fw.entries == {key: QZ(1, 2)
                          for key in product((1, 3), repeat=3)}
    assert is_cocycle(fw)


def test_pullback_requires_matching_group():
    c4 = from_label("cyclic:4")
    c2 = from_label("cyclic:2")
    h = GroupHom(c4, c2, (0, 1, 0, 1))
    f = Cochain(c4, 1, QZ_KIND, {(1,): QZ(1, 4)})
    with pytest.raises(CochainError):
        pullback(h, f)


def test_torsion_primitive_law():
    # for any cocycle z (manufactured as z = dg, plus the carry cocycles):
    # d(torsion_primitive(z)) = |G| * z
    rng = random.Random(31)
    cases = []
    for label in ("cyclic:4", "sym:3", "product:cyclic:2 x cyclic:2"):
        g = from_label(label)
        for degree in (1, 2):
            cases.append(coboundary(random_qz_cochain(g, degree, rng, 8)))
    cases.extend(carry_cocycle(n) for n in (2, 3, 4))
    for z in cases:
        w = torsion_primitive(z)
        assert coboundary(w) == z.scale(z.group.order)


def test_average_last_rejects_degree0():
    g = from_label("cyclic:2")
    with pytest.raises(CochainError):
        average_last(Cochain(g, 0, QZ_KIND, {}))


def test_index_round_trip():
    for order in (2, 3, 5):
        for degree in (1, 2, 3):
            dim = cochain_dimension(order, degree)
            assert dim == (order - 1) ** degree
            seen = set()
            for key in product(range(1, order), repeat=degree):
                idx = tuple_to_index(order, key)
                assert 0 <= idx < dim
                assert index_to_tuple(order, degree, idx) == key
                seen.add(idx)
            assert len(seen) == dim


def test_int_vector_round_trip():
    g = from_label("cyclic:4")
    f = Cochain(g, 2, INT_KIND, {(1, 2): 5, (3, 3): -2})
    vec = to_int_vector(f)
    assert from_int_vector(g, 2, vec) == f
    assert to_int_vector(f, scale=3) == {i: 3 * v for i, v in vec.items()}
    with pytest.raises(CochainError):
        to_int_vector(Cochain(g, 2, QZ_KIND, {}))


def test_scaled_lift_vector():
    g = from_label("cyclic:4")
    f = Cochain(g, 2, QZ_KIND, {(1, 1): QZ(1, 2), (2, 3): QZ(3, 4)})
    vec = scaled_lift_vector(f, 8)
    assert vec == {tuple_to_index(4, (1, 1)): 4, tuple_to_index(4, (2, 3)): 6}
    assert qz_from_scaled_vector(g, 2, vec, 8) == f
    with pytest.raises(CochainError):
        scaled_lift_vector(f, 2)  # 2 does not clear the /4 entry
    assert lcm_denominator(f) == 4
    assert lcm_denominator(zero_cochain(g, 2)) == 1


def test_random_cochain_respects_denominator():
    g = from_label("cyclic:5")
    rng = random.Random(41)
    f = random_qz_cochain(g, 2, rng, 6, density=0.7)
    assert all(6 % v.den == 0 for v in f.entries.values())
    assert all(all(1 <= i < 5 for i in k) for k in f.support())
    with pytest.raises(CochainError):
        random_qz_cochain(g, 2, rng, 0)


def test_coboundary_is_exact_beyond_int64():
    # the slab kernel sums in int64 only while (degree+2) * max(|value|, N)
    # stays below 2^63; past that it must fall back to exact integers
    # rather than wrap or raise
    g = from_label("cyclic:3")
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    keys = list(product(range(1, 3), repeat=3))
    cases = [
        Cochain(g, 2, INT_KIND, {k: 2 ** 62 for k in product(range(1, 3), repeat=2)}),
        Cochain(g, 2, INT_KIND, {(1, 1): 2 ** 70, (1, 2): -(2 ** 70) + 3}),
        Cochain(g, 3, QZ_KIND, {k: QZ(1, primes[2 * i] * primes[2 * i + 1])
                                for i, k in enumerate(keys)}),
    ]
    assert lcm_denominator(cases[2]) >= 2 ** 63
    for f in cases:
        df = coboundary(f)
        assert df.degree == f.degree + 1 and df.kind == f.kind
        for key in product(range(1, 3), repeat=f.degree + 1):
            assert df.value(key) == coboundary_at(f, key), (f, key)
        assert not df.is_zero()
