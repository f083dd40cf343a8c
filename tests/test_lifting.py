import random
from itertools import product

import pytest

from cohomkit.cochains import (
    CochainError,
    coboundary,
    is_cocycle,
    pullback,
    random_qz_cochain,
    zero_cochain,
)
from cohomkit.cohomology import (
    SIZE_BUDGET_ENV,
    class_coordinates,
    coboundary_primitive,
    compute_cohomology,
    is_coboundary,
)
from cohomkit.groups import enumerate_surjections, from_label
import cohomkit.lifting as lifting
from cohomkit.lifting import (
    CoverExhaustionError,
    default_catalog,
    find_cover,
    realize,
    solve_primitive,
)
from cohomkit.skeletons import pentagon_defect

V4 = "product:cyclic:2 x cyclic:2"


def v4_h4():
    return compute_cohomology(from_label(V4), 4)


def test_default_catalog_is_ordered_and_bounded():
    cat = default_catalog(12)
    assert all(g.order <= 12 for g in cat)
    orders = [g.order for g in cat]
    assert orders == sorted(orders)
    assert len(cat) == 46


def test_find_cover_input_validation():
    base = from_label(V4)
    rng = random.Random(1)
    with pytest.raises(CochainError):
        find_cover(base, zero_cochain(from_label("cyclic:2"), 4))
    with pytest.raises(CochainError):
        find_cover(base, zero_cochain(base, 3))
    bad = random_qz_cochain(base, 4, rng, 8, density=1.0)
    assert not is_cocycle(bad)
    with pytest.raises(CochainError):
        find_cover(base, bad)


def test_trivial_class_takes_identity_fast_path():
    base = from_label(V4)
    rng = random.Random(7)
    f = coboundary(random_qz_cochain(base, 3, rng, 4))
    hom, witness = find_cover(base, f)
    assert hom.source.table == base.table
    assert hom.images == tuple(range(4))
    assert len(witness.reports) == 1
    assert "identity map selected" in witness.reports[0].outcome


def test_klein_four_cover_fixture():
    # all three nonzero classes of H^4(V4) pull back to coboundaries along
    # the first dihedral:4 surjection; this output is deterministic, so pin it
    base = from_label(V4)
    h4 = v4_h4()
    assert h4.invariant_factors == [2, 2]
    for coords in ((1, 0), (0, 1), (1, 1)):
        target = zero_cochain(base, 4)
        for c, g in zip(coords, h4.generators):
            if c:
                target = target + g.scale(c)
        hom, witness = find_cover(base, target)
        assert hom.source.name == "dihedral:4"
        assert hom.source.order == 8
        assert hom.images == (0, 1, 0, 1, 2, 3, 2, 3)
        assert tuple(witness.pullback_class) == (0,) * len(
            compute_cohomology(hom.source, 4).invariant_factors)
        # every candidate strictly smaller than the winner was reported
        names = [r.name for r in witness.reports]
        assert names[-1] == "dihedral:4"
        assert "selected surjection 1 of 6" in witness.reports[-1].outcome
        for r in witness.reports[:-1]:
            assert r.order <= 8
            assert "selected" not in r.outcome


def test_exhaustion_reports_every_candidate():
    base = from_label(V4)
    h4 = v4_h4()
    target = h4.generators[0]
    # catalog truncated below the smallest workable cover
    small = [g for g in default_catalog(6)]
    with pytest.raises(CoverExhaustionError) as err:
        find_cover(base, target, catalog=small)
    reports = err.value.reports
    assert len(reports) == len(small)
    assert all(r.outcome != "" for r in reports)


def test_solve_primitive_bounds_the_pullback():
    base = from_label(V4)
    h4 = v4_h4()
    for coords in ((1, 0), (0, 1), (1, 1)):
        target = zero_cochain(base, 4)
        for c, g in zip(coords, h4.generators):
            if c:
                target = target + g.scale(c)
        hom, _ = find_cover(base, target)
        lifted = pullback(hom, target)
        psi = solve_primitive(hom, target)
        assert psi.group.table == hom.source.table
        assert psi.degree == 3 and psi.kind == "qz"
        assert coboundary(psi) == lifted
        # solve_primitive is coboundary_primitive of the pullback, so this
        # runs the same cached solve twice: it pins that the two calls
        # agree, and is no independent witness
        other = coboundary_primitive(lifted)
        assert coboundary(other) == lifted
        assert is_cocycle(psi - other)
        # the independent decision: the modular route's bounded test
        assert is_coboundary(lifted, method="bounded")


def test_solve_primitive_zero_input():
    base = from_label(V4)
    hom, _ = find_cover(base, zero_cochain(base, 4))
    psi = solve_primitive(hom, zero_cochain(base, 4))
    assert psi.is_zero() and psi.degree == 3


def test_solve_primitive_rejects_unkilled_class():
    from cohomkit.groups import GroupHom
    base = from_label(V4)
    h4 = v4_h4()
    ident = GroupHom.identity(base)
    with pytest.raises(CochainError):
        solve_primitive(ident, h4.generators[0])


def test_realize_round_trip_all_classes():
    base = from_label(V4)
    h4 = v4_h4()
    for coords in product(range(2), repeat=2):
        sk = realize(base, coords, h4)
        assert sk.base.table == base.table
        assert sk.cover.order <= 16
        nu = pentagon_defect(sk)
        assert class_coordinates(nu.cocycle, h4) == list(coords)
        if not any(coords):
            assert sk.cover.table == base.table
            assert nu.cocycle.is_zero()


def test_realize_validates_coordinates():
    base = from_label(V4)
    with pytest.raises(CochainError):
        realize(base, (1,))
    with pytest.raises(CochainError):
        realize(base, (1, 0, 0))
    # values reduce mod the factors
    sk = realize(base, (2, 2))
    assert sk.cover.table == base.table


def test_realize_on_vanishing_group():
    base = from_label("cyclic:6")
    sk = realize(base, ())
    assert pentagon_defect(sk).cocycle.is_zero()


def _record_pullbacks(monkeypatch):
    pulled = []

    def recording(hom, f):
        pulled.append(hom.source.name)
        return pullback(hom, f)
    monkeypatch.setattr(lifting, "pullback", recording)
    return pulled


def test_over_budget_candidate_never_reaches_pullback(monkeypatch):
    base = from_label(V4)
    target = v4_h4().generators[0]
    pulled = _record_pullbacks(monkeypatch)
    # the base needs 3^5 = 243 cells at degree 4, dihedral:4 needs 7^5
    monkeypatch.setenv(SIZE_BUDGET_ENV, "1000")
    with pytest.raises(CoverExhaustionError) as err:
        find_cover(base, target, catalog=[from_label("dihedral:4")])
    (report,) = err.value.reports
    assert report.surjections == 6
    assert report.outcome.startswith("size budget exceeded")
    assert pulled == []


def test_same_order_candidates_are_not_pulled_back(monkeypatch):
    base = from_label(V4)
    target = v4_h4().generators[0]
    pulled = _record_pullbacks(monkeypatch)
    with pytest.raises(CoverExhaustionError) as err:
        find_cover(base, target,
                   catalog=[from_label("cyclic:4"), from_label(V4)])
    cyclic, klein = err.value.reports
    assert (cyclic.surjections, cyclic.outcome) == (
        0, "no surjection onto the base")
    assert (klein.surjections, klein.outcome) == (
        6, "same order as the base: every surjection is an isomorphism")
    assert pulled == []


def test_cover_decision_matches_the_bounded_oracle():
    # the modular bounded-denominator test decides exactness on its own
    # linear system; on every order-8 pullback of every nonzero class of
    # H^4(V4) it must agree with the test the cover search runs
    base = from_label(V4)
    h4 = v4_h4()
    outcomes = []
    for coords in ((1, 0), (0, 1), (1, 1)):
        target = zero_cochain(base, 4)
        for c, g in zip(coords, h4.generators):
            if c:
                target = target + g.scale(c)
        for label in ("dihedral:4", "quaternion:8",
                      "product:cyclic:2 x cyclic:4"):
            for hom in enumerate_surjections(from_label(label), base):
                lifted = pullback(hom, target)
                bounds = is_coboundary(lifted)
                assert bounds == is_coboundary(lifted, "bounded"), (
                    label, coords, hom.images)
                outcomes.append(bounds)
    # both answers occur, so the agreement is not vacuous
    assert len(outcomes) == 54
    assert 0 < sum(outcomes) < len(outcomes)


def test_solve_primitive_witnesses_bound_pointwise():
    # each witness is checked at every cover 4-tuple with the pointwise
    # coboundary, which shares no code with the slab kernel behind the
    # solver's matrix and its own primitive check
    from cohomkit.cochains import coboundary_at

    base = from_label(V4)
    h4 = v4_h4()
    for coords in ((1, 0), (0, 1), (1, 1)):
        target = zero_cochain(base, 4)
        for c, g in zip(coords, h4.generators):
            if c:
                target = target + g.scale(c)
        hom, _ = find_cover(base, target)
        lifted = pullback(hom, target)
        psi = solve_primitive(hom, target)
        assert not lifted.is_zero()
        for key in product(range(1, hom.source.order), repeat=4):
            assert coboundary_at(psi, key) == lifted.value(key), (coords, key)
