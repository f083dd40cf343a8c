"""Realizing degree-4 classes as pentagon defects.

Every class in H^4(G, Q/Z) dies after pulling back along a suitable
surjection p from a cover group: the pullback becomes the coboundary of
some degree-3 cochain, and that cochain, used as an associator over the
cover, is a skeleton whose pentagon defect descends exactly to the class
we started from.

Cover existence is a theorem, but not a constructive one, so the search
here runs over a finite catalog in ascending group order and reports, on
exhaustion, what happened with every candidate.  Failure therefore means
"catalog too small", never "no cover exists".

The associator is the primitive of the pullback from the cohomology
module's one solver (coboundary_primitive): one exact integral solve on the
cover's degree-4 elimination, the same cached elimination that the cover
search's coboundary test replays, then the averaging homotopy, which is
exact because positive-degree rational cohomology of a finite group
vanishes.  The independent check on the cover decision is the modular
bounded-denominator coboundary test, which the tests run on the same
pullbacks.
"""

from dataclasses import dataclass

from .cochains import Cochain, CochainError, is_cocycle, pullback, zero_cochain
from .cohomology import (
    CohomologyGroup,
    SizeBudgetError,
    _check_budget,
    class_coordinates,
    coboundary_primitive,
    compute_cohomology,
    is_coboundary,
)
from .groups import FiniteGroup, GroupHom, catalog_labels, enumerate_surjections, from_label
from .linalg import InternalCheckError
from .skeletons import QuasiMonoidalSkeleton, pentagon_defect, trivial_skeleton

DEFAULT_MAX_COVER = 16


class CoverExhaustionError(RuntimeError):
    """No group in the catalog trivializes the class."""

    def __init__(self, message, reports):
        super().__init__(message)
        self.reports = reports


@dataclass(frozen=True)
class CandidateReport:
    """What happened when one catalog group was tried as a cover."""

    name: str
    order: int
    surjections: int
    outcome: str


@dataclass(frozen=True)
class CoverWitness:
    """Evidence for the selected cover: the trail of candidates and the
    class coordinates of the pulled-back cocycle in the cover's own
    degree-4 cohomology (all zero exactly when the pullback bounds)."""

    reports: tuple[CandidateReport, ...]
    pullback_class: tuple[int, ...]


def default_catalog(max_order: int = DEFAULT_MAX_COVER) -> list[FiniteGroup]:
    return [from_label(label) for label in catalog_labels(max_order)]


def find_cover(base: FiniteGroup, cocycle: Cochain,
               catalog: list[FiniteGroup] | None = None
               ) -> tuple[GroupHom, CoverWitness]:
    """First catalog surjection whose pullback kills the class.

    Scans candidates by ascending group order (catalog sequence breaks
    ties), and inside one candidate by the enumeration order of its
    surjections onto the base, so the result is a deterministic function
    of the catalog.  A cocycle that already bounds gets the identity
    homomorphism without any search.  Candidates of the base's own order
    (whose surjections are isomorphisms) and candidates over the size
    budget are reported without pulling anything back.
    """
    if cocycle.group.table != base.table:
        raise CochainError("cocycle does not live on the base group")
    if cocycle.degree != 4 or cocycle.kind != "qz":
        raise CochainError("cover search expects a degree-4 Q/Z cochain")
    if not is_cocycle(cocycle):
        raise CochainError("cover search expects a cocycle")
    if is_coboundary(cocycle):
        witness = CoverWitness(
            (CandidateReport(base.name, base.order, 1,
                             "cocycle already bounds; identity map selected"),),
            tuple(class_coordinates(cocycle, compute_cohomology(base, 4))))
        return GroupHom.identity(base), witness

    if catalog is None:
        catalog = default_catalog()
    reports: list[CandidateReport] = []
    for candidate in sorted(catalog, key=lambda g: g.order):
        homs = enumerate_surjections(candidate, base)
        outcome = None
        if not homs:
            outcome = "no surjection onto the base"
        elif candidate.order == base.order:
            # a surjection between groups of one order is an isomorphism,
            # and an isomorphism never kills a nonzero class
            outcome = "same order as the base: every surjection is an isomorphism"
        else:
            try:
                _check_budget(candidate, 4)
            except SizeBudgetError as exc:
                outcome = f"size budget exceeded: {exc}"
        if outcome is None:
            for position, hom in enumerate(homs):
                lifted = pullback(hom, cocycle)
                if is_coboundary(lifted):
                    coords = class_coordinates(
                        lifted, compute_cohomology(candidate, 4))
                    if any(coords):
                        raise InternalCheckError(
                            "coboundary with nonzero class coordinates")
                    reports.append(CandidateReport(
                        candidate.name, candidate.order, len(homs),
                        f"selected surjection {position + 1} of {len(homs)}"))
                    return hom, CoverWitness(tuple(reports), tuple(coords))
            outcome = f"class survives all {len(homs)} pullbacks"
        reports.append(CandidateReport(
            candidate.name, candidate.order, len(homs), outcome))
    lines = "\n".join(
        f"  {r.name} (order {r.order}): {r.outcome}" for r in reports)
    raise CoverExhaustionError(
        "no catalog group trivializes the class; candidates tried:\n" + lines,
        tuple(reports))


def solve_primitive(hom: GroupHom, cocycle: Cochain) -> Cochain:
    """A degree-3 cochain on the cover whose coboundary is the pullback."""
    if hom.target.table != cocycle.group.table:
        raise CochainError("homomorphism target does not match the cocycle group")
    if cocycle.degree != 4 or cocycle.kind != "qz":
        raise CochainError("primitive solver expects a degree-4 Q/Z cochain")
    return coboundary_primitive(pullback(hom, cocycle))


def realize(base: FiniteGroup, coordinates, h4: CohomologyGroup | None = None,
            catalog: list[FiniteGroup] | None = None) -> QuasiMonoidalSkeleton:
    """A skeleton over some catalog cover whose defect class is given.

    The class is specified by coordinates against the invariant-factor
    basis of the base's degree-4 cohomology.  The round trip
    class(defect(realize(w))) = w is checked before returning.
    """
    if h4 is None:
        h4 = compute_cohomology(base, 4)
    factors = h4.invariant_factors
    coords = [int(c) for c in coordinates]
    if len(coords) != len(factors):
        raise CochainError(
            f"expected {len(factors)} class coordinates, got {len(coords)}")
    coords = [c % f for c, f in zip(coords, factors)]
    if not any(coords):
        return trivial_skeleton(base)
    target = zero_cochain(base, 4)
    for c, generator in zip(coords, h4.generators):
        if c:
            target = target + generator.scale(c)
    hom, _ = find_cover(base, target, catalog)
    associator = solve_primitive(hom, target)
    skeleton = QuasiMonoidalSkeleton(hom.source, base, hom, associator)
    achieved = class_coordinates(pentagon_defect(skeleton).cocycle, h4)
    if achieved != coords:
        raise InternalCheckError(
            f"defect class {achieved} differs from target {coords}")
    return skeleton
