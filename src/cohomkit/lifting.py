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

The primitive solver follows the rational-lift route: lift the pulled-back
cocycle to rational values, correct by an integer 4-cochain with the same
coboundary (one exact integral solve), and contract the remaining rational
cocycle by averaging, which is exact because positive-degree rational
cohomology of a finite group vanishes.  The degree-3 modular solver in the
cohomology module is an independent primitive route used as a cross-check
in the tests; the two attack different linear systems.
"""

from dataclasses import dataclass
from fractions import Fraction

from .qz import QZ
from .cochains import (
    Cochain,
    CochainError,
    coboundary,
    from_int_vector,
    is_cocycle,
    pullback,
    torsion_primitive,
    zero_cochain,
)
from .cohomology import (
    CohomologyGroup,
    SizeBudgetError,
    _bockstein_vector,
    _check_budget,
    class_coordinates,
    compute_cohomology,
    get_elimination,
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
    """A degree-3 cochain on the cover whose coboundary is the pullback.

    Rational-lift route.  The lift of the pullback has an integer
    coboundary (the connecting cocycle); one solve finds an integer
    4-cochain with that same coboundary, exactly, after the averaging
    homotopy closes the modular gap.  Lift minus correction is then a
    rational 4-cocycle, and averaging over the last argument contracts it
    to the primitive.  Everything is exact; the result is checked to
    bound the pullback entrywise.
    """
    if hom.target.table != cocycle.group.table:
        raise CochainError("homomorphism target does not match the cocycle group")
    if cocycle.degree != 4 or cocycle.kind != "qz":
        raise CochainError("primitive solver expects a degree-4 Q/Z cochain")
    cover = hom.source
    lifted = pullback(hom, cocycle)
    if lifted.is_zero():
        # zero is a valid primitive and the canonical deterministic choice
        return zero_cochain(cover, 3)
    if not is_cocycle(lifted):
        raise CochainError("primitive solver expects a cocycle")
    elim = get_elimination(cover, 4)
    connecting = _bockstein_vector(lifted)
    solved = elim.solve(connecting)
    if solved is None:
        raise CochainError("pullback does not bound: choose a better cover")
    correction = from_int_vector(cover, 4, solved)
    mod = elim.modulus
    gap = from_int_vector(cover, 5, connecting) - coboundary(correction)
    deficit = {}
    for key, v in gap.entries.items():
        q, rem = divmod(v, mod)
        if rem:
            raise CochainError("modular solve left a non-divisible gap")
        deficit[key] = q
    if deficit:
        witness = torsion_primitive(Cochain(cover, 5, "int", deficit))
        correction = correction + witness.scale(mod // cover.order)
    rational: dict[tuple[int, ...], Fraction] = {
        key: val.as_fraction() for key, val in lifted.entries.items()}
    for key, val in correction.entries.items():
        s = rational.get(key, Fraction(0)) - val
        if s:
            rational[key] = s
        else:
            rational.pop(key, None)
    # contraction: row sums over the last argument; degree 4 is even, so
    # the primitive is +1/|cover| times the contraction
    acc: dict[tuple[int, ...], Fraction] = {}
    for key, val in rational.items():
        head = key[:-1]
        if 0 in head:
            continue
        s = acc.get(head, Fraction(0)) + val
        if s:
            acc[head] = s
        else:
            acc.pop(head, None)
    scale = Fraction(1, cover.order)
    entries = {}
    for key, val in acc.items():
        q = QZ.from_fraction(val * scale)
        if q:
            entries[key] = q
    primitive = Cochain(cover, 3, "qz", entries)
    if coboundary(primitive) != lifted:
        raise InternalCheckError("primitive does not bound the pullback")
    return primitive


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
