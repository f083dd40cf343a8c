"""Group cohomology with circle-group coefficients, computed exactly.

Coefficients live in Q/Z with the trivial group action.  Everything is
reduced to integer linear algebra through the connecting isomorphism
H^n(G, Q/Z) ~ torsion of H^{n+1}(G, Z) for n >= 1: the torsion of the
integral cohomology in degree n+1 is read off the invariant factors of the
single integer coboundary matrix C^n(G, Z) -> C^{n+1}(G, Z) on normalized
cochains, because the image of that matrix sits inside the (saturated)
integral cocycle lattice and every class is killed by |G|.

One journaled elimination engine (sweep module) does the linear algebra.
It clears the unit pivots in a few batched sweeps, hands the small
unit-free residue to the exact Smith reducer (linalg module), and records
both as replayable journals, which power

  * cokernel vectors   -> explicit generating cocycles,
  * forward replay     -> coordinates of an arbitrary cocycle,
  * integral solves    -> coboundary tests and primitives.

One cached elimination per (group, degree) serves the invariant factors
and every replay.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .cochains import (
    Cochain,
    CochainError,
    coboundary,
    cochain_dimension,
    divided_coboundary,
    face_slabs,
    from_int_vector,
    is_cocycle,
    lcm_denominator,
    qz_from_scaled_vector,
    scaled_lift_vector,
    torsion_primitive,
    zero_cochain,
)
from .groups import FiniteGroup
from .linalg import InternalCheckError
from .qz import QZ
from .sweep import SweepElimination

DEFAULT_SIZE_BUDGET = 161051
SIZE_BUDGET_ENV = "COHOMKIT_SIZE_BUDGET"


class SizeBudgetError(RuntimeError):
    """Raised when a requested computation exceeds the cochain size budget."""


def size_budget() -> int:
    raw = os.environ.get(SIZE_BUDGET_ENV)
    if raw is None:
        return DEFAULT_SIZE_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise SizeBudgetError(f"invalid {SIZE_BUDGET_ENV} value: {raw!r}")


def differential_rows(group: FiniteGroup, degree: int):
    """Rows of the integer coboundary matrix C^degree -> C^{degree+1}.

    Rows are indexed by non-identity (degree+1)-tuples in lexicographic
    order, columns by degree-tuples; the entries are read off face_slabs.
    Yields (row_index, {col: coeff}) in ascending row order, skipping
    empty rows.
    """
    row_index = 0
    for faces in face_slabs(group, degree):
        signs = [sign for sign, _ in faces]
        for cols in np.stack([index for _, index in faces], axis=1).tolist():
            row: dict[int, int] = {}
            for c, sign in zip(cols, signs):
                if c >= 0:
                    row[c] = row.get(c, 0) + sign
            row = {c: v for c, v in row.items() if v}
            if row:
                yield row_index, row
            row_index += 1


_elim_cache: dict[tuple, SweepElimination] = {}
_cohomology_cache: dict[tuple, "CohomologyGroup"] = {}


def clear_caches() -> None:
    _elim_cache.clear()
    _cohomology_cache.clear()


def get_elimination(group: FiniteGroup, degree: int) -> SweepElimination:
    """Elimination of the coboundary matrix out of degree `degree`.

    The elimination runs mod |G|^2: every interesting invariant factor
    divides |G| (the averaging identity kills the torsion by |G|), so factors
    survive the reduction and stay distinguishable from free summands, while
    all arithmetic stays on small bounded residues.
    """
    key = (group.cache_key(), degree)
    elim = _elim_cache.get(key)
    if elim is None:
        _check_budget(group, degree)
        nrows = cochain_dimension(group.order, degree + 1)
        ncols = cochain_dimension(group.order, degree)
        # max() keeps the trivial group legal; its matrices are empty anyway
        elim = SweepElimination(nrows, ncols, modulus=max(group.order ** 2, 2))
        for i, entries in differential_rows(group, degree):
            elim.add_row(i, entries)
        elim.run()
        _elim_cache[key] = elim
    return elim


@dataclass
class CohomologyGroup:
    group: FiniteGroup
    degree: int
    invariant_factors: list[int]
    _generators: list[Cochain] | None = field(default=None, repr=False)

    @property
    def order(self) -> int:
        out = 1
        for f in self.invariant_factors:
            out *= f
        return out

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def describe(self) -> str:
        if not self.invariant_factors:
            return f"H^{self.degree} = 0"
        parts = " + ".join(f"Z/{f}" for f in self.invariant_factors)
        return f"H^{self.degree} = {parts}"

    @property
    def elimination(self) -> SweepElimination:
        """The journaled elimination behind coordinates and generators."""
        return get_elimination(self.group, self.degree)

    @property
    def generators(self) -> list[Cochain]:
        """Explicit generating cocycles, one per invariant factor.

        Built on first access; the i-th generator has the i-th unit vector
        as its class coordinates.
        """
        if self._generators is None:
            self._generators = _build_generators(self)
        return self._generators


def _check_budget(group: FiniteGroup, degree: int) -> None:
    cells = cochain_dimension(group.order, degree + 1)
    budget = size_budget()
    if cells > budget:
        raise SizeBudgetError(
            f"degree-{degree} computation for a group of order {group.order} "
            f"needs {cells} cells, over the budget of {budget} "
            f"(override with {SIZE_BUDGET_ENV})")


def compute_cohomology(group: FiniteGroup, degree: int) -> CohomologyGroup:
    """H^degree(group, Q/Z), invariant factors in ascending divisibility order.

    Factors are computed eagerly; generating cocycles are built on first
    use, from the same cached elimination.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    key = (group.cache_key(), degree)
    cached = _cohomology_cache.get(key)
    if cached is not None:
        return cached
    _check_budget(group, degree)
    elim = get_elimination(group, degree)
    factors = elim.nontrivial_factors()
    for f in factors:
        # torsion beyond the group order means a free summand leaked through
        # the torsion-only reduction: a bug, never a valid answer
        if group.order % f:
            raise InternalCheckError(
                f"invariant factor {f} does not divide the group order")
    result = CohomologyGroup(group, degree, factors)
    _cohomology_cache[key] = result
    return result


def _build_generators(cohomology: CohomologyGroup) -> list[Cochain]:
    group = cohomology.group
    degree = cohomology.degree
    elim = get_elimination(group, degree)
    pivots = elim.nontrivial_pivots()
    generators = []
    for r, c, s in pivots:
        # the column transform turns the pivot relation around: with
        # x = V e_c we get D x = s * (U^-1 e_r) up to the working modulus,
        # so x / gcd(s, M), twisted by the unit s/gcd, is a cocycle whose
        # class has this pivot's unit coordinate vector
        x = elim.apply_col_transform({c: 1})
        denom = elim.pivot_factor(s)
        unit = pow((s // denom) % denom, -1, denom) if denom > 1 else 1
        vec = {j: (v * unit) % denom for j, v in x.items() if (v * unit) % denom}
        gen = qz_from_scaled_vector(group, degree, vec, denom)
        # identity witnesses: the generator is a cocycle and |G| times its
        # integral image bounds, which certifies the torsion-only reduction
        if not is_cocycle(gen):
            raise InternalCheckError("generator failed the cocycle check")
        zc = from_int_vector(group, degree + 1, _bockstein_vector(gen))
        w = torsion_primitive(zc)
        if coboundary(w) != zc.scale(group.order):
            raise InternalCheckError("averaging identity failed on a generator")
        generators.append(gen)
    for i, gen in enumerate(generators):
        coords = class_coordinates(gen, cohomology)
        expected = [1 if j == i else 0 for j in range(len(generators))]
        if coords != expected:
            raise InternalCheckError("generator coordinates are not unit vectors")
    return generators


def _bockstein_vector(f: Cochain) -> dict[int, int]:
    """Integer vector of the connecting cocycle d(lift f), indexed over
    (degree+1)-tuples: the slabs of d(N * lift f) divided by N, with N the
    common denominator."""
    if f.kind != "qz":
        raise CochainError("connecting map needs circle-valued cochains")
    z = divided_coboundary(f, lcm_denominator(f))
    if z is None:
        raise CochainError("cochain is not a cocycle: lift coboundary "
                           "is non-integral")
    return z


def class_coordinates(f: Cochain, cohomology: CohomologyGroup | None = None
                      ) -> list[int]:
    """Coordinates of a cocycle's class in the invariant-factor basis.

    The i-th coordinate is reduced modulo the i-th invariant factor, and the
    i-th generator from compute_cohomology maps to the i-th unit vector.
    Raises if f is not a cocycle.
    """
    if not is_cocycle(f):
        raise CochainError("class coordinates are only defined for cocycles")
    if cohomology is None:
        cohomology = compute_cohomology(f.group, f.degree)
    elif (cohomology.group.table, cohomology.degree) != (f.group.table, f.degree):
        raise CochainError("cohomology group is for another group or degree")
    elim = cohomology.elimination
    z = _bockstein_vector(f)
    y = elim.apply_row_transform(z)
    pivot_value = {r: s for r, _, s in elim.pivots}
    coords = []
    for r, _, s in elim.nontrivial_pivots():
        v = y.pop(r, 0)
        coords.append(v % elim.pivot_factor(s))
    order = f.group.order
    for r, v in y.items():
        if not v:
            continue
        s = pivot_value.get(r)
        # a pivotless row spans a free direction of the cokernel; over the
        # integers |G|*z is a coboundary (averaging identity), and its
        # transformed image vanishes there mod |G|^2, so a genuine cocycle
        # can leave at most a multiple of the group order
        bound = elim.pivot_factor(s) if s is not None else order
        if v % bound:
            raise InternalCheckError(
                "cocycle image escapes the coboundary lattice")
    return coords


def is_coboundary(f: Cochain, method: str = "bockstein") -> bool:
    """Exact coboundary test for a circle-valued cochain.

    method="bockstein": checks that the integral connecting cocycle of f
    lies in the image of the integer coboundary matrix (journal replay).
    method="bounded": independent route through a single modular solve with
    a denominator bound; see the modular module.
    """
    if f.kind != "qz":
        raise CochainError("coboundary test expects circle-valued cochains")
    if method == "bounded":
        from .modular import is_coboundary_bounded
        return is_coboundary_bounded(f)
    if method != "bockstein":
        raise ValueError(f"unknown method {method!r}")
    if f.degree == 0:
        return f.is_zero()
    if not is_cocycle(f):
        raise CochainError("coboundary test expects a cocycle")
    if f.degree == 1 or f.is_zero():
        # zero bounds; with the trivial action the degree-0 coboundary map
        # vanishes, so nothing else bounds in degree 1
        return f.is_zero()
    elim = get_elimination(f.group, f.degree)
    return elim.solvable(_bockstein_vector(f))


def coboundary_primitive(f: Cochain) -> Cochain:
    """A circle-valued g with dg = f, for f an exact cocycle.

    Strategy: one solve pulls the connecting cocycle z back to an integer
    cochain u with du = z exactly.  A modular journal only gives du = z up to
    a multiple M*w, but w is then an integer cocycle and the averaging
    homotopy produces the missing primitive of M*w, closing the gap.  Once u
    is exact, N*lift(f) - N*u is an integer cocycle (N the common
    denominator of f), and averaging it gives a primitive of |G| times it;
    read over the denominator N*|G|, that primitive is g.  No rounding
    anywhere.
    """
    group = f.group
    n = f.degree
    if n == 0:
        raise CochainError("degree-0 cochains have no primitives")
    if not is_cocycle(f):
        raise CochainError("primitive requested for a non-cocycle")
    if f.is_zero():
        return zero_cochain(group, n - 1)
    elim = get_elimination(group, n)
    z = _bockstein_vector(f)
    x = elim.solve(z)
    if x is None:
        raise CochainError("cochain is not a coboundary")
    # F = N*lift(f) - N*u, with u read off x, has dF = N*(z - du) = N*M*w
    scale = lcm_denominator(f)
    mod = scale * elim.modulus
    big_f = (from_int_vector(group, n, scaled_lift_vector(f, scale))
             - from_int_vector(group, n, x).scale(scale))
    w = divided_coboundary(big_f, mod)
    if w is None:
        raise CochainError("modular solve left a non-divisible gap")
    w = torsion_primitive(from_int_vector(group, n + 1, w))
    h = torsion_primitive(big_f - w.scale(mod // group.order))
    denominator = scale * group.order
    g = Cochain(group, n - 1, "qz",
                {key: QZ(v, denominator) for key, v in h.entries.items()})
    if coboundary(g) != f:
        raise InternalCheckError("primitive does not bound the cochain")
    return g
