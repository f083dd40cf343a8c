"""Pointed skeletal categories graded over a base group, and their pentagon
defect 4-cocycles.

The data is a cover group (indexing the simple objects, tensor product =
group multiplication), a surjective grading homomorphism onto a base group,
and a normalized degree-3 associator over Q/Z.  The pentagon identity for the
associator may fail; the failure is the coboundary of the associator, a
4-cochain on the cover.  When that cochain is constant on the fibers of the
grading (and vanishes over base tuples touching the identity) it descends to
a 4-cocycle on the base: the pentagon defect.  The descent condition is a
genuine constraint on the data, so it is checked exhaustively, never assumed.

Three constructions act on skeletons:

  twist           adds the pullback of a base 3-cochain to the associator;
                  the defect moves by exactly the coboundary of that cochain.
  opposite        reverses the tensor product; the defect class negates.
  fiber_product   glues two skeletons over their common base; defect classes
                  add.

The twist law holds entrywise.  The opposite and fiber-product laws are
class-level statements and are only meaningful through class coordinates.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .qz import QZ
from .cochains import (
    Cochain,
    CochainError,
    coboundary_slabs,
    index_to_tuple,
    is_cocycle,
    lcm_denominator,
    pullback,
    zero_cochain,
)
from .groups import FiniteGroup, GroupHom, opposite_group


class DescentError(ValueError):
    """The associator's coboundary is not a function of the grading."""

    def __init__(self, message, first_key, second_key):
        super().__init__(message)
        self.first_key = first_key
        self.second_key = second_key


@dataclass(frozen=True)
class QuasiMonoidalSkeleton:
    """Simple objects = elements of ``cover``; associator a normalized
    3-cochain; ``grading`` a surjection onto ``base``."""

    cover: FiniteGroup
    base: FiniteGroup
    grading: GroupHom
    associator: Cochain

    def __post_init__(self):
        if self.grading.source.table != self.cover.table:
            raise CochainError("grading source differs from the cover group")
        if self.grading.target.table != self.base.table:
            raise CochainError("grading target differs from the base group")
        if not self.grading.is_surjective():
            raise CochainError("grading must be surjective")
        f = self.associator
        if f.group.table != self.cover.table or f.degree != 3 or f.kind != "qz":
            raise CochainError("associator must be a degree-3 Q/Z cochain on the cover")


@dataclass(frozen=True)
class PentagonDefect:
    """A descended defect: a 4-cocycle over Q/Z on the base group."""

    base: FiniteGroup
    cocycle: Cochain

    def __post_init__(self):
        f = self.cocycle
        if f.group.table != self.base.table or f.degree != 4 or f.kind != "qz":
            raise CochainError("defect must be a degree-4 Q/Z cochain on the base")
        if not is_cocycle(f):
            raise CochainError("pentagon defect failed the cocycle identity")


def trivial_skeleton(group: FiniteGroup) -> QuasiMonoidalSkeleton:
    """Cover = base, identity grading, zero associator."""
    return QuasiMonoidalSkeleton(
        group, group, GroupHom.identity(group), zero_cochain(group, 3))


def pentagon_defect(skeleton: QuasiMonoidalSkeleton) -> PentagonDefect:
    """Descend the associator's coboundary through the grading.

    Reads d(psi) one slab of cover 4-tuples (g1, ...) at a time, in
    lexicographic order (tuples touching the cover identity contribute zero
    because the associator is normalized).  Each fiber of the grading must
    carry the value of its first cover tuple, and fibers over base tuples
    touching the base identity must carry zero.  The first violated fiber
    is reported with the two cover tuples that disagree.
    """
    images = skeleton.grading.images
    psi = skeleton.associator
    scale = lcm_denominator(psi)
    tb = skeleton.base.order - 1
    b2, b3, b4 = np.ix_(*[np.asarray(images[1:], dtype=np.int64)] * 3)
    rest = np.where((b2 == 0) | (b3 == 0) | (b4 == 0), -1,
                    ((b2 - 1) * tb + b3 - 1) * tb + b4 - 1).ravel()
    # per base 4-tuple the value its fiber showed first (-1: none yet), and
    # a zero pad that fibers over base tuples touching the identity read
    nu = np.full(tb ** 4 + 1, -1, dtype=np.int64 if scale < 2 ** 63 else object)
    nu[-1] = 0
    for g1, values in enumerate(coboundary_slabs(psi), 1):
        values = values % scale
        b1 = images[g1]
        fiber = np.where((rest >= 0) & (b1 > 0), (b1 - 1) * tb ** 3 + rest, -1)
        unseen = np.flatnonzero(nu[fiber] < 0)
        slots, at = np.unique(fiber[unseen], return_index=True)
        nu[slots] = values[unseen[at]]
        bad = np.flatnonzero(values != nu[fiber])
        if bad.size:
            r = int(bad[0])
            key = (g1,) + index_to_tuple(skeleton.cover.order, 3, r)
            raise _descent_error(images, key, QZ(int(values[r]), scale),
                                 QZ(int(nu[fiber[r]]), scale))
    entries = {index_to_tuple(tb + 1, 4, i): QZ(int(nu[i]), scale)
               for i in np.flatnonzero(nu[:-1]).tolist()}
    return PentagonDefect(skeleton.base, Cochain(skeleton.base, 4, "qz", entries))


def _descent_error(images, key, value, expected) -> DescentError:
    base_key = tuple(images[k] for k in key)
    if 0 in base_key:
        # the same fiber contains the tuple with kernel slots collapsed to
        # the identity, and that one evaluates to zero
        witness = tuple(k if b else 0 for k, b in zip(key, base_key))
        return DescentError(
            "coboundary of the associator does not vanish over base "
            f"tuple {base_key}: cover tuples {witness} -> 0 and "
            f"{key} -> {value}",
            witness, key)
    # the first cover tuple of a fiber takes the smallest preimage per slot
    prior = tuple(images.index(b) for b in base_key)
    return DescentError(
        "coboundary of the associator is not constant over base "
        f"tuple {base_key}: cover tuples {prior} -> {expected} "
        f"and {key} -> {value}",
        prior, key)


def twist(skeleton: QuasiMonoidalSkeleton, twist_cochain: Cochain) -> QuasiMonoidalSkeleton:
    """Add the pullback of a base 3-cochain to the associator."""
    if twist_cochain.group.table != skeleton.base.table:
        raise CochainError("twist cochain must live on the base group")
    if twist_cochain.degree != 3 or twist_cochain.kind != "qz":
        raise CochainError("twist cochain must be a degree-3 Q/Z cochain")
    lifted = pullback(skeleton.grading, twist_cochain)
    return QuasiMonoidalSkeleton(
        skeleton.cover, skeleton.base, skeleton.grading,
        skeleton.associator + lifted)


def opposite(skeleton: QuasiMonoidalSkeleton) -> QuasiMonoidalSkeleton:
    """Reverse the tensor product.

    The opposite cover has multiplication a*b := ba.  The original grading,
    followed by inversion in the base, is a homomorphism from the opposite
    cover onto the original base, so defects stay comparable.  The opposite
    associator is (a,b,c) |-> -psi(c,b,a); its defect class is the negative
    of the original (the choice of sign convention is fixed by that law).
    """
    cover_op = opposite_group(skeleton.cover)
    base = skeleton.base
    inv = base.inv_table
    grading_op = GroupHom(
        cover_op, base,
        tuple(inv[skeleton.grading.images[x]] for x in range(cover_op.order)))
    entries = {(a, b, c): -v
               for (c, b, a), v in skeleton.associator.entries.items()}
    associator_op = Cochain(cover_op, 3, "qz", entries)
    return QuasiMonoidalSkeleton(cover_op, base, grading_op, associator_op)


def fiber_product(left: QuasiMonoidalSkeleton,
                  right: QuasiMonoidalSkeleton) -> QuasiMonoidalSkeleton:
    """Glue two skeletons over their shared base.

    The new cover is the subgroup of the direct product where the gradings
    agree, ordered lexicographically; the grading reads the left component;
    associators add.  Defect classes add (class level only).
    """
    if left.base.table != right.base.table:
        raise CochainError("fiber product requires a common base group")
    p, q = left.grading.images, right.grading.images
    pairs = [(a, b)
             for a in range(left.cover.order)
             for b in range(right.cover.order)
             if p[a] == q[b]]
    index = {pair: i for i, pair in enumerate(pairs)}
    lt, rt = left.cover.table, right.cover.table
    table = []
    for (a, b) in pairs:
        row = []
        for (c, d) in pairs:
            prod = (lt[a][c], rt[b][d])
            if prod not in index:    # cannot happen for valid homomorphisms
                raise CochainError(f"fiber product not closed at {(a, b)} * {(c, d)}")
            row.append(index[prod])
        table.append(tuple(row))
    cover = FiniteGroup(
        f"fib({left.cover.name},{right.cover.name})", tuple(table))
    grading = GroupHom(cover, left.base, tuple(p[a] for (a, b) in pairs))
    psi_l, psi_r = left.associator, right.associator
    entries = {}
    for key in product(range(1, cover.order), repeat=3):
        la = tuple(pairs[i][0] for i in key)
        rb = tuple(pairs[i][1] for i in key)
        v = psi_l.value(la) + psi_r.value(rb)
        if v != QZ(0):
            entries[key] = v
    associator = Cochain(cover, 3, "qz", entries)
    return QuasiMonoidalSkeleton(cover, left.base, grading, associator)
