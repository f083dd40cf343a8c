"""Normalized inhomogeneous cochains on a finite group, trivial action.

A degree-n cochain stores a sparse map from n-tuples of non-identity element
indices to values (Q/Z or Z); tuples containing the identity read as zero and
are never stored.  The coboundary is

    (df)(g1, ..., g_{n+1}) = f(g2, ..., g_{n+1})
        + sum_{i=1..n} (-1)^i f(g1, ..., g_i*g_{i+1}, ..., g_{n+1})
        + (-1)^{n+1} f(g1, ..., g_n)

with any argument tuple containing the identity contributing zero; on the
normalized subcomplex this closes, so results stay normalized.

face_slabs encodes these faces and signs once, as index arrays with one slab
of (n+1)-tuples per first argument.  coboundary, the cohomology module's
matrix rows and Bockstein vectors, the cross-check's relation columns and
pentagon descent all read it, one slab at a time.  coboundary_at evaluates
one tuple straight off the formula: the pointwise reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import lcm
from typing import Mapping, Union

import numpy as np

from .groups import FiniteGroup, GroupHom
from .qz import QZ

QZ_KIND = "qz"
INT_KIND = "int"
Value = Union[QZ, int]


class CochainError(ValueError):
    pass


@dataclass(frozen=True)
class Cochain:
    group: FiniteGroup
    degree: int
    kind: str
    entries: Mapping[tuple[int, ...], Value] = field(default_factory=dict)

    def __post_init__(self):
        if self.degree < 0:
            raise CochainError("degree must be >= 0")
        if self.kind not in (QZ_KIND, INT_KIND):
            raise CochainError(f"unknown coefficient kind {self.kind!r}")
        order = self.group.order
        clean = {}
        for key, val in self.entries.items():
            key = tuple(key)
            if len(key) != self.degree:
                raise CochainError(f"tuple {key} has arity {len(key)}, degree is {self.degree}")
            for idx in key:
                if not (1 <= idx < order):
                    raise CochainError(f"tuple {key}: index {idx} is the identity or out of range")
            if self.kind == QZ_KIND and not isinstance(val, QZ):
                raise CochainError(f"entry {key}: expected QZ value, got {type(val).__name__}")
            if self.kind == INT_KIND and not isinstance(val, int):
                raise CochainError(f"entry {key}: expected int value, got {type(val).__name__}")
            if val:
                clean[key] = val
        object.__setattr__(self, "entries", clean)

    # -- access --

    def value(self, key: tuple[int, ...]) -> Value:
        zero = QZ(0) if self.kind == QZ_KIND else 0
        if any(i == 0 for i in key):
            return zero
        return self.entries.get(tuple(key), zero)

    def is_zero(self) -> bool:
        return not self.entries

    def support(self):
        return self.entries.keys()

    def _compatible(self, other: "Cochain"):
        if (self.group.table != other.group.table or self.degree != other.degree
                or self.kind != other.kind):
            raise CochainError("cochain mismatch (group, degree, or coefficients)")

    # -- module structure --

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        out = dict(self.entries)
        for key, val in other.entries.items():
            s = out.get(key)
            out[key] = val if s is None else s + val
        return Cochain(self.group, self.degree, self.kind, out)

    def __neg__(self) -> "Cochain":
        return Cochain(self.group, self.degree, self.kind,
                       {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def scale(self, k: int) -> "Cochain":
        return Cochain(self.group, self.degree, self.kind,
                       {key: val * k for key, val in self.entries.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cochain) and self.group.table == other.group.table
                and self.degree == other.degree and self.kind == other.kind
                and self.entries == other.entries)

    def __repr__(self):
        return (f"Cochain({self.group.name}, degree={self.degree}, kind={self.kind}, "
                f"nnz={len(self.entries)})")


def zero_cochain(group: FiniteGroup, degree: int, kind: str = QZ_KIND) -> Cochain:
    return Cochain(group, degree, kind, {})


def face_slabs(group: FiniteGroup, degree: int):
    """The faces and signs of the differential out of C^degree, one slab per
    first argument, as every differential in the package reads them.

    For g1 = 1, ..., order-1 yields a list of (sign, index) pairs, one per
    face in the order of the formula above.  index[r] is the tuple_to_index
    of that face of the r-th tuple (g1, ...) in lexicographic order, or -1
    where the face touches the identity; a vector padded with one trailing
    zero answers those entries with zero.
    """
    order = group.order
    t = order - 1
    table = np.asarray(group.table)
    weights = [t ** (degree - 1 - j) for j in range(degree)]
    rest = list(np.ix_(*[np.arange(1, order)] * degree))

    def index(face):
        idx = sum((x - 1) * w for x, w in zip(face, weights))
        hole = sum(x == 0 for x in face)
        return np.broadcast_to(np.where(hole, -1, idx), (t,) * degree).ravel()

    for g1 in range(1, order):
        x = [g1] + rest
        faces = [x[1:]]
        faces += [x[:i - 1] + [table[x[i - 1], x[i]]] + x[i + 1:]
                  for i in range(1, degree + 1)]
        faces.append(x[:degree])
        yield [((-1) ** i, index(face)) for i, face in enumerate(faces)]


def coboundary_slabs(f: Cochain):
    """d(N * lift f), one array per first argument g1 = 1, 2, ... in the
    order of face_slabs, with N = lcm_denominator(f) for a Q/Z cochain (lift
    in [0, 1)) and 1 for an int one.

    Each slab is a gather-and-sum of the dense numerator vector, which is
    filled straight from the entries.  Sums stay in int64 while
    (degree+2) * max(|value|, N) is below 2^63, and are exact Python ints
    (dtype=object) beyond.
    """
    order = f.group.order
    qz = f.kind == QZ_KIND
    scale = lcm_denominator(f) if qz else 1
    top = scale if qz else max(map(abs, f.entries.values()), default=0)
    dtype = object if (f.degree + 2) * top >= 2 ** 63 else np.int64
    dense = np.zeros(cochain_dimension(order, f.degree) + 1, dtype=dtype)
    for key, val in f.entries.items():
        dense[tuple_to_index(order, key)] = val.num * (scale // val.den) if qz else val
    for faces in face_slabs(f.group, f.degree):
        yield sum(sign * dense[index] for sign, index in faces)


def _nonzero(slabs):
    """(index, value) of the nonzero entries of consecutive slabs."""
    offset = 0
    for vals in slabs:
        for r in np.flatnonzero(vals).tolist():
            yield offset + r, int(vals[r])
        offset += len(vals)


def divided_coboundary(f: Cochain, divisor: int) -> dict[int, int] | None:
    """d(N * lift f) / divisor as a sparse vector over (degree+1)-tuples (N
    as in coboundary_slabs), or None where some entry is not divisible."""
    out: dict[int, int] = {}
    for i, v in _nonzero(coboundary_slabs(f)):
        out[i], rem = divmod(v, divisor)
        if rem:
            return None
    return out


def coboundary(f: Cochain) -> Cochain:
    """df, read slab by slab from coboundary_slabs, nonzero entries kept."""
    if f.kind == QZ_KIND:
        scale = lcm_denominator(f)
        vec = _nonzero(vals % scale for vals in coboundary_slabs(f))
        return qz_from_scaled_vector(f.group, f.degree + 1, dict(vec), scale)
    return from_int_vector(f.group, f.degree + 1, dict(_nonzero(coboundary_slabs(f))))


def coboundary_at(f: Cochain, key: tuple[int, ...]) -> Value:
    """(df) at one (n+1)-tuple, straight off the formula: the pointwise
    reference that the slab kernel is tested against."""
    g = f.group
    n = f.degree
    if len(key) != n + 1:
        raise CochainError(f"tuple {key} has arity {len(key)}, expected {n + 1}")
    total = f.value(key[1:])
    for i in range(n):
        merged = key[:i] + (g.table[key[i]][key[i + 1]],) + key[i + 2:]
        v = f.value(merged)
        total = total - v if i % 2 == 0 else total + v
    v = f.value(key[:n])
    return total + v if (n + 1) % 2 == 0 else total - v


def is_cocycle(f: Cochain) -> bool:
    return coboundary(f).is_zero()


def pullback(hom: GroupHom, f: Cochain) -> Cochain:
    """(h*f)(g1..gn) = f(h(g1), ..., h(gn)) on the source group."""
    if hom.target.table != f.group.table:
        raise CochainError("pullback target group does not match cochain group")
    preimages: list[list[int]] = [[] for _ in range(hom.target.order)]
    for x in range(1, hom.source.order):
        preimages[hom.images[x]].append(x)
    acc: dict[tuple[int, ...], Value] = {}
    for key, val in f.entries.items():
        fibers = [preimages[t] for t in key]
        if any(not fib for fib in fibers):
            continue
        stack = [()]
        for fib in fibers:
            stack = [partial + (x,) for partial in stack for x in fib]
        for tup in stack:
            acc[tup] = val
    return Cochain(hom.source, f.degree, f.kind, acc)


def average_last(f: Cochain) -> Cochain:
    """Degree-lowering averaging: (af)(g1..g_{n-1}) = sum_h f(g1..g_{n-1}, h).

    For any cocycle z of degree k this satisfies d(af) = (-1)^k |G| z, which is
    the exact torsion witness used throughout the engine.
    """
    if f.degree == 0:
        raise CochainError("cannot average a degree-0 cochain")
    acc: dict[tuple[int, ...], Value] = {}
    for key, val in f.entries.items():
        head = key[:-1]
        s = acc.get(head)
        acc[head] = val if s is None else s + val
    return Cochain(f.group, f.degree - 1, f.kind, acc)


def torsion_primitive(z: Cochain) -> Cochain:
    """A cochain w with dw = |G| * z, valid whenever z is a cocycle."""
    w = average_last(z)
    return w if z.degree % 2 == 0 else -w


def lcm_denominator(f: Cochain) -> int:
    if f.kind != QZ_KIND:
        raise CochainError("denominator lcm only applies to Q/Z cochains")
    n = 1
    for val in f.entries.values():
        n = lcm(n, val.den)
    return n


# -- tuple/index correspondence (lexicographic, identity excluded) --

def tuple_to_index(order: int, key: tuple[int, ...]) -> int:
    base = order - 1
    idx = 0
    for t in key:
        idx = idx * base + (t - 1)
    return idx


def index_to_tuple(order: int, degree: int, idx: int) -> tuple[int, ...]:
    base = order - 1
    out = []
    for _ in range(degree):
        idx, r = divmod(idx, base)
        out.append(r + 1)
    return tuple(reversed(out))


def cochain_dimension(order: int, degree: int) -> int:
    return (order - 1) ** degree


def to_int_vector(f: Cochain, scale: int = 1) -> dict[int, int]:
    """Sparse integer vector of an int cochain (optionally pre-scaled)."""
    if f.kind != INT_KIND:
        raise CochainError("expected an int cochain")
    order = f.group.order
    return {tuple_to_index(order, k): v * scale for k, v in f.entries.items()}


def scaled_lift_vector(f: Cochain, denominator: int) -> dict[int, int]:
    """Integer vector of denominator * (canonical lift of f), lift in [0, 1)."""
    if f.kind != QZ_KIND:
        raise CochainError("expected a Q/Z cochain")
    order = f.group.order
    out = {}
    for key, val in f.entries.items():
        num = val.num * denominator
        if num % val.den:
            raise CochainError("denominator does not clear the cochain")
        out[tuple_to_index(order, key)] = num // val.den
    return out


def from_int_vector(group: FiniteGroup, degree: int, vec: Mapping[int, int]) -> Cochain:
    order = group.order
    return Cochain(group, degree, INT_KIND,
                   {index_to_tuple(order, degree, i): v for i, v in vec.items()})


def qz_from_scaled_vector(group: FiniteGroup, degree: int, vec: Mapping[int, int],
                          denominator: int) -> Cochain:
    """Q/Z cochain with entries vec[i]/denominator mod 1."""
    order = group.order
    entries = {}
    for i, v in vec.items():
        q = QZ(v, denominator)
        if q:
            entries[index_to_tuple(order, degree, i)] = q
    return Cochain(group, degree, QZ_KIND, entries)


def random_qz_cochain(group: FiniteGroup, degree: int, rng,
                      denominator: int, density: float = 0.5) -> Cochain:
    """Random normalized cochain with values in (1/denominator)Z / Z."""
    if denominator < 1:
        raise CochainError("denominator must be >= 1")
    entries = {}
    for key in product(range(1, group.order), repeat=degree):
        if rng.random() >= density:
            continue
        q = QZ(rng.randrange(denominator), denominator)
        if q:
            entries[key] = q
    return Cochain(group, degree, QZ_KIND, entries)
