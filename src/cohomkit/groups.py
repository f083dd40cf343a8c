"""Finite groups as explicit multiplication tables.

Elements are integers 0..order-1 with the identity fixed at index 0.  A small
catalog of standard groups is addressable by label (cyclic:n, dihedral:n,
quaternion:8, sym:3, sym:4, elem:p^k, product:A x B); no isomorphism testing
is offered anywhere, labels and tables are taken at face value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Iterable, Optional, Sequence


class GroupFormatError(ValueError):
    """Raised for malformed labels, tables, or homomorphism data."""


def _validate_table(table: Sequence[Sequence[int]]) -> None:
    n = len(table)
    if n == 0:
        raise GroupFormatError("empty multiplication table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise GroupFormatError(f"row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not (0 <= v < n):
                raise GroupFormatError(f"table entry {v} out of range 0..{n - 1}")
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            raise GroupFormatError("index 0 is not a two-sided identity")
    for i in range(n):
        if len({table[i][j] for j in range(n)}) != n:
            raise GroupFormatError(f"row {i} is not a permutation (no unique inverses)")
        if len({table[j][i] for j in range(n)}) != n:
            raise GroupFormatError(f"column {i} is not a permutation")
    for a in range(n):
        ta = table[a]
        for b in range(n):
            tab = table[ta[b]]
            tb = table[b]
            for c in range(n):
                if tab[c] != ta[tb[c]]:
                    raise GroupFormatError(f"associativity fails at ({a}, {b}, {c})")


@dataclass(frozen=True)
class FiniteGroup:
    """Immutable finite group given by its full multiplication table."""

    name: str
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _validate_table(self.table)

    @staticmethod
    def from_table(name: str, table: Iterable[Iterable[int]]) -> "FiniteGroup":
        return FiniteGroup(name, tuple(tuple(row) for row in table))

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def inv_table(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.table)

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    def elements(self) -> range:
        return range(self.order)

    def cache_key(self) -> tuple:
        """Identity of the group for memoisation, independent of the name."""
        return self.table

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


# -- catalog ------------------------------------------------------------------

def _cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupFormatError(f"cyclic:{n} needs n >= 1")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(f"cyclic:{n}", table)


def _dihedral(n: int) -> FiniteGroup:
    # order 2n; element i + n*j is r^i s^j with s r = r^-1 s
    if n < 2:
        raise GroupFormatError(f"dihedral:{n} needs n >= 2")

    def mul(x, y):
        i, j = x % n, x // n
        k, l = y % n, y // n
        return (i + (k if j == 0 else -k)) % n + n * ((j + l) % 2)

    table = tuple(tuple(mul(x, y) for y in range(2 * n)) for x in range(2 * n))
    return FiniteGroup(f"dihedral:{n}", table)


def _quaternion() -> FiniteGroup:
    # x^a y^b with x^4 = e, y^2 = x^2, y x y^-1 = x^-1; index a + 4b
    def mul(u, v):
        a, b = u % 4, u // 4
        c, d = v % 4, v // 4
        return (a + (c if b == 0 else -c) + 2 * (b * d)) % 4 + 4 * ((b + d) % 2)

    table = tuple(tuple(mul(u, v) for v in range(8)) for u in range(8))
    return FiniteGroup("quaternion:8", table)


def _symmetric(n: int) -> FiniteGroup:
    if not (1 <= n <= 4):
        raise GroupFormatError(f"sym:{n} supported only for n <= 4")
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def mul(u, v):
        p, q = perms[u], perms[v]
        return index[tuple(p[q[i]] for i in range(n))]

    table = tuple(tuple(mul(u, v) for v in range(len(perms))) for u in range(len(perms)))
    return FiniteGroup(f"sym:{n}", table)


def direct_product(a: FiniteGroup, b: FiniteGroup, name: Optional[str] = None) -> FiniteGroup:
    """Direct product with lexicographic element indexing (x, y) -> x*|B| + y."""
    nb = b.order

    def mul(u, v):
        return a.table[u // nb][v // nb] * nb + b.table[u % nb][v % nb]

    order = a.order * nb
    table = tuple(tuple(mul(u, v) for v in range(order)) for u in range(order))
    return FiniteGroup(name or f"product:{a.name} x {b.name}", table)


def _elementary(p: int, k: int) -> FiniteGroup:
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise GroupFormatError(f"elem:{p}^{k}: {p} is not prime")
    if k < 1:
        raise GroupFormatError(f"elem:{p}^{k} needs k >= 1")
    g = _cyclic(p)
    out = g
    for _ in range(k - 1):
        out = direct_product(out, g)
    return FiniteGroup(f"elem:{p}^{k}", out.table)


def from_label(label: str) -> FiniteGroup:
    """Resolve a catalog label to a concrete group."""
    label = label.strip()
    if label.startswith("product:"):
        body = body_full = label[len("product:"):]
        # split on ' x ' at the first point where both halves parse
        pos = body_full.find(" x ")
        while pos != -1:
            left, right = body_full[:pos], body_full[pos + 3:]
            try:
                ga, gb = from_label(left), from_label(right)
            except GroupFormatError:
                pos = body_full.find(" x ", pos + 1)
                continue
            prod = direct_product(ga, gb)
            return FiniteGroup(label, prod.table)
        raise GroupFormatError(f"cannot split product label {label!r}")
    kind, _, arg = label.partition(":")
    try:
        if kind == "cyclic":
            return _cyclic(int(arg))
        if kind == "dihedral":
            return _dihedral(int(arg))
        if kind == "quaternion":
            if int(arg) != 8:
                raise GroupFormatError("only quaternion:8 is in the catalog")
            return _quaternion()
        if kind == "sym":
            return _symmetric(int(arg))
        if kind == "elem":
            p, _, k = arg.partition("^")
            return _elementary(int(p), int(k))
    except ValueError as exc:
        raise GroupFormatError(f"bad numeric argument in label {label!r}") from exc
    raise GroupFormatError(f"unknown group label {label!r}")


def catalog_labels(max_order: int) -> list[str]:
    """Deterministic list of catalog labels of order <= max_order.

    Products are binary combinations of the basic labels (left factor order
    ascending); the list is sorted by (order, label) so scans are stable.
    """
    basics: list[tuple[int, str]] = []
    for n in range(1, max_order + 1):
        basics.append((n, f"cyclic:{n}"))
    for n in range(2, max_order // 2 + 1):
        basics.append((2 * n, f"dihedral:{n}"))
    if max_order >= 8:
        basics.append((8, "quaternion:8"))
    for n, size in ((3, 6), (4, 24)):
        if size <= max_order:
            basics.append((size, f"sym:{n}"))
    for p in (2, 3, 5, 7, 11, 13):
        if p * p > max_order:
            break
        q, k = p * p, 2
        while q <= max_order:
            basics.append((q, f"elem:{p}^{k}"))
            q, k = q * p, k + 1
    out = list(basics)
    for na, la in basics:
        for nb, lb in basics:
            if na * nb <= max_order and na >= 2 and nb >= 2:
                out.append((na * nb, f"product:{la} x {lb}"))
    out.sort()
    return [label for _, label in out]


# -- homomorphisms ------------------------------------------------------------

@dataclass(frozen=True)
class GroupHom:
    """A homomorphism given by its full image tuple, validated on creation."""

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.source.order:
            raise GroupFormatError("image list length differs from source order")
        if self.images[0] != 0:
            raise GroupFormatError("homomorphism must send identity to identity")
        for v in self.images:
            if not (0 <= v < self.target.order):
                raise GroupFormatError(f"image {v} out of target range")
        st, tt, im = self.source.table, self.target.table, self.images
        for a in range(self.source.order):
            for b in range(self.source.order):
                if im[st[a][b]] != tt[im[a]][im[b]]:
                    raise GroupFormatError(f"not a homomorphism at pair ({a}, {b})")

    def __call__(self, x: int) -> int:
        return self.images[x]

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.order

    @staticmethod
    def identity(g: FiniteGroup) -> "GroupHom":
        return GroupHom(g, g, tuple(range(g.order)))


def closure(g: FiniteGroup, seed: Iterable[int]) -> frozenset[int]:
    """Subgroup generated by the seed elements."""
    have = {0} | set(seed)
    frontier = list(have)
    while frontier:
        x = frontier.pop()
        for y in tuple(have):
            for z in (g.table[x][y], g.table[y][x]):
                if z not in have:
                    have.add(z)
                    frontier.append(z)
    return frozenset(have)


def generating_set(g: FiniteGroup) -> list[int]:
    """Small generating set, greedy: always add the element that grows the
    generated subgroup the most (ties to the smallest index)."""
    gens: list[int] = []
    have: frozenset[int] = closure(g, ())
    while len(have) < g.order:
        best, best_size = None, -1
        for x in range(1, g.order):
            if x in have:
                continue
            size = len(closure(g, gens + [x]))
            if size > best_size:
                best, best_size = x, size
        gens.append(best)
        have = closure(g, gens)
    return gens


def _word_table(g: FiniteGroup, gens: Sequence[int]):
    """BFS parent pointers: element -> (previous element, generator index),
    and the BFS discovery order, so images extend from generator images in
    one pass."""
    parent: list[Optional[tuple[int, int]]] = [None] * g.order
    seen = {0}
    order = [0]
    for x in order:  # order grows while it is walked: it is the BFS queue
        for gi, gen in enumerate(gens):
            y = g.table[x][gen]
            if y not in seen:
                seen.add(y)
                parent[y] = (x, gi)
                order.append(y)
    if len(seen) != g.order:
        raise GroupFormatError("generating set does not generate")  # internal
    return parent, order


def enumerate_surjections(source: FiniteGroup, target: FiniteGroup) -> list[GroupHom]:
    """All surjective homomorphisms source -> target, deterministic order.

    Backtracks over generator images; every candidate is extended to the full
    element set and validated.  Returns [] when none exist.
    """
    if target.order == 1:
        return [GroupHom(source, target, tuple([0] * source.order))]
    if source.order % target.order != 0:
        return []
    gens = generating_set(source)
    parent, ext_order = _word_table(source, gens)
    found: list[GroupHom] = []

    def rec(prefix: list[int]):
        if len(prefix) == len(gens):
            # extend the generator images along the BFS tree; GroupHom
            # validates the extension
            im = [0] * source.order
            for x in ext_order[1:]:
                p, gi = parent[x]
                im[x] = target.table[im[p]][prefix[gi]]
            if len(set(im)) == target.order:
                try:
                    found.append(GroupHom(source, target, tuple(im)))
                except GroupFormatError:
                    pass
            return
        for t in range(target.order):
            # cheap prune: generator order must be a multiple of image order
            if source.element_order(gens[len(prefix)]) % target.element_order(t) != 0:
                continue
            rec(prefix + [t])

    rec([])
    return found


# -- Sylow structure ----------------------------------------------------------

def prime_powers(m: int) -> dict[int, int]:
    """The factorization of m as {prime: exponent}, primes ascending."""
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def sylow_subgroup(g: FiniteGroup, p: int) -> frozenset[int]:
    """Some Sylow p-subgroup, grown greedily from p-elements.

    A p-subgroup unextendable by any single p-element is maximal, hence Sylow.
    """
    p_elements = [x for x in range(g.order) if _is_p_power(g.element_order(x), p)]
    current = closure(g, ())
    grew = True
    while grew:
        grew = False
        for x in p_elements:
            if x in current:
                continue
            bigger = closure(g, list(current) + [x])
            if _is_p_power(len(bigger), p):
                current = bigger
                grew = True
                break
    return current


def sylow_all_cyclic(g: FiniteGroup) -> bool:
    """True iff for every prime p | order, some Sylow p-subgroup is cyclic."""
    for p in prime_powers(g.order):
        syl = sylow_subgroup(g, p)
        size = len(syl)
        if not any(g.element_order(x) == size for x in syl):
            return False
    return True


def opposite_group(g: FiniteGroup) -> FiniteGroup:
    """Same elements with reversed multiplication a*b := b.a."""
    n = g.order
    table = tuple(tuple(g.table[b][a] for b in range(n)) for a in range(n))
    return FiniteGroup(f"op({g.name})", table)
