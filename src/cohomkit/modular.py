"""Circle-coefficient cohomology through the mod-|G| cochain complex.

This is a second, structurally different route to H^n(G, Q/Z), used to
cross-check the integral route in the cohomology module.  Everything here
happens in (Z/m)^d with m = |G|:

  * every circle-valued class has a representative with denominator m, so
    H^n(G, Q/Z) is a quotient Z/B of submodules of (Z/m)^{d_n}: Z is the
    kernel of the mod-m coboundary matrix, and B is spanned by mod-m
    coboundaries together with the divided coboundaries (d C)/m of mod-m
    cocycles C one degree down.  The divided rows account for the
    coefficient sequence relating Z/m to Q/Z coefficients: a cochain can
    bound over Q/Z through a primitive with a strictly larger denominator.

  * instead of computing the kernel Z (huge), we compute the Pontryagin
    dual.  Z/m is self-injective, so annihilators swap kernels and row
    spans: the dual of Z/B is ker(B) / rowspan(D_n), and a finite module
    has the same invariant factors as its dual.

  * invariant factors are read off layer orders: for Q = ker(B)/rowspan
    and each prime power p^j | m, the order of p^j * Q determines how many
    factors are divisible by p^j.  Orders of spans come from a Howell-style
    echelon over Z/m kept closed under annihilator rows, where the span
    order is the product of m / gcd(pivot, m) over the echelon rows.

The same echelon gives the bounded-denominator coboundary test: a cocycle
with denominator d bounds over Q/Z if and only if it bounds with a
primitive of denominator m*d (the averaging homotopy constructs one), so a
single membership test mod m*d decides exactness.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from .cochains import (
    Cochain,
    CochainError,
    cochain_dimension,
    divided_coboundary,
    face_slabs,
    from_int_vector,
    is_cocycle,
    lcm_denominator,
    scaled_lift_vector,
    tuple_to_index,
)
from .groups import FiniteGroup, prime_powers
from .linalg import InternalCheckError


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


class ModularEchelon:
    """Row span of vectors in (Z/m)^ncols, closed under annihilator rows.

    Rows are sparse dicts keyed by column.  Each stored row is identified
    by its leading (smallest) column; whenever a row with leading value v
    is stationed, the annihilator multiple (m/gcd(v,m)) * row is folded
    back in, so the stored rows generate the span column-filtered: every
    span element reduces to zero against the stored rows by leading-column
    elimination alone.  That makes membership testing and span orders
    (product of m/gcd(pivot, m)) valid without a full canonical form.
    """

    def __init__(self, ncols: int, modulus: int):
        if modulus <= 1:
            raise ValueError("modulus must be > 1")
        self.ncols = ncols
        self.modulus = modulus
        self.rows: dict[int, dict[int, int]] = {}

    def copy(self) -> "ModularEchelon":
        dup = ModularEchelon(self.ncols, self.modulus)
        dup.rows = {c: dict(r) for c, r in self.rows.items()}
        return dup

    def _combine(self, target: dict[int, int], src: dict[int, int], coeff: int):
        m = self.modulus
        for j, v in src.items():
            s = (target.get(j, 0) + coeff * v) % m
            if s:
                target[j] = s
            else:
                target.pop(j, None)

    def insert(self, row: dict[int, int]) -> None:
        m = self.modulus
        rows = self.rows
        stack = [{j: v % m for j, v in row.items() if v % m}]
        while stack:
            cur = stack.pop()
            while cur:
                c = min(cur)
                v = cur[c]
                pivot = rows.get(c)
                if pivot is None:
                    rows[c] = cur
                    g = gcd(v, m)
                    if g > 1:
                        ann = m // g
                        stack.append({j: (ann * w) % m for j, w in cur.items()
                                      if (ann * w) % m})
                    break
                w = pivot[c]
                gw = gcd(w, m)
                if v % gw == 0:
                    # pivot divides: plain reduction, leading column advances
                    mw = m // gw
                    q = ((v // gw) * pow(w // gw, -1, mw)) % mw
                    if q:
                        coeff = m - q
                        for j, u in pivot.items():
                            s = (cur.get(j, 0) + coeff * u) % m
                            if s:
                                cur[j] = s
                            else:
                                cur.pop(j, None)
                    continue
                # combine rows to drop the pivot gcd at this column
                g0, x, y = _xgcd(w, v)
                new = {}
                self._combine(new, pivot, x)
                self._combine(new, cur, y)
                self._combine(pivot, new, -(w // g0))
                self._combine(cur, new, -(v // g0))
                leftover = pivot
                rows[c] = new
                g = gcd(new[c], m)
                if g > 1:
                    ann = m // g
                    stack.append({j: (ann * u) % m for j, u in new.items()
                                  if (ann * u) % m})
                if leftover:
                    stack.append(leftover)

    def insert_all(self, row_iter) -> None:
        """Bulk insertion that seeds pivots with the shortest row per column.

        Reduction cost scales with pivot-row length, so picking short pivots
        before reducing anything keeps the fill down.
        """
        m = self.modulus
        buckets: dict[int, list[dict[int, int]]] = {}
        for row in row_iter:
            cur = {j: v % m for j, v in row.items() if v % m}
            if cur:
                buckets.setdefault(min(cur), []).append(cur)
        rest = []
        for c in sorted(buckets):
            best = min(buckets[c], key=len)
            for r in buckets[c]:
                if r is best:
                    self.insert(r)
                else:
                    rest.append(r)
        for r in rest:
            self.insert(r)

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        """Residue of vec against the echelon; zero residue means membership."""
        m = self.modulus
        cur = {j: v % m for j, v in vec.items() if v % m}
        while cur:
            c = min(cur)
            pivot = self.rows.get(c)
            if pivot is None:
                return cur
            w = pivot[c]
            gw = gcd(w, m)
            if cur[c] % gw:
                return cur
            mw = m // gw
            q = ((cur[c] // gw) * pow(w // gw, -1, mw)) % mw
            self._combine(cur, pivot, -q)
        return cur

    def contains(self, vec: dict[int, int]) -> bool:
        return not self.reduce(vec)

    def span_order_exponents(self) -> dict[int, int]:
        """Prime-exponent dict of the span order, prod of m/gcd(pivot, m)."""
        m = self.modulus
        out = {p: 0 for p in prime_powers(m)}
        for c, row in self.rows.items():
            contrib = m // gcd(row[c], m)
            for p, e in prime_powers(contrib).items():
                out[p] += e
        return out


def _face_row(group: FiniteGroup, key: tuple[int, ...], modulus: int
              ) -> dict[int, int]:
    """The coboundary functional at a tuple: row of the differential matrix.

    Entries are indexed over (len(key)-1)-tuples and reduced mod modulus.
    """
    table = group.table
    order = group.order
    n = len(key) - 1
    acc: dict[tuple[int, ...], int] = {}

    def add(t: tuple[int, ...], c: int) -> None:
        if 0 in t:
            return
        acc[t] = acc.get(t, 0) + c

    add(key[1:], 1)
    s = -1
    for i in range(1, n + 1):
        add(key[:i - 1] + (table[key[i - 1]][key[i]],) + key[i + 1:], s)
        s = -s
    add(key[:n], s)
    out = {}
    for t, v in acc.items():
        v %= modulus
        if v:
            out[tuple_to_index(order, t)] = v
    return out


def _basis_coboundary_rows(group: FiniteGroup, degree: int, modulus: int
                           ) -> list[dict[int, int]]:
    """Mod-modulus coboundary vectors of the basis cochains of `degree`.

    Each vector lives over (degree+1)-tuples; these are the columns of the
    differential matrix out of C^degree, read as the transpose of
    face_slabs rather than from the face-row enumerator.
    """
    cols: list[dict[int, int]] = [
        {} for _ in range(cochain_dimension(group.order, degree))]
    row = 0
    for faces in face_slabs(group, degree):
        for sign, index in faces:
            for r, c in enumerate(index.tolist(), row):
                if c >= 0:
                    cols[c][r] = cols[c].get(r, 0) + sign
        row += len(faces[0][1])
    return [{r: v % modulus for r, v in col.items() if v % modulus}
            for col in cols]


def _kernel_generators(rows: list[dict[int, int]], dim: int, modulus: int
                       ) -> list[dict[int, int]]:
    """Generators of {x in (Z/modulus)^dim : sum_i x_i * rows[i] = 0}.

    rows[i] is the image of the i-th basis vector (vectors over any index
    set); the kernel drops out of an echelon of [images | identity], as the
    stationed rows whose image part vanished.
    """
    width = 0
    for r in rows:
        for j in r:
            width = max(width, j + 1)
    ech = ModularEchelon(width + dim, modulus)

    def augmented():
        for i, r in enumerate(rows):
            aug = dict(r)
            aug[width + i] = 1
            yield aug

    ech.insert_all(augmented())
    gens = []
    for c, row in ech.rows.items():
        if c >= width:
            gens.append({j - width: v for j, v in row.items()})
    return gens


def _layer_counts_to_factors(layer: dict[int, list[int]]) -> list[int]:
    """Invariant factors from, per prime, the counts #{factors : p^j | f}."""
    n_factors = max((c[0] for c in layer.values() if c), default=0)
    factors = []
    for i in range(n_factors):  # i-th largest factor
        f = 1
        for p, counts in layer.items():
            e = sum(1 for c in counts if c >= i + 1)
            f *= p ** e
        factors.append(f)
    factors.reverse()
    return factors


def invariant_factors_modular(group: FiniteGroup, degree: int) -> list[int]:
    """Invariant factors of H^degree(group, Q/Z) via the mod-|G| complex.

    Independent of the integral route: the module ker(B)/rowspan(D_degree)
    is Pontryagin dual to the cohomology group, where B stacks the mod-m
    coboundaries out of degree-1 with their divided coboundary rows, and a
    dual has the same invariant factors.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    order = group.order
    if order == 1:
        return []
    m = order
    n = degree
    d_n = cochain_dimension(order, n)

    # relations B: coboundaries from below plus divided coboundaries of
    # one-lower mod-m cocycles (the coefficient-sequence correction)
    below = _basis_coboundary_rows(group, n - 1, m)
    b_rows = [r for r in below if r]
    for ygen in _kernel_generators(below, cochain_dimension(order, n - 1), m):
        beta = divided_coboundary(from_int_vector(group, n - 1, ygen), m)
        if beta is None:
            raise InternalCheckError("kernel generator is not a mod-m cocycle")
        beta = {t: q % m for t, q in beta.items() if q % m}
        if beta:
            b_rows.append(beta)

    ker_b = _kernel_generators_transposed(b_rows, d_n, m)

    span = ModularEchelon(d_n, m)
    span.insert_all(_face_row(group, key, m)
                    for key in product(range(1, order), repeat=n + 1))
    base = span.span_order_exponents()

    primes = prime_powers(m)
    layer: dict[int, list[int]] = {}
    b_prev: dict[int, int] = {}
    full = span.copy()
    for g in ker_b:
        full.insert(g)
    top = full.span_order_exponents()
    for p in primes:
        b_prev[p] = top[p] - base[p]
        layer[p] = []
    for p, vmax in primes.items():
        prev = b_prev[p]
        for j in range(1, vmax + 1):
            scale = p ** j
            ech = span.copy()
            for g in ker_b:
                scaled = {c: (v * scale) % m for c, v in g.items()
                          if (v * scale) % m}
                if scaled:
                    ech.insert(scaled)
            cur = ech.span_order_exponents()[p] - base[p]
            layer[p].append(prev - cur)
            prev = cur
    return _layer_counts_to_factors(layer)


def _kernel_generators_transposed(rows: list[dict[int, int]], dim: int,
                                  modulus: int) -> list[dict[int, int]]:
    """Generators of {x in (Z/modulus)^dim : rows . x = 0}.

    Here rows[i] is a functional on (Z/modulus)^dim; x must annihilate all
    of them.  Transposes into the image-form kernel problem.
    """
    cols: list[dict[int, int]] = [dict() for _ in range(dim)]
    for i, r in enumerate(rows):
        for j, v in r.items():
            cols[j][i] = v
    return _kernel_generators(cols, dim, modulus)


# -- bounded-denominator coboundary test --

_membership_cache: dict[tuple, ModularEchelon] = {}


def clear_caches() -> None:
    _membership_cache.clear()


def is_coboundary_bounded(f: Cochain) -> bool:
    """Coboundary test through one membership check mod |G| * denominator.

    A cocycle of denominator d that bounds over Q/Z bounds with a primitive
    of denominator D = |G| * d: the averaging homotopy applied to any
    primitive produces one.  So exactness is equivalent to the scaled lift
    D*f lying in the mod-D column span of the coboundary matrix into
    degree f.degree, which one echelon reduction decides.
    """
    if f.kind != "qz":
        raise CochainError("coboundary test expects circle-valued cochains")
    if f.degree == 0:
        return f.is_zero()
    if not is_cocycle(f):
        raise CochainError("coboundary test expects a cocycle")
    if f.is_zero():
        # d0 = 0; also keeps the trivial group off the modulus-1 echelon
        return True
    group = f.group
    modulus = group.order * lcm_denominator(f)
    key = (group.cache_key(), f.degree, modulus)
    ech = _membership_cache.get(key)
    if ech is None:
        ech = ModularEchelon(cochain_dimension(group.order, f.degree), modulus)
        ech.insert_all(_basis_coboundary_rows(group, f.degree - 1, modulus))
        _membership_cache[key] = ech
    target = scaled_lift_vector(f, modulus)
    return ech.contains(target)
