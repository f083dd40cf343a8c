"""Answers the benchmark checks against, computed without cohomkit's code.

Nothing here imports cohomkit.  The references are

* closed forms for invariant factors: cyclic, dihedral and quaternion
  groups, the Kunneth formula for direct products, the vanishing of
  H^even(G, Q/Z) when every Sylow subgroup is cyclic, and "each factor
  divides |G|";
* a dense coboundary straight from the multiplication table, used for
  cocycle checks, primitives, planted cocycles and pentagon descent;
* the cyclic 3-cocycle omega_k on Z/n, whose class is k in H^3 = Z/n, so
  a planted coboundary test has an answer known by theory;
* small readers and writers for the text formats, so the benchmark neither
  builds its input files nor reads the program's output files with the
  program's own code.

Dense cochains are integer arrays of shape (n,) * k holding numerators
modulo a common denominator D; index tuples that contain the identity 0
hold zero (normalized cochains).
"""

from __future__ import annotations

import os
from math import gcd, lcm

import numpy as np


class Reject(Exception):
    """An answer the checks refuse."""


# -- closed forms for invariant factors --------------------------------------

def _split_product(label: str) -> tuple[str, str]:
    body = label[len("product:"):]
    left, sep, right = body.partition(" x ")
    if not sep:
        raise ValueError(f"not a product label: {label!r}")
    return left, right


def integral_cohomology(label: str, q: int) -> list[int]:
    """H^q(G; Z) of a catalog group as cyclic orders, 0 standing for Z."""
    if q == 0:
        return [0]
    kind, _, arg = label.partition(":")
    if kind == "product":
        left, right = _split_product(label)
        return _kunneth(left, right, q)
    if kind == "elem":
        p, _, k = arg.partition("^")
        return _kunneth_iterated([f"cyclic:{p}"] * int(k), q)
    if kind == "cyclic":
        n = int(arg)
        return [n] if q % 2 == 0 and n > 1 else []
    if kind == "quaternion":
        if q % 2:
            return []
        return [2, 2] if q % 4 == 2 else [8]
    if kind in ("dihedral", "sym"):
        m = int(arg)
        if kind == "sym":
            if m != 3:
                raise ValueError(f"no closed form for {label!r}")
            # sym:3 is the dihedral group of order 6
        if m % 2:
            if q % 2:
                return []
            return [2] if q % 4 == 2 else [2 * m]
        # m even (Handel, "On products in the cohomology of the dihedral
        # groups", 1993)
        r = q % 4
        if r in (1, 3):
            return [2] * ((q - 1) // 2)
        if r == 2:
            return [2] * ((q + 2) // 2)
        return [2] * (q // 2) + [m]
    raise ValueError(f"no closed form for {label!r}")


def _tensor(a: int, b: int) -> int:
    if a == 0:
        return b
    if b == 0:
        return a
    return gcd(a, b)


def _tor(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 1
    return gcd(a, b)


def _kunneth_groups(h_left, h_right, q: int) -> list[int]:
    out = []
    for i in range(q + 1):
        for a in h_left(i):
            for b in h_right(q - i):
                out.append(_tensor(a, b))
    for i in range(q + 2):
        for a in h_left(i):
            for b in h_right(q + 1 - i):
                out.append(_tor(a, b))
    return [c for c in out if c != 1]


def _kunneth(left: str, right: str, q: int) -> list[int]:
    return _kunneth_groups(lambda i: integral_cohomology(left, i),
                           lambda j: integral_cohomology(right, j), q)


def _kunneth_iterated(labels: list[str], q: int) -> list[int]:
    if len(labels) == 1:
        return integral_cohomology(labels[0], q)
    head, last = labels[:-1], labels[-1]
    return _kunneth_groups(lambda i: _kunneth_iterated(head, i),
                           lambda j: integral_cohomology(last, j), q)


def _prime_factorization(n: int) -> dict[int, int]:
    out, d = {}, 2
    while n > 1:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    return out


def invariant_factors(orders: list[int]) -> list[int]:
    """Finite cyclic orders regrouped into ascending divisibility order."""
    exps: dict[int, list[int]] = {}
    for c in orders:
        if c == 0:
            raise ValueError("free summand in a torsion group")
        for p, e in _prime_factorization(c).items():
            exps.setdefault(p, []).append(e)
    length = max((len(v) for v in exps.values()), default=0)
    factors = [1] * length
    for p, es in exps.items():
        es = sorted(es, reverse=True)
        for i, e in enumerate(es):
            factors[i] *= p ** e
    return sorted(factors)


def expected_factors(label: str, degree: int) -> list[int]:
    """H^degree(G, Q/Z) = H^(degree+1)(G, Z) for degree >= 1."""
    return invariant_factors(integral_cohomology(label, degree + 1))


def element_orders(table) -> list[int]:
    n = len(table)
    out = []
    for x in range(n):
        k, y = 1, x
        while y != 0:
            y = table[y][x]
            k += 1
        out.append(k)
    return out


def sylow_all_cyclic(table) -> bool:
    """Every Sylow p-subgroup is cyclic iff some element has order p^a
    for each prime power p^a exactly dividing |G|."""
    orders = set(element_orders(table))
    return all(p ** a in orders
               for p, a in _prime_factorization(len(table)).items())


def check_factors(label: str, table, degree: int, got) -> None:
    """Raise Reject unless `got` equals every closed form that applies."""
    got = list(got)
    n = len(table)
    for f in got:
        if f < 2 or n % f:
            raise Reject(f"factor {f} does not divide |G| = {n}")
    want = expected_factors(label, degree)
    if got != want:
        raise Reject(f"{label} degree {degree}: got {got}, closed form {want}")
    if degree % 2 == 0 and sylow_all_cyclic(table) and got:
        raise Reject(f"{label}: every Sylow subgroup is cyclic, "
                     f"so H^{degree} must vanish; got {got}")


# -- dense cochains ----------------------------------------------------------

def normalize(f: np.ndarray) -> np.ndarray:
    """Zero every entry whose index tuple touches the identity."""
    f = f.copy()
    for axis in range(f.ndim):
        index = [slice(None)] * f.ndim
        index[axis] = 0
        f[tuple(index)] = 0
    return f


def coboundary(table: np.ndarray, f: np.ndarray, den: int,
               first: int | None = None) -> np.ndarray:
    """(df)(g1..g_{k+1}) = f(g2..) + sum_i (-1)^i f(.., g_i g_{i+1}, ..)
    + (-1)^(k+1) f(g1..gk), evaluated on every tuple at once.

    With `first` given, only the slice g1 = first is computed (shape
    (1, n, ..., n)), which keeps large cochains within small memory."""
    n = table.shape[0]
    k = f.ndim
    g = list(np.ogrid[tuple(slice(0, n) for _ in range(k + 1))])
    if first is not None:
        g[0] = np.full((1,) * (k + 1), first)
    out = f[tuple(g[1:])].astype(np.int64)
    for i in range(k):
        merged = table[g[i], g[i + 1]]
        args = tuple(g[:i]) + (merged,) + tuple(g[i + 2:])
        term = f[args]
        out = out - term if i % 2 == 0 else out + term
    last = f[tuple(g[:k])]
    out = out + last if (k + 1) % 2 == 0 else out - last
    return np.mod(out, den)


def pullback(images: np.ndarray, f: np.ndarray) -> np.ndarray:
    return f[np.ix_(*([images] * f.ndim))]


def rescale(f: np.ndarray, den: int, new_den: int) -> np.ndarray:
    if new_den % den:
        raise ValueError(f"{new_den} is not a multiple of {den}")
    return np.mod(f * (new_den // den), new_den)


def random_cochain(rng: np.random.Generator, n: int, degree: int, den: int,
                   density: float) -> np.ndarray:
    values = rng.integers(0, den, size=(n,) * degree)
    keep = rng.random((n,) * degree) < density
    return normalize(np.where(keep, values, 0))


def omega(n: int, k: int) -> np.ndarray:
    """omega_k(a, b, c) = k a floor((b + c) / n) / n on Z/n, denominator n.

    Its class is k times a generator of H^3(Z/n, Q/Z) = Z/n, so it is a
    coboundary exactly when n divides k."""
    a = np.arange(n).reshape(n, 1, 1)
    b = np.arange(n).reshape(1, n, 1)
    c = np.arange(n).reshape(1, 1, n)
    return np.mod(k * a * ((b + c) // n), n)


def descend(cover_table: np.ndarray, images: np.ndarray, psi: np.ndarray,
            den: int, base_order: int) -> np.ndarray:
    """Pentagon defect of an associator psi on the cover: d(psi) must be
    constant on the fibers of the grading and vanish over base tuples that
    touch the identity.  Returns the descended base 4-cochain.

    Works one slice of the first argument at a time, so an order-32 cover
    needs a few hundred kilobytes, not the full (n^4) coboundary."""
    nb = base_order
    p = images.astype(np.int64)
    rest = ((p[:, None, None] * nb + p[None, :, None]) * nb
            + p[None, None, :]).ravel()
    nu = np.full(nb ** 4, -1, dtype=np.int64)
    for a in range(len(cover_table)):
        values = coboundary(cover_table, psi, den, first=a).ravel()
        key = p[a] * nb ** 3 + rest
        seen = nu[key]
        if np.any((seen >= 0) & (seen != values)):
            raise Reject("associator coboundary is not constant on the fibers")
        nu[key] = values
        if not np.array_equal(nu[key], values):
            raise Reject("associator coboundary is not constant on the fibers")
    nu = np.maximum(nu, 0).reshape((nb,) * 4)
    if np.any(nu != normalize(nu)):
        raise Reject("associator coboundary does not vanish over base "
                     "tuples touching the identity")
    return nu


def reversed_inverse(nu: np.ndarray, den: int, base_table) -> np.ndarray:
    """-nu(d^-1, c^-1, b^-1, a^-1): the defect of the opposite skeleton.

    Over the opposite cover, psi'(a, b, c) = -psi(c, b, a) has coboundary
    d(psi')(a, b, c, d) = -d(psi)(d, c, b, a), and the opposite grading
    sends a lift of x to x^-1.  Reversing and inverting the arguments of a
    4-cochain is homotopic to the identity (sign (-1)^(4*5/2) = 1), so the
    result represents minus the class of nu."""
    inv = np.argmax(np.asarray(base_table) == 0, axis=1)
    rev = nu.transpose(3, 2, 1, 0)[np.ix_(inv, inv, inv, inv)]
    return np.mod(-rev, den)


# -- the text formats, read and written independently ----------------------

def group_text(name: str, table) -> str:
    rows = "\n".join(" ".join(str(v) for v in row) for row in table)
    return f"group {name}\norder {len(table)}\ntable\n{rows}\nend\n"


def cochain_block(group_ref: str, f: np.ndarray, den: int) -> str:
    lines = ["cochain", f"group {group_ref}", f"degree {f.ndim}", "coeff qz"]
    for idx in zip(*np.nonzero(f)):
        num = int(f[idx])
        g = gcd(num, den)
        lines.append("entry " + " ".join(str(int(i)) for i in idx)
                     + f" {num // g}/{den // g}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def write_skeleton(path: str, cover_name: str, cover_table, base_name: str,
                   base_table, images, psi: np.ndarray, den: int) -> None:
    """Skeleton file with sibling group files for the cover and base."""
    stem = os.path.basename(path)
    folder = os.path.dirname(path)
    cover_ref, base_ref = stem + ".cover", stem + ".base"
    with open(os.path.join(folder, cover_ref), "w", encoding="utf-8") as fh:
        fh.write(group_text(cover_name, cover_table))
    with open(os.path.join(folder, base_ref), "w", encoding="utf-8") as fh:
        fh.write(group_text(base_name, base_table))
    text = (f"skeleton\ncover {cover_ref}\nbase {base_ref}\n"
            f"grading {' '.join(str(int(v)) for v in images)}\nassociator\n"
            + cochain_block(cover_ref, psi, den) + "end\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_cochain(path: str, group_name: str, table, f: np.ndarray,
                  den: int) -> None:
    ref = os.path.basename(path) + ".group"
    with open(os.path.join(os.path.dirname(path), ref), "w",
              encoding="utf-8") as fh:
        fh.write(group_text(group_name, table))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cochain_block(ref, f, den))


class _Lines:
    """Non-blank, comment-stripped lines of an open file, split into words."""

    def __init__(self, handle, folder: str):
        self.handle = handle
        self.folder = folder

    def take(self, keyword: str | None = None) -> list[str]:
        for raw in self.handle:
            parts = raw.split("#", 1)[0].split()
            if parts:
                if keyword is not None and parts[0] != keyword:
                    raise Reject(f"expected {keyword!r}, found {parts[0]!r}")
                return parts
        raise Reject("unexpected end of file")


def _read(path: str, parse):
    with open(path, encoding="utf-8") as handle:
        return parse(_Lines(handle, os.path.dirname(os.path.abspath(path))))


def _group_lines(lines: _Lines) -> np.ndarray:
    lines.take("group")
    n = int(lines.take("order")[1])
    lines.take("table")
    table = np.array([[int(v) for v in lines.take()] for _ in range(n)],
                     dtype=np.int64)
    lines.take("end")
    return table


def read_group(path: str) -> np.ndarray:
    return _read(path, _group_lines)


def _group_ref(lines: _Lines, parts: list[str]) -> np.ndarray:
    ref = " ".join(parts[1:])
    path = os.path.join(lines.folder, ref)
    if not os.path.exists(path):
        raise Reject(f"group reference {ref!r} is not a sibling file")
    return read_group(path)


def _cochain_lines(lines: _Lines) -> tuple[np.ndarray, np.ndarray, int]:
    """(group table, dense numerators, denominator) of one cochain block."""
    lines.take("cochain")
    table = _group_ref(lines, lines.take("group"))
    degree = int(lines.take("degree")[1])
    if lines.take("coeff")[1:] != ["qz"]:
        raise Reject("expected a Q/Z cochain")
    n = len(table)
    index, nums, dens = [], [], []
    while True:
        parts = lines.take()
        if parts[0] == "end":
            break
        idx = 0
        for v in parts[1:degree + 1]:
            idx = idx * n + int(v)
        num, _, d = parts[-1].partition("/")
        index.append(idx)
        nums.append(int(num))
        dens.append(int(d or 1))
    den = lcm(1, *dens)
    f = np.zeros(n ** degree, dtype=np.int64)
    f[np.array(index, dtype=np.int64)] = np.mod(
        np.array(nums, dtype=np.int64) * (den // np.array(dens, dtype=np.int64)),
        den)
    return table, f.reshape((n,) * degree), den


def read_cochain(path: str) -> tuple[np.ndarray, np.ndarray, int]:
    return _read(path, _cochain_lines)


def _skeleton_lines(lines: _Lines):
    lines.take("skeleton")
    cover = _group_ref(lines, lines.take("cover"))
    base = _group_ref(lines, lines.take("base"))
    images = np.array([int(v) for v in lines.take("grading")[1:]],
                      dtype=np.int64)
    lines.take("associator")
    _, psi, den = _cochain_lines(lines)
    lines.take("end")
    return cover, base, images, psi, den


def read_skeleton(path: str):
    """(cover table, base table, grading images, psi, denominator)."""
    return _read(path, _skeleton_lines)


def same_cochain(f: np.ndarray, f_den: int, g: np.ndarray, g_den: int) -> bool:
    den = lcm(f_den, g_den)
    return np.array_equal(rescale(f, f_den, den), rescale(g, g_den, den))
