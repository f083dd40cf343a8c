"""Smith reduction mod M of the sweep's unit-free residue, with a journal.

The reducer brings a sparse matrix to (positionally) diagonal form
S = U * D * V over Z/M, for a fixed modulus M > 1, by row and column
operations.  Transforms are never stored as matrices: every operation is
appended to a journal, and U / U^-1 / V are applied to vectors later by
replaying the journal.  That keeps memory proportional to the work done
and still supports

  * the diagonal (hence cokernel invariant factors),
  * solves D x = b mod M,
  * cokernel vectors U^-1 e_r at chosen pivot rows,
  * coordinates U b of a vector against the pivot rows.

It runs classical Smith reduction: minimum-magnitude pivoting, remainder
ping-pong, and a divisibility sweep, with magnitudes measured on balanced
representatives so the descent argument still terminates.  Each pivot
costs a scan of the whole matrix, so this is the residue reducer: the
batched engine in the sweep module clears every unit pivot first and
hands over the unit-free remainder.  That remainder has few columns and
pivots but is tall (at degree 4: 78,880 rows by 16 columns for
dihedral:6, 7,945 by 83 for elem:2^3).

The diagonal entry d contributes the cyclic factor Z/gcd(d, M); a caller
that knows the interesting torsion divides some m < M (take M = m*m)
reads the true invariant factors off the gcds that land strictly between
1 and M.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Optional


class InternalCheckError(RuntimeError):
    """An exactness check failed: the computation is wrong, not the input.

    Raised instead of `assert`, so the checks survive `python -O`.
    """


def _round_div(a: int, b: int) -> int:
    """Nearest-integer division, remainder magnitude <= |b|/2."""
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


class SparseElimination:
    def __init__(self, nrows: int, ncols: int, modulus: int):
        if modulus <= 1:
            raise ValueError("elimination needs a modulus > 1")
        self.nrows = nrows
        self.ncols = ncols
        self.modulus = modulus
        self.rows: dict[int, dict[int, int]] = {}
        self.col_rows: dict[int, set[int]] = {}
        self.initial_nnz = 0
        # pivots as (row, col, value); the values carry the divisibility chain
        self.pivots: list[tuple[int, int, int]] = []
        self._row_i: list[int] = []
        self._row_j: list[int] = []
        self._row_c: list[int] = []
        self._col_i: list[int] = []
        self._col_j: list[int] = []
        self._col_c: list[int] = []
        self._done = False

    # -- construction --

    def add_row(self, i: int, entries: dict[int, int]) -> None:
        m = self.modulus
        entries = {j: v % m for j, v in entries.items() if v % m}
        if not entries:
            return
        self.rows[i] = entries
        for j in entries:
            self.col_rows.setdefault(j, set()).add(i)
        self.initial_nnz += len(entries)

    # -- helpers --

    def _bal(self, v: int) -> int:
        """Balanced representative, the magnitude that drives the pivoting."""
        m = self.modulus
        return v - m if 2 * v > m else v

    # -- journaled operations --

    def _row_add(self, k: int, i: int, c: int) -> None:
        """rows[k] += c * rows[i]"""
        self._row_i.append(k)
        self._row_j.append(i)
        self._row_c.append(c)
        m = self.modulus
        target = self.rows.setdefault(k, {})
        col_rows = self.col_rows
        for j, v in self.rows[i].items():
            s = (target.get(j, 0) + c * v) % m
            if s:
                if j not in target:
                    col_rows.setdefault(j, set()).add(k)
                target[j] = s
            elif j in target:
                del target[j]
                col_rows[j].discard(k)
        if not target:
            del self.rows[k]

    def _col_add(self, t: int, j: int, c: int) -> None:
        """col_t += c * col_j"""
        self._col_i.append(t)
        self._col_j.append(j)
        self._col_c.append(c)
        m = self.modulus
        col_rows = self.col_rows
        for k in sorted(col_rows.get(j, ())):
            row = self.rows[k]
            s = (row.get(t, 0) + c * row[j]) % m
            if s:
                if t not in row:
                    col_rows.setdefault(t, set()).add(k)
                row[t] = s
            elif t in row:
                del row[t]
                col_rows[t].discard(k)

    # -- Smith reduction --

    def _min_entry(self) -> Optional[tuple[int, int]]:
        best = None
        best_key = None
        for i in sorted(self.rows):
            for j, v in sorted(self.rows[i].items()):
                key = (abs(self._bal(v)), i, j)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (i, j)
        return best

    def _reduce(self) -> None:
        rows, col_rows = self.rows, self.col_rows
        bal = self._bal
        m = self.modulus
        while True:
            pos = self._min_entry()
            if pos is None:
                break
            pi, pj = pos
            while True:
                pval = bal(rows[pi][pj])
                switched = False
                for k in sorted(col_rows[pj]):
                    if k == pi:
                        continue
                    v = rows[k].get(pj)
                    if not v:
                        continue
                    q = _round_div(bal(v), pval)
                    if q:
                        self._row_add(k, pi, (-q) % m)
                    if rows.get(k, {}).get(pj):
                        pi = k          # remainder has strictly smaller magnitude
                        switched = True
                        break
                if switched:
                    continue
                for t in sorted(rows[pi]):
                    if t == pj:
                        continue
                    v = rows[pi][t]
                    q = _round_div(bal(v), pval)
                    if q:
                        self._col_add(t, pj, (-q) % m)
                    if rows[pi].get(t):
                        pj = t          # ping-pong back to the column phase
                        switched = True
                        break
                if switched:
                    continue
                # cross is clear; enforce the divisibility chain
                offender = None
                for a in sorted(rows):
                    if a == pi:
                        continue
                    for b, v in sorted(rows[a].items()):
                        if bal(v) % pval:
                            offender = a
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                self._row_add(pi, offender, 1)
            pval = rows[pi][pj]
            del rows[pi]
            col_rows[pj].discard(pi)
            if not col_rows[pj]:
                del col_rows[pj]
            self.pivots.append((pi, pj, pval))

    def run(self) -> "SparseElimination":
        if not self._done:
            self._reduce()
            self._done = True
        return self

    # -- results --

    def pivot_factor(self, value: int) -> int:
        """Cyclic factor contributed by a diagonal value."""
        return gcd(value, self.modulus)

    def invariant_factors(self) -> list[int]:
        """All diagonal factors (including the 1s), ascending chain order."""
        factors = sorted(self.pivot_factor(v) for _, _, v in self.pivots)
        return factors

    def nontrivial_pivots(self) -> list[tuple[int, int, int]]:
        """Pivots whose factor is not 1, ascending by factor; these carry
        the interesting torsion."""
        out = [p for p in self.pivots if self.pivot_factor(p[2]) != 1]
        out.sort(key=lambda p: (self.pivot_factor(p[2]), p[0]))
        return out

    def nontrivial_factors(self) -> list[int]:
        return [self.pivot_factor(v) for _, _, v in self.nontrivial_pivots()]

    # -- journal replays --

    def _replay(self, vec: dict[int, int], ops, sign: int = 1) -> dict[int, int]:
        """vec[k] += sign * c * vec[i] for each journal op (k, i, c) in turn."""
        m = self.modulus
        y = {k: v % m for k, v in vec.items()}
        for k, i, c in ops:
            v = y.get(i)
            if v:
                s = (y.get(k, 0) + sign * c * v) % m
                if s:
                    y[k] = s
                else:
                    y.pop(k, None)
        return y

    def apply_row_transform(self, vec: dict[int, int]) -> dict[int, int]:
        """y = U b: forward replay of the row journal."""
        return self._replay(vec, zip(self._row_i, self._row_j, self._row_c))

    def coker_vector(self, r: int) -> dict[int, int]:
        """U^-1 e_r: reversed, inverted row journal applied to a unit vector."""
        ops = list(zip(self._row_i, self._row_j, self._row_c))
        return self._replay({r: 1}, reversed(ops), -1)

    def apply_col_transform(self, y: dict[int, int]) -> dict[int, int]:
        """x = V y: reversed col journal; op (t, j, c) acts as y[j] += c*y[t]."""
        ops = list(zip(self._col_j, self._col_i, self._col_c))
        return self._replay(y, reversed(ops))

    def solve(self, b: dict[int, int]) -> Optional[dict[int, int]]:
        """Particular solution of D x = b mod M, else None."""
        m = self.modulus
        y = self.apply_row_transform(b)
        x: dict[int, int] = {}
        for r, cidx, s in self.pivots:
            v = y.pop(r, 0)
            if not v:
                continue
            g = gcd(s, m)
            if v % g:
                return None
            m2 = m // g
            sol = ((v // g) * pow(s // g, -1, m2)) % m2 if m2 > 1 else 0
            if sol:
                x[cidx] = sol
        if any(v for v in y.values()):
            return None
        return self.apply_col_transform(x)

    def solvable(self, b: dict[int, int]) -> bool:
        """Solvability test only: skips the column replay."""
        m = self.modulus
        y = self.apply_row_transform(b)
        pivot_value = {r: s for r, _, s in self.pivots}
        for r, v in y.items():
            if not v:
                continue
            s = pivot_value.get(r)
            if s is None or v % gcd(s, m):
                return False
        return True

    def journal_size(self) -> int:
        return len(self._row_i) + len(self._col_i)


def eliminate(rows: Iterable[tuple[int, dict[int, int]]], nrows: int,
              ncols: int, modulus: int) -> SparseElimination:
    elim = SparseElimination(nrows, ncols, modulus)
    for i, entries in rows:
        elim.add_row(i, entries)
    return elim.run()
