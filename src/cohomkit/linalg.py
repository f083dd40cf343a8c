"""Smith reduction mod M of the sweep's unit-free residue, with a journal.

The reducer brings a sparse matrix to (positionally) diagonal form
S = U * D * V over Z/M, for a fixed modulus M > 1, by row and column
operations.  Transforms are never stored as matrices: the operations are
appended to a journal of blocks, and U / U^-1 / V are applied to vectors
later by replaying it, one numpy operation per block.  That supports

  * the diagonal (hence cokernel invariant factors),
  * solves D x = b mod M,
  * cokernel vectors U^-1 e_r at chosen pivot rows,
  * coordinates U b of a vector against the pivot rows.

It runs classical Smith reduction: minimum-magnitude pivoting, remainder
ping-pong, and a divisibility sweep, with magnitudes measured on balanced
representatives so the descent argument still terminates.  Each pivot
costs scans of the whole matrix, so this is the residue reducer: the
batched engine in the sweep module clears every unit pivot first and
hands over the unit-free remainder.  That remainder has few columns and
pivots but is tall (at degree 4: 78,880 rows by 16 columns for
dihedral:6, 7,945 by 83 for elem:2^3), so it is reduced as a dense array
over its nonzero rows and columns, both in ascending id order, with every
choice made as on the sparse rows: the pivot is the smallest
(|balanced value|, row, column), and each phase works in ascending order
and stops at the first entry that keeps a remainder.

The journal holds blocks of operations that share a source:

  row block (i, ks, cs)     rows[ks] += cs * rows[i]   (i not in ks)
  column block (j, ts, cs)  col_ts += cs * col_j       (j not in ts)

The operations inside a block have distinct targets and read a line that
none of them writes, so they commute, and a block replays as a single
vector operation.

The diagonal entry d contributes the cyclic factor Z/gcd(d, M); a caller
that knows the interesting torsion divides some m < M (take M = m*m)
reads the true invariant factors off the gcds that land strictly between
1 and M.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Optional

import numpy as np


class InternalCheckError(RuntimeError):
    """An exactness check failed: the computation is wrong, not the input.

    Raised instead of `assert`, so the checks survive `python -O`.
    """


def dense_vector(vec: dict[int, int], size: int, modulus: int) -> np.ndarray:
    """A sparse vector {index: value} as a dense int64 array mod `modulus`."""
    out = np.zeros(size, dtype=np.int64)
    if vec:
        out[np.fromiter(vec, dtype=np.intp, count=len(vec))] = [
            v % modulus for v in vec.values()]
    return out


def sparse_vector(vec: np.ndarray, mask: np.ndarray | None = None
                  ) -> dict[int, int]:
    """The nonzero entries of `vec` (where `mask` holds) as a dict."""
    nz = np.flatnonzero(vec if mask is None else vec * mask)
    return dict(zip(nz.tolist(), vec[nz].tolist()))


class SparseElimination:
    def __init__(self, nrows: int, ncols: int, modulus: int):
        if modulus <= 1:
            raise ValueError("elimination needs a modulus > 1")
        self.nrows = nrows
        self.ncols = ncols
        self.modulus = modulus
        self._coo_r: list[int] = []
        self._coo_c: list[int] = []
        self._coo_v: list[int] = []
        # pivots as (row, col, value); the values carry the divisibility chain
        self.pivots: list[tuple[int, int, int]] = []
        self._row_blocks: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._col_blocks: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._done = False

    # -- construction --

    def add_row(self, i: int, entries: dict[int, int]) -> None:
        m = self.modulus
        for j, v in entries.items():
            if v % m:
                self._coo_r.append(i)
                self._coo_c.append(j)
                self._coo_v.append(v % m)

    # -- Smith reduction --

    def _bal(self, v: np.ndarray) -> np.ndarray:
        """Balanced representatives, the magnitudes that drive the pivoting."""
        m = self.modulus
        return np.where(2 * v > m, v - m, v)

    def _clearing(self, idx: np.ndarray, v: np.ndarray, pval: int):
        """Operations that clear the entries v at ascending positions idx
        against the pivot value pval, up to and including the first entry
        that keeps a remainder: (positions, multipliers, that entry's
        position or None)."""
        bal = self._bal(v)
        q = bal // pval
        q += 2 * np.abs(bal - q * pval) > abs(pval)
        left = np.flatnonzero(bal != q * pval)
        stop = None
        if left.size:
            idx, q = idx[:left[0] + 1], q[:left[0] + 1]
            stop = int(idx[-1])
        ops = q != 0
        return idx[ops], (-q[ops]) % self.modulus, stop

    def _reduce(self, a: np.ndarray, row_ids: np.ndarray,
                col_ids: np.ndarray) -> None:
        m = self.modulus
        while a.any():
            mag = np.abs(self._bal(a))
            mag[a == 0] = m
            pi, pj = divmod(int(mag.argmin()), a.shape[1])
            while True:
                pval = int(self._bal(a[pi, pj]))
                # column phase: row operations against the pivot row
                ks = np.flatnonzero(a[:, pj])
                ks = ks[ks != pi]
                ks, cs, stop = self._clearing(ks, a[ks, pj], pval)
                if ks.size:
                    a[ks] = (a[ks] + cs[:, None] * a[pi]) % m
                    self._row_blocks.append((int(row_ids[pi]), row_ids[ks], cs))
                if stop is not None:
                    pi = stop       # remainder has strictly smaller magnitude
                    continue
                # row phase: column operations against the pivot column,
                # which is clear outside the pivot row by now
                ts = np.flatnonzero(a[pi])
                ts = ts[ts != pj]
                ts, cs, stop = self._clearing(ts, a[pi, ts], pval)
                if ts.size:
                    a[pi, ts] = (a[pi, ts] + cs * a[pi, pj]) % m
                    self._col_blocks.append((int(col_ids[pj]), col_ids[ts], cs))
                if stop is not None:
                    pj = stop       # ping-pong back to the column phase
                    continue
                # cross is clear; enforce the divisibility chain
                bad = self._bal(a) % pval != 0
                bad[pi] = False
                offenders = np.flatnonzero(bad.any(axis=1))
                if not offenders.size:
                    break
                off = offenders[0]
                a[pi] = (a[pi] + a[off]) % m
                self._row_blocks.append((int(row_ids[off]), row_ids[pi:pi + 1],
                                         np.ones(1, dtype=np.int64)))
            self.pivots.append((int(row_ids[pi]), int(col_ids[pj]),
                                int(a[pi, pj])))
            a[pi, pj] = 0

    def run(self) -> "SparseElimination":
        if not self._done:
            row_ids, r = np.unique(np.array(self._coo_r, dtype=np.intp),
                                   return_inverse=True)
            col_ids, c = np.unique(np.array(self._coo_c, dtype=np.intp),
                                   return_inverse=True)
            a = np.zeros((row_ids.size, col_ids.size), dtype=np.int64)
            a[r, c] = self._coo_v
            del self._coo_r, self._coo_c, self._coo_v
            self._reduce(a, row_ids, col_ids)
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

    # -- journal replays on dense vectors mod M --

    def _forward(self, y: np.ndarray) -> np.ndarray:
        """y <- U y: the row blocks in order."""
        m = self.modulus
        for i, ks, cs in self._row_blocks:
            if y[i]:
                y[ks] = (y[ks] + cs * y[i]) % m
        return y

    def _columns(self, x: np.ndarray) -> np.ndarray:
        """x <- V x: the column blocks in reverse, block (j, ts, cs) acting
        as x[j] += cs . x[ts]."""
        m = self.modulus
        for j, ts, cs in reversed(self._col_blocks):
            x[j] = (x[j] + cs @ x[ts]) % m
        return x

    def apply_row_transform(self, vec: dict[int, int]) -> dict[int, int]:
        """y = U b: forward replay of the row journal."""
        return sparse_vector(self._forward(
            dense_vector(vec, self.nrows, self.modulus)))

    def coker_vector(self, r: int) -> dict[int, int]:
        """U^-1 e_r: reversed, inverted row journal applied to a unit vector."""
        m = self.modulus
        y = dense_vector({r: 1}, self.nrows, m)
        for i, ks, cs in reversed(self._row_blocks):
            if y[i]:
                y[ks] = (y[ks] - cs * y[i]) % m
        return sparse_vector(y)

    def apply_col_transform(self, y: dict[int, int]) -> dict[int, int]:
        """x = V y: reversed column journal."""
        return sparse_vector(self._columns(
            dense_vector(y, self.ncols, self.modulus)))

    def solve(self, b: dict[int, int]) -> Optional[dict[int, int]]:
        """Particular solution of D x = b mod M, else None."""
        m = self.modulus
        y = self._forward(dense_vector(b, self.nrows, m))
        x = np.zeros(self.ncols, dtype=np.int64)
        for r, cidx, s in self.pivots:
            v = int(y[r])
            if not v:
                continue
            y[r] = 0
            g = gcd(s, m)
            if v % g:
                return None
            m2 = m // g
            x[cidx] = ((v // g) * pow(s // g, -1, m2)) % m2 if m2 > 1 else 0
        if y.any():
            return None
        return sparse_vector(self._columns(x))

    def solvable(self, b: dict[int, int]) -> bool:
        """Solvability test only: skips the column replay."""
        m = self.modulus
        y = self._forward(dense_vector(b, self.nrows, m))
        for r, _, s in self.pivots:
            if y[r] % gcd(s, m):
                return False
            y[r] = 0
        return not y.any()

    def journal_size(self) -> int:
        """Single row and column operations in the journal."""
        return sum(ks.size for _, ks, _ in self._row_blocks + self._col_blocks)


def eliminate(rows: Iterable[tuple[int, dict[int, int]]], nrows: int,
              ncols: int, modulus: int) -> SparseElimination:
    elim = SparseElimination(nrows, ncols, modulus)
    for i, entries in rows:
        elim.add_row(i, entries)
    return elim.run()
