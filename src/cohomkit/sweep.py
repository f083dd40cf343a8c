"""Batched, journaled elimination of large sparse matrices mod M.

This is the one elimination engine behind every cohomology query.  It
reduces a sparse matrix to (positionally) diagonal form S = U * A * V over
Z/M by batching independent unit pivots:

  pick a set P of entries (r_p, c_p) with unit value u_p mod M such that
  rows and columns are distinct and no pivot row meets another pivot's
  column; then all |P| eliminations commute and amount to the single update

      A  <-  A + C @ A[rows_P, :]        (then zero rows_P)

  where column p of C holds -A[:, c_p] / u_p with the pivot rows zeroed.
  After the update each pivot column is nonzero only in its pivot row, so
  zeroing the pivot rows clears the pivot columns too; that stands for the
  column operations that clear the pivot rows, which touch nothing else.

The matrix keeps its shape and the original row and column ids for the
whole run, so the journal needs no translation.  The update is one sparse
matrix product, so the fill work runs inside scipy instead of a python
loop.  Unit pivots only contribute 1s to the Smith chain; whatever residue
has no units left is handed, in the same ids, to the residue reducer in
linalg, which returns the nontrivial chain and keeps its own journal of
blocks.  The residue has few columns and pivots but can be tall:
dihedral:6 at degree 4 hands over 78,880 rows by 16 columns (952,116
entries) for 2 pivots.

Each sweep k records its pivots (row and column ids, units), C_k and the
pivot rows P_k = A[rows_P, :] without their pivot entries.
C_k vanishes on rows_P, so the sweep's row operation I + C_k E_P has the
inverse I - C_k E_P, and its column operations are a back-substitution
through P_k.  Every replay is then one sparse mat-vec per sweep on a dense
int64 vector, plus the residue's journal:

  * U b              sweeps in order, then the residue's row journal,
  * U^-1 e_r         the residue's inverse, then the sweeps in reverse,
  * V y and solves   the residue's column replay or solve, then the pivot
                     columns back-substituted in reverse sweep order,
                     x[c_p] = (y[r_p] - sum_{t != c_p} P_k[r_p, t] x[t]) / u_p.

All arithmetic is mod M.  Callers chasing torsion that divides m should
pass M = m*m so torsion factors stay distinguishable from free summands
(see linalg for the argument).
"""

from __future__ import annotations

from math import gcd
from typing import Optional

import numpy as np

from .linalg import (InternalCheckError, SparseElimination, dense_vector,
                     sparse_vector)

# keep candidate scans per sweep bounded; selection quality degrades
# gracefully because rejected units come back next sweep
_MAX_CANDIDATES = 200_000


def candidate_order(scores: np.ndarray) -> np.ndarray:
    """np.argsort(scores, kind="stable")[:_MAX_CANDIDATES], without
    sorting them all.

    The _MAX_CANDIDATES-th smallest score is found by a partition; every
    candidate scoring at most that much is kept in index order and
    stable-sorted, so ties break by index exactly as in the full stable sort.
    """
    cap = _MAX_CANDIDATES
    if scores.size <= cap:
        return np.argsort(scores, kind="stable")
    threshold = np.partition(scores, cap - 1)[cap - 1]
    kept = np.flatnonzero(scores <= threshold)
    return kept[np.argsort(scores[kept], kind="stable")[:cap]]


class SweepElimination:
    """Elimination mod M > 1 of a matrix given by sparse rows."""

    def __init__(self, nrows: int, ncols: int, modulus: int):
        if modulus <= 1:
            raise ValueError("sweep elimination needs a modulus > 1")
        self.nrows = nrows
        self.ncols = ncols
        self.modulus = modulus
        self._coo_r: list[int] = []
        self._coo_c: list[int] = []
        self._coo_v: list[int] = []
        self.initial_nnz = 0
        self.unit_pivot_count = 0
        self._core: SparseElimination | None = None
        self._done = False
        self.sweeps = 0
        # per sweep: (rows, cols, units, inverse units, C_k, off-pivot P_k)
        self._blocks: list[tuple] = []
        self._unit_rows = np.zeros(nrows, dtype=bool)
        self._pivots: list[tuple[int, int, int]] | None = None

    def add_row(self, i: int, entries: dict[int, int]) -> None:
        m = self.modulus
        for j, v in entries.items():
            v %= m
            if v:
                self._coo_r.append(i)
                self._coo_c.append(j)
                self._coo_v.append(v)
        self.initial_nnz = len(self._coo_v)

    # -- main loop --

    def run(self) -> "SweepElimination":
        if self._done:
            return self
        # imported here: only a sweep needs scipy, and `import cohomkit`
        # should not pay for it
        from scipy import sparse

        m = self.modulus
        units = np.zeros(m, dtype=bool)
        inv_table = np.zeros(m, dtype=np.int32)
        for v in range(1, m):
            if gcd(v, m) == 1:
                units[v] = True
                inv_table[v] = pow(v, -1, m)

        a = sparse.coo_matrix(
            (np.array(self._coo_v, dtype=np.int32),
             (np.array(self._coo_r, dtype=np.int32),
              np.array(self._coo_c, dtype=np.int32))),
            shape=(self.nrows, self.ncols)).tocsr()
        del self._coo_r, self._coo_c, self._coo_v
        a.sum_duplicates()
        a.data %= m
        a.eliminate_zeros()

        while a.nnz:
            unit_mask = units[a.data]
            if not unit_mask.any():
                break
            self.sweeps += 1
            nr, nc = a.shape
            row_len = np.diff(a.indptr)
            col_cnt = np.bincount(a.indices, minlength=nc)
            entry_rows = np.repeat(np.arange(nr, dtype=np.int32), row_len)
            cand_idx = np.flatnonzero(unit_mask)
            cand_rows = entry_rows[cand_idx]
            cand_cols = a.indices[cand_idx]
            scores = (row_len[cand_rows] - 1) * (col_cnt[cand_cols] - 1)
            order = candidate_order(scores)

            # greedy independent set: distinct rows and columns, and no
            # pivot row may meet another pivot's column
            row_taken = np.zeros(nr, dtype=bool)
            col_taken = np.zeros(nc, dtype=bool)
            col_in_pivot_row = np.zeros(nc, dtype=bool)
            sel: list[int] = []
            indptr, indices = a.indptr, a.indices
            for t in order:
                r = cand_rows[t]
                c = cand_cols[t]
                if row_taken[r] or col_taken[c] or col_in_pivot_row[c]:
                    continue
                support = indices[indptr[r]:indptr[r + 1]]
                if col_taken[support].any():
                    continue
                row_taken[r] = True
                col_taken[c] = True
                col_in_pivot_row[support] = True
                sel.append(t)
            k = len(sel)
            self.unit_pivot_count += k
            rows_p = cand_rows[sel].astype(np.intp)
            cols_p = cand_cols[sel].astype(np.intp)
            pivot_units = a.data[cand_idx[sel]]

            p = a[rows_p, :]
            # coefficient matrix: column p is -A[:, c_p] / u_p, pivot rows
            # 0; its entries sit in A's row-major order, so it is built as
            # CSR straight from A's arrays
            in_c = np.flatnonzero(col_taken[a.indices])
            in_c = in_c[~row_taken[entry_rows[in_c]]]
            slot = np.empty(nc, dtype=np.intp)
            slot[cols_p] = np.arange(k)
            c_cols = slot[a.indices[in_c]]
            # int64 so the matmul accumulates without wraparound; sums of
            # products of residues can pass 2**31 on long fill rows
            coeff = (-(a.data[in_c].astype(np.int64)
                       * inv_table[pivot_units[c_cols]])) % m
            c_mat = sparse.csr_matrix(
                (coeff, c_cols, np.concatenate(([0], np.cumsum(np.bincount(
                    entry_rows[in_c], minlength=nr))))),
                shape=(nr, k))
            pc = p.tocoo()
            off = pc.col != cols_p[pc.row]
            self._blocks.append((
                rows_p, cols_p, pivot_units.astype(np.int64),
                inv_table[pivot_units].astype(np.int64), c_mat,
                sparse.csr_matrix((pc.data[off].astype(np.int64),
                                   (pc.row[off], pc.col[off])), shape=(k, nc))))
            self._unit_rows[rows_p] = True
            a = a + c_mat @ p
            a.data %= m
            # the pivot columns are clear outside the pivot rows now, so
            # dropping the pivot rows drops both, and the ids stay put
            a.data[np.repeat(row_taken, np.diff(a.indptr))] = 0
            a.eliminate_zeros()
            a.data = a.data.astype(np.int32)
            # the update leaves each row's entries unsorted and
            # candidate_order breaks ties by entry position: keep rows
            # sorted so the pivot choice is reproducible
            a.sort_indices()

        # hand the unit-free residue to the residue reducer
        core = SparseElimination(self.nrows, self.ncols, self.modulus)
        for i in np.flatnonzero(np.diff(a.indptr)).tolist():
            lo, hi = a.indptr[i], a.indptr[i + 1]
            core.add_row(i, dict(zip(a.indices[lo:hi].tolist(),
                                     a.data[lo:hi].tolist())))
        core.run()
        self._core = core
        self._done = True
        return self

    # -- results --

    def _residue(self) -> SparseElimination:
        if self._core is None:
            raise InternalCheckError("elimination queried before run()")
        return self._core

    def pivot_factor(self, value: int) -> int:
        return gcd(value, self.modulus)

    def nontrivial_factors(self) -> list[int]:
        return self._residue().nontrivial_factors()

    def invariant_factors(self) -> list[int]:
        ones = self.unit_pivot_count
        core = self._residue().invariant_factors()
        return [1] * ones + core

    def nontrivial_pivots(self) -> list[tuple[int, int, int]]:
        """Pivots whose factor is not 1, ascending by factor: all of them
        come from the residue, since the sweeps pivot on units only."""
        return self._residue().nontrivial_pivots()

    @property
    def pivots(self) -> list[tuple[int, int, int]]:
        """All pivots (row, col, value): the sweeps' units, then the residue's."""
        if self._pivots is None:
            core = self._residue()
            out: list[tuple[int, int, int]] = []
            for rows, cols, units, *_ in self._blocks:
                out.extend(zip(rows.tolist(), cols.tolist(), units.tolist()))
            out.extend(core.pivots)
            self._pivots = out
        return self._pivots

    # -- journal replays on dense vectors mod M --

    def _forward(self, b: np.ndarray) -> np.ndarray:
        m = self.modulus
        for rows, _, _, _, c, _ in self._blocks:
            b = (b + c @ b[rows]) % m
        return b

    def _back_substitute(self, x: np.ndarray,
                         y: np.ndarray | None = None) -> np.ndarray:
        """Apply the sweeps' column operations in reverse order; with y,
        also solve the unit pivots, x[c_p] = y[r_p] / u_p first."""
        m = self.modulus
        for rows, cols, _, inv, _, p in reversed(self._blocks):
            rhs = -(p @ x) if y is None else y[rows] - p @ x
            x[cols] = (x[cols] + inv * (rhs % m)) % m
        return x

    def apply_row_transform(self, vec: dict[int, int]) -> dict[int, int]:
        """y = U b."""
        core = self._residue()
        b = self._forward(dense_vector(vec, self.nrows, self.modulus))
        out = sparse_vector(b, self._unit_rows)
        out.update(core.apply_row_transform(
            sparse_vector(b, ~self._unit_rows)))
        return out

    def coker_vector(self, r: int) -> dict[int, int]:
        """U^-1 e_r."""
        m = self.modulus
        b = dense_vector(self._residue().coker_vector(r), self.nrows, m)
        for rows, _, _, _, c, _ in reversed(self._blocks):
            b = (b - c @ b[rows]) % m
        return sparse_vector(b)

    def apply_col_transform(self, y: dict[int, int]) -> dict[int, int]:
        """x = V y."""
        x = dense_vector(self._residue().apply_col_transform(y),
                         self.ncols, self.modulus)
        return sparse_vector(self._back_substitute(x))

    def solve(self, b: dict[int, int]) -> Optional[dict[int, int]]:
        """Particular solution of A x = b mod M, else None."""
        core = self._residue()
        y = self._forward(dense_vector(b, self.nrows, self.modulus))
        x = core.solve(sparse_vector(y, ~self._unit_rows))
        if x is None:
            return None
        x = dense_vector(x, self.ncols, self.modulus)
        return sparse_vector(self._back_substitute(x, y))

    def solvable(self, b: dict[int, int]) -> bool:
        """Solvability test only: unit pivot rows always solve, so only
        the rest goes to the residue."""
        core = self._residue()
        y = self._forward(dense_vector(b, self.nrows, self.modulus))
        return core.solvable(sparse_vector(y, ~self._unit_rows))
