"""GF(2) matrix and symbol primitives.

Symbols are fixed-length byte blocks (numpy uint8 arrays); a codeword is a
2-D array of shape (n, L).  Binary matrices are stored sparsely as per-row
sorted column indices (CSR-style); other modules build and read them only
through SparseBinMatrix's methods, never its row pointers.  The dense solvers
at the bottom are deliberately naive reference implementations used as test
oracles; the production elimination path lives in :mod:`bandfec.codec`.
"""

from __future__ import annotations

import numpy as np

_ONE = np.uint64(1)


class SparseBinMatrix:
    """m x n binary matrix stored as sorted, duplicate-free column indices per row."""

    def __init__(self, m, n, indptr, indices):
        self.m = int(m)
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if len(self.indptr) != self.m + 1:
            raise ValueError("indptr length mismatch")
        self._check()

    @classmethod
    def from_coords(cls, m, n, rows, cols):
        """Matrix with a one at each (rows[i], cols[i]), given in any order."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        order = np.lexsort((cols, rows))
        return cls(m, n, np.searchsorted(rows[order], np.arange(m + 1)), cols[order])

    def _check(self):
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.n:
                raise ValueError("column index out of range")
        # a step that does not increase is legal only where a new row starts
        bad = np.diff(self.indices) <= 0
        starts = self.indptr[1:-1]
        bad[starts[(starts > 0) & (starts < self.indices.size)] - 1] = False
        if bad.any():
            i = int(np.searchsorted(self.indptr, np.argmax(bad) + 1, side="right")) - 1
            raise ValueError(f"row {i} indices not strictly increasing")

    def row(self, i):
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def row_ids(self):
        """Row index of each stored nonzero, aligned with ``indices``."""
        return np.repeat(np.arange(self.m), np.diff(self.indptr))

    def to_dense(self):
        d = np.zeros((self.m, self.n), dtype=np.uint8)
        d[self.row_ids(), self.indices] = 1
        return d

    @classmethod
    def from_dense(cls, d):
        d = np.asarray(d)
        return cls.from_coords(d.shape[0], d.shape[1], *np.nonzero(d))

    def column_adjacency(self):
        """Per-column arrays of row indices (CSC view)."""
        t = SparseBinMatrix.from_coords(self.n, self.m, self.indices, self.row_ids())
        ptr = t.indptr.tolist()  # python ints slice faster than numpy scalars
        return [t.indices[ptr[j]:ptr[j + 1]] for j in range(self.n)]

    def row_weights(self):
        return np.diff(self.indptr)


def syndrome_is_zero(H: SparseBinMatrix, X) -> bool:
    """True iff H X = 0, i.e. every row's symbols XOR to the zero block."""
    X = np.asarray(X, dtype=np.uint8)
    if X.shape[0] != H.n:
        raise ValueError(f"expected {H.n} symbols, got {X.shape[0]}")
    for i in range(H.m):
        cols = H.row(i)
        if cols.size and np.bitwise_xor.reduce(X[cols], axis=0).any():
            return False
    return True


# ---------------------------------------------------------------------------
# Test oracles: textbook dense elimination, no band awareness, no bit packing.

def dense_solve_oracle(A: SparseBinMatrix, rhs):
    """Solve A x = rhs by standard Gaussian elimination on a dense uint8 copy.

    Returns the unique solution (n' symbols) when A has full column rank,
    otherwise None (singular).  rhs is one symbol block per row.
    """
    rhs = np.asarray(rhs, dtype=np.uint8)
    if rhs.shape[0] != A.m:
        raise ValueError("rhs row count mismatch")
    if A.m < A.n:
        raise ValueError("need rows >= columns")
    M = A.to_dense()
    b = rhs.copy()
    for c in range(A.n):
        piv = -1
        for r in range(c, A.m):
            if M[r, c]:
                piv = r
                break
        if piv < 0:
            return None
        if piv != c:
            M[[c, piv]] = M[[piv, c]]
            b[[c, piv]] = b[[piv, c]]
        for r in range(A.m):
            if r != c and M[r, c]:
                M[r] ^= M[c]
                b[r] ^= b[c]
    if b[A.n:].any():
        return None
    return b[:A.n].copy()


def rank_oracle(A: SparseBinMatrix) -> int:
    """GF(2) rank by independent textbook row reduction (python int bitmasks)."""
    masks = []
    for i in range(A.m):
        v = 0
        for j in A.row(i):
            v |= 1 << int(j)
        masks.append(v)
    rank = 0
    pivots = {}  # lowest set bit -> reduced row mask
    for v in masks:
        while v:
            low = v & -v
            if low in pivots:
                v ^= pivots[low]
            else:
                pivots[low] = v
                rank += 1
                break
    return rank


# ---------------------------------------------------------------------------
# Bit-packed helpers shared by the production elimination kernels.

def pack_pairs(m_rows, n_cols, row_idx, col_idx):
    """Pack coordinate pairs into an (m_rows, ceil(n_cols/64)) uint64 bit matrix."""
    words = (n_cols + 63) // 64 if n_cols else 1
    bits = np.zeros((m_rows, words), dtype=np.uint64)
    if len(col_idx):
        col_idx = np.asarray(col_idx, dtype=np.int64)
        row_idx = np.asarray(row_idx, dtype=np.int64)
        np.bitwise_or.at(bits, (row_idx, col_idx >> 6),
                         _ONE << (col_idx & 63).astype(np.uint64))
    return bits

