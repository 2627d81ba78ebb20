"""GF(2) matrix and symbol primitives.

Symbols are fixed-length byte blocks (numpy uint8 arrays); a codeword is a
2-D array of shape (n, L).  Binary matrices are stored sparsely as per-row
sorted column indices (CSR-style); other modules build and read them only
through SparseBinMatrix's methods, never its row pointers.  The dense solvers
are deliberately naive reference implementations used as test oracles; the
production eliminations are the word-block kernels at the bottom,
:func:`eliminate`, which :mod:`bandfec.codec`'s decoder and
:func:`bandfec.sim._ml_threshold` call with one pivot rule, and
:func:`substitute`, which the decoder calls.  Both run on bit rows in band
form (:class:`BandBits`): a window of words per row plus a tail of words
that all rows share, which holds a band residual in O(k sqrt(k)) memory; a
dense bit array is the same form with one full-width window and no tail.
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

    def gather(self, rows):
        """Position in index array *rows* and column of each nonzero of those rows, in turn."""
        start = self.indptr[rows]
        count = self.indptr[rows + 1] - start
        at = np.repeat(np.arange(len(rows)), count)
        shift = np.repeat(start - np.cumsum(count) + count, count)  # output slot -> indices
        return at, self.indices[np.arange(at.size) + shift]

    def row_xor(self, X):
        """(m, L) array whose row i XORs the rows of X at row i's columns, built
        one row-weight slot at a time so that no temporary exceeds (m, L)."""
        out = np.zeros((self.m, X.shape[1]), dtype=np.uint8)
        acc, xs = as_words(out), as_words(X)
        start, weight = self.indptr[:-1], np.diff(self.indptr)
        for s in range(weight.max(initial=0)):
            slot = start + np.minimum(s, weight - 1)  # rows without slot s are masked out
            np.bitwise_xor(acc, xs[self.indices[slot]], out=acc, where=(weight > s)[:, None])
        return out


def as_words(X):
    """C-contiguous (rows, L) uint8 X as 64-bit words if L % 8 == 0, else X."""
    return X.view(np.uint64) if X.shape[1] % 8 == 0 else X


def syndrome_is_zero(H: SparseBinMatrix, X) -> bool:
    """True iff H X = 0, i.e. every row's symbols XOR to the zero block."""
    X = np.asarray(X, dtype=np.uint8)
    if X.shape[0] != H.n:
        raise ValueError(f"expected {H.n} symbols, got {X.shape[0]}")
    return not H.row_xor(np.ascontiguousarray(X)).any()


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
# Bit-packed elimination.  Row i of an (rows, words) uint64 array holds bit c
# of row i at bit c % 64 of word c // 64.

_BIT = _ONE << np.arange(64, dtype=np.uint64)


def pack_pairs(m_rows, n_cols, row_idx, col_idx):
    """Pack coordinate pairs into an (m_rows, ceil(n_cols/64)) uint64 bit matrix."""
    words = (n_cols + 63) // 64 if n_cols else 1
    bits = np.zeros((m_rows, words), np.uint64)
    if len(col_idx):
        col_idx = np.asarray(col_idx, dtype=np.int64)
        row_idx = np.asarray(row_idx, dtype=np.int64)
        np.bitwise_or.at(bits, (row_idx, col_idx >> 6),
                         _ONE << (col_idx & 63).astype(np.uint64))
    return bits


class BandBits:
    """Bit rows of ``nwords`` words each, stored in band form.

    Row i keeps ``width`` words from its anchor, global words
    ``anchors[i] .. anchors[i] + width - 1``, and every row keeps the last
    ``tail`` words, from word ``tail_start`` on: ``words`` holds the window
    and then the tail of each row.  Every other word of a row is zero.  No
    anchor exceeds ``tail_start - width``, so a window never reaches the
    tail.  A dense (rows, words) array is this form with a full-width window
    anchored at 0 and no tail (:meth:`full`), and then ``words`` is that
    array itself.
    """

    def __init__(self, words, anchors, width, nwords):
        self.words = words
        self.anchors = anchors
        self.width = int(width)
        self.nwords = int(nwords)
        self.tail = words.shape[1] - self.width
        self.tail_start = self.nwords - self.tail
        self._rows = np.arange(words.shape[0]) * words.shape[1]  # flat index of each row

    @classmethod
    def full(cls, bits):
        """Band view of a dense (rows, words) uint64 array, sharing its memory."""
        return cls(bits, np.zeros(bits.shape[0], np.int64), bits.shape[1], bits.shape[1])

    @classmethod
    def pack(cls, m_rows, n_cols, row_idx, col_idx):
        """Coordinate pairs packed in band form, with the width and tail
        measured from them.  A row is anchored at its first nonzero word or,
        if smaller, at the word of its position, because :func:`eliminate`
        may take the row at position 64w + j into the first slots of word w
        and re-anchor it there.  For a tail from word s on, the width is the
        widest span from a row's anchor to its last nonzero word left of s,
        so every row fits, and s minimises width plus tail.  When that is
        more than half the dense width, the window is the full width and
        there is no tail: a residual without a band, where each word step
        copies most rows, would keep nearly all its words and gather them
        through index arrays as large as the copies.
        """
        nwords = (n_cols + 63) // 64 if n_cols else 1
        row_idx = np.asarray(row_idx, dtype=np.int64)
        col_idx = np.asarray(col_idx, dtype=np.int64)
        word = col_idx >> 6
        first = np.arange(m_rows) // 64
        np.minimum.at(first, row_idx, word)
        widest = np.zeros(nwords + 1, np.int64)  # widest[s + 1]: widest span within words <= s
        np.maximum.at(widest, word + 1, word - first[row_idx] + 1)
        np.maximum.accumulate(widest, out=widest)
        size = widest + np.arange(nwords, -1, -1)
        start = nwords - int(np.argmin(size[::-1]))  # the latest start of least size
        width = max(int(widest[start]), 1)
        if 2 * (width + nwords - start) > nwords:
            width, start = nwords, nwords
        anchors = np.minimum(first, start - width)
        at = word - anchors[row_idx]
        tail = word >= start
        at[tail] = word[tail] - (start - width)
        del word
        words = np.zeros((m_rows, width + nwords - start), np.uint64)
        np.bitwise_or.at(words, (row_idx, at), _ONE << (col_idx & 63).astype(np.uint64))
        return cls(words, anchors, width, nwords)

    @property
    def shape(self):
        """(rows, words) of the dense matrix."""
        return self.words.shape[0], self.nwords

    def column(self, w, r0, r1):
        """Word w of rows r0..r1-1."""
        if w >= self.tail_start:
            return self.words[r0:r1, self.width + w - self.tail_start]
        if self.tail_start == self.width:  # every anchor is 0
            return self.words[r0:r1, w]
        at = w - self.anchors[r0:r1]
        out = self.words.reshape(-1).take(self._rows[r0:r1] + at, mode="clip")
        out[at.view(np.uint64) >= self.width] = 0  # at < 0 wraps round to >= width
        return out

    def block(self, S, w):
        """Rows S laid out from word w on, as a new array: the words from w
        to the end of a window anchored at base = min(w, tail_start - width),
        then the tail, so column 0 is word w.  Rows S must be zero left of
        word w and anchored at or left of base, the anchor that
        :meth:`put_block` gives them.
        """
        base = min(w, self.tail_start - self.width)
        lo, width = w - base, self.width
        shift = w - self.anchors[S]
        if lo >= width or (shift == lo).all():
            return self.words[S, lo:]
        B = np.empty((S.size, self.words.shape[1] - lo), np.uint64)
        at = shift[:, None] + np.arange(width - lo)
        win = self.words.reshape(-1).take(self._rows[S, None] + at, mode="clip")
        win[at >= width] = 0
        B[:, :width - lo] = win
        B[:, width - lo:] = self.words[S, width:]
        return B

    def put_block(self, S, w, B):
        """Write words w.. of rows S back from B, re-anchoring the rows at
        base = min(w, tail_start - width).  The window slots left of word w
        are not written: they hold words of the old windows that lie left of
        w, which are zero."""
        base = min(w, self.tail_start - self.width)
        self.words[S, w - base:] = B
        self.anchors[S] = base


def _band(bits):
    return bits if isinstance(bits, BandBits) else BandBits.full(bits)


def eliminate(bits, rhs, ncols):
    """Forward GF(2) elimination of columns 0..ncols-1, in place.

    Step c pivots on the row of lowest position >= c with bit c set, swaps
    it into position c and XORs it, with its (rows, L) right-hand side, into
    the other rows below c with bit c set; the first column without a pivot
    ends the pass.  Returns (row operations, that column or -1).  Callers:
    :func:`bandfec.codec.forward_eliminate` on the decoder's residual
    system, and :func:`bandfec.sim._ml_threshold` on the parity rows
    reduced to the symbols received after the first k.  *bits* is a
    :class:`BandBits` or a dense (rows, words) uint64 array.

    Rows at positions >= 64w are zero left of word w, so the steps of word w
    run on the positions 64w..64w+63, the first slots of a subset S, and the
    other rows with a nonzero word w: a row outside has bit c clear, so it is
    never a target.  Step c pivots among the slots from c - 64w on.  Each XOR
    ends at the pivot row's last nonzero word, past which it would change
    nothing.  The rows of S are copied out from word w on
    (:meth:`BandBits.block`) and written back anchored at w, or at the last
    anchor a window may have (:meth:`BandBits.put_block`).  That keeps each
    row inside its window and the tail: a pivot and its targets start at
    word w and end before their old anchors plus the width, which is at most
    w plus the width, or in the tail.
    """
    band = _band(bits)
    L = rhs.shape[1]
    ops, free = 0, -1
    for w in range(-(-ncols // 64)):
        c0, c1 = 64 * w, min(64 * w + 64, ncols)
        mask = band.column(w, c0, None) != 0
        mask[:c1 - c0] = True
        S = c0 + np.flatnonzero(mask)
        B = band.block(S, w)
        for c in range(c0, c1):
            i = c - c0
            hit = i + (B[i:, 0] & _BIT[i]).nonzero()[0]
            if not hit.size:
                free = c
                break
            p = hit[0]
            if p != i:
                B[i], B[p] = B[p].copy(), B[i].copy()
                if L:
                    rhs[S[i]], rhs[S[p]] = rhs[S[p]].copy(), rhs[S[i]].copy()
            tg = hit[1:]
            if tg.size:
                span = B[i].nonzero()[0][-1] + 1
                B[tg, :span] ^= B[i, :span]
                if L:
                    rhs[S[tg]] ^= rhs[S[i]]
                ops += tg.size
        band.put_block(S, w, B)
        if free >= 0:
            break
    return ops, free


def substitute(bits, rhs, ncols):
    """Back substitution after a full :func:`eliminate`: from the last column
    down, XOR row c's right-hand side into each row above c with bit c set,
    word by word on the rows above 64w+64 with a nonzero word w.  *bits* is
    left as it is; returns the row operations, one per set bit above the
    diagonal.  Elimination leaves no bit below the diagonal or in a surplus
    row, so that count is the set bits less the ncols diagonal ones, and with
    no right-hand side nothing else is done."""
    band = _band(bits)
    ops = int(np.bitwise_count(band.words).sum()) - ncols
    if rhs.shape[1]:
        for w in reversed(range(-(-ncols // 64))):
            c0, c1 = 64 * w, min(64 * w + 64, ncols)
            col = band.column(w, 0, c1)
            S = np.flatnonzero(col)
            hit = (col[S, None] & _BIT[:c1 - c0]) != 0
            hit &= S[:, None] < np.arange(c0, c1)  # strictly above the diagonal
            for c in range(c1 - 1, c0 - 1, -1):
                tg = S[hit[:, c - c0]]
                if tg.size:
                    rhs[tg] ^= rhs[c]
    return ops
