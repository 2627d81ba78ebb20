"""Systematic encoder and hybrid iterative/ML erasure decoder.

The encoder works on the (b, z, words) block view of the codeword.  The
parity part of a repeat-accumulate code is an accumulator, so parity block i
is the XOR of the circulant-shifted source and earlier parity blocks of base
row i, and the last one is then prefix-XORed down its z x z bit staircase.

The iterative phase peels degree-one parity rows on the original matrix
indexing.  Its two payload steps use the code's structure or plain fancy
indexing: each row's XOR of the received symbols is summed block by block over
the base matrix (:meth:`bandfec.qc.QCCode.row_sums`), and each round XORs its
recovered symbols into their rows in passes that each write a row at most once,
4096 rows at most per XOR, never with ``np.bitwise_xor.at``.  When peeling
stalls, the residual system is assembled in the band-permuted (H') row/column
order and solved by Gaussian elimination on bit-packed rows with
:mod:`bandfec.gf2`'s word-block kernels: each pivot step touches only the rows
and words that can be nonzero, which for band codes is the pseudo-band, and the
rows are stored in band form, so a band residual takes O(k sqrt(k)) memory.

Operation accounting: one row/symbol operation is one row-into-row XOR
including its right-hand-side symbol; row swaps are free.  Iterative
operations count one per substitution of a *recovered* symbol into an
incident row; received symbols substitute for free.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass

import numpy as np

from .gf2 import BandBits, as_words, eliminate, substitute
from .qc import QCCode, xor_shifted
from .band import PermutedCode, permuted_code


_U8 = np.dtype(np.uint8)
_PASS_ROWS = 4096  # rows per XOR in a pass of _xor_rows, which bounds its temporaries


@dataclass
class OpCounter:
    it_ops: int = 0
    fe_ops: int = 0
    bs_ops: int = 0

    @property
    def ml_ops(self):
        return self.fe_ops + self.bs_ops

    @property
    def total(self):
        return self.it_ops + self.fe_ops + self.bs_ops


class DecodeStatus(enum.Enum):
    SUCCESS = "success"
    IT_PARTIAL = "it_partial"
    ML_SINGULAR = "ml_singular"
    INCONSISTENT = "inconsistent"  # decoded symbols fail a parity check


@dataclass
class DecodeOutcome:
    status: DecodeStatus
    symbols: np.ndarray | None  # (n, L) on success
    counter: OpCounter
    residual_rows: int = 0  # m' of the residual system; 0 when peeling completes
    residual_cols: int = 0  # n'


@dataclass
class Codeword:
    symbols: np.ndarray  # (n, L), first k source then m parity


def encode(code: QCCode, source) -> Codeword:
    """Compute parity block row by block row over the base matrix.

    Requires H_p unit lower triangular.  On a circulant expansion that means
    no block above the parity diagonal, a shift-0 or staircase diagonal block
    and any shifts below it, so parity block i is the XOR of the blocks left
    of its diagonal, each shifted by its circulant, followed for a staircase
    diagonal by a prefix XOR down the block.  A circulant of shift s maps
    block row r to column (r + s) % z: two slice XORs on the (b, z, words)
    view of the codeword.  Codes not expanded from a base matrix by
    circulants are rejected.
    """
    source = np.atleast_2d(np.asarray(source, dtype=np.uint8))
    k = code.k
    if source.shape[0] != k:
        raise ValueError(f"expected {k} source symbols, got {source.shape[0]}")
    H = code.H
    rid, off = H.row_ids(), H.indices - k  # each nonzero sits at (rid, k + off)
    if (off > rid).any() or np.count_nonzero(off == rid) != code.m:
        raise ValueError("linear-time encoding requires H_p unit lower triangular")
    if not code.circulant:
        raise ValueError("encoding requires a circulant expansion of a base matrix")
    values = np.zeros((code.n, source.shape[1]), dtype=np.uint8)
    values[:k] = source
    base, z, words = code.base, code.spec.z, as_words(values)
    blocks = words.reshape(base.b, z, words.shape[1])
    p0 = base.n_source_cols  # the first parity block
    for i in range(base.a):
        acc = blocks[p0 + i]  # still zero, so the diagonal drops out
        for j in np.flatnonzero(base.entries[i, :p0 + i] >= 0):
            xor_shifted(acc, blocks[j], base.entries[i, j])
    if code.spec.last_block_staircase:  # row r of the last block also holds column r - 1
        np.bitwise_xor.accumulate(acc, axis=0, out=acc)
    return Codeword(symbols=values)


class ReceptionState:
    """Erasure-decoding ledger over the original matrix indexing.

    ``receive`` records symbols in ``known``/``values``.  ``peel`` derives from
    them ``row_unknown`` and ``row_acc``, each row's unknown count and XOR of
    known symbols (``row_acc`` by the code's block row sums), then recovers in
    rounds the unknown of every row left with one, reading only the rows of
    the last round's symbols.  A round XORs each recovered symbol into its
    rows in passes, each over distinct rows (:func:`_xor_rows`), and skips
    them when L is 0.  ``add`` brings a peeled ledger up to date with more
    symbols through H's transpose, and peels on with the same rounds.
    """

    def __init__(self, code: QCCode, symbol_size: int):
        self.code = code
        self.L = int(symbol_size)
        self.known = np.zeros(code.n, dtype=bool)
        self.values = np.zeros((code.n, self.L), dtype=np.uint8)

    @property
    def complete(self):
        return bool(self.known.all())

    def receive(self, j, value=None):
        """Mark symbol j (an index or an index array) received with its value(s);
        with no value, a symbol not received before keeps a zero payload."""
        self.known[j] = True
        if value is not None:
            self.values[j] = value

    def copy(self):
        """An independent copy of a peeled ledger."""
        other = copy.copy(self)
        other.known, other.values = self.known.copy(), self.values.copy()
        other.row_unknown, other.row_acc = self.row_unknown.copy(), self.row_acc.copy()
        return other

    def peel(self, counter: OpCounter | None = None):
        """Run iterative decoding to completion or a stopping set, from
        ``row_acc`` = H ``values`` (:meth:`bandfec.qc.QCCode.row_sums`, block
        by block on a circulant code); unknown values are still zero, so they
        drop out of the XOR."""
        self._peel(self.code.row_sums(self.values), counter)

    def peel_seeded(self, row_acc):
        """Peel from row sums *row_acc* = H ``values`` given as an (m, L)
        uint8 array, for a ledger made with L = 0 whose received payloads
        are not stored: L becomes row_acc's width, ``values`` stays (n, 0),
        and each round XORs its recovered rows from its own copy of them."""
        self.L = row_acc.shape[1]
        self._peel(row_acc)

    def add(self, j):
        """Receive symbols j with zero payloads into a peeled ledger and peel on
        from the rows they touch; symbols already known change nothing."""
        j = j[~self.known[j]]
        self.known[j] = True
        _, touched = self.code.HT.gather(j)
        self.row_unknown -= np.bincount(touched, minlength=self.code.m)
        self._rounds(touched[self.row_unknown[touched] == 1])

    def _peel(self, row_acc, counter=None):
        H = self.code.H
        self.row_unknown = np.bincount(H.row_ids()[~self.known[H.indices]], minlength=H.m)
        self.row_acc = row_acc
        self._rounds(np.flatnonzero(self.row_unknown == 1), counter)

    def _rounds(self, rows, counter=None):
        """Recover, round by round, the unknown of each of *rows* (the rows left
        with one) and then of the rows that the recovered symbols leave with one.
        A row may appear more than once; its unknown column then does too, and
        ``np.unique`` keeps the first copy, so each symbol is recovered once,
        from the first of its rows.  Unknown counts drop by ``np.subtract.at``,
        which numpy runs fast on one-dimensional integers; payloads go in
        passes of at most _PASS_ROWS rows per XOR (:func:`_xor_rows`) from the
        round's copy of its rows, which a ledger with payloads keeps in values."""
        H, HT, known = self.code.H, self.code.HT, self.known
        acc, vals = as_words(self.row_acc), as_words(self.values)
        while rows.size:
            _, cols = H.gather(rows)
            cols, first = np.unique(cols[~known[cols]], return_index=True)
            known[cols] = True
            at, touched = HT.gather(cols)
            np.subtract.at(self.row_unknown, touched, 1)
            if self.L:
                got = acc[rows[first]]
                if vals.shape[1]:
                    vals[cols] = got
                _xor_rows(acc, touched, got, at)
            if counter is not None:
                counter.it_ops += touched.size
            rows = touched[self.row_unknown[touched] == 1]


def _xor_rows(acc, dst, X, src):
    """acc[dst[i]] ^= X[src[i]] for every i, where dst may repeat a row.

    A fancy-indexed XOR writes a repeated row only once, so it runs in
    passes, each over the first remaining occurrence of every distinct row,
    as many as the most times one row repeats, and XORs at most _PASS_ROWS
    rows at a time.  ``np.bitwise_xor.at`` took twice as long: 12.6 against
    6.5 ms over the rounds of a band k=10000, L=1024 decode at 20% loss.
    """
    while dst.size:
        rows, first = np.unique(dst, return_index=True)
        for s in range(0, rows.size, _PASS_ROWS):
            acc[rows[s:s + _PASS_ROWS]] ^= X[src[first[s:s + _PASS_ROWS]]]
        rest = np.ones(dst.size, dtype=bool)
        rest[first] = False
        dst, src = dst[rest], src[rest]


@dataclass
class ResidualSystem:
    """Unresolved rows x unknown columns of H', bit-packed in band form, plus
    symbol RHS."""
    bits: BandBits         # m' rows of ceil(n'/64) words
    rhs: np.ndarray        # (m', L) uint8
    ncols: int             # n'
    col_map: np.ndarray    # residual column -> original symbol index
    singular_col: int = -1

    @property
    def nrows(self):
        return self.bits.shape[0]


def build_residual(code: QCCode, pc: PermutedCode, state: ReceptionState) -> ResidualSystem:
    """Assemble the residual system in H' row/column order after an IT stall.

    The bits are packed in band form (:meth:`bandfec.gf2.BandBits.pack`): at
    band k=32000 and t_ml, a window of 14-15 of the 231 words per row and a
    tail of 13 words for the wrap-corner columns, an eighth of the dense
    size; for a code without a band, full-width rows.
    """
    H, known = code.H, state.known
    rows = pc.row_orig[state.row_unknown[pc.row_orig] > 0]  # original rows, H' order
    col_map = pc.sym_of_col[~known[pc.sym_of_col]]
    res_row = np.full(H.m, -1, dtype=np.int64)
    res_row[rows] = np.arange(rows.size)
    res_col = np.full(H.n, -1, dtype=np.int64)
    res_col[col_map] = np.arange(col_map.size)
    keep = ~known[H.indices]  # kept nonzeros necessarily sit in selected rows
    bits = BandBits.pack(rows.size, col_map.size, res_row[H.row_ids()[keep]],
                         res_col[H.indices[keep]])
    return ResidualSystem(bits=bits, rhs=state.row_acc[rows], ncols=col_map.size,
                          col_map=col_map)


def forward_eliminate(sys: ResidualSystem, counter: OpCounter) -> bool:
    """Triangularize in place; False on rank deficiency.

    Pivot policy: lowest current position at or below the diagonal, which
    keeps supradiagonal fill inside the q+b band for band-permuted systems.
    Step c reads only the rows at or below the diagonal with a nonzero word
    c // 64 and XORs up to the pivot row's last nonzero word, past which it
    is zero (:func:`bandfec.gf2.eliminate`).
    """
    ops, sys.singular_col = eliminate(sys.bits, sys.rhs, sys.ncols)
    counter.fe_ops += ops
    return sys.singular_col < 0


def back_substitute(sys: ResidualSystem, counter: OpCounter) -> np.ndarray:
    """Recover unknowns from the triangularized system, last column first."""
    counter.bs_ops += substitute(sys.bits, sys.rhs, sys.ncols)
    return sys.rhs[:sys.ncols]


def hybrid_decode(code: QCCode, received, symbol_size: int,
                  allow_ml: bool = True) -> DecodeOutcome:
    """Iterative decoding first, ML on the residual if it stalls.

    *received* maps symbol index -> symbol bytes.  Each index must be an
    integer in [0, n); when symbol_size is positive, each value must be a
    1-D uint8 numpy array of exactly symbol_size bytes (``bytes`` is not
    read: ``np.frombuffer`` makes one such array of it), and when it is 0
    the values are not read.  Any other entry raises ValueError, which names
    the symbol.  ML succeeds iff the residual has full column rank.
    A decode is INCONSISTENT (a received symbol was corrupt) when a row
    left with no unknown by peeling has a nonzero ``row_acc`` (its
    syndrome) or elimination leaves a surplus right-hand side nonzero.
    """
    got = np.array(list(received))  # float, not int, when received is empty
    if got.size and (got.dtype.kind not in "iu" or got.min() < 0 or got.max() >= code.n):
        raise ValueError(f"received symbol index not an integer or out of range [0, {code.n})")
    state = ReceptionState(code, symbol_size)
    state.receive(got.astype(np.int64))
    if state.L:  # one by one: stacking the payloads first is no faster
        values, L = state.values, state.L
        for j, v in zip(got.tolist(), received.values()):
            # attribute reads only, which cost least per payload; a 2-D array
            # of L rows passes them, but numpy will not fit it into one row
            # of values and raises ValueError
            try:
                if len(v) == L and v.dtype == _U8:
                    values[j] = v
                    continue
            except (TypeError, AttributeError, ValueError):
                pass
            raise ValueError(_payload_error(j, v, L))
    counter = OpCounter()
    state.peel(counter)
    dims = (0, 0)
    surplus = state.row_acc[:0]
    if not state.complete:
        if not allow_ml:
            return DecodeOutcome(DecodeStatus.IT_PARTIAL, None, counter)
        sys = build_residual(code, permuted_code(code), state)
        dims = (sys.nrows, sys.ncols)
        if not forward_eliminate(sys, counter):
            return DecodeOutcome(DecodeStatus.ML_SINGULAR, None, counter, *dims)
        state.values[sys.col_map] = back_substitute(sys, counter)
        surplus = sys.rhs[sys.ncols:]  # back substitution never touches these
    if surplus.any() or state.row_acc[state.row_unknown == 0].any():
        return DecodeOutcome(DecodeStatus.INCONSISTENT, None, counter, *dims)
    return DecodeOutcome(DecodeStatus.SUCCESS, state.values, counter, *dims)


def _payload_error(j, v, L):
    """What is wrong with payload v of symbol j, which is not a 1-D uint8
    array of L bytes."""
    if v is None:
        return f"symbol {j} has no payload, expected {L} bytes"
    if isinstance(v, np.ndarray) and v.dtype == np.uint8 and v.ndim == 1:
        return f"symbol {j} has length {len(v)}, expected {L}"
    what = (f"a {v.ndim}-D {v.dtype} array" if isinstance(v, np.ndarray)
            else f"of type {type(v).__name__}")
    return f"symbol {j} payload is {what}, expected a 1-D uint8 array of {L} bytes"


# ---------------------------------------------------------------------------
# Symbol file format: one ASCII header line `n k L`, then one record per
# present symbol (4-byte big-endian index + L payload bytes).  Erased
# symbols are simply absent.

def write_symbols(path, n: int, k: int, L: int, present: dict):
    with open(path, "wb") as f:
        f.write(f"{n} {k} {L}\n".encode())
        for j in sorted(present):
            payload = np.asarray(present[j], dtype=np.uint8).tobytes()
            if len(payload) != L:
                raise ValueError(f"symbol {j} has length {len(payload)}, expected {L}")
            f.write(int(j).to_bytes(4, "big") + payload)


def read_symbols(path):
    """Returns (n, k, L, {index: uint8 array})."""
    with open(path, "rb") as f:
        header = f.readline()
        body = f.read()
    if not header.endswith(b"\n"):
        raise ValueError("truncated symbol file header")
    fields = header.split()
    if len(fields) != 3:
        raise ValueError(f"symbol file header needs 3 fields, got {len(fields)}")
    n, k, L = (int(x) for x in fields)
    if L < 0:
        raise ValueError(f"symbol size L={L} must be >= 0")
    rec = 4 + L
    if len(body) % rec:
        raise ValueError("truncated symbol record")
    present = {}
    for off in range(0, len(body), rec):
        j = int.from_bytes(body[off:off + 4], "big")
        if j >= n:
            raise ValueError(f"symbol index {j} out of range for n={n}")
        if j in present:
            raise ValueError(f"duplicate record for symbol {j}")
        present[j] = np.frombuffer(body, dtype=np.uint8, count=L, offset=off + 4).copy()
    return n, k, L, present
