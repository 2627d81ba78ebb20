"""Systematic encoder and hybrid iterative/ML erasure decoder.

The iterative phase peels degree-one parity rows on the original matrix
indexing.  When it stalls, the residual system is assembled in the
band-permuted (H') row/column order and solved by Gaussian elimination on
bit-packed rows, which keeps the work inside the pseudo-band for band
codes while remaining a plain textbook elimination.

Operation accounting: one row/symbol operation is one row-into-row XOR
including its right-hand-side symbol; row swaps are free.  Iterative
operations count one per substitution of a *recovered* symbol into an
incident row; received symbols substitute for free.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

import numpy as np

from .gf2 import SparseBinMatrix, pack_pairs
from .qc import QCCode
from .band import PermutedCode, permuted_code

_ONE = np.uint64(1)


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
    """Compute parity by forward substitution over the staircase parity part.

    Requires H_p unit lower triangular (circulant expansion with shift-0
    parity diagonal and the staircase final block give it): row r then
    determines parity symbol k + r from already-known symbols.
    """
    source = np.atleast_2d(np.asarray(source, dtype=np.uint8))
    k = code.k
    if source.shape[0] != k:
        raise ValueError(f"expected {k} source symbols, got {source.shape[0]}")
    H = code.H
    rid, off = H.row_ids(), H.indices - k  # each nonzero sits at (rid, k + off)
    if (off > rid).any() or np.count_nonzero(off == rid) != code.m:
        raise ValueError("linear-time encoding requires H_p unit lower triangular")
    L = source.shape[1]
    values = np.zeros((code.n, L), dtype=np.uint8)
    values[:k] = source
    for r in range(code.m):
        cols = H.row(r)
        # parity column k+r is still zero, so it drops out of the XOR
        values[k + r] = np.bitwise_xor.reduce(values[cols], axis=0)
    return Codeword(symbols=values)


class ReceptionState:
    """Incremental erasure-decoding state over the original matrix indexing.

    Tracks, per row, the XOR of currently-known symbols and the count of
    unknown columns; rows reaching exactly one unknown feed the peeling
    queue.  Symbol length 0 is supported for pattern-only simulation.
    """

    def __init__(self, code: QCCode, symbol_size: int):
        self.code = code
        self.L = int(symbol_size)
        H = code.H
        adj = code._cache.get("col_rows")
        if adj is None:
            adj = H.column_adjacency()
            code._cache["col_rows"] = adj
        self.col_rows = adj
        self.known = np.zeros(code.n, dtype=bool)
        self.values = np.zeros((code.n, self.L), dtype=np.uint8)
        self.row_acc = np.zeros((code.m, self.L), dtype=np.uint8)
        self.row_unknown = np.asarray(H.row_weights(), dtype=np.int64).copy()
        self.n_known = 0
        self._queue = deque(np.nonzero(self.row_unknown == 1)[0].tolist())

    @property
    def complete(self):
        return self.n_known == self.code.n

    def receive(self, j, value=None):
        """Mark symbol j received; duplicates are ignored."""
        if self.known[j]:
            return
        if self.L:
            self.values[j] = value
        self._mark_known(j, counter=None)

    def _mark_known(self, j, counter):
        self.known[j] = True
        self.n_known += 1
        rows = self.col_rows[j]
        if self.L:
            self.row_acc[rows] ^= self.values[j]
        self.row_unknown[rows] -= 1
        if counter is not None:
            counter.it_ops += len(rows)
        for r in rows:
            if self.row_unknown[r] == 1:
                self._queue.append(r)

    def peel(self, counter: OpCounter | None = None):
        """Run iterative decoding to completion or a stopping set."""
        H = self.code.H
        q = self._queue
        while q:
            r = q.popleft()
            if self.row_unknown[r] != 1:
                continue
            cols = H.row(r)
            j = cols[~self.known[cols]][0]
            if self.L:
                self.values[j] = self.row_acc[r]
            self._mark_known(j, counter=counter)


@dataclass
class ResidualSystem:
    """Unresolved rows x unknown columns of H', bit-packed, plus symbol RHS."""
    bits: np.ndarray       # (m', words) uint64
    rhs: np.ndarray        # (m', L) uint8
    ncols: int             # n'
    col_map: np.ndarray    # residual column -> original symbol index
    rows_hp: np.ndarray    # residual row -> H' row index
    cols_hp: np.ndarray    # residual column -> H' column index
    singular_col: int = -1

    @property
    def nrows(self):
        return self.bits.shape[0]

    def to_sparse(self) -> SparseBinMatrix:
        """Unpack into a SparseBinMatrix (for oracles; call before eliminating)."""
        u8 = self.bits.view(np.uint8)
        return SparseBinMatrix.from_dense(
            np.unpackbits(u8, axis=1, bitorder="little")[:, :self.ncols])


def build_residual(code: QCCode, pc: PermutedCode, state: ReceptionState) -> ResidualSystem:
    """Assemble the residual system in H' row/column order after an IT stall."""
    hp = pc.hp
    unknown_hp = ~state.known[pc.sym_of_col]
    rows_sel = np.nonzero(state.row_unknown[pc.row_orig] > 0)[0]
    ncols = int(unknown_hp.sum())
    newcol = np.cumsum(unknown_hp) - 1
    rmap = np.full(hp.m, -1, dtype=np.int64)
    rmap[rows_sel] = np.arange(rows_sel.size)
    keep = unknown_hp[hp.indices]  # kept nonzeros necessarily sit in selected rows
    bits = pack_pairs(rows_sel.size, ncols, rmap[hp.row_ids()[keep]], newcol[hp.indices[keep]])
    rhs = state.row_acc[pc.row_orig[rows_sel]].copy()
    cols_hp = np.nonzero(unknown_hp)[0]
    return ResidualSystem(bits=bits, rhs=rhs, ncols=ncols,
                          col_map=pc.sym_of_col[cols_hp],
                          rows_hp=rows_sel, cols_hp=cols_hp)


def forward_eliminate(sys: ResidualSystem, counter: OpCounter) -> bool:
    """Triangularize in place; False on rank deficiency.

    Pivot policy: lowest row index at or below the diagonal, which keeps
    supradiagonal fill inside the q+b band for band-permuted systems.
    """
    bits, rhs = sys.bits, sys.rhs
    for c in range(sys.ncols):
        w, sh = divmod(c, 64)
        col = (bits[c:, w] >> np.uint64(sh)) & _ONE
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            sys.singular_col = c
            return False
        piv = c + nz[0]
        if piv != c:
            bits[[c, piv]] = bits[[piv, c]]
            rhs[[c, piv]] = rhs[[piv, c]]
        tg = c + nz[1:]
        if tg.size:
            bits[tg] ^= bits[c]
            rhs[tg] ^= rhs[c]
            counter.fe_ops += int(tg.size)
    return True


def back_substitute(sys: ResidualSystem, counter: OpCounter) -> np.ndarray:
    """Recover unknowns from the triangularized system, last column first."""
    bits, rhs = sys.bits, sys.rhs
    for c in range(sys.ncols - 1, -1, -1):
        w, sh = divmod(c, 64)
        col = (bits[:c, w] >> np.uint64(sh)) & _ONE
        rows = np.nonzero(col)[0]
        if rows.size:
            rhs[rows] ^= rhs[c]
            counter.bs_ops += int(rows.size)
    return rhs[:sys.ncols]


def hybrid_decode(code: QCCode, received, symbol_size: int,
                  allow_ml: bool = True) -> DecodeOutcome:
    """Iterative decoding first, ML on the residual if it stalls.

    *received* maps symbol index -> symbol bytes (values ignored when
    symbol_size is 0).  ML succeeds iff the residual has full column rank.
    A decode is INCONSISTENT (a received symbol was corrupt) when a row
    left with no unknown by peeling has a nonzero ``row_acc`` (its
    syndrome) or elimination leaves a surplus right-hand side nonzero.
    """
    state = ReceptionState(code, symbol_size)
    for j, v in received.items():
        state.receive(int(j), v)
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
