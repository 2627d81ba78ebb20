"""Property tests of the encoder, the hybrid decoder and the symbol- and
base-matrix-file readers.

The block encoder is checked against a per-row one, the decoder's verdicts are checked against the dense reference solvers in
``bandfec.gf2``, its round-based peeling against a textbook peeling queue,
its word-block elimination kernels against column-scan ones, and
``minimal_ml_reception`` against an in-place elimination of every symbol
unreceived at prefix k; small codes keep each example to milliseconds.
"""

from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bandfec.codec import (DecodeStatus, OpCounter, ReceptionState, encode, hybrid_decode,
                           read_symbols)
from bandfec.gf2 import (BandBits, SparseBinMatrix, dense_solve_oracle, eliminate, pack_pairs,
                         rank_oracle, substitute, syndrome_is_zero)
from bandfec.qc import (BaseMatrix, EnsembleSpec, ExpansionSpec, QCCode, expand, make_code,
                        read_base_matrix)
from bandfec.sim import it_completion_time, minimal_ml_reception, reception_order

from oracles import band_index, band_to_dense, reference_encode, sparse_from_dense


@st.composite
def decodes(draw, kinds=("band", "unconstrained"), sizes=(0, 1, 3)):
    """A small code, a codeword, at most m erasures and 0-2 bit flips.

    A protograph code cannot be encoded, so its codeword is the zero word.
    """
    kind = draw(st.sampled_from(kinds))
    z = draw(st.integers(10, 24) if kind == "band" else st.integers(1, 24))
    code = make_code(EnsembleSpec(kind), 10 * z, seed=draw(st.integers(0, 2**16)))
    L = draw(st.sampled_from(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if kind == "protograph":
        cw = np.zeros((code.n, L), dtype=np.uint8)
    else:
        cw = encode(code, rng.integers(0, 256, (code.k, L), dtype=np.uint8)).symbols
    # erasure counts up to m, weighted towards the ML threshold near 0.9 m
    share = draw(st.sampled_from([0.0, 0.3, 0.6, 0.8, 0.85, 0.9, 0.95, 1.0]))
    erased = np.sort(rng.permutation(code.n)[:int(share * code.m)])
    received = {j: cw[j].copy() for j in np.setdiff1d(np.arange(code.n), erased)}
    flips = draw(st.integers(0, 2)) if L else 0
    for _ in range(flips):
        j = draw(st.sampled_from(sorted(received)))
        received[j][draw(st.integers(0, L - 1))] ^= 1 << draw(st.integers(0, 7))
    return code, cw, erased, received, L, flips


def split_columns(H, erased, received, L):
    """H restricted to the erased columns, and each row's XOR of received symbols."""
    dense = H.to_dense()
    X = np.zeros((H.n, L), dtype=np.uint8)
    for j, v in received.items():
        X[j] = v
    known = np.setdiff1d(np.arange(H.n), erased)
    rhs = np.array([np.bitwise_xor.reduce(X[np.intersect1d(H.row(i), known)], axis=0)
                    for i in range(H.m)], dtype=np.uint8).reshape(H.m, L)
    return sparse_from_dense(dense[:, erased]), rhs


@settings(max_examples=300)
@given(decodes())
def test_decode_against_oracles(case):
    code, cw, erased, received, L, flips = case
    out = hybrid_decode(code, received, L)
    ok = out.status is DecodeStatus.SUCCESS
    if ok:
        assert syndrome_is_zero(code.H, out.symbols)
        for j, v in received.items():
            assert np.array_equal(out.symbols[j], v)
    A, rhs = split_columns(code.H, erased, received, L)
    full_rank = rank_oracle(A) == erased.size
    if not flips:
        assert ok == full_rank
        if ok:
            assert np.array_equal(out.symbols, cw)
    elif full_rank:
        assert out.status in (DecodeStatus.SUCCESS, DecodeStatus.INCONSISTENT)
        assert (out.status is DecodeStatus.INCONSISTENT) == (dense_solve_oracle(A, rhs) is None)


@st.composite
def encodable_codes(draw):
    """A code that encode accepts, of z 1-24, and an L.

    Besides the band, unconstrained and constant_band ensembles, hand-built
    bases: a 1-4 rows, b-a 1-4 source columns, any shifts on the source
    blocks and below the parity diagonal, a shift-0 diagonal, nothing above
    it, and a staircase last block or none.
    """
    kind = draw(st.sampled_from(["band", "unconstrained", "constant_band", "hand-built"]))
    z = draw(st.integers(10, 24) if kind == "band" else st.integers(1, 24))
    seed = draw(st.integers(0, 2**16))
    if kind == "hand-built":
        a, M = draw(st.integers(1, 4)), draw(st.integers(0, z - 1))
        b = a + draw(st.integers(1, 4))
        rng = np.random.default_rng(seed)
        e = np.where(rng.random((a, b)) < 0.6, rng.integers(0, M + 1, (a, b)), -1)
        i, j = np.indices((a, b))
        e[j - (b - a) > i] = -1
        e[j - (b - a) == i] = 0
        spec = ExpansionSpec(z=z, last_block_staircase=draw(st.booleans()))
        code = expand(BaseMatrix(a=a, b=b, M=M, entries=e), spec)
    else:
        ens = EnsembleSpec(kind, M0=draw(st.integers(0, z - 1)))
        code = make_code(ens, 10 * z, seed=seed)
    return code, draw(st.sampled_from([0, 1, 3, 8, 16]))


@settings(max_examples=300)
@given(encodable_codes(), st.integers(0, 2**32))
def test_encode_matches_reference(case, seed):
    code, L = case
    source = np.random.default_rng(seed).integers(0, 256, (code.k, L), dtype=np.uint8)
    got, want = encode(code, source).symbols, reference_encode(code, source)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def reference_peel(state, counter=None):
    """Textbook peeling, as a stand-in for ReceptionState.peel: a queue of the
    rows with one unknown column, recovering one symbol at a time."""
    H, known, values = state.code.H, state.known, state.values
    dense = H.to_dense().astype(bool)
    state.row_unknown = (dense & ~known).sum(axis=1)
    # unknown values are zero, so each row's XOR covers its known symbols only
    state.row_acc = np.array([np.bitwise_xor.reduce(values[H.row(i)], axis=0)
                              for i in range(H.m)], np.uint8).reshape(H.m, state.L)
    queue = deque(np.flatnonzero(state.row_unknown == 1).tolist())
    while queue:
        r = queue.popleft()
        if state.row_unknown[r] == 1:
            j = next(c for c in H.row(r) if not known[c])
            known[j], values[j] = True, state.row_acc[r]
            rows = np.flatnonzero(dense[:, j])
            state.row_acc[rows] ^= values[j]
            state.row_unknown[rows] -= 1
            queue.extend(rows[state.row_unknown[rows] == 1].tolist())
            if counter is not None:
                counter.it_ops += rows.size


def peeled(code, received, L, peel):
    state = ReceptionState(code, L)
    for j, v in received.items():
        state.receive(j, v)
    counter = OpCounter()
    peel(state, counter)
    return state, counter.it_ops


@settings(max_examples=300)
@given(decodes(kinds=("band", "unconstrained", "protograph"), sizes=(0, 1, 3, 8)))
def test_peel_matches_reference(case):
    code, cw, erased, received, L, flips = case
    got, got_ops = peeled(code, received, L, ReceptionState.peel)
    want, want_ops = peeled(code, received, L, reference_peel)
    assert got_ops == want_ops
    fields = ["known", "row_unknown"] + ([] if flips else ["values", "row_acc"])
    for name in fields:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    with mock.patch.object(ReceptionState, "peel", reference_peel):
        reference = hybrid_decode(code, received, L)
    assert hybrid_decode(code, received, L).status is reference.status


def test_repeated_frontier_row_matches_reference():
    # symbols 0 and 1 are recovered in one round from rows 0 and 1, and each
    # leaves row 2 with one unknown: row 2 enters the next round twice
    H = SparseBinMatrix.from_coords(3, 6, [0, 0, 1, 1, 2, 2, 2, 2], [0, 3, 1, 4, 0, 1, 2, 5])
    code = QCCode(base=None, spec=None, H=H)
    payload = np.random.default_rng(0).integers(0, 256, (3, 3), dtype=np.uint8)
    received = dict(zip([3, 4, 5], payload))
    got, got_ops = peeled(code, received, 3, ReceptionState.peel)
    want, want_ops = peeled(code, received, 3, reference_peel)
    assert got.complete and got_ops == want_ops == 5
    for name in ("known", "row_unknown", "values", "row_acc"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@settings(max_examples=40)
@given(decodes(kinds=("band", "unconstrained", "protograph"), sizes=(0,)),
       st.integers(0, 2**32))
def test_it_completion_time_is_first_complete_prefix(case, seed):
    code = case[0]
    order = reception_order(code.n, np.random.default_rng(seed))

    def complete(t):
        state, _ = peeled(code, dict.fromkeys(order[:t].tolist()), 0, reference_peel)
        return state.complete

    assert it_completion_time(code, order) == next(t for t in range(code.n + 1) if complete(t))


@st.composite
def prefix_cuts(draw):
    """A small code of any ensemble, a reception order and 2-4 prefix lengths
    in increasing order."""
    kind = draw(st.sampled_from(["band", "unconstrained", "protograph", "constant_band"]))
    # constant_band fixes M = 42, and circulant expansion needs z > M
    z = draw(st.integers(*{"band": (10, 24), "constant_band": (43, 60)}.get(kind, (1, 24))))
    code = make_code(EnsembleSpec(kind), 10 * z, seed=draw(st.integers(0, 2**16)))
    order = reception_order(code.n, np.random.default_rng(draw(st.integers(0, 2**32))))
    cuts = sorted(draw(st.lists(st.integers(0, code.n), min_size=2, max_size=4)))
    return code, order, cuts


@settings(max_examples=100)
@given(prefix_cuts())
def test_add_matches_fresh_peel(case):
    # a ledger peeled at prefix a and given order[a:b] is the ledger of a
    # fresh peel at prefix b; the copy it was added to keeps prefix a's
    code, order, cuts = case
    state, _ = peeled(code, dict.fromkeys(order[:cuts[0]].tolist()), 0, ReceptionState.peel)
    for a, b in zip(cuts, cuts[1:]):
        known = state.known.copy()
        probe = state.copy()
        probe.add(order[a:b])
        assert np.array_equal(state.known, known)
        want, _ = peeled(code, dict.fromkeys(order[:b].tolist()), 0, reference_peel)
        for name in ("known", "row_unknown"):
            assert np.array_equal(getattr(probe, name), getattr(want, name)), (name, a, b)
        state = probe


# Column-scan reference kernels: each pivot step scans a whole column and
# XORs whole rows, as the decoder did before its word-block kernels.

def reference_eliminate(bits, rhs, ncols):
    """Triangularize by positions, as eliminate(bits, rhs, ncols)."""
    ops = 0
    for c in range(ncols):
        w, sh = divmod(c, 64)
        nz = np.nonzero((bits[c:, w] >> np.uint64(sh)) & np.uint64(1))[0]
        if nz.size == 0:
            return ops, c
        piv = c + nz[0]
        if piv != c:
            bits[[c, piv]] = bits[[piv, c]]
            rhs[[c, piv]] = rhs[[piv, c]]
        tg = c + nz[1:]
        if tg.size:
            bits[tg] ^= bits[c]
            rhs[tg] ^= rhs[c]
            ops += int(tg.size)
    return ops, -1


def reference_substitute(bits, rhs, ncols):
    ops = 0
    for c in range(ncols - 1, -1, -1):
        w, sh = divmod(c, 64)
        rows = np.nonzero((bits[:c, w] >> np.uint64(sh)) & np.uint64(1))[0]
        if rows.size:
            rhs[rows] ^= rhs[c]
            ops += int(rows.size)
    return ops


def reference_eliminate_in_place(bits, ncols):
    """Pivot on the lowest row index that is not yet a pivot, rows in place;
    returns the mask of rows left without a pivot."""
    not_pivot = np.ones(bits.shape[0], dtype=bool)
    for c in range(ncols):
        w, sh = divmod(c, 64)
        col = ((bits[:, w] >> np.uint64(sh)) & np.uint64(1)).astype(bool) & not_pivot
        idx = np.nonzero(col)[0]
        if idx.size:
            not_pivot[idx[0]] = False
            bits[idx[1:]] ^= bits[idx[0]]
    return not_pivot


def reference_minimal_ml_reception(code, order):
    """The smallest decoding prefix from the H columns of every symbol not
    received at prefix k, packed as rows, last-received first, and eliminated
    in place: a row ends without a pivot iff it depends on later-received
    ones, and the first such row marks the success boundary."""
    n, m, k = code.n, code.m, code.k
    N = n - k
    pos = np.full(n, -1, dtype=np.int64)
    pos[order[k:][::-1]] = np.arange(N)
    pos_nz = pos[code.H.indices]
    tail = pos_nz >= 0
    rows_hp = band_index(code.H.row_ids()[tail], code.base.a, code.spec.z)
    bits = pack_pairs(N, m, pos_nz[tail], rows_hp)
    dep = np.flatnonzero(reference_eliminate_in_place(bits, m))
    return k if dep.size == 0 else n - int(dep[0])


@pytest.mark.parametrize("kind", ["band", "unconstrained", "constant_band", "protograph"])
def test_minimal_ml_reception_matches_reference(kind):
    # about 10% of k is received between k and t_it, so the reduced system
    # spans 1 word at k=450 and 2-3 words at k=1500
    widest = 0
    for k, seed in [(450, s) for s in range(4)] + [(1500, s) for s in range(4, 8)]:
        code = make_code(EnsembleSpec(kind), k, seed=seed)
        order = reception_order(code.n, np.random.default_rng(seed))
        widest = max(widest, it_completion_time(code, order) - k)
        assert minimal_ml_reception(code, None, order) == \
            reference_minimal_ml_reception(code, order)
    assert widest > 64


@pytest.mark.parametrize("kind", ["band", "unconstrained", "constant_band"])
def test_minimal_ml_reception_source_first(kind):
    # all source symbols first: peeling alone encodes, so t_it = t_ml = k
    code = make_code(EnsembleSpec(kind), 450, seed=5)
    parity = code.k + reception_order(code.m, np.random.default_rng(5))
    order = np.concatenate([np.arange(code.k), parity])
    assert it_completion_time(code, order) == code.k
    assert minimal_ml_reception(code, None, order) == code.k == \
        reference_minimal_ml_reception(code, order)


@st.composite
def packed_systems(draw):
    """Rows x n' packed bits of 1-10 words, random or banded, with or without a
    diagonal, and 0-3 right-hand side bytes per row.  Some diagonal rows have
    a zero word at the diagonal, so the pivot is swapped in from outside the
    word's subset, and some columns at the first or last bit of a word are
    zero or repeat the column before, so elimination finds no pivot there."""
    ncols = draw(st.one_of(st.sampled_from([63, 64, 65, 128]), st.integers(1, 640)))
    rows = max(1, ncols + draw(st.integers(-2, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    dense = rng.random((rows, ncols)) < draw(st.sampled_from([0.02, 0.1, 0.4]))
    band = draw(st.sampled_from([0, 3, 20, 100]))
    if band:
        i, j = np.indices(dense.shape)
        dense &= np.abs(i * ncols // rows - j) < band
    if draw(st.booleans()):  # a diagonal, so that most such systems have full rank
        np.fill_diagonal(dense, True)
    words = -(-ncols // 64)
    for w in draw(st.lists(st.integers(0, words - 1), max_size=3)):
        if 64 * w < rows:
            dense[64 * w, 64 * w:64 * w + 64] = False
    for c in draw(st.lists(st.integers(0, 2 * words - 1), max_size=2)):
        c = min(64 * (c // 2) + 63 * (c % 2), ncols - 1)  # first or last bit of a word
        dense[:, c] = dense[:, c - 1] if c and draw(st.booleans()) else False
    rhs = rng.integers(0, 256, (rows, draw(st.sampled_from([0, 1, 3]))), dtype=np.uint8)
    return pack_pairs(rows, ncols, *np.nonzero(dense)), rhs, ncols, dense


@settings(max_examples=200)
@given(packed_systems())
def test_elimination_kernels_match_reference(case):
    bits, rhs, ncols, dense = case
    got, want = (bits.copy(), rhs.copy()), (bits.copy(), rhs.copy())
    ops, free = eliminate(*got, ncols)
    assert (ops, free) == reference_eliminate(*want, ncols)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    rank = rank_oracle(sparse_from_dense(dense))
    assert (free < 0) == (rank == ncols)
    if free < 0:
        assert substitute(*got, ncols) == reference_substitute(*want, ncols)
        assert np.array_equal(got[1], want[1])
        if ncols <= 130:  # the dense solver is a Python loop per entry
            sol = dense_solve_oracle(sparse_from_dense(dense), rhs)
            assert (sol is None) == got[1][ncols:].any()
            assert sol is None or np.array_equal(got[1][:ncols], sol)


@st.composite
def band_systems(draw):
    """Rows x n' coordinate pairs in a diagonal band of 1-200 columns, shifted
    left or right, whose first rows, as a wrap corner, also hold some of the
    last 0-200 columns, with 0-3 right-hand side bytes per row."""
    ncols = draw(st.integers(1, 700))
    rows = max(1, ncols + draw(st.integers(-2, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    reach = draw(st.sampled_from([1, 3, 40, 200]))
    shift = draw(st.integers(-reach, reach))
    i, j = np.indices((rows, ncols))
    first = i * ncols // rows + shift
    dense = (j >= first) & (j < first + reach)
    dense &= rng.random(dense.shape) < draw(st.sampled_from([0.1, 0.4, 1.0]))
    if draw(st.booleans()):
        np.fill_diagonal(dense, True)
    corner, tail = draw(st.integers(0, rows)), draw(st.integers(0, min(ncols, 200)))
    dense[:corner, ncols - tail:] |= rng.random((corner, tail)) < 0.3
    rhs = rng.integers(0, 256, (rows, draw(st.sampled_from([0, 1, 3]))), dtype=np.uint8)
    return rows, ncols, np.nonzero(dense), rhs


@settings(max_examples=200)
@given(band_systems())
def test_band_kernels_match_dense(case):
    # the band form holds the same bits as the dense array, before and
    # after elimination, and gives the same ops, free column and rhs
    rows, ncols, (r, c), rhs = case
    band, dense = BandBits.pack(rows, ncols, r, c), pack_pairs(rows, ncols, r, c)
    assert np.array_equal(band_to_dense(band), dense)
    got, want = rhs.copy(), rhs.copy()
    ops, free = eliminate(band, got, ncols)
    assert (ops, free) == reference_eliminate(dense, want, ncols)
    assert np.array_equal(band_to_dense(band), dense) and np.array_equal(got, want)
    if free < 0:
        assert substitute(band, got, ncols) == reference_substitute(dense, want, ncols)
        assert np.array_equal(got, want)


big = st.integers(-2**62, 2**62)
small = st.integers(-2, 6)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.one_of(small, big), k=st.one_of(small, big), L=st.one_of(small, big),
       body=st.binary(max_size=64))
def test_read_symbols_fuzz(tmp_path, n, k, L, body):
    path = tmp_path / "syms.bin"
    path.write_bytes(f"{n} {k} {L}\n".encode() + body)
    try:
        n2, k2, L2, present = read_symbols(path)
    except ValueError:
        return
    assert (n2, k2, L2) == (n, k, L) and L2 >= 0
    for j, v in present.items():
        assert 0 <= j < n2 and v.dtype == np.uint8 and v.shape == (L2,)


huge = st.integers(-2**70, 2**70)


@st.composite
def base_matrix_texts(draw):
    """A base-matrix file: header fields from +-2^70, a grid of random tokens."""
    a, b = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    token = st.one_of(small, huge, st.text(alphabet="0123456789-+_ x", max_size=3))
    grid = draw(st.lists(st.lists(token, min_size=b, max_size=b), min_size=a, max_size=a))
    field = st.one_of(small, huge)
    head = [draw(st.one_of(st.just(a), field)), draw(st.one_of(st.just(b), field)),
            draw(field), draw(field), draw(st.sampled_from(["circulant", "protograph", "x"])),
            draw(field), draw(field)]
    return "\n".join(" ".join(map(str, line)) for line in [head, *grid]) + "\n"


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=base_matrix_texts())
def test_read_base_matrix_fuzz(tmp_path, text):
    path = tmp_path / "code.txt"
    path.write_text(text)
    try:
        base, spec = read_base_matrix(path)
    except ValueError:
        return
    assert isinstance(base, BaseMatrix) and isinstance(spec, ExpansionSpec)
    assert base.entries.shape == (base.a, base.b) and spec.z >= 1
