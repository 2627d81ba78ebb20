import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import bandfec
from bandfec.band import permuted_code
from bandfec.codec import (DecodeStatus, OpCounter, ReceptionState,
                           ResidualSystem, _PASS_ROWS, _xor_rows, back_substitute,
                           build_residual, encode, forward_eliminate,
                           hybrid_decode, read_symbols, write_symbols)
from bandfec.gf2 import (SparseBinMatrix, dense_solve_oracle, eliminate, pack_pairs,
                         rank_oracle, substitute, syndrome_is_zero)
from bandfec.qc import (BaseMatrix, EnsembleSpec, ExpansionSpec, QCCode,
                        expand, make_code)
from bandfec.sim import minimal_ml_reception, reception_order

from oracles import (band_index, band_to_dense, in_band, residual_to_sparse,
                     sparse_from_dense)


def toy_code(rows, n):
    """Code wrapper around a bare matrix; enough for peeling tests."""
    H = SparseBinMatrix.from_coords(len(rows), n, [i for i, r in enumerate(rows) for _ in r],
                                    [c for r in rows for c in r])
    return QCCode(base=None, spec=None, H=H)


def all_ones_2x2_code():
    """Both symbols in both rows; erasing both gives a singular residual."""
    base = BaseMatrix(a=2, b=2, M=0, entries=np.zeros((2, 2), dtype=np.int64))
    return expand(base, ExpansionSpec(z=1, last_block_staircase=False))


def random_codeword(code, L, rng):
    src = rng.integers(0, 256, (code.k, L), dtype=np.uint8)
    return src, encode(code, src)


class TestEncode:
    def test_zero_source(self):
        code = make_code(EnsembleSpec("band"), 240)
        cw = encode(code, np.zeros((code.k, 3), dtype=np.uint8))
        assert not cw.symbols.any()

    def test_syndrome_zero(self):
        code = make_code(EnsembleSpec("band"), 240, seed=1)
        rng = np.random.default_rng(0)
        _, cw = random_codeword(code, 5, rng)
        assert syndrome_is_zero(code.H, cw.symbols)

    def test_systematic_prefix(self):
        code = make_code(EnsembleSpec("unconstrained"), 300, seed=2)
        rng = np.random.default_rng(1)
        src, cw = random_codeword(code, 4, rng)
        assert np.array_equal(cw.symbols[:code.k], src)

    def test_linearity(self):
        code = make_code(EnsembleSpec("band"), 240, seed=3)
        rng = np.random.default_rng(2)
        x, cx = random_codeword(code, 2, rng)
        y, cy = random_codeword(code, 2, rng)
        assert np.array_equal(encode(code, x ^ y).symbols, cx.symbols ^ cy.symbols)

    def test_source_count_checked(self):
        code = make_code(EnsembleSpec("band"), 240)
        with pytest.raises(ValueError):
            encode(code, np.zeros((code.k + 1, 1), dtype=np.uint8))

    def test_no_row_reads(self):
        # parity comes from the base matrix's blocks, never from H's rows
        code = make_code(EnsembleSpec("band"), 240, seed=4)
        with mock.patch.object(SparseBinMatrix, "row", autospec=True,
                               side_effect=SparseBinMatrix.row) as row:
            cw = encode(code, np.ones((code.k, 8), dtype=np.uint8))
        assert row.call_count == 0 and syndrome_is_zero(code.H, cw.symbols)

    def test_protograph_rejected(self):
        code = make_code(EnsembleSpec("protograph"), 240)
        with pytest.raises(ValueError):
            encode(code, np.zeros((code.k, 1), dtype=np.uint8))

    @pytest.mark.parametrize("code", [
        make_code(EnsembleSpec("protograph"), 10),  # z = 1: every block is the identity
        toy_code([[0, 1], [1, 2]], 3),
    ], ids=["protograph-z1", "no-base-matrix"])
    def test_non_circulant_rejected(self, code):
        # H_p is unit lower triangular, but encode works from circulant blocks
        with pytest.raises(ValueError, match="circulant expansion"):
            encode(code, np.zeros((code.k, 1), dtype=np.uint8))

    def test_shifted_parity_diagonal_rejected(self):
        # shift 1 on the first parity block puts a nonzero above H_p's diagonal
        code = make_code(EnsembleSpec("band"), 240)
        entries = code.base.entries.copy()
        entries[0, 10] = 1
        base = BaseMatrix(a=5, b=15, M=code.base.M, entries=entries)
        with pytest.raises(ValueError, match="unit lower triangular"):
            encode(expand(base, code.spec), np.zeros((code.k, 1), dtype=np.uint8))


class TestPeeling:
    def test_single_step_two_ops(self):
        # column sets {0,1} and {1}; symbol 0 erased, recovered via the
        # weight-one row, substituted into both incident rows: 2 it_ops
        code = toy_code([[0], [0, 1]], 2)
        state = ReceptionState(code, 1)
        state.receive(1, np.array([9], np.uint8))
        counter = OpCounter()
        state.peel(counter)
        assert state.complete
        assert counter.it_ops == 2 and counter.ml_ops == 0

    def test_stopping_set(self):
        code = toy_code([[0, 1], [0, 1]], 2)
        state = ReceptionState(code, 0)
        state.peel()
        assert not state.complete
        assert set(np.flatnonzero(~state.known)) == {0, 1}

    def test_received_symbols_free(self):
        code = make_code(EnsembleSpec("band"), 240, seed=4)
        state = ReceptionState(code, 0)
        counter = OpCounter()
        for j in range(code.n):
            state.receive(j)
        state.peel(counter)
        assert state.complete and counter.it_ops == 0

    def test_chain_recovery_values(self):
        code = make_code(EnsembleSpec("band"), 240, seed=5)
        rng = np.random.default_rng(3)
        _, cw = random_codeword(code, 4, rng)
        state = ReceptionState(code, 4)
        lost = set(rng.choice(code.n, size=code.n // 20, replace=False).tolist())
        for j in range(code.n):
            if j not in lost:
                state.receive(j, cw.symbols[j])
        state.peel()
        assert state.complete  # 5% loss peels through
        assert np.array_equal(state.values, cw.symbols)

    def test_duplicate_receive_ignored(self):
        code = toy_code([[0, 1]], 2)
        state = ReceptionState(code, 0)
        state.receive(0)
        state.receive(0)
        assert state.known.sum() == 1

    @pytest.mark.parametrize("loss", [0.05, 0.30])
    def test_receive_index_array(self, loss):
        # one call with an index array leaves the ledger of one call per index
        code = make_code(EnsembleSpec("band"), 480, seed=7)
        rng = np.random.default_rng(5)
        _, cw = random_codeword(code, 4, rng)
        got = rng.permutation(code.n)[int(loss * code.n):]
        bulk, single = ReceptionState(code, 4), ReceptionState(code, 4)
        bulk.receive(got, cw.symbols[got])
        for j in got:
            single.receive(int(j), cw.symbols[j])
        ledgers = []
        for state in (bulk, single):
            c = OpCounter()
            state.peel(c)
            ledgers.append((c.it_ops, state.known, state.values, state.row_unknown,
                            state.row_acc))
        assert ledgers[0][0] == ledgers[1][0] > 0
        for a, b in zip(ledgers[0][1:], ledgers[1][1:]):
            assert np.array_equal(a, b)
        assert bulk.complete == (loss < 0.1)

    def test_determinism(self):
        code = make_code(EnsembleSpec("band"), 480, seed=6)
        rng = np.random.default_rng(4)
        lost = rng.choice(code.n, size=200, replace=False)
        outs = []
        for _ in range(2):
            state = ReceptionState(code, 0)
            mask = np.ones(code.n, dtype=bool)
            mask[lost] = False
            for j in np.nonzero(mask)[0]:
                state.receive(int(j))
            c = OpCounter()
            state.peel(c)
            outs.append((c.it_ops, tuple(np.flatnonzero(~state.known))))
        assert outs[0] == outs[1]


def assert_row_acc(state):
    """Each row's ``row_acc`` is the XOR of its known symbols' payloads."""
    d = state.code.H.to_dense().astype(bool) & state.known
    want = np.array([np.bitwise_xor.reduce(state.values[d[i]], axis=0)
                     for i in range(state.code.m)], dtype=np.uint8)
    assert np.array_equal(state.row_acc, want.reshape(state.row_acc.shape))


class TestRowAccumulators:
    """``row_acc`` after each way into the peeling rounds."""

    @pytest.fixture
    def round_rows(self):
        # the destination rows of every XOR pass call, to see repeats
        calls = []

        def spy(acc, dst, X, src):
            calls.append(dst.copy())
            return _xor_rows(acc, dst, X, src)

        with mock.patch("bandfec.codec._xor_rows", side_effect=spy):
            yield calls

    @staticmethod
    def repeats(calls):
        return any(np.unique(dst).size < dst.size for dst in calls)

    @pytest.mark.parametrize("L", [1, 3, 8])
    def test_peel(self, round_rows, L):
        code = make_code(EnsembleSpec("band"), 240, seed=5)
        rng = np.random.default_rng(L)
        _, cw = random_codeword(code, L, rng)
        got = rng.permutation(code.n)[round(0.2 * code.n):]
        state = ReceptionState(code, L)
        state.receive(got, cw.symbols[got])
        state.peel()
        assert state.complete and np.array_equal(state.values, cw.symbols)
        # two symbols recovered in one round share a row, so the passes run
        assert self.repeats(round_rows)
        assert_row_acc(state)

    def test_peel_seeded(self, round_rows):
        # the ML threshold's ledger: row sums packed from the (row, symbol)
        # pairs of q symbols, symbol i holding e_(q-1-i), against a plain
        # peel of those symbols' explicit unit-vector payloads
        code = make_code(EnsembleSpec("band"), 240, seed=5)
        rng = np.random.default_rng(1)
        order = rng.permutation(code.n)
        for q in (40, 100):
            j = order[code.k:code.k + q]
            at, rows = code.HT.gather(j)
            state = ReceptionState(code, 0)
            state.receive(order[:code.k + q])
            round_rows.clear()
            state.peel_seeded(pack_pairs(code.m, q, rows, q - 1 - at).view(np.uint8))
            assert self.repeats(round_rows)
            i = np.arange(q)
            unit = pack_pairs(q, q, i, q - 1 - i).view(np.uint8)
            plain = ReceptionState(code, unit.shape[1])
            plain.receive(order[:code.k])
            plain.receive(j, unit)
            plain.peel()
            assert_row_acc(plain)
            for name in ("known", "row_unknown", "row_acc"):
                assert np.array_equal(getattr(state, name), getattr(plain, name)), (name, q)
            assert state.values.shape == (code.n, 0)

    def test_add(self, round_rows):
        code = make_code(EnsembleSpec("band"), 240, seed=5)
        rng = np.random.default_rng(2)
        _, cw = random_codeword(code, 8, rng)
        order = rng.permutation(code.n)
        state = ReceptionState(code, 8)
        state.receive(order[:code.k], cw.symbols[order[:code.k]])
        state.peel()
        assert not state.complete
        round_rows.clear()
        state.add(order[code.k:code.k + 60])  # zero payloads
        assert self.repeats(round_rows)
        assert_row_acc(state)

    def test_xor_rows_beyond_pass_bound(self):
        # a first pass over more distinct rows than one XOR takes, then
        # passes over the repeats, against one XOR per (row, source) pair
        rng = np.random.default_rng(3)
        m = 2 * _PASS_ROWS + 17
        dst = np.concatenate([rng.permutation(m), rng.integers(0, m, m)])
        src = rng.integers(0, 50, dst.size)
        X = rng.integers(0, 256, (50, 3), dtype=np.uint8)
        acc = rng.integers(0, 256, (m, 3), dtype=np.uint8)
        want = acc.copy()
        for d, j in zip(dst, src):
            want[d] ^= X[j]
        _xor_rows(acc, dst, X, src)
        assert np.array_equal(acc, want)


def direct_system(rows, ncols, rhs):
    rowid = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    colid = np.concatenate([np.asarray(r) for r in rows]) if rows else np.zeros(0, int)
    bits = pack_pairs(len(rows), ncols, rowid, colid)
    return ResidualSystem(bits=bits, rhs=np.asarray(rhs, dtype=np.uint8),
                          ncols=ncols, col_map=np.arange(ncols))


class TestElimination:
    def test_identity_no_ops(self):
        sys = direct_system([[0], [1], [2]], 3, [[1], [2], [3]])
        c = OpCounter()
        assert forward_eliminate(sys, c)
        sol = back_substitute(sys, c)
        assert c.fe_ops == 0 and c.bs_ops == 0
        assert np.array_equal(sol, [[1], [2], [3]])

    def test_singular_all_ones(self):
        sys = direct_system([[0, 1], [0, 1]], 2, [[5], [5]])
        c = OpCounter()
        assert not forward_eliminate(sys, c)
        assert sys.singular_col == 1
        assert c.fe_ops == 1  # row 1 cleared by row 0 before the rank check fails

    def test_bidiagonal_back_substitution(self):
        # upper bidiagonal: one substitution per column except the last
        sys = direct_system([[0, 1], [1, 2], [2]], 3, [[1], [2], [4]])
        c = OpCounter()
        assert forward_eliminate(sys, c)
        sol = back_substitute(sys, c)
        assert c.fe_ops == 0 and c.bs_ops == 2
        assert np.array_equal(sol, [[1 ^ 2 ^ 4], [2 ^ 4], [4]])

    def test_needs_row_swap(self):
        sys = direct_system([[1], [0, 1]], 2, [[7], [9]])
        c = OpCounter()
        assert forward_eliminate(sys, c)
        sol = back_substitute(sys, c)
        assert np.array_equal(sol, [[9 ^ 7], [7]])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        # 9 columns fit one packed word; 130 need three
        for m, n, runs in [(12, 9, 40), (136, 130, 3)]:
            agree = 0
            while agree < runs:
                dense = (rng.random((m, n)) < 0.45).astype(np.uint8)
                A = sparse_from_dense(dense)
                rhs = rng.integers(0, 256, (m, 2), dtype=np.uint8)
                # make rhs consistent: re-derive from a planted solution
                X = rng.integers(0, 256, (n, 2), dtype=np.uint8)
                rhs = np.zeros((m, 2), dtype=np.uint8)
                for i in range(m):
                    cols = A.row(i)
                    if cols.size:
                        rhs[i] = np.bitwise_xor.reduce(X[cols], axis=0)
                want = dense_solve_oracle(A, rhs)
                sys = direct_system([list(A.row(i)) for i in range(m)], n, rhs)
                c = OpCounter()
                ok = forward_eliminate(sys, c)
                assert ok == (want is not None)
                if ok:
                    assert np.array_equal(back_substitute(sys, c), want)
                    agree += 1


def received_after_loss(code, loss, seed, cw=None):
    """Symbols left after erasing int(loss*n) at random, in index order."""
    rng = np.random.default_rng(seed)
    lost = rng.choice(code.n, size=int(loss * code.n), replace=False)
    mask = np.ones(code.n, dtype=bool)
    mask[lost] = False
    return {int(j): cw.symbols[j] if cw is not None else None
            for j in np.nonzero(mask)[0]}


class TestResidual:
    @staticmethod
    def stalled_state(code, loss, seed, L=0, cw=None):
        state = ReceptionState(code, L)
        for j, v in received_after_loss(code, loss, seed, cw).items():
            state.receive(j, v)
        state.peel()
        return state

    @staticmethod
    def rows_hp(pc, state):
        """H' row of each residual row: the rows left with an unknown, in H' order."""
        return np.flatnonzero(state.row_unknown[pc.row_orig] > 0)

    def test_dimensions_and_rhs(self):
        code = make_code(EnsembleSpec("band"), 960, seed=7)
        rng = np.random.default_rng(6)
        _, cw = random_codeword(code, 3, rng)
        state = self.stalled_state(code, 0.30, 6, L=3, cw=cw)
        assert not state.complete
        pc = permuted_code(code)
        sys = build_residual(code, pc, state)
        assert sys.ncols == code.n - state.known.sum()
        assert sys.nrows >= sys.ncols
        assert sys.ncols <= code.n - code.k and sys.nrows <= code.m
        # each residual row's rhs is the XOR of that row's known symbols
        for r in [0, sys.nrows // 2, sys.nrows - 1]:
            orig = pc.row_orig[self.rows_hp(pc, state)[r]]
            cols = code.H.row(orig)
            known = cols[state.known[cols]]
            acc = (np.bitwise_xor.reduce(cw.symbols[known], axis=0)
                   if known.size else np.zeros(3, np.uint8))
            assert np.array_equal(sys.rhs[r], acc)

    def test_band_inheritance(self):
        code = make_code(EnsembleSpec("band"), 2000, seed=8)
        state = self.stalled_state(code, 0.30, 7)
        pc = permuted_code(code)
        sys = build_residual(code, pc, state)
        sp = residual_to_sparse(sys)
        rows_hp = self.rows_hp(pc, state)
        cols_hp = band_index(sys.col_map, code.base.b, code.spec.z)
        assert rows_hp.size == sys.nrows
        a, b, M = 5, 15, code.base.M
        for r in range(sp.m):
            for cc in sp.row(r):
                assert in_band(int(rows_hp[r]), int(cols_hp[cc]),
                               a, b, code.m, M)

    def test_empty_when_complete(self):
        code = make_code(EnsembleSpec("band"), 240, seed=9)
        state = self.stalled_state(code, 0.02, 8)
        assert state.complete
        sys = build_residual(code, permuted_code(code), state)
        assert sys.ncols == 0
        out = hybrid_decode(code, received_after_loss(code, 0.02, 8), 0)
        assert out.status is DecodeStatus.SUCCESS
        assert out.counter.ml_ops == 0
        assert (out.residual_rows, out.residual_cols) == (0, 0)

    @staticmethod
    def empty_row_code(entries):
        """3x4 base matrix with one all -1 row: z=2 expands it to two empty rows."""
        base = BaseMatrix(a=3, b=4, M=1, entries=np.array(entries, dtype=np.int64))
        return expand(base, ExpansionSpec(z=2, last_block_staircase=False))

    def test_trailing_empty_rows(self):
        code = self.empty_row_code([[0, 0, 0, -1], [0, 1, 0, 0], [-1, -1, -1, -1]])
        out = hybrid_decode(code, {j: None for j in (0, 1, 5)}, 0)  # 2,3,4,6,7 erased
        assert out.status is DecodeStatus.ML_SINGULAR

    def test_empty_rows_left_out(self):
        # H rows 2 and 3 are empty; the residual holds the four rows with an unknown
        code = self.empty_row_code([[0, 0, 0, -1], [-1, -1, -1, -1], [0, 1, 0, 0]])
        out = hybrid_decode(code, {j: None for j in (0, 5, 7)}, 0)  # 1,2,3,4,6 erased
        assert (out.residual_rows, out.residual_cols) == (4, 5)


class TestBandResidual:
    """The residual's band form against its dense view, on real decodes."""

    @pytest.mark.parametrize("kind", ["band", "unconstrained", "constant_band", "protograph"])
    def test_kernels_match_dense(self, kind):
        # at 30% loss and at the ML threshold, where the last columns fill
        code = make_code(EnsembleSpec(kind), 4000 if "band" in kind else 900, seed=3)
        pc = permuted_code(code)
        order = reception_order(code.n, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        t_ml = minimal_ml_reception(code, pc, order)
        for t in (code.n - round(0.3 * code.n), t_ml - 1, t_ml):
            state = ReceptionState(code, 0)
            state.receive(order[:t])
            state.peel()
            sys = build_residual(code, pc, state)
            band, dense = sys.bits, band_to_dense(sys.bits)
            full = band.width == band.nwords
            assert full == (kind in ("unconstrained", "protograph")), (band.width, band.nwords)
            if not full:  # wrap-corner rows hold words in both the window and the tail
                win, tail = dense[:, :band.tail_start].any(1), dense[:, band.tail_start:].any(1)
                assert (win & tail).any()
            rhs = rng.integers(0, 256, (sys.nrows, 3), dtype=np.uint8)
            got, want = rhs.copy(), rhs.copy()
            ops, free = eliminate(band, got, sys.ncols)
            assert (ops, free) == eliminate(dense, want, sys.ncols)
            assert (free < 0) == (t >= t_ml)
            assert np.array_equal(band_to_dense(band), dense) and np.array_equal(got, want)
            if free < 0:
                assert substitute(band, got, sys.ncols) == substitute(dense, want, sys.ncols)
                assert np.array_equal(got, want)

    def test_size(self):
        # a band residual at the ML threshold takes a third of the dense
        # words at most; one without a band is full width
        for kind, k in [("band", 8000), ("unconstrained", 2000)]:
            code = make_code(EnsembleSpec(kind), k, seed=1)
            pc = permuted_code(code)
            order = reception_order(code.n, np.random.default_rng(1))
            state = ReceptionState(code, 0)
            state.receive(order[:minimal_ml_reception(code, pc, order)])
            state.peel()
            bits = build_residual(code, pc, state).bits
            if kind == "band":
                assert 3 * bits.words.size <= bits.shape[0] * bits.nwords
            else:
                assert (bits.width, bits.tail) == (bits.nwords, 0)


class TestMLDecode:
    def test_success_matches_codeword(self):
        code = make_code(EnsembleSpec("band"), 960, seed=10)
        rng = np.random.default_rng(9)
        _, cw = random_codeword(code, 4, rng)
        out = hybrid_decode(code, received_after_loss(code, 0.30, 9, cw), 4)
        assert out.status is DecodeStatus.SUCCESS
        assert out.residual_rows >= out.residual_cols > 0  # peeling stalled
        assert np.array_equal(out.symbols, cw.symbols)

    @pytest.mark.parametrize("L", [3, 1024])
    def test_transfer_block_at_scale(self, L):
        # a band k=10000 block at 30% loss, as a bulk transfer sees it: the
        # residual spans many packed words and every payload byte is solved
        code = make_code(EnsembleSpec("band"), 10000, seed=1)
        _, cw = random_codeword(code, L, np.random.default_rng(L))
        out = hybrid_decode(code, received_after_loss(code, 0.30, L, cw), L)
        assert out.status is DecodeStatus.SUCCESS
        assert np.array_equal(out.symbols, cw.symbols)
        assert out.residual_cols > 192

    def test_singular_leaves_state(self):
        # nothing received: both symbols unknown, the 2x2 residual has rank 1
        code = all_ones_2x2_code()
        out = hybrid_decode(code, {}, 1)
        assert out.status is DecodeStatus.ML_SINGULAR
        assert out.symbols is None
        assert (out.residual_rows, out.residual_cols) == (2, 2)

    def test_success_iff_full_column_rank(self):
        # verdict must agree with an independent rank computation
        rng = np.random.default_rng(10)
        verdicts = set()
        for t in range(30):
            code = make_code(EnsembleSpec("unconstrained"), 90, seed=100 + t)
            state = TestResidual.stalled_state(code, 0.33, t)
            if state.complete:
                continue
            sys = build_residual(code, permuted_code(code), state)
            want = rank_oracle(residual_to_sparse(sys)) == sys.ncols
            out = hybrid_decode(code, received_after_loss(code, 0.33, t), 0)
            got = out.status is DecodeStatus.SUCCESS
            assert got == want
            verdicts.add(got)
        assert verdicts == {True, False}  # both branches exercised


def flipped_bit_decode(loss=0.28):
    """Band k=2000, L=64, one received symbol with one bit flipped.

    At 28% loss the corrupt symbol sits in a stalled decode, so ML
    elimination solves the residual from it; at 20% peeling completes.
    Only a parity check can tell either way.
    """
    code = make_code(EnsembleSpec("band"), 2000, seed=5)
    rng = np.random.default_rng(7)
    _, cw = random_codeword(code, 64, rng)
    lost = set(rng.permutation(code.n)[:round(loss * code.n)].tolist())
    received = {j: cw.symbols[j].copy() for j in range(code.n) if j not in lost}
    received[min(received)][0] ^= 1
    return hybrid_decode(code, received, 64)


class TestHybridDecode:
    @staticmethod
    def assert_inconsistent(loss):
        out = flipped_bit_decode(loss)
        assert out.status is DecodeStatus.INCONSISTENT
        assert out.symbols is None
        # the check must survive python -O, which strips assert statements
        here = Path(__file__).resolve().parent
        src = Path(bandfec.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(here)]))
        script = ("import sys\n"
                  "if not sys.flags.optimize: sys.exit('asserts are on')\n"
                  "from test_codec import flipped_bit_decode\n"
                  f"print(flipped_bit_decode({loss!r}).status.value)")
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["inconsistent"]
        return out

    def test_corrupt_symbol_inconsistent(self):
        assert self.assert_inconsistent(0.28).counter.ml_ops > 0

    def test_corrupt_symbol_peel_only_inconsistent(self):
        c = self.assert_inconsistent(0.20).counter
        assert (c.it_ops, c.ml_ops) == (2453, 0)

    def test_roundtrip_with_ml(self):
        code = make_code(EnsembleSpec("band"), 960, seed=11)
        rng = np.random.default_rng(11)
        src, cw = random_codeword(code, 8, rng)
        lost = set(rng.choice(code.n, size=int(0.3 * code.n), replace=False).tolist())
        received = {j: cw.symbols[j] for j in range(code.n) if j not in lost}
        out = hybrid_decode(code, received, 8)
        assert out.status is DecodeStatus.SUCCESS
        assert np.array_equal(out.symbols[:code.k], src)
        assert out.counter.ml_ops > 0  # 30% loss does not peel through

    def test_it_only_stall(self):
        code = make_code(EnsembleSpec("band"), 960, seed=11)
        rng = np.random.default_rng(12)
        _, cw = random_codeword(code, 1, rng)
        lost = set(rng.choice(code.n, size=int(0.3 * code.n), replace=False).tolist())
        received = {j: cw.symbols[j] for j in range(code.n) if j not in lost}
        out = hybrid_decode(code, received, 1, allow_ml=False)
        assert out.status is DecodeStatus.IT_PARTIAL
        assert out.symbols is None

    @pytest.mark.parametrize("index", [-1, "n"])
    def test_index_out_of_range(self, index):
        # -1 would otherwise stand for symbol n-1 and decode to SUCCESS,
        # and n would fail on a bare IndexError
        code = make_code(EnsembleSpec("band"), 240, seed=4)
        _, cw = random_codeword(code, 2, np.random.default_rng(0))
        received = {j: cw.symbols[j] for j in range(code.n - 1)}
        received[code.n if index == "n" else index] = cw.symbols[-1]
        with pytest.raises(ValueError, match=rf"out of range \[0, {code.n}\)"):
            hybrid_decode(code, received, 2)

    @pytest.mark.parametrize("cut", ["every", "one"])
    def test_short_payload_rejected(self, cut):
        # a one-byte payload would broadcast over the symbol's 8 bytes: cut
        # in every payload it decoded to SUCCESS with wrong symbols, cut in
        # one to INCONSISTENT
        code = make_code(EnsembleSpec("band"), 240, seed=4)
        rng = np.random.default_rng(0)
        _, cw = random_codeword(code, 8, rng)
        lost = set(rng.permutation(code.n)[:round(0.2 * code.n)].tolist())
        received = {j: cw.symbols[j] for j in range(code.n) if j not in lost}
        first = min(received)
        for j in (list(received) if cut == "every" else [first]):
            received[j] = received[j][:1]
        with pytest.raises(ValueError, match=f"symbol {first} has length 1, expected 8"):
            hybrid_decode(code, received, 8)

    def test_monotone_in_received_set(self):
        # adding one more received symbol never breaks a success
        rng = np.random.default_rng(13)
        for t in range(10):
            code = make_code(EnsembleSpec("unconstrained"), 90, seed=200 + t)
            _, cw = random_codeword(code, 1, rng)
            lost = rng.permutation(code.n)[:int(0.34 * code.n)]
            received = {j: cw.symbols[j] for j in range(code.n) if j not in set(lost.tolist())}
            base_ok = hybrid_decode(code, received, 1).status is DecodeStatus.SUCCESS
            if not base_ok:
                continue
            extra = dict(received)
            extra[int(lost[0])] = cw.symbols[int(lost[0])]
            assert hybrid_decode(code, extra, 1).status is DecodeStatus.SUCCESS


class TestReceivedEntries:
    """hybrid_decode reads each entry of *received* one way: an integer index
    in [0, n) and, at a positive symbol size, a payload of that many bytes."""

    @staticmethod
    def band_240(L, seed=4, loss=0.2):
        code = make_code(EnsembleSpec("band"), 240, seed=seed)
        rng = np.random.default_rng(seed)
        _, cw = random_codeword(code, L, rng)
        lost = set(rng.permutation(code.n)[:round(loss * code.n)].tolist())
        return code, cw, {j: cw.symbols[j] for j in range(code.n) if j not in lost}

    def test_none_payload_rejected(self):
        # a None payload used to stand for zero bytes: here the decode
        # returned SUCCESS with 66 wrong symbols
        code, cw, received = self.band_240(8, seed=121, loss=0.32)
        out = hybrid_decode(code, received, 8)
        assert out.status is DecodeStatus.SUCCESS
        assert np.array_equal(out.symbols, cw.symbols)
        first = next(j for j, v in received.items() if v.any())
        received[first] = None
        with pytest.raises(ValueError, match=f"symbol {first} has no payload, expected 8"):
            hybrid_decode(code, received, 8)

    @pytest.mark.parametrize("make, what", [
        (lambda v: v.astype(np.int64) + 256, "a 1-D int64 array"),
        (lambda v: v + 0.7, "a 1-D float64 array"),
        (lambda v: 5, "of type int"),
        (lambda v: v.tobytes(), "of type bytes"),
        (lambda v: v[None], "a 2-D uint8 array"),
        (lambda v: v[:, None], "a 2-D uint8 array"),
    ], ids=["int64", "float", "scalar", "bytes", "row", "column"])
    def test_payload_not_uint8_rejected(self, make, what):
        # an int64 payload 256 higher and a float one 0.7 higher were cast
        # to the original bytes and decoded to SUCCESS; a scalar raised a
        # bare TypeError and bytes numpy's "invalid literal for int()"
        code, cw, received = self.band_240(8)
        first = min(received)
        received[first] = make(received[first])
        with pytest.raises(ValueError, match=f"symbol {first} payload is {what}, "
                                             "expected a 1-D uint8 array of 8 bytes"):
            hybrid_decode(code, received, 8)

    @pytest.mark.parametrize("L", [0, 8])
    def test_float_key_rejected(self, L):
        # at L=0 the key 1.5 was read as symbol 1 (a complete reception with
        # it_ops 0); at L=8 it failed on a bare IndexError
        code, cw, _ = self.band_240(L)
        received = {j: cw.symbols[j] for j in range(code.n)}
        received[1.5] = received.pop(1)
        with pytest.raises(ValueError, match=rf"not an integer or out of range \[0, {code.n}\)"):
            hybrid_decode(code, received, L)

    def test_values_not_read_at_size_0(self):
        # None, as sim passes, is as good as a payload at L=0; an empty
        # mapping, a float array to numpy, decodes as nothing received
        code, _, received = self.band_240(0)
        bare = hybrid_decode(code, dict.fromkeys(received), 0)
        full = hybrid_decode(code, received, 0)
        assert bare.status is full.status is DecodeStatus.SUCCESS
        assert bare.counter == full.counter
        out = hybrid_decode(code, {}, 0, allow_ml=False)
        assert (out.status, out.counter.it_ops) == (DecodeStatus.IT_PARTIAL, 0)


class TestSymbolFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        present = {3: rng.integers(0, 256, 4, dtype=np.uint8),
                   0: rng.integers(0, 256, 4, dtype=np.uint8),
                   70000: rng.integers(0, 256, 4, dtype=np.uint8)}
        path = tmp_path / "syms.bin"
        write_symbols(path, 80000, 50000, 4, present)
        n, k, L, back = read_symbols(path)
        assert (n, k, L) == (80000, 50000, 4)
        assert set(back) == set(present)
        for j in present:
            assert np.array_equal(back[j], present[j])

    def test_length_checked(self, tmp_path):
        with pytest.raises(ValueError):
            write_symbols(tmp_path / "x.bin", 4, 2, 3, {0: np.zeros(2, np.uint8)})

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"4 2 3\n\x00\x00\x00\x01\xaa")
        with pytest.raises(ValueError):
            read_symbols(path)
