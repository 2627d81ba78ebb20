import os
import weakref
from unittest import mock

import numpy as np
import pytest

from bandfec.band import permuted_code
from bandfec.codec import DecodeStatus, OpCounter, ReceptionState
from bandfec.gf2 import pack_pairs, rank_oracle
from bandfec import sim
from bandfec.qc import EnsembleSpec, make_code
from bandfec.sim import (bler_sweep, fit_loglog_slope, format_rows,
                         ineff_sweep, inefficiency_trial, it_completion_time,
                         minimal_ml_reception, ops_vs_k, ops_vs_loss,
                         reception_order, trial_seed, write_csv, _loss_trial)

from oracles import sparse_from_dense


class TestReceptionOrder:
    def test_is_permutation(self):
        order = reception_order(100, np.random.default_rng(0))
        assert np.array_equal(np.sort(order), np.arange(100))

    def test_first_position_uniform(self):
        # chi-square over the first element of 10^4 draws of a 4-permutation
        rng = np.random.default_rng(1)
        counts = np.zeros(4)
        N = 10**4
        for _ in range(N):
            counts[reception_order(4, rng)[0]] += 1
        chi2 = float((((counts - N / 4) ** 2) / (N / 4)).sum())
        assert chi2 < 16.27  # 99.9% quantile, 3 dof


def naive_minimal_reception(code, order):
    """Reference: first prefix whose erased H columns are independent."""
    HT = code.H.to_dense().T
    n, k = code.n, code.k
    for t in range(k, n + 1):
        erased = order[t:]
        if rank_oracle(sparse_from_dense(HT[erased])) == len(erased):
            return t
    return n


class TestMinimalReception:
    @pytest.mark.parametrize("kind", ["band", "unconstrained", "protograph"])
    def test_matches_rank_search(self, kind):
        # band needs z > floor(3*sqrt(z)); m = k/2 packs into one 64-bit word
        # at the first k and into 3 to 10 words at the others
        cases = [(120, 6), (600, 4), (1200, 4)] if kind == "band" else [(90, 6), (300, 4)]
        for k, seeds in cases:
            for t in range(seeds):
                code = make_code(EnsembleSpec(kind), k, seed=300 + t)
                pc = permuted_code(code)
                order = reception_order(code.n, np.random.default_rng(t))
                assert minimal_ml_reception(code, pc, order) == \
                    naive_minimal_reception(code, order)

    def test_it_never_beats_ml(self):
        for t in range(5):
            code = make_code(EnsembleSpec("band"), 240, seed=400 + t)
            pc = permuted_code(code)
            order = reception_order(code.n, np.random.default_rng(t))
            assert it_completion_time(code, order) >= \
                minimal_ml_reception(code, pc, order)

    def test_threshold_ledger_keeps_no_payloads(self):
        # the threshold packs one array, the peel's m x (t_it - k)-bit row sums
        # from (row, symbol) pairs: no unit-vector array of q x q bits and no
        # payload per symbol, n x q bits
        code = make_code(EnsembleSpec("band"), 2000, seed=3)
        order = reception_order(code.n, np.random.default_rng(3))
        t_it = it_completion_time(code, order)
        ledgers, peel_seeded = [], ReceptionState.peel_seeded

        def spy(state, row_acc):
            peel_seeded(state, row_acc)
            ledgers.append({name: a.shape for name, a in vars(state).items()
                            if isinstance(a, np.ndarray)})

        with mock.patch.object(ReceptionState, "peel_seeded", spy), \
                mock.patch("bandfec.sim.pack_pairs", wraps=pack_pairs) as packed:
            t_ml = minimal_ml_reception(code, None, order)
        assert code.k < t_ml < t_it
        assert [c.args[:2] for c in packed.call_args_list] == [(code.m, t_it - code.k)]
        words = -(-(t_it - code.k) // 64)
        assert ledgers == [{"known": (code.n,), "values": (code.n, 0),
                            "row_unknown": (code.m,), "row_acc": (code.m, 8 * words)}]

    def test_threshold_row_sums_dropped_before_elimination(self):
        # the m x (t_it - k)-bit row sums are unreachable once their nonzero
        # rows are copied out, so elimination never runs beside them
        code = make_code(EnsembleSpec("band"), 2000, seed=3)
        order = reception_order(code.n, np.random.default_rng(3))
        refs, alive, peel_seeded, eliminate = [], [], ReceptionState.peel_seeded, sim.eliminate

        def spy_peel(state, row_acc):
            peel_seeded(state, row_acc)
            refs.extend(weakref.ref(a) for a in (state.row_acc, state.row_acc.base))

        def spy_eliminate(*args):
            alive.append([r() is not None for r in refs])
            return eliminate(*args)

        with mock.patch.object(ReceptionState, "peel_seeded", spy_peel), \
                mock.patch("bandfec.sim.eliminate", spy_eliminate):
            t_ml = minimal_ml_reception(code, None, order)
        assert code.k < t_ml
        assert alive == [[False, False]]


class TestInefficiencyTrial:
    def test_bounds_and_determinism(self):
        r1 = inefficiency_trial(EnsembleSpec("band"), 480, seed=5)
        r2 = inefficiency_trial(EnsembleSpec("band"), 480, seed=5)
        assert 1.0 <= r1.ml_inefficiency <= r1.it_inefficiency
        assert (r1.ml_inefficiency, r1.it_inefficiency, r1.counter.total) == \
            (r2.ml_inefficiency, r2.it_inefficiency, r2.counter.total)

    def test_residual_is_square_or_tall(self):
        r = inefficiency_trial(EnsembleSpec("band"), 2000, seed=6)
        assert r.status is DecodeStatus.SUCCESS
        assert r.residual_rows >= r.residual_cols

    @pytest.mark.parametrize("kind", ["band", "unconstrained", "protograph", "constant_band"])
    def test_decodes_at_t_ml(self, kind):
        # the decode that ineff_sweep's trials leave out succeeds at t_ml, and
        # those trials report the same ratios without it
        for seed in range(3):
            r = inefficiency_trial(EnsembleSpec(kind), 480, seed)
            assert r.status is DecodeStatus.SUCCESS
            assert sim._threshold_trial(EnsembleSpec(kind), 480, seed, 15, 5) == \
                (r.it_inefficiency, r.ml_inefficiency)

    def test_minimality(self):
        # one fewer symbol than the reported minimum must not decode
        ens = EnsembleSpec("band")
        k, seed = 480, 9
        r = inefficiency_trial(ens, k, seed=seed)
        code = make_code(ens, k, seed=seed)
        pc = permuted_code(code)
        order = reception_order(code.n, np.random.default_rng([seed, 2]))
        t_ml = round(r.ml_inefficiency * k)
        assert minimal_ml_reception(code, pc, order) == t_ml
        erased = order[t_ml - 1:]
        A = sparse_from_dense(code.H.to_dense().T[erased])
        assert rank_oracle(A) < len(erased)


class TestLossTrials:
    def test_zero_loss_zero_ops(self):
        ok, counter = _loss_trial(EnsembleSpec("band"), 240, 15, 5, 0.0, 3)
        assert ok and counter.total == 0

    def test_heavy_loss_fails(self):
        # more erasures than parity symbols cannot be recovered
        ok, _ = _loss_trial(EnsembleSpec("band"), 240, 15, 5, 0.5, 3)
        assert not ok

    def test_erasure_count_fixed(self):
        code = make_code(EnsembleSpec("band"), 240, seed=4)
        # the sweep convention: round(loss * n) erased, no binomial spread
        for seed in range(3):
            order = reception_order(code.n, np.random.default_rng([seed, 2]))
            assert order.size == code.n


class TestRecordedResults:
    """Literal results recorded before the decode pipeline was unified.

    Op counts, residual sizes and inefficiencies are pure functions of the
    seed, so any refactor of the decode path must reproduce them exactly.
    """

    S = DecodeStatus.SUCCESS

    @pytest.mark.parametrize("kind,k,seed,want", [
        ("band", 2000, 11, (S, 248, 23043, 9445, 934, 933, 1.0045, 1.082)),
        ("unconstrained", 600, 12, (S, 101, 5014, 3478, 277, 274, 604 / 600, 1.11)),
        ("protograph", 600, 13, (S, 81, 4445, 3939, 276, 276, 1.01, 1.125)),
        # 58 packed words per residual row, recorded before the word-block
        # elimination kernel
        ("band", 8000, 16, (S, 1243, 223430, 40691, 3685, 3683, 8042 / 8000, 8716 / 8000)),
        ("unconstrained", 8000, 17,
         (S, 1115, 623853, 358205, 3712, 3709, 8035 / 8000, 8786 / 8000)),
        # recorded before the warm-started t_it probes: near its threshold
        # this ensemble peels for about 200 rounds, so its probes changed most
        ("constant_band", 10000, 18,
         (S, 1664, 104095, 36958, 4566, 4531, 10099 / 10000, 10790 / 10000)),
    ])
    def test_inefficiency_trial(self, kind, k, seed, want):
        r = inefficiency_trial(EnsembleSpec(kind), k, seed)
        c = r.counter
        assert (r.status, c.it_ops, c.fe_ops, c.bs_ops, r.residual_rows,
                r.residual_cols, r.ml_inefficiency, r.it_inefficiency) == want

    @pytest.mark.parametrize("loss,want", [
        (0.20, (True, 726, 0, 0)),        # peeling completes
        (0.30, (True, 179, 2928, 1395)),  # peeling stalls, ML solves
        (0.40, (False, 42, 2598, 0)),     # residual singular
    ])
    def test_loss_trial(self, loss, want):
        ok, c = _loss_trial(EnsembleSpec("band"), 600, 15, 5, loss, 21)
        assert (ok, c.it_ops, c.fe_ops, c.bs_ops) == want


class TestSweeps:
    def test_ineff_sweep_shape(self):
        out = ineff_sweep(EnsembleSpec("band"), [240, 480], trials=4, master_seed=1)
        assert [p.x for p in out["ml"]] == [240, 480]
        for p in out["ml"]:
            assert p.trials == 4 and p.mean >= 1.0
        for pit, pml in zip(out["it"], out["ml"]):
            assert pit.mean >= pml.mean
        assert all(p.mean == 0.0 for p in out["failures"])

    @pytest.mark.parametrize("kind,ks,trials,seed,want", [
        ("band", [240, 480], 4, 1, [
            "ineff_it,band,0,0.5,240,1.117708333,0.008735934462,4,1",
            "ineff_it,band,0,0.5,480,1.1125,0.003989279616,4,1",
            "ineff_ml,band,0,0.5,240,1.013541667,0.003557969016,4,1",
            "ineff_ml,band,0,0.5,480,1.006770833,0.001971843176,4,1",
            "ineff_failures,band,0,0.5,240,0,0,4,1",
            "ineff_failures,band,0,0.5,480,0,0,4,1"]),
        ("unconstrained", [240], 5, 9, [
            "ineff_it,unconstrained,0,0.5,240,1.119166667,0.007971302696,5,9",
            "ineff_ml,unconstrained,0,0.5,240,1.011666667,0.002763853992,5,9",
            "ineff_failures,unconstrained,0,0.5,240,0,0,5,9"]),
        ("protograph", [240], 3, 2, [
            "ineff_it,protograph,0,0.5,240,1.115277778,0.01111111111,3,2",
            "ineff_ml,protograph,0,0.5,240,1.015277778,0.002777777778,3,2",
            "ineff_failures,protograph,0,0.5,240,0,0,3,2"]),
        ("constant_band", [480], 3, 3, [
            "ineff_it,constant_band,0,0.5,480,1.115277778,0.008448281292,3,3",
            "ineff_ml,constant_band,0,0.5,480,1.007638889,0.001837327299,3,3",
            "ineff_failures,constant_band,0,0.5,480,0,0,3,3"]),
    ])
    def test_ineff_sweep_without_decode(self, kind, ks, trials, seed, want):
        # rows recorded while every trial still decoded at t_ml
        ens = EnsembleSpec(kind)
        with mock.patch("bandfec.sim.hybrid_decode", side_effect=AssertionError("decoded")):
            out = ineff_sweep(ens, ks, trials, seed)
        assert [row for name in ("it", "ml", "failures")
                for row in format_rows(f"ineff_{name}", ens, 0, 0.5, out[name], seed)] == want

    def test_bler_sweep_extremes(self):
        pts = bler_sweep(EnsembleSpec("band"), 240, [0.0, 0.5], trials=6, master_seed=2)
        assert pts[0].mean == 0.0 and pts[1].mean == 1.0

    def test_ops_vs_loss_monotone_endpoints(self):
        pts = ops_vs_loss(EnsembleSpec("band"), 240, [0.0, 0.25], trials=4, master_seed=3)
        assert pts[0].mean == 0.0 and pts[1].mean > 0.0

    def test_ops_vs_k_slope(self):
        pts, slope = ops_vs_k(EnsembleSpec("band"), [240, 480, 960], trials=4,
                              master_seed=4)
        assert len(pts) == 3 and all(p.mean > 0 for p in pts)
        assert 0.5 < slope < 3.0

    def test_trial_seed_distinct(self):
        seeds = {trial_seed(1, e, p, t) for e in range(4) for p in range(4)
                 for t in range(10)}
        assert len(seeds) == 160

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        # a fake pool that records its size: no worker process starts
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, argss):
                return [fn(*args) for args in argss]

        monkeypatch.setattr(sim, "Pool", FakePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setenv("BANDFEC_JOBS", "64")
        return sizes

    def test_pool_capped_at_task_count(self, pool_sizes, monkeypatch):
        # and at the CPUs the process may use, or without affinity at the CPU count
        assert sim._pmap(pow, [(2, 3), (3, 2), (5, 1)]) == [8, 9, 5]
        assert sim._pmap(pow, [(2, t) for t in range(6)]) == [1, 2, 4, 8, 16, 32]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert sim._pmap(pow, [(3, t) for t in range(6)]) == [1, 3, 9, 27, 81, 243]
        assert pool_sizes == [3, 4, 2]

    def test_one_pool_per_sweep(self, pool_sizes, monkeypatch):
        # every (point, trial) pair goes through one pool, in seed order
        pts = bler_sweep(EnsembleSpec("band"), 240, [0.3, 0.4, 0.5], trials=3, master_seed=4)
        assert pool_sizes == [4]
        monkeypatch.setenv("BANDFEC_JOBS", "1")
        assert bler_sweep(EnsembleSpec("band"), 240, [0.3, 0.4, 0.5], trials=3,
                          master_seed=4) == pts
        assert pool_sizes == [4]

    def test_sweep_reproducible(self):
        a = ineff_sweep(EnsembleSpec("unconstrained"), [240], trials=5, master_seed=9)
        b = ineff_sweep(EnsembleSpec("unconstrained"), [240], trials=5, master_seed=9)
        assert a["ml"][0].mean == b["ml"][0].mean
        assert a["ml"][0].stderr == b["ml"][0].stderr


class TestSlopeFit:
    def test_exact_power_law(self):
        xs = [10, 100, 1000]
        ys = [2 * x ** 1.5 for x in xs]
        assert fit_loglog_slope(xs, ys) == pytest.approx(1.5)

    @pytest.mark.parametrize("xs, ys, name", [([10, 20], [0.0, 3.0], "mean"),
                                              ([0, 20], [1.0, 3.0], "x")])
    def test_fit_non_positive_raises(self, xs, ys, name):
        with pytest.raises(ValueError, match=f"needs every {name} positive"):
            fit_loglog_slope(xs, ys)


class TestCsv:
    def test_format_and_write(self, tmp_path):
        ens = EnsembleSpec("band")
        pts = bler_sweep(ens, 240, [0.1], trials=3, master_seed=5)
        rows = format_rows("bler", ens, 240, 2 / 3, pts, 5)
        assert rows[0].startswith("bler,band,240,0.6666666667,0.1,")
        path = tmp_path / "out.csv"
        write_csv(path, rows)
        text = path.read_text().splitlines()
        assert text[0] == "experiment,ensemble,k,rate,x,mean,stderr,trials,master_seed"
        assert text[1] == rows[0]

    def test_byte_identical_reruns(self, tmp_path):
        ens = EnsembleSpec("band")
        outs = []
        for name in ("a.csv", "b.csv"):
            pts = ops_vs_loss(ens, 240, [0.1, 0.2], trials=3, master_seed=6)
            write_csv(tmp_path / name, format_rows("ops_loss", ens, 240, 2 / 3, pts, 6))
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]
