import numpy as np
import pytest

from bandfec.band import permuted_code
from bandfec.codec import DecodeStatus, OpCounter
from bandfec.gf2 import SparseBinMatrix, rank_oracle
from bandfec.qc import EnsembleSpec, make_code
from bandfec.sim import (bler_sweep, fit_loglog_slope, format_rows,
                         ineff_sweep, inefficiency_trial, it_completion_time,
                         minimal_ml_reception, ops_vs_k, ops_vs_loss,
                         reception_order, trial_seed, write_csv, _loss_trial)


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
        if rank_oracle(SparseBinMatrix.from_dense(HT[erased])) == len(erased):
            return t
    return n


class TestMinimalReception:
    @pytest.mark.parametrize("kind", ["band", "unconstrained", "protograph"])
    def test_matches_rank_search(self, kind):
        k = 120 if kind == "band" else 90  # band needs z > floor(3*sqrt(z))
        for t in range(6):
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


class TestInefficiencyTrial:
    def test_bounds_and_determinism(self):
        r1 = inefficiency_trial(EnsembleSpec("band"), 480, seed=5)
        r2 = inefficiency_trial(EnsembleSpec("band"), 480, seed=5)
        assert 1.0 <= r1.ml_inefficiency <= r1.it_inefficiency
        assert (r1.ml_inefficiency, r1.it_inefficiency, r1.counter.total) == \
            (r2.ml_inefficiency, r2.it_inefficiency, r2.counter.total)

    def test_residual_is_square_or_tall(self):
        r = inefficiency_trial(EnsembleSpec("band"), 2000, seed=6)
        assert not r.failed
        assert r.residual_rows >= r.residual_cols

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
        A = SparseBinMatrix.from_dense(code.H.to_dense().T[erased])
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
