"""Erasure-channel simulation and experiment sweeps.

Trials are independent: each one builds a fresh code from a seed derived
from the master seed, so results are reproducible bit-for-bit and can be
distributed over processes (BANDFEC_JOBS) without changing the output.

Loss sweeps erase a fixed count round(p*n) of randomly chosen symbols
(random permutation before transmission); inefficiency trials report
consumed/k at the shortest prefix of a random symbol order that decodes,
found by one elimination pass (hybrid) and by bisection (peeling alone).
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .gf2 import eliminate, pack_pairs
from .qc import EnsembleSpec, QCCode, make_code
from .band import PermutedCode, permuted_code
from .codec import DecodeStatus, OpCounter, ReceptionState, hybrid_decode


@dataclass
class TrialResult:
    it_inefficiency: float
    ml_inefficiency: float
    counter: OpCounter
    status: DecodeStatus
    residual_rows: int = 0   # m' of the solved residual system
    residual_cols: int = 0   # n'

    @property
    def failed(self):
        return self.status is not DecodeStatus.SUCCESS


@dataclass
class CurvePoint:
    x: float
    mean: float
    stderr: float
    trials: int


def reception_order(n: int, rng) -> np.ndarray:
    """Uniform random transmission order of the n symbols."""
    return rng.permutation(n)


def minimal_ml_reception(code: QCCode, pc: PermutedCode, order) -> int:
    """Smallest prefix length of *order* at which hybrid decoding succeeds.

    Decoding succeeds at prefix t iff the H columns of the symbols not yet
    received are linearly independent.  Packed as rows, last-received first,
    and eliminated in place with the pivot on the lowest row index not yet a
    pivot, a row ends without a pivot iff it depends on later-received ones;
    the first such row marks the success boundary.  Single pass over H'
    rows: step c reads only the non-pivot rows with a nonzero word c // 64
    and XORs up to the pivot row's last nonzero word, past which it is zero
    (:func:`bandfec.gf2.eliminate`), so band codes stay cheap.
    """
    n, m, k = code.n, code.m, code.k
    N = n - k  # decoding cannot complete with fewer than k symbols
    # row i of the packed matrix is the H column of symbol order[n-1-i], its
    # bits in H' row order
    pos = np.full(n, -1, dtype=np.int64)
    pos[order[k:][::-1]] = np.arange(N)
    pos_nz = pos[code.H.indices]
    tail = pos_nz >= 0
    bits = pack_pairs(N, m, pos_nz[tail], pc.row_of[code.H.row_ids()[tail]])
    not_pivot = np.ones(N, dtype=bool)
    eliminate(bits, np.zeros((N, 0), np.uint8), m, active=not_pivot)
    dep = np.nonzero(not_pivot)[0]
    if dep.size == 0:
        return k
    return n - int(dep[0])


def it_completion_time(code: QCCode, order) -> int:
    """Consumed symbols until iterative decoding alone completes, found by
    bisection: peeling a superset of the received symbols recovers a superset,
    and k-1 symbols leave m+1 unknowns, more than the m rows can recover."""
    def complete(t):
        state = ReceptionState(code, 0)
        state.receive(order[:t])
        state.peel()
        return state.complete

    return code.k + bisect.bisect_left(range(code.k, code.n + 1), True, key=complete)


def inefficiency_trial(ensemble: EnsembleSpec, k: int, seed: int,
                       b: int = 15, a: int = 5) -> TrialResult:
    """One reception-overhead trial on a freshly built code.

    Feeds a random symbol order and records consumed/k at the first point
    where ML (hybrid) decoding completes and, separately, where iterative
    decoding alone completes.  Operation counters come from a decode run
    at the minimal successful reception.
    """
    code = make_code(ensemble, k, b=b, a=a, seed=seed)
    pc = permuted_code(code)
    order = reception_order(code.n, np.random.default_rng([int(seed), 2]))
    t_ml = minimal_ml_reception(code, pc, order)
    t_it = it_completion_time(code, order)
    out = hybrid_decode(code, {int(j): None for j in order[:t_ml]}, 0)
    return TrialResult(it_inefficiency=t_it / k, ml_inefficiency=t_ml / k,
                       counter=out.counter, status=out.status,
                       residual_rows=out.residual_rows,
                       residual_cols=out.residual_cols)


def _loss_trial(ensemble, k, b, a, loss, seed):
    """Hybrid decode (no payloads) with round(loss*n) random symbols erased."""
    code = make_code(ensemble, k, b=b, a=a, seed=seed)
    n_erased = int(round(loss * code.n))
    order = reception_order(code.n, np.random.default_rng([int(seed), 2]))
    out = hybrid_decode(code, {int(j): None for j in order[n_erased:]}, 0)
    return out.status is DecodeStatus.SUCCESS, out.counter


def trial_seed(master_seed: int, *tags) -> int:
    """Derived, collision-resistant seed for one trial."""
    ss = np.random.SeedSequence([int(master_seed), *(int(t) for t in tags)])
    return int(ss.generate_state(1)[0])


def job_count() -> int:
    """Worker processes for sweeps, from BANDFEC_JOBS (default 1)."""
    raw = os.environ.get("BANDFEC_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"BANDFEC_JOBS must be an integer >= 1, got {raw!r}")
    return jobs


def _pmap(fn, argss):
    jobs = job_count()
    if jobs > 1 and len(argss) > 1:
        with Pool(jobs) as pool:
            return pool.starmap(fn, argss)
    return [fn(*args) for args in argss]


def _point(x, values, trials):
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return CurvePoint(x=x, mean=float("nan"), stderr=float("nan"), trials=trials)
    stderr = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return CurvePoint(x=x, mean=float(values.mean()), stderr=stderr, trials=trials)


def _sweep(fn, tag, xs, trials, master_seed, args):
    """Per x, the results of fn(*args(x, seed)) for the seeds of its trials."""
    return [_pmap(fn, [args(x, trial_seed(master_seed, tag, pi, t)) for t in range(trials)])
            for pi, x in enumerate(xs)]


def ineff_sweep(ensemble: EnsembleSpec, ks, trials: int, master_seed: int,
                b: int = 15, a: int = 5):
    """Mean inefficiency ratio vs k, for IT-only and ML decoding.

    Returns dict with 'it', 'ml' and 'failures' curve-point lists; failed
    trials (possible only through rank exhaustion) are excluded from the
    inefficiency means and reported as a failure-fraction curve.
    """
    out = {"it": [], "ml": [], "failures": []}
    sweep = _sweep(inefficiency_trial, 0, ks, trials, master_seed,
                   lambda k, seed: (ensemble, k, seed, b, a))
    for k, results in zip(ks, sweep):
        ok = [r for r in results if not r.failed]
        out["it"].append(_point(k, [r.it_inefficiency for r in ok], trials))
        out["ml"].append(_point(k, [r.ml_inefficiency for r in ok], trials))
        out["failures"].append(_point(k, [1.0 if r.failed else 0.0 for r in results], trials))
    return out


def bler_sweep(ensemble: EnsembleSpec, k: int, losses, trials: int,
               master_seed: int, b: int = 15, a: int = 5):
    """ML block-error rate vs loss fraction, full received set per trial."""
    sweep = _sweep(_loss_trial, 1, losses, trials, master_seed,
                   lambda loss, seed: (ensemble, k, b, a, loss, seed))
    return [_point(loss, [0.0 if ok else 1.0 for ok, _ in results], trials)
            for loss, results in zip(losses, sweep)]


def ops_vs_loss(ensemble: EnsembleSpec, k: int, losses, trials: int,
                master_seed: int, b: int = 15, a: int = 5):
    """Mean decoding cost (IT + FE + BS row/symbol operations) vs loss fraction."""
    sweep = _sweep(_loss_trial, 2, losses, trials, master_seed,
                   lambda loss, seed: (ensemble, k, b, a, loss, seed))
    return [_point(loss, [c.total for _, c in results], trials)
            for loss, results in zip(losses, sweep)]


def ops_vs_k(ensemble: EnsembleSpec, ks, trials: int, master_seed: int,
             b: int = 15, a: int = 5):
    """Worst-case ML cost vs k, plus the fitted log-log slope.

    Per trial, the ML operation count at the minimal successful reception
    of an inefficiency trial.  Returns (points, slope).
    """
    sweep = _sweep(inefficiency_trial, 3, ks, trials, master_seed,
                   lambda k, seed: (ensemble, k, seed, b, a))
    points = [_point(k, [r.counter.ml_ops for r in results], trials)
              for k, results in zip(ks, sweep)]
    slope = fit_loglog_slope([p.x for p in points], [p.mean for p in points])
    return points, slope


def fit_loglog_slope(xs, ys) -> float:
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# CSV output: one header line, fixed column set, deterministic formatting.

CSV_HEADER = "experiment,ensemble,k,rate,x,mean,stderr,trials,master_seed"


def format_rows(experiment, ensemble: EnsembleSpec, k, rate, points,
                master_seed) -> list[str]:
    rows = []
    for p in points:
        rows.append(f"{experiment},{ensemble.kind},{k},{rate:.10g},{p.x:.10g},"
                    f"{p.mean:.10g},{p.stderr:.10g},{p.trials},{master_seed}")
    return rows


def write_csv(path, rows):
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for row in rows:
            f.write(row + "\n")
