"""Erasure-channel simulation and experiment sweeps.

Trials are independent: each one builds a fresh code from a seed derived
from the master seed, so results are reproducible bit-for-bit and can be
distributed over processes (BANDFEC_JOBS) without changing the output.

Loss sweeps erase a fixed count round(p*n) of randomly chosen symbols
(random permutation before transmission); inefficiency trials report
consumed/k at the shortest prefix of a random symbol order that decodes,
by peeling alone (t_it, found by a search whose probes each add their new
symbols to the peeled ledger of the longest prefix known to fail, which
monotone peeling makes exact) and by hybrid decoding (t_ml, from one peel
at t_it and an elimination over the t_it-k columns of the symbols received
after the first k, in the manner of inactivation decoding; the peel's
row sums are packed from the (row, symbol) pairs of those symbols, whose
unit-vector payloads are the only nonzero ones).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .gf2 import as_words, eliminate, pack_pairs
from .qc import EnsembleSpec, QCCode, make_code
from .band import PermutedCode
from .codec import DecodeStatus, OpCounter, ReceptionState, hybrid_decode


@dataclass
class TrialResult:
    it_inefficiency: float
    ml_inefficiency: float
    counter: OpCounter
    status: DecodeStatus
    residual_rows: int = 0   # m' of the solved residual system
    residual_cols: int = 0   # n'


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
    received, order[t:], are linearly independent.  Peeling completes at
    t_it = it_completion_time(code, order) >= t_ml, where it writes each
    symbol of order[t_it:] as a linear function of the received ones.  With
    order[:k] received as zero and order[t_it-1-j] as the unit vector e_j
    (j < t_it-k), it leaves each parity row reduced to an equation over the
    e_j.  A vector on order[t:] is then in the kernel of H iff its part on
    order[t:t_it], columns 0..t_it-1-t, solves the reduced rows, because
    peeling fixes the rest.  So the first column that forward elimination of
    the reduced rows finds without a pivot, j, gives t_ml = t_it - j; with
    none, t_ml = k.  *pc* is not read.
    """
    return _ml_threshold(code, order, it_completion_time(code, order))


def _ml_threshold(code: QCCode, order, t_it: int) -> int:
    """minimal_ml_reception's result, given t_it.

    Every received payload but the e_j is zero, so each row sum of H X is
    the XOR of the e_j of its columns among order[k:t_it].  A row meets a
    symbol at most once, so that XOR is the OR of one bit per (row, symbol)
    pair, and the pairs from the symbols' rows of H's transpose are packed
    straight into ``row_acc``, m x |Q| bits (:func:`bandfec.gf2.pack_pairs`).
    ``peel_seeded`` peels from it with L set to its width and keeps no
    payload per symbol, so ``row_acc`` is the only array of the peel that
    grows with |Q|.
    The nonzero reduced rows go to elimination lightest first, which lowers
    fill and so row operations.  Which column is the first without a pivot
    depends only on the rows' span, never on their order: column c has a
    pivot iff it is independent of columns 0..c-1 on the reduced rows.
    """
    k, q = code.k, t_it - code.k
    at, touched = code.HT.gather(order[k:t_it])  # symbol order[k+i] holds e_(q-1-i)
    state = ReceptionState(code, 0)
    state.receive(order[:t_it])
    state.peel_seeded(pack_pairs(code.m, q, touched, q - 1 - at).view(np.uint8))
    acc = as_words(state.row_acc)
    rows = acc[acc.any(axis=1)]
    del state, acc  # the ledger and its row sums go before sorting and elimination
    rows = rows[np.argsort(np.bitwise_count(rows).sum(axis=1), kind="stable")]
    _, free = eliminate(rows, np.zeros((len(rows), 0), np.uint8), q)
    return k if free < 0 else t_it - free


def it_completion_time(code: QCCode, order) -> int:
    """Consumed symbols until iterative decoding alone completes, by a search
    between a prefix lo that fails, first k-1 (its m+1 unknowns are more than
    the m rows can recover), and one hi that completes, first n.

    Peeling is monotone and its fixpoint is unique: the symbols it recovers
    from a set of received ones are the same in whatever order they are
    recovered, and a superset of received symbols recovers a superset.  So
    the probe at mid starts from the peeled ledger of prefix lo, adds
    order[lo:mid] and peels on, and reaches the ledger that a peel from
    nothing would.  A failing probe becomes the new base, while a completing
    one's peel is discarded, so mid sits an eighth of the way from lo to hi:
    fewer probes complete, and near the threshold each of those peels for
    tens to hundreds of rounds.
    """
    lo, hi = code.k - 1, code.n
    base = ReceptionState(code, 0)
    base.receive(order[:lo])
    base.peel()
    while hi - lo > 1:
        mid = lo + max(1, (hi - lo) // 8)
        probe = base.copy()
        probe.add(order[lo:mid])
        if probe.complete:
            hi = mid
        else:
            lo, base = mid, probe
    return hi


def inefficiency_trial(ensemble: EnsembleSpec, k: int, seed: int,
                       b: int = 15, a: int = 5) -> TrialResult:
    """One reception-overhead trial on a freshly built code.

    Feeds a random symbol order and records consumed/k at the first point
    where ML (hybrid) decoding completes and, separately, where iterative
    decoding alone completes.  Operation counters come from a decode run
    at the minimal successful reception.
    """
    code = make_code(ensemble, k, b=b, a=a, seed=seed)
    order = reception_order(code.n, np.random.default_rng([int(seed), 2]))
    t_it = it_completion_time(code, order)
    t_ml = _ml_threshold(code, order, t_it)
    out = hybrid_decode(code, dict.fromkeys(order[:t_ml].tolist()), 0)
    return TrialResult(it_inefficiency=t_it / k, ml_inefficiency=t_ml / k,
                       counter=out.counter, status=out.status,
                       residual_rows=out.residual_rows,
                       residual_cols=out.residual_cols)


def _threshold_trial(ensemble, k, seed, b, a):
    """(t_it/k, t_ml/k) of inefficiency_trial, without its decode at t_ml."""
    code = make_code(ensemble, k, b=b, a=a, seed=seed)
    order = reception_order(code.n, np.random.default_rng([int(seed), 2]))
    t_it = it_completion_time(code, order)
    return t_it / k, _ml_threshold(code, order, t_it) / k


def _loss_trial(ensemble, k, b, a, loss, seed):
    """Hybrid decode (no payloads) with round(loss*n) random symbols erased."""
    code = make_code(ensemble, k, b=b, a=a, seed=seed)
    n_erased = int(round(loss * code.n))
    order = reception_order(code.n, np.random.default_rng([int(seed), 2]))
    out = hybrid_decode(code, dict.fromkeys(order[n_erased:].tolist()), 0)
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
    """[fn(*args) for args in argss], over at most BANDFEC_JOBS processes and
    no more than there are tasks or CPUs this process may run on."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    jobs = min(job_count(), len(argss), cpus)
    if jobs > 1:
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
    """Per x, the results of fn(*args(x, seed)) for the seeds of its trials,
    from one map over every (x, trial) pair, so that one pool serves it all."""
    out = _pmap(fn, [args(x, trial_seed(master_seed, tag, pi, t))
                     for pi, x in enumerate(xs) for t in range(trials)])
    return [out[pi * trials:(pi + 1) * trials] for pi in range(len(xs))]


def ineff_sweep(ensemble: EnsembleSpec, ks, trials: int, master_seed: int,
                b: int = 15, a: int = 5):
    """Mean inefficiency ratio vs k, for IT-only and ML decoding.

    Returns dict with 'it', 'ml' and 'failures' curve-point lists.  Trials
    do not decode (:func:`_threshold_trial`): t_ml is the first prefix whose
    erased columns are independent, where a decode without payloads always
    succeeds, so every 'failures' point is 0, kept for the CSV's rows.
    """
    out = {"it": [], "ml": [], "failures": []}
    sweep = _sweep(_threshold_trial, 0, ks, trials, master_seed,
                   lambda k, seed: (ensemble, k, seed, b, a))
    for k, results in zip(ks, sweep):
        it, ml = zip(*results)
        out["it"].append(_point(k, it, trials))
        out["ml"].append(_point(k, ml, trials))
        out["failures"].append(_point(k, [0.0] * trials, trials))
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
    """Least-squares slope of log y against log x; a value that is not
    positive has no logarithm and raises ValueError."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    for name, v in (("x", xs), ("mean", ys)):
        if not (v > 0).all():
            raise ValueError(f"log-log slope needs every {name} positive, got {v.min():g}")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


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
