"""End-to-end and per-layer benchmark for bandfec.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs one kind of operation in a closed loop (the next
operation starts when the previous one ends) for S seconds of wall time,
in whole rounds, and checks every result with this file's own code.  The
library is imported from the checkout's ``src/`` and driven only through
its public functions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds workload-specific figures (encode/decode MB/s,
inefficiencies, op counts) that are not metrics of every workload.  The
result and, when traced, the spans are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# kind "transfer": one operation encodes a fresh k x L source block, erases
# exactly round(loss * n) symbols and decodes the rest with hybrid_decode.
# kind "ineff": one operation is one inefficiency_trial on a fresh code; a
# round is `round_trials` distinct trials, repeated rounds rerun them.
WORKLOADS = {
    "transfer-peel": dict(kind="transfer", ensemble="band", k=10000, L=1024,
                          loss=0.20, setups=5),
    "transfer-ml": dict(kind="transfer", ensemble="band", k=10000, L=1024,
                        loss=0.30, setups=5),
    "ineff-band": dict(kind="ineff", ensemble="band", k=32000, round_trials=3,
                       warmup_k=2000, setups=5),
    "ineff-unconstrained": dict(kind="ineff", ensemble="unconstrained", k=16000,
                                round_trials=3, warmup_k=2000, setups=5),
}

END_TO_END = ("setup_s", "op_ms", "peak_rss_MB")
PER_LAYER = (
    "qc.make_code_ms", "band.permuted_code_ms", "codec.encode_ms",
    "codec.receive_ms", "codec.peel_ms", "codec.it_ops",
    "codec.build_residual_ms", "codec.forward_eliminate_ms",
    "codec.back_substitute_ms", "codec.fe_ops", "codec.bs_ops",
    "codec.residual_rows", "codec.residual_cols", "codec.band_op_ratio",
    "gf2.syndrome_ms", "sim.minimal_ml_reception_ms",
    "sim.it_completion_time_ms", "trace.unaccounted_ms",
)
# layers whose spans add up to one traced operation (unaccounted excludes them)
DECODE_LAYERS = ("codec.receive_ms", "codec.peel_ms", "codec.build_residual_ms",
                 "codec.forward_eliminate_ms", "codec.back_substitute_ms",
                 "gf2.syndrome_ms")
TRIAL_LAYERS = ("qc.make_code_ms", "band.permuted_code_ms",
                "sim.minimal_ml_reception_ms", "sim.it_completion_time_ms") + DECODE_LAYERS
UNITS = {"codec.it_ops": "count", "codec.fe_ops": "count", "codec.bs_ops": "count",
         "codec.residual_rows": "count", "codec.residual_cols": "count",
         "codec.band_op_ratio": "ratio", "setup_s": "s", "peak_rss_MB": "MB"}


class BenchmarkError(Exception):
    """The benchmark cannot run in this checkout or environment."""


def load_library():
    """Import bandfec from this checkout's src/, never from elsewhere."""
    if sys.flags.optimize:
        raise BenchmarkError("refusing to run under python -O: ml_decode's "
                             "syndrome check is an assert, so -O measures a "
                             "different program")
    if not (SRC / "bandfec" / "__init__.py").is_file():
        raise BenchmarkError(f"no bandfec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bandfec
    if Path(bandfec.__file__).resolve().parent != SRC / "bandfec":
        raise BenchmarkError(f"bandfec imported from {bandfec.__file__}, not {SRC}")
    return bandfec


def derive_seed(seed: int, *tags) -> int:
    return int(np.random.SeedSequence([int(seed), *tags]).generate_state(1)[0])


class Tracer:
    """Spans kept in memory as (op id, name, parent, start ns, end ns).

    Each traced operation has a root span named after the operation; every
    layer span of that operation has the root as its parent.
    """

    def __init__(self):
        self.spans = []
        self._root = None
        self._t = 0

    def start(self, op, name):
        self._t = time.perf_counter_ns()
        self._root = (op, name, self._t)

    def lap(self, name, layers):
        """Close the span of layer *name* running since the last lap and add
        its duration to layers[name + "_ms"]."""
        t = time.perf_counter_ns()
        op, root, _ = self._root
        self.spans.append((op, name, root, self._t, t))
        layers[name + "_ms"] = layers.get(name + "_ms", 0.0) + (t - self._t) / 1e6
        self._t = t

    def finish(self):
        op, root, t0 = self._root
        self.spans.append((op, root, None, t0, time.perf_counter_ns()))


def traced_decode(bf, code, pc, items, L, tracer, layers):
    """hybrid_decode's call sequence, timed per layer from outside.

    Returns (status, symbols or None, OpCounter, m', n').
    """
    state = bf.ReceptionState(code, L)
    for j, v in items:
        state.receive(int(j), v)
    tracer.lap("codec.receive", layers)
    counter = bf.OpCounter()
    state.peel(counter)
    tracer.lap("codec.peel", layers)
    if state.complete:
        return bf.DecodeStatus.SUCCESS, state.values, counter, 0, 0
    res = bf.build_residual(code, pc, state)
    tracer.lap("codec.build_residual", layers)
    ok = bf.forward_eliminate(res, counter)
    tracer.lap("codec.forward_eliminate", layers)
    if not ok:
        return bf.DecodeStatus.ML_SINGULAR, None, counter, res.nrows, res.ncols
    sol = bf.back_substitute(res, counter)
    tracer.lap("codec.back_substitute", layers)
    values = state.values
    if L:
        values[res.col_map] = sol
        bf.syndrome_is_zero(code.H, values)
        tracer.lap("gf2.syndrome", layers)
    return bf.DecodeStatus.SUCCESS, values, counter, res.nrows, res.ncols


def rows_xor_to_zero(H, X) -> bool:
    """Every row of H XORs its symbols to zero, from H.indptr/H.indices."""
    ptr, idx = H.indptr, H.indices
    X = np.ascontiguousarray(X)
    if X.shape[1] % 8 == 0:
        X = X.view(np.uint64)
    weight = np.diff(ptr)
    acc = np.zeros((H.m, X.shape[1]), dtype=X.dtype)
    for d in range(int(weight.max(initial=0))):
        rows = np.flatnonzero(weight > d)
        acc[rows] ^= X[idx[ptr[rows] + d]]
    return not acc.any()


def band_cap(code) -> int:
    """(2q+b) with q = b(M+1): the band bound's per-row cost."""
    b, M = code.base.b, code.base.M
    return 2 * b * (M + 1) + b


class Run:
    """Counters and samples of one benchmark run."""

    def __init__(self, cfg, trace):
        self.cfg = cfg
        self.trace = trace
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {}      # name -> list of per-operation values
        self.detail = {}

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def check(self, ok, what):
        if not ok and len(self.problems) < 20:
            self.problems.append(what)

    def median(self, name):
        vals = self.samples.get(name)
        return statistics.median(vals) if vals else 0.0

    def mean(self, name):
        vals = self.samples.get(name)
        return statistics.fmean(vals) if vals else 0.0


def timed(fn, *args, **kw):
    t = time.perf_counter_ns()
    out = fn(*args, **kw)
    return out, (time.perf_counter_ns() - t) / 1e6


def add_layers(run, layers, names, untraced_ms):
    for name in names:
        run.add(name, layers.get(name, 0.0))
    run.add("trace.unaccounted_ms",
            untraced_ms - sum(layers.get(name, 0.0) for name in names))


# ---------------------------------------------------------------------------
# transfer workloads

def transfer_setup(bf, cfg, seed, run):
    """Build the code and its permuted view, then one warm-up operation."""
    ens = bf.EnsembleSpec(cfg["ensemble"])
    code_seed = derive_seed(seed, 0)
    warm = np.random.default_rng([derive_seed(seed, 1)])
    t0 = time.perf_counter_ns()
    code, make_ms = timed(bf.make_code, ens, cfg["k"], seed=code_seed)
    pc, perm_ms = timed(bf.permuted_code, code)
    transfer_op(bf, cfg, code, pc, warm, None)
    run.add("setup_s", (time.perf_counter_ns() - t0) / 1e9)
    run.add("qc.make_code_ms", make_ms)
    run.add("band.permuted_code_ms", perm_ms)
    return code, pc


def transfer_op(bf, cfg, code, pc, rng, run):
    """Encode, erase, decode and check one block; *run* None for warm-up."""
    k, L, n = code.k, cfg["L"], code.n
    source = rng.integers(0, 256, (k, L), dtype=np.uint8)
    erased = rng.permutation(n)[:round(cfg["loss"] * n)]
    cw, enc_ms = timed(bf.encode, code, source)
    present = np.ones(n, dtype=bool)
    present[erased] = False
    received = {int(j): cw.symbols[j] for j in np.flatnonzero(present)}
    out, dec_ms = timed(bf.hybrid_decode, code, received, L)
    if run is None:
        return
    run.attempted += 1
    run.add("op_ms", enc_ms + dec_ms)
    run.add("encode_ms", enc_ms)
    run.add("decode_ms", dec_ms)
    run.add("codec.encode_ms", enc_ms)
    ok = out.status is bf.DecodeStatus.SUCCESS
    if not ok:
        run.failed += 1
    run.check(np.array_equal(cw.symbols[:k], source), "codeword is not systematic")
    run.check(rows_xor_to_zero(code.H, cw.symbols), "encoded codeword fails H")
    if ok:
        run.check(np.array_equal(out.symbols[:k], source), "decoded source differs")
        run.check(np.array_equal(out.symbols, cw.symbols), "decoded parity differs")
    c = out.counter
    for name in ("it_ops", "fe_ops", "bs_ops"):
        run.add(name, getattr(c, name))
    if run.trace:
        layers = {}
        run.tracer.start(run.attempted, "transfer")
        status, values, tc, mp, npp = traced_decode(
            bf, code, pc, received.items(), L, run.tracer, layers)
        run.tracer.finish()
        add_layers(run, layers, DECODE_LAYERS, dec_ms)
        run.check(status is out.status and (tc.it_ops, tc.fe_ops, tc.bs_ops)
                  == (c.it_ops, c.fe_ops, c.bs_ops),
                  "traced decode differs from hybrid_decode in status or op counts")
        run.check(values is None if out.symbols is None
                  else np.array_equal(values, out.symbols),
                  "traced decode differs from hybrid_decode in symbols")
        add_counts(run, tc, mp, npp, code)


def add_counts(run, counter, mp, npp, code):
    """Per-layer counts, and the band bound ml_ops <= 3(2q+b)m' on band codes."""
    run.add("codec.it_ops", counter.it_ops)
    run.add("codec.fe_ops", counter.fe_ops)
    run.add("codec.bs_ops", counter.bs_ops)
    run.add("codec.residual_rows", mp)
    run.add("codec.residual_cols", npp)
    cap = band_cap(code) * mp
    run.add("codec.band_op_ratio", counter.ml_ops / cap if cap else 0.0)
    if run.cfg["ensemble"] == "band":
        run.check(counter.ml_ops <= 3 * cap, f"ml_ops {counter.ml_ops} over 3(2q+b)m' = {3 * cap}")


def run_transfer(bf, cfg, seed, seconds, run):
    for _ in range(cfg["setups"]):
        code, pc = transfer_setup(bf, cfg, seed, run)
    rng = np.random.default_rng([derive_seed(seed, 2)])
    t_end = time.perf_counter() + seconds
    while True:
        transfer_op(bf, cfg, code, pc, rng, run)
        if time.perf_counter() >= t_end:
            break
    MB = cfg["k"] * cfg["L"] / 1e6
    run.detail.update(encode_MBps=MB / (run.median("encode_ms") / 1e3),
                      decode_MBps=MB / (run.median("decode_ms") / 1e3),
                      it_ops=run.mean("it_ops"), fe_ops=run.mean("fe_ops"),
                      bs_ops=run.mean("bs_ops"))


# ---------------------------------------------------------------------------
# inefficiency workloads

def ineff_setup(bf, cfg, seed, run, trial_seed):
    """Build one code of the workload and its permuted view, then a small trial."""
    ens = bf.EnsembleSpec(cfg["ensemble"])
    t0 = time.perf_counter_ns()
    code = bf.make_code(ens, cfg["k"], seed=trial_seed)
    bf.permuted_code(code)
    bf.inefficiency_trial(ens, cfg["warmup_k"], derive_seed(seed, 1))
    run.add("setup_s", (time.perf_counter_ns() - t0) / 1e9)


def check_trial(bf, cfg, seed, r, run):
    """Independent check of one trial: k <= t_ml <= t_it <= n, and the decode
    pipeline succeeds at t_ml and t_it (iterative only) but not one earlier."""
    k = cfg["k"]
    code = bf.make_code(bf.EnsembleSpec(cfg["ensemble"]), k, seed=seed)
    n = code.n
    t_ml, t_it = round(r.ml_inefficiency * k), round(r.it_inefficiency * k)
    run.check(k <= t_ml <= t_it <= n, f"not k <= t_ml={t_ml} <= t_it={t_it} <= n")
    order = bf.reception_order(n, np.random.default_rng([int(seed), 2]))

    def status(t, allow_ml):
        got = {int(j): None for j in order[:t]}
        return bf.hybrid_decode(code, got, 0, allow_ml=allow_ml).status

    S = bf.DecodeStatus
    run.check(status(t_ml, True) is S.SUCCESS, "decode fails at t_ml")
    run.check(status(t_ml - 1, True) is S.ML_SINGULAR, "residual has full rank at t_ml-1")
    run.check(status(t_it, False) is S.SUCCESS, "peeling fails at t_it")
    run.check(status(t_it - 1, False) is S.IT_PARTIAL, "peeling completes before t_it")
    if cfg["ensemble"] == "band":
        cap = 3 * band_cap(code) * r.residual_rows
        run.check(r.counter.ml_ops <= cap, f"ml_ops {r.counter.ml_ops} over 3(2q+b)m' = {cap}")


def traced_trial(bf, cfg, seed, run, r, trial_ms):
    """inefficiency_trial's call sequence, timed per layer from outside."""
    layers, tr = {}, run.tracer
    tr.start(run.attempted, "trial")
    code = bf.make_code(bf.EnsembleSpec(cfg["ensemble"]), cfg["k"], seed=seed)
    tr.lap("qc.make_code", layers)
    pc = bf.permuted_code(code)
    tr.lap("band.permuted_code", layers)
    order = bf.reception_order(code.n, np.random.default_rng([int(seed), 2]))
    t_ml = bf.minimal_ml_reception(code, pc, order)
    tr.lap("sim.minimal_ml_reception", layers)
    t_it = bf.sim.it_completion_time(code, order)
    tr.lap("sim.it_completion_time", layers)
    status, _, c, mp, npp = traced_decode(
        bf, code, pc, ((j, None) for j in order[:t_ml]), 0, tr, layers)
    tr.finish()
    add_layers(run, layers, TRIAL_LAYERS, trial_ms)
    rc = r.counter
    run.check((t_ml / cfg["k"], t_it / cfg["k"], status, c.it_ops, c.fe_ops, c.bs_ops, mp, npp)
              == (r.ml_inefficiency, r.it_inefficiency, r.status, rc.it_ops, rc.fe_ops,
                  rc.bs_ops, r.residual_rows, r.residual_cols),
              "traced trial differs from inefficiency_trial")
    add_counts(run, c, mp, npp, code)


def trial_key(r):
    c = r.counter
    return (r.ml_inefficiency, r.it_inefficiency, r.status, c.it_ops, c.fe_ops,
            c.bs_ops, r.residual_rows, r.residual_cols)


def run_ineff(bf, cfg, seed, seconds, run):
    seeds = [derive_seed(seed, 100 + i) for i in range(cfg["round_trials"])]
    for _ in range(cfg["setups"]):
        ineff_setup(bf, cfg, seed, run, seeds[0])
    ens = bf.EnsembleSpec(cfg["ensemble"])
    first = {}
    t_end = time.perf_counter() + seconds
    while True:
        for s in seeds:
            r, ms = timed(bf.inefficiency_trial, ens, cfg["k"], s)
            run.attempted += 1
            run.add("op_ms", ms)
            if r.status is not bf.DecodeStatus.SUCCESS:
                run.failed += 1
            if s in first:
                run.check(trial_key(r) == trial_key(first[s]), "trial not reproducible")
            else:
                first[s] = r
                check_trial(bf, cfg, s, r, run)
            if run.trace:
                traced_trial(bf, cfg, s, run, r, ms)
        if time.perf_counter() >= t_end:
            break
    rs = list(first.values())
    run.detail.update(
        ml_inefficiency=statistics.fmean(r.ml_inefficiency for r in rs),
        it_inefficiency=statistics.fmean(r.it_inefficiency for r in rs),
        it_ops=sum(r.counter.it_ops for r in rs), fe_ops=sum(r.counter.fe_ops for r in rs),
        bs_ops=sum(r.counter.bs_ops for r in rs),
        residual_rows=sum(r.residual_rows for r in rs))


# ---------------------------------------------------------------------------

def run_workload(bf, cfg, seed, seconds, trace):
    """One benchmark run; returns (result dict, Run)."""
    run = Run(cfg, bool(trace))
    if cfg["kind"] == "transfer":
        run_transfer(bf, cfg, seed, seconds, run)
    else:
        run_ineff(bf, cfg, seed, seconds, run)
    if trace:
        names = PER_LAYER
        values = {name: (run.mean(name) if UNITS.get(name) in ("count", "ratio")
                         else run.median(name)) for name in names}
    else:
        names = END_TO_END
        rss_MB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"setup_s": run.median("setup_s"), "op_ms": run.median("op_ms"),
                  "peak_rss_MB": rss_MB}
    metrics = {name: {"value": float(values[name]), "unit": UNITS.get(name, "ms")}
               for name in names}
    run.detail["problems"] = run.problems
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        bf = load_library()
    except BenchmarkError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    os.environ.pop("BANDFEC_JOBS", None)
    result, run = run_workload(bf, WORKLOADS[args.workload], args.seed,
                               args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as f:
        json.dump({"result": result, "detail": run.detail, "samples": run.samples,
                   "spans": [dict(op=o, name=s, parent=p, start_ns=a, end_ns=b)
                             for o, s, p, a, b in run.tracer.spans]}, f)
    print(json.dumps({"detail": run.detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
