"""Wall-time scaling of the elimination layers, for the reference figures in
perfbench/README.md.

Runs traced inefficiency trials at k in {2000, 8000, 32000} on the band and
unconstrained ensembles and prints, per ensemble, the median layer times and
the mean op counts at each k, then the log-log slopes of wall time next to
those of the op counts (fitted with sim.fit_loglog_slope).  From the root of
a checkout:

    python3 perfbench/scaling.py [--trials 3] [--seed 1]
"""

import argparse
import sys

import run as bench

KS = (2000, 8000, 32000)
# (wall-time layer, op count it is compared with); minimal_ml_reception
# counts no operations, so it is set against the decoder's ml_ops.
PAIRS = (("codec.forward_eliminate_ms", "codec.fe_ops"),
         ("codec.back_substitute_ms", "codec.bs_ops"),
         ("sim.minimal_ml_reception_ms", "ml_ops"))


def measure(bf, ensemble, k, trials, seed):
    cfg = dict(kind="ineff", ensemble=ensemble, k=k)
    run = bench.Run(cfg, trace=True)
    for i in range(trials):
        s = bench.derive_seed(seed, k, i)
        r, ms = bench.timed(bf.inefficiency_trial, bf.EnsembleSpec(ensemble), k, s)
        run.attempted += 1
        bench.traced_trial(bf, cfg, s, run, r, ms)
        run.add("ml_ops", r.counter.ml_ops)
        run.add("trial_ms", ms)
    if run.problems:
        raise SystemExit(f"{ensemble} k={k}: {run.problems}")
    return run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    bf = bench.load_library()
    for ensemble in ("band", "unconstrained"):
        runs = [measure(bf, ensemble, k, args.trials, args.seed) for k in KS]
        print(f"\n{ensemble}: median ms / mean count over {args.trials} trials")
        cols = ["trial_ms"] + [name for pair in PAIRS for name in pair]
        print("| k | " + " | ".join(cols) + " |")
        print("|---" * (len(cols) + 1) + "|")
        for k, run in zip(KS, runs):
            vals = [run.median(c) if c.endswith("_ms") else run.mean(c) for c in cols]
            print(f"| {k} | " + " | ".join(f"{v:.6g}" for v in vals) + " |")
        for wall, ops in PAIRS:
            ws = bf.sim.fit_loglog_slope(KS, [run.median(wall) for run in runs])
            os_ = bf.sim.fit_loglog_slope(KS, [run.mean(ops) for run in runs])
            print(f"slope {wall}: wall {ws:.3f}, {ops} {os_:.3f}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
