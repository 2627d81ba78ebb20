"""Command-line front end: code generation, encode/decode, experiment sweeps.

Exit codes: 0 success, 2 usage error (including a malformed code or symbol
file, a code that encode cannot use, a size from the command line or a
file too large to allocate, a decode or a simulation trial too large to
allocate, a negative --seed, and an --out path that is empty, is a
directory or lies in none), 3 iterative decoding stalled with ML disabled,
4 residual system singular, 5 decoded symbols inconsistent (a received
symbol was corrupt), whether peeling alone or ML elimination decoded them,
and 1, without a traceback, when stdout is closed before the output is
written.
sim takes --k, one k or a comma-separated list for the k sweeps ineff and
ops-k (which needs two distinct k), and --loss, one percentage or lo:hi:step
listing at most 10,000 points for the loss sweeps bler and ops-loss; --ks
and --losses are other spellings of them.  A setting that an experiment
does not read is a usage error.
Set BANDFEC_JOBS to spread simulation trials over that many processes, at
most one per CPU the process may run on, in one pool per sweep; output is
identical regardless of the job count.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import qc, sim
from .band import band_shape
from .codec import DecodeStatus, encode, hybrid_decode, read_symbols, write_symbols

EXIT_CODES = {
    DecodeStatus.SUCCESS: 0,
    DecodeStatus.IT_PARTIAL: 3,
    DecodeStatus.ML_SINGULAR: 4,
    DecodeStatus.INCONSISTENT: 5,
}

_MAX_LOSS_POINTS = 10_000


def _check_out(parser, path):
    """An output path that is empty, is a directory or lies in none is a usage
    error, found before any work starts."""
    if not path or os.path.isdir(path) \
            or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        parser.error(f"--out {path} is not a file path in an existing directory")


def _check_config(parser, args, ks):
    """Build the code for every k, so that a value the library rejects ends
    the command before any work starts; returns the ensemble and the code
    at the last k."""
    if args.seed < 0:
        parser.error(f"--seed {args.seed} must be >= 0")
    ensemble = qc.EnsembleSpec(kind=args.ensemble.replace("-", "_"), C=args.c_const,
                               M0=args.m0)
    for k in ks:
        code = qc.make_code(ensemble, k, b=args.b, a=args.a, seed=args.seed)
    return ensemble, code


def _parse_losses(parser, spec: str):
    try:
        losses = [float(x) for x in spec.split(":")]
    except ValueError:
        losses = []
    if len(losses) == 3:
        lo, hi, step = losses
        if not (np.isfinite(losses).all() and step > 0 and lo <= hi):
            parser.error(f"--loss {spec!r} needs finite values, step > 0 and lo <= hi")
        span = (hi - lo + 1e-9) / step  # the spec lists floor(span) + 1 points
        if span >= _MAX_LOSS_POINTS:
            parser.error(f"--loss {spec!r} lists {span + 1:.4g} points; "
                         f"at most {_MAX_LOSS_POINTS} are allowed")
        losses = [round(lo + i * step, 10) for i in range(int(span) + 1)]
    elif len(losses) != 1:
        parser.error(f"--loss {spec!r} is not a percentage or lo:hi:step")
    if not 0 <= min(losses) <= max(losses) <= 100:
        parser.error("loss percentages must lie in [0, 100]")
    return losses


def cmd_gen(parser, args):
    _, code = _check_config(parser, args, [args.k])
    qc.write_base_matrix(args.out, code)
    shape = band_shape(args.a, args.b, code.base.M)
    print(f"z={code.spec.z} M={code.base.M} p={shape.p} q={shape.q} "
          f"n={code.n} k={code.k} rate={code.rate:.6g}")
    return 0


def cmd_encode(parser, args):
    L = args.symbol_size
    if L < 1:
        parser.error(f"--symbol-size {L} must be >= 1")
    code = qc.load_code(args.code)
    with open(args.infile, "rb") as f:
        payload = f.read()
    need = code.k * L
    if len(payload) > need:
        parser.error(f"payload exceeds {need} bytes (k={code.k}, L={L})")
    buf = np.zeros(need, dtype=np.uint8)
    buf[:len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    cw = encode(code, buf.reshape(code.k, L))
    present = {j: cw.symbols[j] for j in range(code.n)}
    write_symbols(args.out, code.n, code.k, L, present)
    print(f"encoded {len(payload)} bytes into {code.n} symbols of {L} bytes")
    return 0


def cmd_decode(parser, args):
    code = qc.load_code(args.code)
    n, k, L, present = read_symbols(args.infile)
    if (n, k) != (code.n, code.k):
        parser.error(f"symbol file is for n={n}, k={k}; code has n={code.n}, k={code.k}")
    out = hybrid_decode(code, present, L, allow_ml=not args.it_only)
    c = out.counter
    print(f"status={out.status.value} received={len(present)} "
          f"it_ops={c.it_ops} fe_ops={c.fe_ops} bs_ops={c.bs_ops}")
    if out.status is DecodeStatus.SUCCESS:
        with open(args.out, "wb") as f:
            f.write(out.symbols[:code.k].tobytes())
    return EXIT_CODES[out.status]


def cmd_sim(parser, args):
    try:
        ks = [int(x) for x in args.k.split(",")]
    except ValueError:
        parser.error(f"--k {args.k!r} is not a comma-separated list of integers")
    if args.experiment in ("ineff", "ops-k"):
        if args.loss is not None:
            parser.error(f"sim {args.experiment} sweeps k and takes no --loss")
        if args.experiment == "ops-k" and len(set(ks)) < 2:
            parser.error("sim ops-k fits a slope and needs at least two distinct k")
    elif len(ks) > 1:
        parser.error(f"sim {args.experiment} takes one k, got {len(ks)}")
    ensemble, code = _check_config(parser, args, ks)
    rate = code.rate
    if args.trials < 1:
        parser.error(f"--trials {args.trials} must be >= 1")
    sim.job_count()  # a bad BANDFEC_JOBS is a usage error before any sweep starts
    losses = _parse_losses(parser, "0" if args.loss is None else args.loss)
    rows = []
    if args.experiment == "ineff":
        curves = sim.ineff_sweep(ensemble, ks, args.trials, args.seed,
                                 b=args.b, a=args.a)
        for name in ("it", "ml", "failures"):
            rows += sim.format_rows(f"ineff_{name}", ensemble, ks[0] if len(ks) == 1 else 0,
                                    rate, curves[name], args.seed)
    elif args.experiment == "ops-k":
        points, slope = sim.ops_vs_k(ensemble, ks, args.trials, args.seed,
                                     b=args.b, a=args.a)
        rows += sim.format_rows("ops_k", ensemble, 0, rate, points, args.seed)
        print(f"loglog_slope={slope:.4f}")
    else:  # bler, ops-loss: the points are reported at the loss percentages
        sweep = sim.bler_sweep if args.experiment == "bler" else sim.ops_vs_loss
        points = sweep(ensemble, ks[0], [x / 100.0 for x in losses], args.trials,
                       args.seed, b=args.b, a=args.a)
        rows += sim.format_rows(args.experiment.replace("-", "_"), ensemble, ks[0], rate,
                                [replace(p, x=x) for x, p in zip(losses, points)], args.seed)
    if args.out:
        sim.write_csv(args.out, rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(sim.CSV_HEADER)
        for row in rows:
            print(row)
    return 0


def _add_code_params(p):
    p.add_argument("--ensemble", default="band",
                   choices=sorted(kind.replace("_", "-") for kind in qc.ENSEMBLE_KINDS))
    p.add_argument("--a", type=int, default=5)
    p.add_argument("--b", type=int, default=15)
    p.add_argument("--c-const", type=float, default=3.0,
                   help="band ensemble constant C in M = floor(C*sqrt(z))")
    p.add_argument("--m0", type=int, default=42,
                   help="fixed M of the constant-band ensemble")
    p.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(prog="bandfec",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a code and write its base-matrix file")
    _add_code_params(p)
    p.add_argument("--k", type=int, default=2000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen, sub=p)

    p = sub.add_parser("encode", help="encode a payload file into a symbol file")
    p.add_argument("--code", required=True, help="base-matrix file from gen")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--symbol-size", type=int, default=1024)
    p.set_defaults(func=cmd_encode, sub=p)

    p = sub.add_parser("decode", help="decode a symbol file back to the payload")
    p.add_argument("--code", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--it-only", action="store_true",
                   help="disable the ML stage (exit 3 on a stopping set)")
    p.set_defaults(func=cmd_decode, sub=p)

    p = sub.add_parser("sim", help="run an experiment sweep, output CSV")
    p.add_argument("experiment", choices=["ineff", "bler", "ops-loss", "ops-k"])
    _add_code_params(p)
    p.add_argument("--k", "--ks", default="2000", help="k, or k1,k2,... for ineff and ops-k")
    p.add_argument("--loss", "--losses", help="loss percentage (default 0), or lo:hi:step")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sim, sub=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out is not None:
        _check_out(args.sub, args.out)
    try:
        status = args.func(args.sub, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone: point stdout at devnull so that the
        # flush at exit cannot fail again, and end without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, MemoryError) as e:
        # bad input, an unreadable file or a size too large to allocate,
        # from any command, is a usage error with one line; a closed stdout,
        # also an OSError, ended in the clause above
        args.sub.error(str(e))
    return status


if __name__ == "__main__":
    sys.exit(main())
