"""Command-line front end: code generation, encode/decode, experiment sweeps.

Exit codes: 0 success, 2 usage error (including a malformed code or symbol
file, a code that encode cannot use, and a size from the command line or a
file too large to allocate), 3 iterative decoding stalled with ML disabled,
4 residual system singular, 5 decoded symbols inconsistent (a received
symbol was corrupt), whether peeling alone or ML elimination decoded them.
Set BANDFEC_JOBS to parallelize simulation trials; output is identical
regardless of the job count.
"""

from __future__ import annotations

import argparse
import sys

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

_ENSEMBLES = {
    "band": "band",
    "unconstrained": "unconstrained",
    "constant-band": "constant_band",
    "protograph": "protograph",
}


def _check_config(parser, args, ks):
    """Build the code for every k, so that any value the library rejects is a
    usage error; returns (ensemble, code at the last k, rate)."""
    try:
        ensemble = qc.EnsembleSpec(kind=_ENSEMBLES[args.ensemble], C=args.c_const,
                                   M0=args.m0)
        for k in ks:
            code = qc.make_code(ensemble, k, b=args.b, a=args.a, seed=args.seed)
    except (ValueError, MemoryError) as e:
        parser.error(str(e))
    rate = (args.b - args.a) / args.b
    if args.rate is not None and abs(args.rate - rate) > 1e-9:
        parser.error(f"--rate {args.rate} conflicts with a={args.a}, b={args.b} "
                     f"(derived rate {rate:.6g})")
    return ensemble, code, rate


def _parse_losses(parser, spec: str):
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError:
        parser.error(f"--losses {spec!r} is not lo:hi:step")
    if not (np.isfinite([lo, hi, step]).all() and step > 0 and lo <= hi):
        parser.error(f"--losses {spec!r} needs finite values, step > 0 and lo <= hi")
    out = []
    x = lo
    while x <= hi + 1e-9:
        out.append(round(x, 10))
        x += step
    return out


def cmd_gen(parser, args):
    _, code, _ = _check_config(parser, args, [args.k])
    qc.write_base_matrix(args.out, code)
    shape = band_shape(args.a, args.b, code.base.M)
    print(f"z={code.spec.z} M={code.base.M} p={shape.p} q={shape.q} "
          f"n={code.n} k={code.k} rate={code.rate:.6g}")
    return 0


def cmd_encode(parser, args):
    L = args.symbol_size
    if L < 1:
        parser.error(f"--symbol-size {L} must be >= 1")
    try:
        code = qc.load_code(args.code)
        with open(args.infile, "rb") as f:
            payload = f.read()
        need = code.k * L
        if len(payload) > need:
            parser.error(f"payload exceeds {need} bytes (k={code.k}, L={L})")
        buf = np.zeros(need, dtype=np.uint8)
        buf[:len(payload)] = np.frombuffer(payload, dtype=np.uint8)
        cw = encode(code, buf.reshape(code.k, L))
    except (ValueError, OSError, MemoryError) as e:
        parser.error(str(e))
    present = {j: cw.symbols[j] for j in range(code.n)}
    write_symbols(args.out, code.n, code.k, L, present)
    print(f"encoded {len(payload)} bytes into {code.n} symbols of {L} bytes")
    return 0


def cmd_decode(parser, args):
    try:
        code = qc.load_code(args.code)
        n, k, L, present = read_symbols(args.infile)
    except (ValueError, OSError, MemoryError) as e:
        parser.error(str(e))
    if (n, k) != (code.n, code.k):
        parser.error(f"symbol file is for n={n}, k={k}; code has n={code.n}, k={code.k}")
    try:
        out = hybrid_decode(code, present, L, allow_ml=not args.it_only)
    except (ValueError, MemoryError) as e:  # an (n, L) buffer numpy cannot allocate
        parser.error(str(e))
    c = out.counter
    print(f"status={out.status.value} received={len(present)} "
          f"it_ops={c.it_ops} fe_ops={c.fe_ops} bs_ops={c.bs_ops}")
    if out.status is DecodeStatus.SUCCESS:
        with open(args.out, "wb") as f:
            f.write(out.symbols[:code.k].tobytes())
    return EXIT_CODES[out.status]


def cmd_sim(parser, args):
    try:
        ks = [int(x) for x in args.ks.split(",")] if args.ks else [args.k]
    except ValueError:
        parser.error(f"--ks {args.ks!r} is not a comma-separated list of integers")
    used = ks if args.experiment in ("ineff", "ops-k") else [args.k]
    ensemble, _, rate = _check_config(parser, args, used)
    if args.trials < 1:
        parser.error(f"--trials {args.trials} must be >= 1")
    try:
        sim.job_count()
    except ValueError as e:
        parser.error(str(e))
    if args.losses:
        losses = _parse_losses(parser, args.losses)
    else:
        losses = [args.loss]
    if not 0 <= min(losses) <= max(losses) <= 100:
        parser.error("loss percentages must lie in [0, 100]")
    loss_fracs = [x / 100.0 for x in losses]
    rows = []
    if args.experiment == "ineff":
        curves = sim.ineff_sweep(ensemble, ks, args.trials, args.seed,
                                 b=args.b, a=args.a)
        for name in ("it", "ml", "failures"):
            rows += sim.format_rows(f"ineff_{name}", ensemble, ks[0] if len(ks) == 1 else 0,
                                    rate, curves[name], args.seed)
    elif args.experiment == "bler":
        points = sim.bler_sweep(ensemble, args.k, loss_fracs, args.trials,
                                args.seed, b=args.b, a=args.a)
        pts = [sim.CurvePoint(x=ls, mean=p.mean, stderr=p.stderr, trials=p.trials)
               for ls, p in zip(losses, points)]
        rows += sim.format_rows("bler", ensemble, args.k, rate, pts, args.seed)
    elif args.experiment == "ops-loss":
        points = sim.ops_vs_loss(ensemble, args.k, loss_fracs, args.trials,
                                 args.seed, b=args.b, a=args.a)
        pts = [sim.CurvePoint(x=ls, mean=p.mean, stderr=p.stderr, trials=p.trials)
               for ls, p in zip(losses, points)]
        rows += sim.format_rows("ops_loss", ensemble, args.k, rate, pts, args.seed)
    else:  # ops-k
        points, slope = sim.ops_vs_k(ensemble, ks, args.trials, args.seed,
                                     b=args.b, a=args.a)
        rows += sim.format_rows("ops_k", ensemble, 0, rate, points, args.seed)
        print(f"loglog_slope={slope:.4f}")
    if args.out:
        sim.write_csv(args.out, rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(sim.CSV_HEADER)
        for row in rows:
            print(row)
    return 0


def _add_code_params(p):
    p.add_argument("--ensemble", choices=sorted(_ENSEMBLES), default="band")
    p.add_argument("--k", type=int, default=2000)
    p.add_argument("--a", type=int, default=5)
    p.add_argument("--b", type=int, default=15)
    p.add_argument("--rate", type=float, default=None,
                   help="optional consistency check; rate is derived from a and b")
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
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("encode", help="encode a payload file into a symbol file")
    p.add_argument("--code", required=True, help="base-matrix file from gen")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--symbol-size", type=int, default=1024)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a symbol file back to the payload")
    p.add_argument("--code", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--it-only", action="store_true",
                   help="disable the ML stage (exit 3 on a stopping set)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sim", help="run an experiment sweep, output CSV")
    p.add_argument("experiment", choices=["ineff", "bler", "ops-loss", "ops-k"])
    _add_code_params(p)
    p.add_argument("--ks", default=None, help="comma-separated list of k values")
    p.add_argument("--loss", type=float, default=0.0, help="loss percentage")
    p.add_argument("--losses", default=None, help="loss percentages lo:hi:step")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
