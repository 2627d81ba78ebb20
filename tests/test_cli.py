import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bandfec
from bandfec.cli import main
from bandfec.codec import read_symbols, write_symbols
from bandfec.gf2 import BandBits
from bandfec.qc import load_code


def run(argv):
    return main([str(a) for a in argv])


def usage_error(argv, capsys):
    """Run a command that must fail as a usage error, printing the usage of
    that command; returns its message."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0].startswith(f"usage: bandfec {argv[0]} ")
    assert not any(line.startswith("Traceback") for line in err)
    return err[-1]


def run_capped(argv):
    """Run the CLI in a subprocess whose address space is capped at 4 GiB, so
    that no allocation sized from the inputs used here can succeed."""
    src = Path(bandfec.__file__).resolve().parents[1]
    cap = 4 << 30
    return subprocess.run(
        [sys.executable, "-m", "bandfec.cli", *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))


TOO_LARGE = ("Unable to allocate 4.00 GiB for an array with shape (65536, 8192) "
             "and data type uint64")


def refuse_pack(*args, **kwargs):
    """Stand-in for BandBits.pack on a system with no memory left for the
    residual's bits, raising numpy's MemoryError message."""
    raise MemoryError(TOO_LARGE)


def edited_code(tmp_path, code_file, line, pos, value):
    """Copy of a code file with token *pos* of line *line* set to *value*."""
    lines = [row.split() for row in code_file.read_text().splitlines()]
    lines[line][pos] = str(value)
    path = tmp_path / "edited.txt"
    path.write_text("".join(" ".join(row) + "\n" for row in lines))
    return path


def header_only(tmp_path, L):
    """A symbol file for the k=240 band code with symbol size L and no records."""
    path = tmp_path / "empty.bin"
    path.write_bytes(f"360 240 {L}\n".encode())
    return path


class TestGen:
    def test_writes_code_file(self, tmp_path, capsys):
        path = tmp_path / "code.txt"
        assert run(["gen", "--ensemble", "band", "--k", "240", "--seed", "3",
                    "--out", path]) == 0
        out = capsys.readouterr().out
        assert "z=24" in out and "n=360" in out and "k=240" in out
        code = load_code(path)
        assert code.k == 240 and code.n == 360

    def test_indivisible_k(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--k", "241", "--out", tmp_path / "c.txt"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args,expect", [
        (["--k", "0"], "k=0 is not a positive multiple"),
        (["--k", "-10"], "k=-10 is not a positive multiple"),
        (["--a", "5", "--b", "5"], "need b > a"),
        (["--c-const", "0"], "C must be positive"),
        (["--c-const", "inf"], "C must be positive and finite"),
        (["--c-const", "nan"], "C must be positive and finite"),
        (["--c-const", "1e308"], "C*sqrt(z) overflows"),
        (["--k", "20"], "need z > M"),  # band: z=2, M=floor(3 sqrt 2)=4
        (["--seed", "-1"], "--seed -1 must be >= 0"),
    ], ids=["k-zero", "k-negative", "a-equals-b", "c-zero", "c-inf", "c-nan",
            "c-overflow", "z-not-above-M", "seed-negative"])
    def test_rejected_code_params(self, tmp_path, capsys, args, expect):
        msg = usage_error(["gen", *args, "--out", tmp_path / "c.txt"], capsys)
        assert expect in msg
        assert not (tmp_path / "c.txt").exists()


class TestEncodeDecode:
    @pytest.fixture
    def code_file(self, tmp_path):
        path = tmp_path / "code.txt"
        run(["gen", "--ensemble", "band", "--k", "240", "--seed", "1", "--out", path])
        return path

    def test_lossless_roundtrip(self, tmp_path, code_file):
        payload = bytes(range(256)) * 3
        (tmp_path / "in.bin").write_bytes(payload)
        assert run(["encode", "--code", code_file, "--in", tmp_path / "in.bin",
                    "--out", tmp_path / "syms.bin", "--symbol-size", "16"]) == 0
        assert run(["decode", "--code", code_file, "--in", tmp_path / "syms.bin",
                    "--out", tmp_path / "out.bin"]) == 0
        out = (tmp_path / "out.bin").read_bytes()
        assert out[:len(payload)] == payload
        assert out == payload + b"\x00" * (240 * 16 - len(payload))

    def test_erasure_recovery(self, tmp_path, code_file, capsys):
        payload = b"hello " * 100
        (tmp_path / "in.bin").write_bytes(payload)
        run(["encode", "--code", code_file, "--in", tmp_path / "in.bin",
             "--out", tmp_path / "syms.bin", "--symbol-size", "8"])
        n, k, L, present = read_symbols(tmp_path / "syms.bin")
        rng = np.random.default_rng(0)
        for j in rng.choice(n, size=int(0.3 * n), replace=False):
            del present[int(j)]
        write_symbols(tmp_path / "lossy.bin", n, k, L, present)
        assert run(["decode", "--code", code_file, "--in", tmp_path / "lossy.bin",
                    "--out", tmp_path / "out.bin"]) == 0
        assert "status=success" in capsys.readouterr().out
        assert (tmp_path / "out.bin").read_bytes()[:len(payload)] == payload

    def test_it_only_stall_exits_3(self, tmp_path, code_file):
        (tmp_path / "in.bin").write_bytes(b"x" * 100)
        run(["encode", "--code", code_file, "--in", tmp_path / "in.bin",
             "--out", tmp_path / "syms.bin", "--symbol-size", "4"])
        n, k, L, present = read_symbols(tmp_path / "syms.bin")
        rng = np.random.default_rng(1)
        for j in rng.choice(n, size=int(0.3 * n), replace=False):
            del present[int(j)]
        write_symbols(tmp_path / "lossy.bin", n, k, L, present)
        assert run(["decode", "--code", code_file, "--in", tmp_path / "lossy.bin",
                    "--out", tmp_path / "out.bin", "--it-only"]) == 3

    def test_unrecoverable_exits_4(self, tmp_path, code_file):
        (tmp_path / "in.bin").write_bytes(b"y" * 50)
        run(["encode", "--code", code_file, "--in", tmp_path / "in.bin",
             "--out", tmp_path / "syms.bin", "--symbol-size", "4"])
        n, k, L, present = read_symbols(tmp_path / "syms.bin")
        rng = np.random.default_rng(2)
        for j in rng.choice(n, size=n // 2, replace=False):  # beyond redundancy
            del present[int(j)]
        write_symbols(tmp_path / "lossy.bin", n, k, L, present)
        assert run(["decode", "--code", code_file, "--in", tmp_path / "lossy.bin",
                    "--out", tmp_path / "out.bin"]) == 4

    def test_corrupt_symbol_exits_5(self, tmp_path, code_file, capsys):
        (tmp_path / "in.bin").write_bytes(b"w" * 200)
        run(["encode", "--code", code_file, "--in", tmp_path / "in.bin",
             "--out", tmp_path / "syms.bin", "--symbol-size", "8"])
        n, k, L, present = read_symbols(tmp_path / "syms.bin")
        rng = np.random.default_rng(3)
        for j in rng.choice(n, size=int(0.3 * n), replace=False):
            del present[int(j)]
        present[min(present)][0] ^= 1
        write_symbols(tmp_path / "bad.bin", n, k, L, present)
        assert run(["decode", "--code", code_file, "--in", tmp_path / "bad.bin",
                    "--out", tmp_path / "out.bin"]) == 5
        assert "status=inconsistent" in capsys.readouterr().out
        assert not (tmp_path / "out.bin").exists()

    def encoded(self, tmp_path, code_file):
        (tmp_path / "in.bin").write_bytes(b"v" * 64)
        run(["encode", "--code", code_file, "--in", tmp_path / "in.bin",
             "--out", tmp_path / "syms.bin", "--symbol-size", "4"])
        return read_symbols(tmp_path / "syms.bin")

    def test_symbol_index_out_of_range(self, tmp_path, code_file, capsys):
        n, k, L, present = self.encoded(tmp_path, code_file)
        present[n + 5] = present[0]
        write_symbols(tmp_path / "bad.bin", n, k, L, present)
        msg = usage_error(["decode", "--code", code_file, "--in", tmp_path / "bad.bin",
                           "--out", tmp_path / "out.bin"], capsys)
        assert f"symbol index {n + 5} out of range" in msg

    def test_duplicate_symbol_record(self, tmp_path, code_file, capsys):
        self.encoded(tmp_path, code_file)
        data = (tmp_path / "syms.bin").read_bytes()
        record = data[data.index(b"\n") + 1:][:4 + 4]  # symbol 0, L=4
        (tmp_path / "bad.bin").write_bytes(data + record)
        msg = usage_error(["decode", "--code", code_file, "--in", tmp_path / "bad.bin",
                           "--out", tmp_path / "out.bin"], capsys)
        assert "duplicate record for symbol 0" in msg

    def test_missing_code_file(self, tmp_path, code_file, capsys):
        self.encoded(tmp_path, code_file)
        msg = usage_error(["decode", "--code", tmp_path / "nope.txt",
                           "--in", tmp_path / "syms.bin", "--out", tmp_path / "o.bin"],
                          capsys)
        assert "nope.txt" in msg

    @pytest.mark.parametrize("edit,expect", [
        (lambda lines: [lines[0].rsplit(" ", 1)[0]] + lines[1:], "header needs 7 fields"),
        (lambda lines: lines[:-1], "needs 5 rows, got 4"),
        (lambda lines: lines[:2] + [lines[2] + " 0"] + lines[3:], "row 1 needs 15 entries"),
        (lambda lines: [lines[0], "99999999999999999999 " + lines[1].split(" ", 1)[1]]
         + lines[2:], "entry out of range"),
    ], ids=["short-header", "missing-row", "long-row", "entry-overflow"])
    def test_malformed_code_file(self, tmp_path, code_file, capsys, edit, expect):
        lines = code_file.read_text().splitlines()
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(edit(lines)) + "\n")
        (tmp_path / "in.bin").write_bytes(b"u")
        msg = usage_error(["encode", "--code", bad, "--in", tmp_path / "in.bin",
                           "--out", tmp_path / "syms.bin"], capsys)
        assert expect in msg

    @pytest.mark.parametrize("L,expect", [
        (-4, "symbol size L=-4 must be >= 0"),
        (10**18, "truncated symbol record"),  # never allocated from the header
    ], ids=["negative", "huge"])
    def test_bad_symbol_size_in_header(self, tmp_path, code_file, capsys, L, expect):
        n, k, _, _ = self.encoded(tmp_path, code_file)
        data = (tmp_path / "syms.bin").read_bytes()
        (tmp_path / "bad.bin").write_bytes(f"{n} {k} {L}".encode() + data[data.index(b"\n"):])
        msg = usage_error(["decode", "--code", code_file, "--in", tmp_path / "bad.bin",
                           "--out", tmp_path / "out.bin"], capsys)
        assert expect in msg

    def test_negative_symbol_size(self, tmp_path, code_file, capsys):
        (tmp_path / "in.bin").write_bytes(b"t")
        msg = usage_error(["encode", "--code", code_file, "--in", tmp_path / "in.bin",
                           "--out", tmp_path / "syms.bin", "--symbol-size", "-1"], capsys)
        assert "--symbol-size -1 must be >= 1" in msg

    @pytest.mark.parametrize("ensemble,shift", [("protograph", None), ("band", 1)],
                             ids=["protograph", "shifted-parity-diagonal"])
    def test_code_encode_cannot_use(self, tmp_path, capsys, ensemble, shift):
        path = tmp_path / "code.txt"
        run(["gen", "--ensemble", ensemble, "--k", "240", "--out", path])
        if shift is not None:
            path = edited_code(tmp_path, path, 1, 10, shift)  # row 0, first parity block
        (tmp_path / "in.bin").write_bytes(b"r")
        msg = usage_error(["encode", "--code", path, "--in", tmp_path / "in.bin",
                           "--out", tmp_path / "syms.bin"], capsys)
        assert "unit lower triangular" in msg
        assert not (tmp_path / "syms.bin").exists()

    @pytest.mark.parametrize("argv", [
        lambda t, c: ["gen", "--k", 10**16, "--out", t / "c.txt"],
        lambda t, c: ["encode", "--code", edited_code(t, c, 0, 3, 10**15),
                      "--in", t / "in.bin", "--out", t / "s.bin"],
        lambda t, c: ["encode", "--code", c, "--in", t / "in.bin", "--out", t / "s.bin",
                      "--symbol-size", 10**15],
        lambda t, c: ["decode", "--code", c, "--in", header_only(t, 10**15), "--out", t / "o"],
        lambda t, c: ["decode", "--code", c, "--in", header_only(t, 10**18), "--out", t / "o"],
    ], ids=["gen-k", "code-z", "symbol-size", "header-L", "header-L-beyond-index-range"])
    def test_size_beyond_memory(self, tmp_path, code_file, argv):
        (tmp_path / "in.bin").write_bytes(b"q")
        proc = run_capped(argv(tmp_path, code_file))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error: " in proc.stderr.splitlines()[-1]

    def test_residual_beyond_memory(self, tmp_path, code_file, capsys, monkeypatch):
        # peeling stalls, and the residual's bits cannot be allocated
        n, k, L, present = self.encoded(tmp_path, code_file)
        rng = np.random.default_rng(1)
        for j in rng.choice(n, size=int(0.3 * n), replace=False):
            del present[int(j)]
        write_symbols(tmp_path / "lossy.bin", n, k, L, present)
        monkeypatch.setattr(BandBits, "pack", refuse_pack)
        msg = usage_error(["decode", "--code", code_file, "--in", tmp_path / "lossy.bin",
                           "--out", tmp_path / "out.bin"], capsys)
        assert msg == f"bandfec decode: error: {TOO_LARGE}"
        assert not (tmp_path / "out.bin").exists()

    def test_payload_too_large(self, tmp_path, code_file):
        (tmp_path / "in.bin").write_bytes(b"z" * (240 * 4 + 1))
        with pytest.raises(SystemExit) as exc:
            run(["encode", "--code", code_file, "--in", tmp_path / "in.bin",
                 "--out", tmp_path / "syms.bin", "--symbol-size", "4"])
        assert exc.value.code == 2


class TestOutputPath:
    @pytest.fixture
    def files(self, tmp_path):
        code, syms = tmp_path / "code.txt", tmp_path / "syms.bin"
        (tmp_path / "in.bin").write_bytes(b"p" * 64)
        run(["gen", "--k", "240", "--out", code])
        run(["encode", "--code", code, "--in", tmp_path / "in.bin", "--out", syms,
             "--symbol-size", "4"])
        return tmp_path, code, syms

    @pytest.mark.parametrize("argv,work", [
        (lambda t, c, s: ["gen", "--k", "240"], "bandfec.qc.make_code"),
        (lambda t, c, s: ["encode", "--code", c, "--in", t / "in.bin"], "bandfec.cli.encode"),
        (lambda t, c, s: ["decode", "--code", c, "--in", s], "bandfec.cli.hybrid_decode"),
        (lambda t, c, s: ["sim", "ineff", "--ks", "240", "--trials", "2"],
         "bandfec.sim.ineff_sweep"),
    ], ids=["gen", "encode", "decode", "sim"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
    def test_unusable_path(self, files, capsys, monkeypatch, argv, work, where):
        # a usage error before the command builds, encodes, decodes or simulates
        tmp_path, code, syms = files

        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} ran before the output path was checked")

        monkeypatch.setattr(work, refuse)
        out = {"missing-directory": tmp_path / "missing" / "out", "directory": tmp_path,
               "empty": ""}[where]
        msg = usage_error([*argv(tmp_path, code, syms), "--out", out], capsys)
        assert msg.endswith(f"--out {out} is not a file path in an existing directory")
        assert not (tmp_path / "missing").exists()


class TestSim:
    def test_bler_stdout(self, capsys):
        assert run(["sim", "bler", "--ensemble", "band", "--k", "240",
                    "--losses", "0:50:50", "--trials", "4", "--seed", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "experiment,ensemble,k,rate,x,mean,stderr,trials,master_seed"
        assert len(lines) == 3
        assert lines[1].startswith("bler,band,240,")

    def test_ineff_csv_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run(["sim", "ineff", "--ensemble", "unconstrained",
                    "--ks", "240,480", "--trials", "3", "--seed", "5",
                    "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 7  # header + 3 curves x 2 points
        assert {l.split(",")[0] for l in lines[1:]} == \
            {"ineff_it", "ineff_ml", "ineff_failures"}

    def test_closed_stdout(self):
        # the reader closes stdout before the CSV is written: exit 1, no traceback
        src = Path(bandfec.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "bandfec.cli", "sim", "ineff", "--k", "600", "--trials", "1"],
            env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"")

    def test_ops_k_prints_slope(self, capsys):
        assert run(["sim", "ops-k", "--ensemble", "band", "--ks", "240,480",
                    "--trials", "3", "--seed", "6"]) == 0
        assert "loglog_slope=" in capsys.readouterr().out

    def test_ops_k_zero_mean_is_usage_error(self, tmp_path, capsys):
        # a protograph code this small never stalls, so the mean ML cost is 0
        # at both k; the slope used to print as nan with exit 0
        msg = usage_error(["sim", "ops-k", "--ensemble", "protograph", "--k", "10,20",
                           "--trials", "2", "--out", tmp_path / "r.csv"], capsys)
        assert msg == "bandfec sim: error: log-log slope needs every mean positive, got 0"
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("args,digest", [
        (["ineff", "--ensemble", "band", "--ks", "600,1200", "--trials", "20", "--seed", "1"],
         "98ea8088d4fc2361f4aa3a2638a24e46e7353182ebc489c0d49151ad74f211cd"),
        (["bler", "--ensemble", "unconstrained", "--k", "600", "--losses", "30:36:2",
          "--trials", "20", "--seed", "2"],
         "444594d7a99f5264530ddf0726e0a4c8a5e46e325b4859d4919e24127ee0498f"),
        (["ops-loss", "--ensemble", "band", "--k", "600", "--losses", "20:36:4",
          "--trials", "20", "--seed", "1"],
         "5aa442bf5ca4596e5b88dd6cee212b9cf3195de4d6f3e3719274f6ed4e31b843"),
        (["ops-k", "--ensemble", "band", "--ks", "600,1200,2400", "--trials", "10",
          "--seed", "2"],
         "115e6b595946cb45cc24092c54b281705a90dee6c55b865c7e1ddb6f05d4c23c"),
    ], ids=["ineff", "bler", "ops-loss", "ops-k"])
    def test_recorded_csv(self, tmp_path, capsys, monkeypatch, args, digest):
        # CSVs recorded from earlier versions; the sweeps are pure functions
        # of their seeds, so a refactor must reproduce them byte for byte
        monkeypatch.delenv("BANDFEC_JOBS", raising=False)
        out = tmp_path / "sweep.csv"
        assert run(["sim", *args, "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        if args[0] == "ops-k":
            assert "loglog_slope=1.4459\n" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path):
        outs = []
        for name in ("x.csv", "y.csv"):
            run(["sim", "ops-loss", "--ensemble", "band", "--k", "240",
                 "--losses", "10:30:10", "--trials", "3", "--seed", "8",
                 "--out", tmp_path / name])
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("args", [["ineff", "--ks", "240"],
                                      ["bler", "--k", "240", "--losses", "20:40:10"]],
                             ids=["ineff", "bler"])
    def test_jobs_leave_csv_unchanged(self, tmp_path, monkeypatch, args):
        # the last job count is above the cap, the CPUs the process may use
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        outs = []
        for jobs in ("1", "2", str(cpus + 1)):
            monkeypatch.setenv("BANDFEC_JOBS", jobs)
            out = tmp_path / f"jobs{jobs}.csv"
            assert run(["sim", *args, "--trials", "4", "--seed", "9", "--out", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("value", ["x", "0"])
    def test_bad_jobs_env(self, monkeypatch, capsys, value):
        # rejected before any worker pool is created
        monkeypatch.setenv("BANDFEC_JOBS", value)
        msg = usage_error(["sim", "bler", "--k", "240", "--loss", "10",
                           "--trials", "2"], capsys)
        assert "BANDFEC_JOBS" in msg

    def test_trial_beyond_memory(self, tmp_path, capsys, monkeypatch):
        # every trial's peeling stalls past the threshold, and its residual's
        # bits cannot be allocated
        monkeypatch.delenv("BANDFEC_JOBS", raising=False)
        monkeypatch.setattr(BandBits, "pack", refuse_pack)
        msg = usage_error(["sim", "bler", "--k", "240", "--loss", "40", "--trials", "2",
                           "--out", tmp_path / "r.csv"], capsys)
        assert msg == f"bandfec sim: error: {TOO_LARGE}"
        assert not (tmp_path / "r.csv").exists()

    def test_losses_reversed(self, capsys):
        msg = usage_error(["sim", "bler", "--k", "240", "--losses", "31:30:1",
                           "--trials", "2"], capsys)
        assert "lo <= hi" in msg

    @pytest.mark.parametrize("args,expect", [
        (["ineff", "--ks", "240,abc"], "not a comma-separated list of integers"),
        (["bler", "--k", "240", "--trials", "-1"], "--trials -1 must be >= 1"),
        (["bler", "--k", "240", "--loss", "150"], "must lie in [0, 100]"),
        (["bler", "--k", "240", "--seed", "-1"], "--seed -1 must be >= 0"),
    ], ids=["ks-not-int", "trials-negative", "loss-above-100", "seed-negative"])
    def test_rejected_sim_args(self, tmp_path, capsys, args, expect):
        msg = usage_error(["sim", *args, "--out", tmp_path / "r.csv"], capsys)
        assert expect in msg
        assert not (tmp_path / "r.csv").exists()

    @staticmethod
    def sim_losses(spec):
        # specs like these used to loop forever, so run them where a timeout
        # can stop them
        src = Path(bandfec.__file__).resolve().parents[1]
        return subprocess.run(
            [sys.executable, "-m", "bandfec.cli", "sim", "bler", "--k", "240",
             "--losses", spec, "--trials", "2"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60)

    def test_losses_zero_step(self):
        proc = self.sim_losses("30:31:0")
        assert proc.returncode == 2
        assert "step > 0" in proc.stderr

    @pytest.mark.parametrize("spec,count", [("50:60:1e-20", "1e+21"),
                                            ("0:100:1e-9", "1e+11")],
                             ids=["step-below-ulp", "too-many-points"])
    def test_losses_tiny_step(self, spec, count):
        proc = self.sim_losses(spec)
        assert proc.returncode == 2
        assert f"lists {count} points" in proc.stderr
        # the usage of sim, continued on indented lines, and one message
        usage, *more, message = proc.stderr.splitlines()
        assert usage.startswith("usage: bandfec sim ")
        assert all(line.startswith(" ") for line in more)
        assert message.startswith("bandfec sim: error: ")

    def test_constant_band_alias(self, capsys):
        assert run(["sim", "bler", "--ensemble", "constant-band", "--k", "2000",
                    "--m0", "10", "--loss", "0", "--trials", "2", "--seed", "1"]) == 0
        assert ",constant_band," in capsys.readouterr().out


class TestSimSettings:
    """sim has one setting for k and one for the loss; a setting that an
    experiment does not read is a usage error, never dropped."""

    BASE = {"ineff": "240", "bler": "240", "ops-loss": "240", "ops-k": "240,480"}
    SWEEPS_K = {"ineff", "ops-k"}

    @staticmethod
    def sim_csv(tmp_path, name, argv):
        out = tmp_path / f"{name}.csv"
        status = run(["sim", *argv, "--trials", "2", "--seed", "3", "--out", out])
        return status, out

    @pytest.mark.parametrize("spelling", ["short", "old"])
    @pytest.mark.parametrize("setting", ["second-k", "loss"])
    @pytest.mark.parametrize("experiment", ["ineff", "bler", "ops-loss", "ops-k"])
    def test_setting_is_read_or_rejected(self, tmp_path, capsys, experiment, setting,
                                         spelling):
        k_flag, loss_flag = ("--k", "--loss") if spelling == "short" else ("--ks", "--losses")
        base = [experiment, "--k", self.BASE[experiment]]
        if setting == "second-k":
            argv = [experiment, k_flag, self.BASE[experiment] + ",720"]
            read = experiment in self.SWEEPS_K
        else:
            argv = [*base, loss_flag, "30"]
            read = experiment not in self.SWEEPS_K
        if read:
            assert self.sim_csv(tmp_path, "base", base)[0] == 0
            status, out = self.sim_csv(tmp_path, "set", argv)
            assert status == 0
            assert out.read_bytes() != (tmp_path / "base.csv").read_bytes()
        else:
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                self.sim_csv(tmp_path, "set", argv)
            assert exc.value.code == 2
            errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
            assert len(errors) == 1 and errors[0].startswith("bandfec sim: error: ")
            assert not (tmp_path / "set.csv").exists()

    @pytest.mark.parametrize("ks", ["240", "240,240"])
    def test_ops_k_needs_two_distinct_k(self, tmp_path, capsys, ks):
        # one point used to give a slope from np.polyfit's RankWarning
        msg = usage_error(["sim", "ops-k", "--k", ks, "--trials", "2",
                           "--out", tmp_path / "r.csv"], capsys)
        assert "at least two distinct k" in msg
        assert not (tmp_path / "r.csv").exists()

    def test_gen_takes_one_k(self, tmp_path, capsys):
        msg = usage_error(["gen", "--k", "240,480", "--out", tmp_path / "c.txt"], capsys)
        assert "--k" in msg
        assert not (tmp_path / "c.txt").exists()

    @pytest.mark.parametrize("spec", ["30", "30:30:1"])
    def test_one_loss_either_way(self, tmp_path, spec):
        status, out = self.sim_csv(tmp_path, spec.replace(":", "_"),
                                   ["bler", "--k", "240", "--loss", spec])
        assert status == 0
        assert out.read_text().splitlines()[1].split(",")[4] == "30"
