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
from bandfec.qc import load_code


def run(argv):
    return main([str(a) for a in argv])


def usage_error(argv, capsys):
    """Run a command that must fail as a usage error; returns its message."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err.strip().splitlines()[-1]


def run_capped(argv):
    """Run the CLI in a subprocess whose address space is capped at 4 GiB, so
    that no allocation sized from the inputs used here can succeed."""
    src = Path(bandfec.__file__).resolve().parents[1]
    cap = 4 << 30
    return subprocess.run(
        [sys.executable, "-m", "bandfec.cli", *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))


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

    def test_rate_consistency_check(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--k", "240", "--rate", "0.5", "--out", tmp_path / "c.txt"])
        assert exc.value.code == 2

    def test_indivisible_k(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--k", "241", "--out", tmp_path / "c.txt"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args,expect", [
        (["--k", "0"], "k=0 is not a positive multiple"),
        (["--k", "-10"], "k=-10 is not a positive multiple"),
        (["--a", "5", "--b", "5"], "need b > a"),
        (["--c-const", "0"], "C must be positive"),
        (["--k", "20"], "need z > M"),  # band: z=2, M=floor(3 sqrt 2)=4
    ], ids=["k-zero", "k-negative", "a-equals-b", "c-zero", "z-not-above-M"])
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

    def test_payload_too_large(self, tmp_path, code_file):
        (tmp_path / "in.bin").write_bytes(b"z" * (240 * 4 + 1))
        with pytest.raises(SystemExit) as exc:
            run(["encode", "--code", code_file, "--in", tmp_path / "in.bin",
                 "--out", tmp_path / "syms.bin", "--symbol-size", "4"])
        assert exc.value.code == 2


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

    def test_ops_k_prints_slope(self, capsys):
        assert run(["sim", "ops-k", "--ensemble", "band", "--ks", "240,480",
                    "--trials", "3", "--seed", "6"]) == 0
        assert "loglog_slope=" in capsys.readouterr().out

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
        outs = []
        for jobs in ("1", "2"):
            monkeypatch.setenv("BANDFEC_JOBS", jobs)
            out = tmp_path / f"jobs{jobs}.csv"
            assert run(["sim", *args, "--trials", "4", "--seed", "9", "--out", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("value", ["x", "0"])
    def test_bad_jobs_env(self, monkeypatch, capsys, value):
        # rejected before any worker pool is created
        monkeypatch.setenv("BANDFEC_JOBS", value)
        msg = usage_error(["sim", "bler", "--k", "240", "--loss", "10",
                           "--trials", "2"], capsys)
        assert "BANDFEC_JOBS" in msg

    def test_losses_reversed(self, capsys):
        msg = usage_error(["sim", "bler", "--k", "240", "--losses", "31:30:1",
                           "--trials", "2"], capsys)
        assert "lo <= hi" in msg

    @pytest.mark.parametrize("args,expect", [
        (["ineff", "--ks", "240,abc"], "not a comma-separated list of integers"),
        (["bler", "--k", "240", "--trials", "-1"], "--trials -1 must be >= 1"),
        (["bler", "--k", "240", "--loss", "150"], "must lie in [0, 100]"),
    ], ids=["ks-not-int", "trials-negative", "loss-above-100"])
    def test_rejected_sim_args(self, tmp_path, capsys, args, expect):
        msg = usage_error(["sim", *args, "--out", tmp_path / "r.csv"], capsys)
        assert expect in msg
        assert not (tmp_path / "r.csv").exists()

    def test_losses_zero_step(self):
        # a zero step used to loop forever, so run it where a timeout can stop it
        src = Path(bandfec.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "bandfec.cli", "sim", "bler", "--k", "240",
             "--losses", "30:31:0", "--trials", "2"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "step > 0" in proc.stderr

    def test_constant_band_alias(self, capsys):
        assert run(["sim", "bler", "--ensemble", "constant-band", "--k", "2000",
                    "--m0", "10", "--loss", "0", "--trials", "2", "--seed", "1"]) == 0
        assert ",constant_band," in capsys.readouterr().out
