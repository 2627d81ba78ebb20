"""Smoke test of the benchmark: tiny k, one operation per workload, every
output check on.  Kept out of the tier-1 suite; run it with

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = dict(k=200, L=16, setups=1, warmup_k=100, round_trials=1)


@pytest.fixture(scope="module")
def bf():
    return bench.load_library()


def tiny_run(bf, name, trace=0):
    cfg = dict(bench.WORKLOADS[name], **TINY)
    return bench.run_workload(bf, cfg, seed=3, seconds=0, trace=trace)


def test_workloads_match_spec():
    assert sorted(bench.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_one_operation(bf, name, trace):
    result, run = tiny_run(bf, name, trace)
    assert result["correct"], run.problems
    assert (result["attempted"], result["failed"]) == (1, 0)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert bool(run.tracer.spans) == bool(trace)


def test_wrong_decode_is_caught(bf, monkeypatch):
    decode = bf.hybrid_decode

    def corrupt(*args, **kw):
        out = decode(*args, **kw)
        out.symbols[0, 0] ^= 1
        return out

    monkeypatch.setattr(bf, "hybrid_decode", corrupt)
    result, run = tiny_run(bf, "transfer-ml")
    assert not result["correct"]
    assert "decoded source differs" in run.problems


def test_wrong_inefficiency_is_caught(bf, monkeypatch):
    trial = bf.inefficiency_trial

    def late(ensemble, k, seed, **kw):
        r = trial(ensemble, k, seed, **kw)
        r.ml_inefficiency += 1 / k
        return r

    monkeypatch.setattr(bf, "inefficiency_trial", late)
    result, run = tiny_run(bf, "ineff-band")
    assert not result["correct"]
    assert "residual has full rank at t_ml-1" in run.problems


def run_cli(root, *flags):
    return subprocess.run([sys.executable, *flags, "perfbench/run.py", "--workload",
                           "transfer-peel", "--seed", "1", "--seconds", "0"],
                          cwd=root, capture_output=True, text=True, timeout=170)


def test_cli_last_line_is_the_result():
    proc = run_cli(HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_cli_refuses_python_O():
    proc = run_cli(HERE.parent, "-O")
    assert proc.returncode != 0 and not proc.stdout


def test_cli_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_cli(tmp_path)
    assert proc.returncode != 0 and not proc.stdout
