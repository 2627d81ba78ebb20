import ast
from pathlib import Path

import pytest

import bandfec

SOURCES = sorted(Path(bandfec.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    # consistency checks must be real code paths: python -O strips asserts
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statement on line(s) {lines}"


NOT_GF2 = [p for p in SOURCES if p.name != "gf2.py"]
GF2_INTERNALS = {"indptr", "words", "anchors", "width", "tail", "tail_start"}


@pytest.mark.parametrize("path", NOT_GF2, ids=[p.name for p in NOT_GF2])
def test_csr_read_only_in_gf2(path):
    # CSR row pointers and the band storage's windows and tail are gf2's to
    # read; other modules go through its methods
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [(node.lineno, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in GF2_INTERNALS]
    assert not lines, f"{path.name}: gf2 internals read at {lines}"


NOT_QC_GF2 = [p for p in SOURCES if p.name not in ("qc.py", "gf2.py")]


@pytest.mark.parametrize("path", NOT_QC_GF2, ids=[p.name for p in NOT_QC_GF2])
def test_row_xor_called_only_in_qc_and_gf2(path):
    # row sums go through QCCode.row_sums, which takes the circulant block
    # path and falls back to SparseBinMatrix.row_xor itself
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "row_xor"]
    assert not lines, f"{path.name}: .row_xor( on line(s) {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_bitwise_xor_at(path):
    # np.bitwise_xor.at took twice as long as XOR passes that write each
    # row at most once (codec._xor_rows)
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "at"
             and getattr(node.value, "attr", getattr(node.value, "id", None)) == "bitwise_xor"]
    assert not lines, f"{path.name}: bitwise_xor.at on line(s) {lines}"


def is_broad(handler):
    """A bare except, or one that names Exception or BaseException."""
    return handler.type is None or any(
        getattr(n, "id", getattr(n, "attr", None)) in ("Exception", "BaseException")
        for n in ast.walk(handler.type))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_broad_except(path):
    # errors reach cli.main's one boundary by their type; a bare or broad
    # handler in between would swallow or remap them
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ExceptHandler) and is_broad(node)]
    assert not lines, f"{path.name}: bare or broad except on line(s) {lines}"


NOT_CLI = [p for p in SOURCES if p.name != "cli.py"]


@pytest.mark.parametrize("path", NOT_CLI, ids=[p.name for p in NOT_CLI])
def test_print_only_in_cli(path):
    # the library reports through return values and exceptions, never stdout
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "print"]
    assert not lines, f"{path.name}: print( on line(s) {lines}"


SIM = next(p for p in SOURCES if p.name == "sim.py")


def test_sim_decodes_only_in_its_decoding_trials():
    # ineff_sweep's trials take t_it and t_ml without a decode; only the
    # trials that read a decode's status or op counts call hybrid_decode
    tree = ast.parse(SIM.read_text(), filename=str(SIM))
    callers = {(fn.name, node.lineno) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hybrid_decode"}
    assert {name for name, _ in callers} == {"inefficiency_trial", "_loss_trial"}, callers
