"""Property tests of the hybrid decoder and the symbol-file reader.

The decoder's verdicts are checked against the dense reference solvers in
``bandfec.gf2``; small codes keep each example to milliseconds.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from bandfec.codec import DecodeStatus, encode, hybrid_decode, read_symbols
from bandfec.gf2 import SparseBinMatrix, dense_solve_oracle, rank_oracle, syndrome_is_zero
from bandfec.qc import EnsembleSpec, make_code


@st.composite
def decodes(draw):
    """A small band or unconstrained code, a codeword, at most m erasures and 0-2 bit flips."""
    kind = draw(st.sampled_from(["band", "unconstrained"]))
    z = draw(st.integers(10, 24) if kind == "band" else st.integers(1, 24))
    code = make_code(EnsembleSpec(kind), 10 * z, seed=draw(st.integers(0, 2**16)))
    L = draw(st.sampled_from([0, 1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    cw = encode(code, rng.integers(0, 256, (code.k, L), dtype=np.uint8)).symbols
    # erasure counts up to m, weighted towards the ML threshold near 0.9 m
    share = draw(st.sampled_from([0.0, 0.3, 0.6, 0.8, 0.85, 0.9, 0.95, 1.0]))
    erased = np.sort(rng.permutation(code.n)[:int(share * code.m)])
    received = {j: cw[j].copy() for j in np.setdiff1d(np.arange(code.n), erased)}
    flips = draw(st.integers(0, 2)) if L else 0
    for _ in range(flips):
        j = draw(st.sampled_from(sorted(received)))
        received[j][draw(st.integers(0, L - 1))] ^= 1 << draw(st.integers(0, 7))
    return code, cw, erased, received, L, flips


def split_columns(H, erased, received, L):
    """H restricted to the erased columns, and each row's XOR of received symbols."""
    dense = H.to_dense()
    X = np.zeros((H.n, L), dtype=np.uint8)
    for j, v in received.items():
        X[j] = v
    known = np.setdiff1d(np.arange(H.n), erased)
    rhs = np.array([np.bitwise_xor.reduce(X[np.intersect1d(H.row(i), known)], axis=0)
                    for i in range(H.m)], dtype=np.uint8).reshape(H.m, L)
    return SparseBinMatrix.from_dense(dense[:, erased]), rhs


@settings(max_examples=300)
@given(decodes())
def test_decode_against_oracles(case):
    code, cw, erased, received, L, flips = case
    out = hybrid_decode(code, received, L)
    ok = out.status is DecodeStatus.SUCCESS
    if ok:
        assert syndrome_is_zero(code.H, out.symbols)
        for j, v in received.items():
            assert np.array_equal(out.symbols[j], v)
    A, rhs = split_columns(code.H, erased, received, L)
    full_rank = rank_oracle(A) == erased.size
    if not flips:
        assert ok == full_rank
        if ok:
            assert np.array_equal(out.symbols, cw)
    elif full_rank:
        assert out.status in (DecodeStatus.SUCCESS, DecodeStatus.INCONSISTENT)
        assert (out.status is DecodeStatus.INCONSISTENT) == (dense_solve_oracle(A, rhs) is None)


big = st.integers(-2**62, 2**62)
small = st.integers(-2, 6)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.one_of(small, big), k=st.one_of(small, big), L=st.one_of(small, big),
       body=st.binary(max_size=64))
def test_read_symbols_fuzz(tmp_path, n, k, L, body):
    path = tmp_path / "syms.bin"
    path.write_bytes(f"{n} {k} {L}\n".encode() + body)
    try:
        n2, k2, L2, present = read_symbols(path)
    except ValueError:
        return
    assert (n2, k2, L2) == (n, k, L) and L2 >= 0
    for j, v in present.items():
        assert 0 <= j < n2 and v.dtype == np.uint8 and v.shape == (L2,)
