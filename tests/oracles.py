"""Helpers shared by the test modules."""

import numpy as np

from bandfec.gf2 import SparseBinMatrix


def residual_to_sparse(sys):
    """A ResidualSystem's packed bits as a SparseBinMatrix, for the dense
    oracles; call it before eliminating."""
    u8 = sys.bits.view(np.uint8)
    return SparseBinMatrix.from_dense(np.unpackbits(u8, axis=1, bitorder="little")[:, :sys.ncols])


def reference_encode(code, source):
    """Parity by forward substitution one row of H at a time: row r fixes
    parity symbol k + r from symbols already known, which holds when H_p is
    unit lower triangular."""
    source = np.atleast_2d(np.asarray(source, dtype=np.uint8))
    k, H = code.k, code.H
    values = np.zeros((code.n, source.shape[1]), dtype=np.uint8)
    values[:k] = source
    for r in range(code.m):
        # parity column k+r is still zero, so it drops out of the XOR
        values[k + r] = np.bitwise_xor.reduce(values[H.row(r)], axis=0)
    return values
