"""Helpers shared by the test modules."""

import numpy as np

from bandfec.gf2 import SparseBinMatrix


def residual_to_sparse(sys):
    """A ResidualSystem's packed bits as a SparseBinMatrix, for the dense
    oracles; call it before eliminating."""
    u8 = sys.bits.view(np.uint8)
    return SparseBinMatrix.from_dense(np.unpackbits(u8, axis=1, bitorder="little")[:, :sys.ncols])
