"""Helpers shared by the test modules."""

import numpy as np

from bandfec.gf2 import SparseBinMatrix


def sparse_from_dense(d):
    """SparseBinMatrix with a one at each nonzero of 2-D array d."""
    d = np.asarray(d)
    return SparseBinMatrix.from_coords(d.shape[0], d.shape[1], *np.nonzero(d))


def band_to_dense(band):
    """The (rows, words) uint64 array that a gf2.BandBits stores in band form."""
    out = np.zeros(band.shape, np.uint64)
    cols = band.anchors[:, None] + np.arange(band.width)
    np.put_along_axis(out, cols, band.words[:, :band.width], axis=1)
    out[:, band.tail_start:] = band.words[:, band.width:]
    return out


def residual_to_sparse(sys):
    """A ResidualSystem's packed bits as a SparseBinMatrix, for the dense
    oracles; call it before eliminating."""
    u8 = band_to_dense(sys.bits).view(np.uint8)
    return sparse_from_dense(np.unpackbits(u8, axis=1, bitorder="little")[:, :sys.ncols])


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


def band_index(idx, blocks, z):
    """H' index of row or column *idx* of a code with *blocks* block rows or
    columns of size z: index x*z + y maps to x + y*blocks (see bandfec.band)."""
    idx = np.asarray(idx, dtype=np.int64)
    return idx // z + idx % z * blocks


def in_band(ip, jp, a: int, b: int, m: int, M: int):
    """Exact membership test for the pseudo-band region of H'.

    Integer arithmetic scaled by b: the entry (i', j') is potentially
    nonzero iff a(M+1) >= (a/b) j' - i' >= -a, or
    i' - (a/b) j' >= m - a(M+1).  Accepts scalars or index arrays.
    """
    # d = b * ((a/b) j' - i')
    d = a * np.asarray(jp, dtype=np.int64) - b * np.asarray(ip, dtype=np.int64)
    first = (d >= -a * b) & (d <= a * b * (M + 1))
    return first | (-d >= b * m - a * b * (M + 1))


def verify_band(code, M: int) -> bool:
    """True iff every nonzero of H, relabelled into H', lies in the band."""
    a, b, z = code.base.a, code.base.b, code.spec.z
    return bool(np.all(in_band(band_index(code.H.row_ids(), a, z),
                               band_index(code.H.indices, b, z), a, b, code.m, M)))
