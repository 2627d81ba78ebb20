"""Pseudo-band permutation of quasi-cyclic matrices.

Row i = x*z + y of the expanded matrix maps to i' = x + y*a, and column
j = x*z + y maps to j' = x + y*b: each map transposes an a x z (or b x z)
grid of indices.  For circulant expansion with maximum shift M, every
nonzero of the permuted matrix H' lies in a band of subdiagonal height
p = a(M+1) and width q = b(M+1), plus a wrap region in the bottom-left
corner.  Indices here are top-left origin throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qc import QCCode


@dataclass(frozen=True)
class BandShape:
    p: int  # subdiagonal height, a(M+1)
    q: int  # band width, b(M+1)


def band_shape(a: int, b: int, M: int) -> BandShape:
    if a < 1 or b < 1 or M < 0:
        raise ValueError("need a,b >= 1 and M >= 0")
    return BandShape(p=a * (M + 1), q=b * (M + 1))


def _grid_transpose(rows: int, cols: int) -> np.ndarray:
    """Index r*cols + c of a rows x cols grid -> index c*rows + r of its
    transpose.  _grid_transpose(cols, rows) is the inverse map."""
    return np.arange(rows * cols).reshape(cols, rows).T.ravel()


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


def verify_band(code: QCCode, M: int) -> bool:
    """True iff every nonzero of H, relabelled into H', lies in the band."""
    pc = permuted_code(code)
    return bool(np.all(in_band(pc.row_of[code.H.row_ids()], pc.col_of_sym[code.H.indices],
                               code.base.a, code.base.b, code.m, M)))


class PermutedCode:
    """Index maps of a code's band permutation H -> H', shared by decoder and
    simulator; H' itself is never built.

    Attributes:
        row_of: original row index -> H' row index.
        row_orig: H' row index -> original row index.
        col_of_sym: original symbol index -> H' column index.
        sym_of_col: H' column index -> original symbol index.
    """

    def __init__(self, code: QCCode):
        a, b, z = code.base.a, code.base.b, code.spec.z
        self.row_of = _grid_transpose(a, z)
        self.row_orig = _grid_transpose(z, a)
        self.col_of_sym = _grid_transpose(b, z)
        self.sym_of_col = _grid_transpose(z, b)


def permuted_code(code: QCCode) -> PermutedCode:
    """Band-permutation index maps of *code*."""
    return PermutedCode(code)
