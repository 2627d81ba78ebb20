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


class PermutedCode:
    """Index maps of a code's band permutation H -> H', shared by decoder and
    simulator; H' itself is never built.

    Attributes:
        row_orig: H' row index -> original row index.
        sym_of_col: H' column index -> original symbol index.
    """

    def __init__(self, code: QCCode):
        a, b, z = code.base.a, code.base.b, code.spec.z
        self.row_orig = _grid_transpose(z, a)
        self.sym_of_col = _grid_transpose(z, b)


def permuted_code(code: QCCode) -> PermutedCode:
    """Band-permutation index maps of *code*."""
    return PermutedCode(code)
