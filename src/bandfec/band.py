"""Pseudo-band permutation of quasi-cyclic matrices.

Row i = x*z + y of the expanded matrix maps to i' = x + y*a, and column
j = x*z + y maps to j' = x + y*b.  For circulant expansion with maximum
shift M, every nonzero of the permuted matrix H' lies in a band of
subdiagonal height p = a(M+1) and width q = b(M+1), plus a wrap region in
the bottom-left corner.  Indices here are top-left origin throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import SparseBinMatrix
from .qc import QCCode


@dataclass(frozen=True)
class BandShape:
    p: int  # subdiagonal height, a(M+1)
    q: int  # band width, b(M+1)
    a: int
    b: int
    m: int
    M: int


def band_shape(a: int, b: int, M: int, m: int = 0) -> BandShape:
    if a < 1 or b < 1 or M < 0:
        raise ValueError("need a,b >= 1 and M >= 0")
    return BandShape(p=a * (M + 1), q=b * (M + 1), a=a, b=b, m=m, M=M)


@dataclass(frozen=True)
class QCPermutation:
    a: int
    b: int
    z: int

    def row(self, i):
        i = np.asarray(i)
        if np.any(i < 0) or np.any(i >= self.a * self.z):
            raise ValueError("row index out of range")
        return i // self.z + (i % self.z) * self.a

    def col(self, j):
        j = np.asarray(j)
        if np.any(j < 0) or np.any(j >= self.b * self.z):
            raise ValueError("column index out of range")
        return j // self.z + (j % self.z) * self.b

    def row_inv(self, ip):
        ip = np.asarray(ip)
        if np.any(ip < 0) or np.any(ip >= self.a * self.z):
            raise ValueError("row index out of range")
        return (ip % self.a) * self.z + ip // self.a

    def col_inv(self, jp):
        jp = np.asarray(jp)
        if np.any(jp < 0) or np.any(jp >= self.b * self.z):
            raise ValueError("column index out of range")
        return (jp % self.b) * self.z + jp // self.b


def permute_matrix(H: SparseBinMatrix, perm: QCPermutation) -> SparseBinMatrix:
    """Apply the pseudo-band row/column permutation to a sparse matrix."""
    if H.m != perm.a * perm.z or H.n != perm.b * perm.z:
        raise ValueError("matrix dimensions do not match permutation")
    rowid = np.repeat(np.arange(H.m), np.diff(H.indptr))
    rp = perm.row(rowid)
    cp = perm.col(H.indices)
    order = np.lexsort((cp, rp))
    rp, cp = rp[order], cp[order]
    indptr = np.searchsorted(rp, np.arange(H.m + 1))
    return SparseBinMatrix(H.m, H.n, indptr=indptr, indices=cp)


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


def verify_band(Hp: SparseBinMatrix, a: int, b: int, M: int) -> bool:
    """True iff every stored nonzero of the permuted matrix lies in the band."""
    rowid = np.repeat(np.arange(Hp.m), np.diff(Hp.indptr))
    return bool(np.all(in_band(rowid, Hp.indices, a, b, Hp.m, M)))


class PermutedCode:
    """Cached band-permuted view of a code, shared by decoder and simulator.

    Attributes:
        perm: the QCPermutation.
        hp: H' as a SparseBinMatrix (rows/cols in permuted order).
        sym_of_col: H' column index -> original symbol index.
        col_of_sym: original symbol index -> H' column index.
        row_orig: H' row index -> original row index.
        shape: BandShape of the underlying base matrix.
    """

    def __init__(self, code: QCCode):
        base, z = code.base, code.spec.z
        self.perm = QCPermutation(base.a, base.b, z)
        self.hp = permute_matrix(code.H, self.perm)
        self.col_of_sym = self.perm.col(np.arange(code.n))
        self.sym_of_col = self.perm.col_inv(np.arange(code.n))
        self.row_orig = self.perm.row_inv(np.arange(code.m))
        self.shape = band_shape(base.a, base.b, base.M, m=code.m)


def permuted_code(code: QCCode) -> PermutedCode:
    """Band-permuted view, cached on the code instance."""
    pc = code._cache.get("permuted")
    if pc is None:
        pc = PermutedCode(code)
        code._cache["permuted"] = pc
    return pc
