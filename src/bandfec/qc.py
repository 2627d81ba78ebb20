"""Quasi-cyclic repeat-accumulate code construction.

A code instance is defined by an a x b base matrix with entries in
{-1} u [0, M] and an expansion factor z.  The parity side of the base
matrix is a staircase (double diagonal); the bottom-right block of the
expanded matrix is itself a z x z bit staircase so that only one column
of the final matrix has degree one.

Four ensembles share the same support pattern and differ only in how the
maximum shift M scales with z (and, for protograph codes, in the expansion
rule: random permutation blocks instead of circulants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gf2 import SparseBinMatrix

CIRCULANT = "circulant"
PROTOGRAPH = "protograph"

ENSEMBLE_KINDS = ("band", "unconstrained", "constant_band", "protograph")


@dataclass(frozen=True)
class BaseMatrix:
    a: int
    b: int
    M: int
    entries: np.ndarray  # (a, b) int64, -1 for zero blocks

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.int64)
        object.__setattr__(self, "entries", e)
        if e.shape != (self.a, self.b):
            raise ValueError("entries shape mismatch")
        if e.max() > self.M:
            raise ValueError("entry exceeds M")
        if e.min() < -1:
            raise ValueError("entries must be >= -1")

    @property
    def n_source_cols(self):
        return self.b - self.a


@dataclass(frozen=True)
class ExpansionSpec:
    z: int
    mode: str = CIRCULANT
    last_block_staircase: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.z < 1:
            raise ValueError("z must be positive")
        if self.mode not in (CIRCULANT, PROTOGRAPH):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    C: float = 3.0      # band: M = floor(C sqrt(z))
    M0: int = 42        # constant_band: fixed M

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble {self.kind!r}")
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.M0 < 0:
            raise ValueError("M0 must be >= 0")


@dataclass
class QCCode:
    base: BaseMatrix
    spec: ExpansionSpec
    H: SparseBinMatrix
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def m(self):
        return self.H.m

    @property
    def n(self):
        return self.H.n

    @property
    def k(self):
        return self.H.n - self.H.m

    @property
    def rate(self):
        return self.k / self.n


def build_rra_base(a: int, b: int, src_degree: int) -> BaseMatrix:
    """Support pattern of a regular repeat-accumulate base matrix (shifts unset).

    Each of the b-a source columns gets *src_degree* non-negative positions;
    the a x a parity part is the staircase.  Entries are 0 on the support
    and -1 elsewhere; call sample_shifts() to draw actual shift values.
    """
    if a < src_degree:
        raise ValueError(f"source degree {src_degree} exceeds row count {a}")
    if b <= a:
        raise ValueError("need b > a")
    e = np.full((a, b), -1, dtype=np.int64)
    for j in range(b - a):
        if src_degree == a:
            e[:, j] = 0
        else:
            # positions drawn without replacement; only src_degree == a is
            # exercised by the standard 5x15 setup
            rng = np.random.default_rng((a, b, j))
            e[rng.choice(a, size=src_degree, replace=False), j] = 0
    for i in range(a):
        e[i, b - a + i] = 0
        if i >= 1:
            e[i, b - a + i - 1] = 0
    return BaseMatrix(a=a, b=b, M=0, entries=e)


def max_shift(ensemble: EnsembleSpec, z: int) -> int:
    """Maximum base-matrix shift value M for an ensemble at expansion factor z."""
    if z < 1:
        raise ValueError("z must be >= 1")
    if ensemble.kind == "band":
        return int(math.floor(ensemble.C * math.sqrt(z)))
    if ensemble.kind == "constant_band":
        return ensemble.M0
    # unconstrained; also protograph, where the value is unused by the
    # permutation-matrix expansion.  A shift of z equals a shift of 0 mod z,
    # so the range is [0, z-1].
    return z - 1


def sample_shifts(base: BaseMatrix, M: int, rng) -> BaseMatrix:
    """Draw uniform shifts in {0..M} for the source support; parity entries stay 0.

    Fixing the staircase entries to shift 0 keeps the expanded parity part
    unit lower triangular, which the linear-time encoder relies on.
    """
    e = base.entries.copy()
    src = e[:, :base.n_source_cols]
    mask = src >= 0
    src[mask] = rng.integers(0, M + 1, size=int(mask.sum()))
    e[:, :base.n_source_cols] = src
    return BaseMatrix(a=base.a, b=base.b, M=M, entries=e)


def expand(base: BaseMatrix, spec: ExpansionSpec) -> QCCode:
    """Expand a base matrix into the full parity-check matrix.

    Non-negative entries become circulant permutation blocks (identity
    right-shifted by the entry) or, in protograph mode, uniformly random
    permutation blocks.  With last_block_staircase the bottom-right block
    becomes the z x z bit staircase instead.
    """
    z, a, b = spec.z, base.a, base.b
    if spec.mode == CIRCULANT and z <= base.M:
        raise ValueError(f"need z > M for circulant expansion (z={z}, M={base.M})")
    rng = np.random.default_rng([spec.seed, 1]) if spec.mode == PROTOGRAPH else None
    alpha = np.arange(z)
    rr, cc = [], []
    for i in range(a):
        for j in range(b):
            s = base.entries[i, j]
            if s < 0:
                continue
            if spec.last_block_staircase and i == a - 1 and j == b - 1:
                r = np.concatenate([alpha, alpha[1:]])
                c = np.concatenate([alpha, alpha[1:] - 1])
            elif spec.mode == PROTOGRAPH:
                r = alpha
                c = rng.permutation(z)
            else:
                r = alpha
                c = (alpha + s) % z
            rr.append(i * z + r)
            cc.append(j * z + c)
    H = SparseBinMatrix.from_coords(a * z, b * z, np.concatenate(rr), np.concatenate(cc))
    return QCCode(base=base, spec=spec, H=H)


def make_code(ensemble: EnsembleSpec, k: int, b: int = 15, a: int = 5,
              seed: int = 0) -> QCCode:
    """Build one code instance from an ensemble at dimension k."""
    if b <= a:
        raise ValueError(f"need b > a, got a={a}, b={b}")
    if k < 1 or k % (b - a) != 0:
        raise ValueError(f"k={k} is not a positive multiple of b-a={b - a}")
    z = k // (b - a)
    M = max_shift(ensemble, z)
    base = build_rra_base(a, b, src_degree=5)
    base = sample_shifts(base, M, np.random.default_rng([int(seed), 0]))
    mode = PROTOGRAPH if ensemble.kind == "protograph" else CIRCULANT
    spec = ExpansionSpec(z=z, mode=mode, last_block_staircase=True, seed=int(seed))
    return expand(base, spec)


# ---------------------------------------------------------------------------
# Base-matrix text format: one header line `a b M z mode last_block_staircase
# seed`, then a lines of b space-separated integers.

def write_base_matrix(path, code: QCCode):
    base, spec = code.base, code.spec
    with open(path, "w") as f:
        f.write(f"{base.a} {base.b} {base.M} {spec.z} {spec.mode} "
                f"{int(spec.last_block_staircase)} {spec.seed}\n")
        for i in range(base.a):
            f.write(" ".join(str(int(v)) for v in base.entries[i]) + "\n")


def read_base_matrix(path):
    """Returns (BaseMatrix, ExpansionSpec)."""
    with open(path) as f:
        head = f.readline().split()
        if len(head) != 7:
            raise ValueError(f"base-matrix header needs 7 fields, got {len(head)}")
        a, b, M, z = (int(x) for x in head[:4])
        mode = head[4]
        last_stair = bool(int(head[5]))
        seed = int(head[6])
        rows = [line.split() for line in f if line.strip()]
    if len(rows) != a:
        raise ValueError(f"base matrix needs {a} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != b:
            raise ValueError(f"base-matrix row {i} needs {b} entries, got {len(row)}")
    try:
        entries = np.array([[int(v) for v in row] for row in rows], dtype=np.int64)
    except OverflowError as e:
        raise ValueError(f"base-matrix entry out of range: {e}") from e
    base = BaseMatrix(a=a, b=b, M=M, entries=entries)
    spec = ExpansionSpec(z=z, mode=mode, last_block_staircase=last_stair, seed=seed)
    return base, spec


def load_code(path) -> QCCode:
    base, spec = read_base_matrix(path)
    return expand(base, spec)
