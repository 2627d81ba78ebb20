import numpy as np
import pytest

from bandfec.band import (QCPermutation, band_shape, in_band, permute_matrix,
                          permuted_code, verify_band)
from bandfec.gf2 import SparseBinMatrix
from bandfec.qc import EnsembleSpec, make_code


class TestBandShape:
    def test_reference_sizes(self):
        s = band_shape(5, 15, 42)
        assert (s.p, s.q) == (215, 645)
        s = band_shape(5, 15, 164)
        assert (s.p, s.q) == (825, 2475)
        assert (band_shape(1, 1, 0).p, band_shape(1, 1, 0).q) == (1, 1)

    def test_monotone_in_M(self):
        # each unit of M adds a rows of height and b of width
        s0, s1 = band_shape(5, 15, 10), band_shape(5, 15, 11)
        assert s1.p - s0.p == 5 and s1.q - s0.q == 15

    def test_validation(self):
        with pytest.raises(ValueError):
            band_shape(0, 1, 0)


class TestPermutation:
    def test_hand_values(self):
        perm = QCPermutation(a=2, b=3, z=4)
        # i = x*z + y -> x + y*a
        assert int(perm.row(0)) == 0
        assert int(perm.row(5)) == 1 + 1 * 2        # x=1, y=1
        assert int(perm.row_inv(3)) == 5
        assert int(perm.col(4)) == 1 + 0 * 3        # j=4: x=1, y=0
        assert int(perm.col(3)) == 0 + 3 * 3        # j=3: x=0, y=3

    def test_bijective(self):
        perm = QCPermutation(a=5, b=15, z=7)
        rows = np.arange(5 * 7)
        cols = np.arange(15 * 7)
        assert np.array_equal(np.sort(perm.row(rows)), rows)
        assert np.array_equal(perm.row_inv(perm.row(rows)), rows)
        assert np.array_equal(perm.col_inv(perm.col(cols)), cols)
        for i in range(5 * 7):
            assert int(perm.row_inv(int(perm.row(i)))) == i

    def test_range_checks(self):
        perm = QCPermutation(a=2, b=3, z=4)
        with pytest.raises(ValueError):
            perm.row(8)
        with pytest.raises(ValueError):
            perm.col(np.array([0, 12]))
        with pytest.raises(ValueError):
            perm.row(-1)
        with pytest.raises(ValueError):
            perm.row_inv(8)


class TestPermuteMatrix:
    def test_preserves_weights_and_entries(self):
        code = make_code(EnsembleSpec("band"), 240, seed=1)
        perm = QCPermutation(5, 15, code.spec.z)
        Hp = permute_matrix(code.H, perm)
        assert Hp.nnz == code.H.nnz
        assert sorted(code.H.row_weights()) == sorted(Hp.row_weights())
        # spot-check individual entries through the inverse maps
        d, dp = code.H.to_dense(), Hp.to_dense()
        rng = np.random.default_rng(0)
        for _ in range(100):
            i = int(rng.integers(code.m))
            j = int(rng.integers(code.n))
            assert d[i, j] == dp[perm.row(i), perm.col(j)]

    def test_dimension_mismatch(self):
        H = SparseBinMatrix(2, 2, rows=[[0], [1]])
        with pytest.raises(ValueError):
            permute_matrix(H, QCPermutation(2, 3, 4))


class TestInBand:
    def test_diagonal_membership(self):
        a, b, M, m = 5, 15, 4, 50
        for jp in range(0, 150, 7):
            ip = (a * jp) // b  # on the band diagonal
            assert in_band(ip, jp, a, b, m, M)
        jp = np.arange(0, 150, 7)
        assert in_band((a * jp) // b, jp, a, b, m, M).all()

    def test_below_band_excluded(self):
        a, b, M, m = 5, 15, 2, 1000
        # far below the diagonal but above the wrap region
        assert not in_band(500, 0, a, b, m, M)

    def test_above_band_excluded(self):
        a, b, M, m = 5, 15, 2, 1000
        assert not in_band(0, 200, a, b, m, M)

    def test_wrap_corner_included(self):
        a, b, M, m = 5, 15, 2, 1000
        assert in_band(m - 1, 0, a, b, m, M)


class TestVerifyBand:
    @pytest.mark.parametrize("kind", ["band", "unconstrained", "constant_band"])
    def test_circulant_codes_fit(self, kind):
        k = 2000 if kind == "constant_band" else 240
        code = make_code(EnsembleSpec(kind), k, seed=3)
        pc = permuted_code(code)
        assert verify_band(pc.hp, 5, 15, code.base.M)

    def test_protograph_spills(self):
        # random permutation blocks scatter; they cannot fit the band that a
        # shift-limited circulant code of the same size would occupy
        code = make_code(EnsembleSpec("protograph"), 2400, seed=3)
        pc = permuted_code(code)
        M_band = int(3 * np.sqrt(code.spec.z))
        assert not verify_band(pc.hp, 5, 15, M_band)

    def test_tight_M(self):
        # shrinking M below the construction's maximum must break membership
        code = make_code(EnsembleSpec("band"), 2400, seed=5)
        pc = permuted_code(code)
        assert verify_band(pc.hp, 5, 15, code.base.M)
        assert not verify_band(pc.hp, 5, 15, code.base.M // 4)


class TestPermutedCode:
    def test_index_maps_consistent(self):
        code = make_code(EnsembleSpec("band"), 450, seed=2)
        pc = permuted_code(code)
        assert np.array_equal(pc.sym_of_col[pc.col_of_sym], np.arange(code.n))
        assert np.array_equal(pc.row_orig[pc.perm.row(np.arange(code.m))], np.arange(code.m))
        d, dp = code.H.to_dense(), pc.hp.to_dense()
        assert np.array_equal(dp[:, pc.col_of_sym][pc.perm.row(np.arange(code.m))], d)

    def test_cached(self):
        code = make_code(EnsembleSpec("band"), 450, seed=2)
        assert permuted_code(code) is permuted_code(code)

