import numpy as np
import pytest

from bandfec.band import _grid_transpose, band_shape, permuted_code
from bandfec.qc import EnsembleSpec, make_code

from oracles import band_index, in_band, verify_band


def row_weights(A):
    return np.bincount(A.row_ids(), minlength=A.m)


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
        a, b, z = 2, 3, 4
        row, row_inv = _grid_transpose(a, z), _grid_transpose(z, a)
        col = _grid_transpose(b, z)
        # i = x*z + y -> x + y*a
        assert row[0] == 0
        assert row[5] == 1 + 1 * 2                  # x=1, y=1
        assert row_inv[3] == 5
        assert col[4] == 1 + 0 * 3                  # j=4: x=1, y=0
        assert col[3] == 0 + 3 * 3                  # j=3: x=0, y=3

    def test_bijective(self):
        a, b, z = 5, 15, 7
        row, row_inv = _grid_transpose(a, z), _grid_transpose(z, a)
        col, col_inv = _grid_transpose(b, z), _grid_transpose(z, b)
        rows = np.arange(a * z)
        cols = np.arange(b * z)
        assert np.array_equal(np.sort(row), rows)
        assert np.array_equal(row_inv[row], rows)
        assert np.array_equal(col_inv[col], cols)
        for i in range(a * z):
            assert row_inv[row[i]] == i


class TestPermuteMatrix:
    def test_preserves_weights_and_entries(self):
        code = make_code(EnsembleSpec("band"), 240, seed=1)
        pc = permuted_code(code)
        a, b, z = code.base.a, code.base.b, code.spec.z
        rows, cols = band_index(code.H.row_ids(), a, z), band_index(code.H.indices, b, z)
        hp_entries = set(zip(rows.tolist(), cols.tolist()))
        assert len(hp_entries) == code.H.indices.size
        assert sorted(row_weights(code.H)) == sorted(np.bincount(rows, minlength=code.m))
        # spot-check individual entries through the index maps
        row = np.argsort(pc.row_orig)
        d = code.H.to_dense()
        rng = np.random.default_rng(0)
        for _ in range(100):
            i = int(rng.integers(code.m))
            j = int(rng.integers(code.n))
            assert d[i, j] == ((int(row[i]), int(band_index(j, b, z))) in hp_entries)


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
        assert verify_band(code, code.base.M)

    def test_protograph_spills(self):
        # random permutation blocks scatter; they cannot fit the band that a
        # shift-limited circulant code of the same size would occupy
        code = make_code(EnsembleSpec("protograph"), 2400, seed=3)
        M_band = int(3 * np.sqrt(code.spec.z))
        assert not verify_band(code, M_band)

    def test_tight_M(self):
        # shrinking M below the construction's maximum must break membership
        code = make_code(EnsembleSpec("band"), 2400, seed=5)
        assert verify_band(code, code.base.M)
        assert not verify_band(code, code.base.M // 4)


class TestPermutedCode:
    def test_index_maps_consistent(self):
        code = make_code(EnsembleSpec("band"), 450, seed=2)
        pc = permuted_code(code)
        a, b, z = code.base.a, code.base.b, code.spec.z
        assert np.array_equal(pc.sym_of_col[band_index(np.arange(code.n), b, z)],
                              np.arange(code.n))
        assert np.array_equal(np.sort(pc.row_orig), np.arange(code.m))
        # H' rows are relabelled through band_index and read back through row_orig
        assert np.array_equal(band_index(pc.row_orig, a, z), np.arange(code.m))

