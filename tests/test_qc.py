import numpy as np
import pytest

from bandfec.qc import (BaseMatrix, EnsembleSpec, ExpansionSpec, build_rra_base,
                        expand, load_code, make_code, max_shift, read_base_matrix,
                        sample_shifts, write_base_matrix)


class TestBaseMatrix:
    def test_entry_bounds(self):
        with pytest.raises(ValueError):
            BaseMatrix(a=1, b=2, M=3, entries=np.array([[4, 0]]))
        with pytest.raises(ValueError):
            BaseMatrix(a=1, b=2, M=3, entries=np.array([[-2, 0]]))

    def test_parity_part(self):
        base = build_rra_base(5, 15, 5)
        pp = base.entries[:, 10:]
        assert pp.shape == (5, 5)
        want = np.full((5, 5), -1)
        for i in range(5):
            want[i, i] = 0
            if i:
                want[i, i - 1] = 0
        assert np.array_equal(pp, want)


class TestBuildBase:
    def test_standard_shape(self):
        base = build_rra_base(5, 15, 5)
        assert (base.a, base.b, base.M) == (5, 15, 0)
        src = base.entries[:, :10]
        assert np.all(src == 0)  # every source column hits all 5 rows

    def test_degree_exceeds_rows(self):
        with pytest.raises(ValueError):
            build_rra_base(5, 15, 6)

    def test_needs_redundancy(self):
        with pytest.raises(ValueError):
            build_rra_base(5, 5, 3)

    def test_sub_degree_columns(self):
        base = build_rra_base(6, 12, 4)
        src = base.entries[:, :6]
        assert np.all((src >= 0).sum(axis=0) == 4)


class TestMaxShift:
    def test_band_values(self):
        band = EnsembleSpec("band")
        assert max_shift(band, 200) == 42
        assert max_shift(band, 3000) == 164
        assert max_shift(band, 1) == 3

    def test_constant_band(self):
        assert max_shift(EnsembleSpec("constant_band", M0=42), 10**6) == 42

    def test_unconstrained_and_protograph(self):
        assert max_shift(EnsembleSpec("unconstrained"), 100) == 99
        assert max_shift(EnsembleSpec("protograph"), 100) == 99

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EnsembleSpec("banded")


class TestSampleShifts:
    def test_zero_cap(self):
        base = build_rra_base(5, 15, 5)
        out = sample_shifts(base, 0, np.random.default_rng(0))
        assert np.array_equal(out.entries, base.entries)

    def test_parity_untouched(self):
        base = build_rra_base(5, 15, 5)
        out = sample_shifts(base, 100, np.random.default_rng(1))
        assert np.array_equal(out.entries[:, 10:], base.entries[:, 10:])
        src = out.entries[:, :10]
        assert src.min() >= 0 and src.max() <= 100

    def test_deterministic(self):
        base = build_rra_base(5, 15, 5)
        e1 = sample_shifts(base, 50, np.random.default_rng(2)).entries
        e2 = sample_shifts(base, 50, np.random.default_rng(2)).entries
        assert np.array_equal(e1, e2)

    def test_uniformity(self):
        # 10^4 draws of shifts in {0..42}: sample mean within 3 sigma of 21
        base = build_rra_base(5, 15, 5)
        rng = np.random.default_rng(3)
        draws = []
        for _ in range(200):
            draws.append(sample_shifts(base, 42, rng).entries[:, :10].ravel())
        vals = np.concatenate(draws).astype(float)
        mean, sigma = 21.0, np.sqrt((43**2 - 1) / 12.0)
        assert abs(vals.mean() - mean) < 3 * sigma / np.sqrt(vals.size)


class TestExpand:
    def test_z1_degenerate(self):
        base = build_rra_base(5, 15, 5)
        code = expand(base, ExpansionSpec(z=1))
        assert (code.m, code.n, code.k) == (5, 15, 10)
        assert np.array_equal(code.H.to_dense(), (base.entries >= 0).astype(np.uint8))

    def test_single_circulant_block(self):
        base = BaseMatrix(a=1, b=2, M=1, entries=np.array([[1, 0]]))
        code = expand(base, ExpansionSpec(z=4, last_block_staircase=False))
        left = code.H.to_dense()[:, :4]
        # identity right-shifted by 1: row r has its one at column (r+1) mod 4
        assert [list(np.nonzero(left[r])[0]) for r in range(4)] == [[1], [2], [3], [0]]

    def test_staircase_block(self):
        base = build_rra_base(5, 15, 5)
        code = expand(base, ExpansionSpec(z=4))
        block = code.H.to_dense()[4 * 4:, 14 * 4:]
        want = np.eye(4, dtype=np.uint8)
        want[1, 0] = want[2, 1] = want[3, 2] = 1
        assert np.array_equal(block, want)

    def test_degree_profile(self):
        code = make_code(EnsembleSpec("band"), 240)
        cw = np.bincount(code.H.indices, minlength=code.n)
        assert np.all(cw[:code.k] == 5)        # source symbols repeat 5 times
        assert np.all(cw[code.k:-1] == 2)      # accumulator chain
        assert cw[-1] == 1                     # single degree-one column
        assert int((cw == 1).sum()) == 1

    def test_z_must_exceed_M(self):
        with pytest.raises(ValueError):
            make_code(EnsembleSpec("band"), 50)  # z=5 but M=floor(3*sqrt(5))=6

    def test_protograph_block_permutations(self):
        code = make_code(EnsembleSpec("protograph"), 240)
        z = code.spec.z
        d = code.H.to_dense()
        for j in range(5):  # a few source blocks of the first block-row
            blk = d[:z, j * z:(j + 1) * z]
            assert np.all(blk.sum(axis=0) == 1) and np.all(blk.sum(axis=1) == 1)


class TestMakeCode:
    def test_dimensions_and_rate(self):
        code = make_code(EnsembleSpec("band"), 2000)
        assert (code.k, code.n, code.m) == (2000, 3000, 1000)
        assert code.spec.z == 200 and code.base.M == 42
        assert code.rate == pytest.approx(2 / 3)

    def test_indivisible_k(self):
        with pytest.raises(ValueError):
            make_code(EnsembleSpec("band"), 2001)

    def test_seed_determinism(self):
        c1 = make_code(EnsembleSpec("unconstrained"), 300, seed=9)
        c2 = make_code(EnsembleSpec("unconstrained"), 300, seed=9)
        c3 = make_code(EnsembleSpec("unconstrained"), 300, seed=10)
        assert np.array_equal(c1.H.indices, c2.H.indices)
        assert not np.array_equal(c1.H.indices, c3.H.indices)


class TestFileFormat:
    @pytest.mark.parametrize("kind", ["band", "protograph"])
    def test_roundtrip_bit_exact(self, tmp_path, kind):
        code = make_code(EnsembleSpec(kind), 450, seed=4)
        path = tmp_path / "code.txt"
        write_base_matrix(path, code)
        loaded = load_code(path)
        assert np.array_equal(loaded.H.indptr, code.H.indptr)
        assert np.array_equal(loaded.H.indices, code.H.indices)
        assert np.array_equal(loaded.base.entries, code.base.entries)
        assert (loaded.base.a, loaded.base.b, loaded.base.M) == (5, 15, code.base.M)
        assert loaded.spec == code.spec

    def test_header_fields(self, tmp_path):
        code = make_code(EnsembleSpec("band"), 450, seed=4)
        path = tmp_path / "code.txt"
        write_base_matrix(path, code)
        head = path.read_text().splitlines()[0].split()
        assert head == ["5", "15", str(code.base.M), "45", "circulant", "1", "4"]

    def test_rejects_bad_mode(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 0 4 fancy 0 0\n0 0\n")
        with pytest.raises(ValueError):
            read_base_matrix(path)
