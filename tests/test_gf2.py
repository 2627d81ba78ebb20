import numpy as np
import pytest

from bandfec.gf2 import (SparseBinMatrix, dense_solve_oracle, rank_oracle,
                         syndrome_is_zero)


def rand_matrix(rng, m, n, density=0.5):
    return SparseBinMatrix.from_dense(rng.random((m, n)) < density)


class TestSparseBinMatrix:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SparseBinMatrix(1, 2, rows=[[0, 2]])
        with pytest.raises(ValueError):
            SparseBinMatrix(1, 3, rows=[[1, 1]])
        # a decrease across a row boundary is legal, also across empty rows
        A = SparseBinMatrix(6, 5, rows=[[], [3, 4], [], [], [0, 1], []])
        assert [list(r) for r in A.rows] == [[], [3, 4], [], [], [0, 1], []]
        with pytest.raises(ValueError, match="row 3 "):
            SparseBinMatrix(4, 5, rows=[[0, 4], [], [1], [1, 2, 2]])

    def test_dense_roundtrip(self):
        rng = np.random.default_rng(1)
        d = (rng.random((6, 9)) < 0.4).astype(np.uint8)
        assert np.array_equal(SparseBinMatrix.from_dense(d).to_dense(), d)

    def test_column_adjacency(self):
        A = SparseBinMatrix(3, 3, rows=[[0, 2], [1], [1, 2]])
        adj = A.column_adjacency()
        assert [list(a) for a in adj] == [[0], [1, 2], [0, 2]]


class TestSyndrome:
    def test_equal_symbols_cancel(self):
        H = SparseBinMatrix(1, 2, rows=[[0, 1]])
        b = np.array([[5]], np.uint8)
        assert syndrome_is_zero(H, np.vstack([b, b]))
        assert not syndrome_is_zero(H, np.array([[5], [6]], np.uint8))

    def test_empty_rows(self):
        H = SparseBinMatrix(2, 3, rows=[[], []])
        rng = np.random.default_rng(2)
        assert syndrome_is_zero(H, rng.integers(0, 256, (3, 4), dtype=np.uint8))

    def test_dimension_mismatch(self):
        H = SparseBinMatrix(1, 2, rows=[[0, 1]])
        with pytest.raises(ValueError):
            syndrome_is_zero(H, np.zeros((3, 1), np.uint8))


def brute_force_solve(A, rhs):
    """Independent oracle: exhaustive search over all 2^n assignments, per bit plane."""
    dense = A.to_dense()
    n = A.n
    L = rhs.shape[1]
    guesses = np.arange(1 << n)
    cand = ((guesses[:, None] >> np.arange(n)) & 1).astype(np.uint8)  # (2^n, n)
    images = cand.dot(dense.T.astype(np.int64)) % 2
    out = np.zeros((n, L), dtype=np.uint8)
    for byte in range(L):
        for bit in range(8):
            target = (rhs[:, byte] >> bit) & 1
            hits = np.nonzero((images == target).all(axis=1))[0]
            if hits.size != 1:
                return None
            out[:, byte] |= (cand[hits[0]] << bit).astype(np.uint8)
    return out


class TestDenseSolveOracle:
    def test_identity(self):
        A = SparseBinMatrix(3, 3, rows=[[0], [1], [2]])
        rhs = np.arange(9, dtype=np.uint8).reshape(3, 3)
        assert np.array_equal(dense_solve_oracle(A, rhs), rhs)

    def test_back_substitution_by_hand(self):
        A = SparseBinMatrix(2, 2, rows=[[0, 1], [1]])
        s0, s1 = np.uint8(0x21), np.uint8(0x13)
        sol = dense_solve_oracle(A, np.array([[s0], [s1]], np.uint8))
        assert sol[0, 0] == s0 ^ s1 and sol[1, 0] == s1

    def test_against_brute_force(self):
        # consistent systems: rhs built from a known assignment
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 20:
            A = rand_matrix(rng, 12, 10)
            X = rng.integers(0, 256, (10, 1), dtype=np.uint8)
            rhs = np.zeros((12, 1), dtype=np.uint8)
            for i in range(12):
                cols = A.row(i)
                if cols.size:
                    rhs[i] = np.bitwise_xor.reduce(X[cols], axis=0)
            got = dense_solve_oracle(A, rhs)
            want = brute_force_solve(A, rhs)
            if want is None:  # rank-deficient: assignment not unique
                assert got is None
            else:
                assert got is not None and np.array_equal(got, want)
                assert np.array_equal(got, X)
                checked += 1

    def test_inconsistent_agrees_with_brute_force(self):
        # arbitrary rhs on a tall system is usually unsolvable; verdicts must match
        rng = np.random.default_rng(8)
        for _ in range(20):
            A = rand_matrix(rng, 12, 10)
            rhs = rng.integers(0, 256, (12, 1), dtype=np.uint8)
            got = dense_solve_oracle(A, rhs)
            want = brute_force_solve(A, rhs)
            if want is None:
                assert got is None
            else:
                assert got is not None and np.array_equal(got, want)

    def test_round_trip_full_rank(self):
        rng = np.random.default_rng(4)
        done = 0
        while done < 10:
            A = rand_matrix(rng, 10, 8)
            if rank_oracle(A) < 8:
                continue
            X = rng.integers(0, 256, (8, 4), dtype=np.uint8)
            rhs = np.zeros((10, 4), dtype=np.uint8)
            for i in range(10):
                cols = A.row(i)
                rhs[i] = np.bitwise_xor.reduce(X[cols], axis=0)
            assert np.array_equal(dense_solve_oracle(A, rhs), X)
            done += 1


def textbook_rank(dense):
    """Second independent elimination, on a uint8 copy."""
    R = dense.astype(np.uint8).copy()
    m, n = R.shape
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if R[i, c]), None)
        if piv is None:
            continue
        R[[r, piv]] = R[[piv, r]]
        for i in range(m):
            if i != r and R[i, c]:
                R[i] ^= R[r]
        r += 1
    return r


class TestRankOracle:
    def test_identity_and_zero(self):
        assert rank_oracle(SparseBinMatrix(4, 4, rows=[[0], [1], [2], [3]])) == 4
        assert rank_oracle(SparseBinMatrix(3, 5, rows=[[], [], []])) == 0

    def test_against_textbook(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            A = rand_matrix(rng, 8, 8)
            assert rank_oracle(A) == textbook_rank(A.to_dense())

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            A = rand_matrix(rng, 7, 9)
            d = A.to_dense()
            p, q = rng.permutation(7), rng.permutation(9)
            B = SparseBinMatrix.from_dense(d[p][:, q])
            assert rank_oracle(A) == rank_oracle(B)

