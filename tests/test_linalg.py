"""Exact mod-p linear algebra, cross-checked by brute-force enumeration."""

import itertools

import numpy as np
import pytest

from singeq import algebra, linalg
from singeq.errors import ValidationError


def _mat(rows):
    return np.array(rows, dtype=np.int64)


def brute_solutions(A, b, p):
    """All solutions of A x = b found by enumerating F_p^n."""
    n = A.shape[1]
    out = []
    for xs in itertools.product(range(p), repeat=n):
        x = _mat(xs)
        if np.array_equal((A @ x) % p, b % p):
            out.append(x)
    return out


class TestSolveAndKernel:
    def test_rank_one_system_over_f2(self):
        # oracle: enumerate all 4 vectors of F_2^2
        A = _mat([[1, 1], [0, 0]])
        b = _mat([1, 0])
        assert linalg.rank(A, 2) == 1
        expected = brute_solutions(A, b, 2)
        x = linalg.solve(A, b, 2)
        assert any(np.array_equal(x, y) for y in expected)
        K = linalg.kernel_basis(A, 2)
        assert K.shape == (2, 1)
        assert np.array_equal(K[:, 0], _mat([1, 1]))

    def test_identity_system(self):
        A = linalg.eye(3)
        b = _mat([1, 0, 1])
        assert np.array_equal(linalg.solve(A, b, 2), b)
        assert linalg.kernel_basis(A, 2).shape[1] == 0
        assert linalg.rank(A, 2) == 3

    def test_zero_matrix_inconsistent(self):
        A = linalg.zeros(2, 2)
        b = _mat([1, 0])
        assert linalg.solve(A, b, 2) is None
        assert linalg.kernel_basis(A, 2).shape[1] == 2
        assert linalg.rank(A, 2) == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_random_systems_match_enumeration(self, p):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = rng.integers(0, p, size=(3, 3)).astype(np.int64)
            b = rng.integers(0, p, size=3).astype(np.int64)
            x = linalg.solve(A, b, p)
            brute = brute_solutions(A, b, p)
            if x is None:
                assert not brute
            else:
                assert any(np.array_equal(x, y) for y in brute)
                # solution count = p^(kernel dim)
                assert len(brute) == p ** linalg.kernel_basis(A, p).shape[1]


class TestBuildingBlocks:
    def test_kernel_basis_spans_null_space(self):
        A = _mat([[1, 1, 0], [0, 1, 1]])
        K = linalg.kernel_basis(A, 2)
        assert not ((A @ K) % 2).any()
        assert K.shape[1] == 3 - linalg.rank(A, 2)

    def test_invert_round_trip(self):
        A = _mat([[1, 1], [0, 1]])
        B = linalg.invert(A, 2)
        assert np.array_equal((A @ B) % 2, linalg.eye(2))

    def test_invert_singular_returns_none(self):
        assert linalg.invert(_mat([[1, 1], [1, 1]]), 2) is None

    def test_extend_to_basis(self):
        B = _mat([[1], [1]])
        full = linalg.extend_to_basis(B, 2)
        assert full.shape == (2, 2)
        assert linalg.invert(full, 2) is not None
        assert np.array_equal(full[:, :1], B)

    def test_solve_matrix_consistency(self):
        A = _mat([[1, 0], [1, 1], [0, 1]])
        X = _mat([[1, 1], [0, 1]])
        B = (A @ X) % 2
        Y = linalg.solve_matrix(A, B, 2)
        assert np.array_equal((A @ Y) % 2, B)

    def test_column_space_basis_rank(self):
        A = _mat([[1, 1, 0], [1, 1, 0]])
        B = linalg.column_space_basis(A, 2)
        assert B.shape[1] == 1


# -- randomized checks against independent properties ----------------------


def reference_rref(A, p):
    """Row-at-a-time Gauss-Jordan elimination, kept as the reference."""
    R = np.asarray(A, dtype=np.int64) % p
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if R[i, c]), None)
        if pr is None:
            continue
        R[[r, pr]] = R[[pr, r]]
        R[r] = (R[r] * pow(int(R[r, c]), p - 2, p)) % p
        for i in range(rows):
            if i != r and R[i, c]:
                R[i] = (R[i] - R[i, c] * R[r]) % p
        pivots.append(c)
        r += 1
    return R, pivots


def random_matrix(rng, rows, cols, p, density=1.0):
    vals = rng.integers(1, p, size=(rows, cols), dtype=np.int64)
    return np.where(rng.random((rows, cols)) < density, vals, 0)


PRIMES = [2, 3, 7, 65521]
# tall and sparse like the folded chain-map systems, square, wide, edges
SHAPES = [(900, 160, 0.01), (12, 12, 0.5), (6, 15, 0.7), (40, 40, 0.05),
          (0, 5, 1.0), (5, 0, 1.0), (0, 0, 1.0)]


def _cases():
    for p in PRIMES:
        for rows, cols, density in SHAPES:
            yield pytest.param(p, rows, cols, density,
                               id=f"p{p}-{rows}x{cols}-{density}")


@pytest.mark.parametrize("p,rows,cols,density", list(_cases()))
class TestRandomizedLinalg:
    def _matrix(self, p, rows, cols, density):
        rng = np.random.default_rng([p, rows, cols])
        A = random_matrix(rng, rows, cols, p, density)
        if rows >= 2 and cols:
            # force dependent rows so that rank < rows
            A[-1] = (A[0] + 2 * A[1]) % p
        return rng, A

    def test_rref_is_reduced_echelon_with_same_row_space(self, p, rows, cols, density):
        _, A = self._matrix(p, rows, cols, density)
        R, pivots = linalg.rref(A, p)
        ref_R, ref_pivots = reference_rref(A, p)
        assert pivots == ref_pivots and np.array_equal(R, ref_R)
        r = len(pivots)
        assert ((R >= 0) & (R < p)).all()
        assert pivots == sorted(set(pivots))
        assert not R[r:].any()
        for i, c in enumerate(pivots):
            assert not R[i, :c].any()
            assert np.array_equal(R[:, c], linalg.eye(rows)[:, i])
        # every row of A is the combination of R's rows read off its pivots
        assert not ((A - A[:, pivots] @ R[:r]) % p).any()

    def test_kernel_basis(self, p, rows, cols, density):
        _, A = self._matrix(p, rows, cols, density)
        K = linalg.kernel_basis(A, p)
        r = len(reference_rref(A, p)[1])
        assert K.shape == (cols, cols - r)
        assert not ((A @ K) % p).any()
        assert len(reference_rref(K, p)[1]) == cols - r

    def test_solve_matrix(self, p, rows, cols, density):
        rng, A = self._matrix(p, rows, cols, density)
        r = len(reference_rref(A, p)[1])
        consistent = (A @ random_matrix(rng, cols, 3, p)) % p
        for B in (consistent, random_matrix(rng, rows, 3, p)):
            X = linalg.solve_matrix(A, B, p)
            solvable = len(reference_rref(np.hstack([A, B]), p)[1]) == r
            if solvable:
                assert X.shape == (cols, 3)
                assert np.array_equal((A @ X) % p, B)
            else:
                assert X is None

    def test_invert(self, p, rows, cols, density):
        rng, A = self._matrix(p, rows, cols, density)
        n = min(rows, cols)
        S = A[:n, :n]
        L = np.tril(random_matrix(rng, n, n, p), -1) + linalg.eye(n)
        U = np.triu(random_matrix(rng, n, n, p), 1) + linalg.eye(n)
        for M in (S, (L @ U) % p):
            inv = linalg.invert(M, p)
            if len(reference_rref(M, p)[1]) < n:
                assert inv is None
            else:
                assert np.array_equal((M @ inv) % p, linalg.eye(n))
                assert np.array_equal((inv @ M) % p, linalg.eye(n))

    def test_extend_to_basis(self, p, rows, cols, density):
        _, A = self._matrix(p, rows, cols, density)
        B = linalg.column_space_basis(A, p)
        full = linalg.extend_to_basis(B, p)
        assert full.shape == (rows, rows)
        assert np.array_equal(full[:, : B.shape[1]], B)
        assert linalg.invert(full, p) is not None


class TestModulusBound:
    def test_largest_prime_below_bound_accepted(self):
        # 2^26 - 5 is the largest prime below the bound
        assert algebra.MAX_MODULUS == 2 ** 26
        assert algebra.Field(2 ** 26 - 5).p == 2 ** 26 - 5

    @pytest.mark.parametrize("p", [4294967311, 2 ** 127 - 1])
    def test_large_prime_rejected_before_primality_test(self, p):
        with pytest.raises(ValidationError):
            algebra.Field(p)
