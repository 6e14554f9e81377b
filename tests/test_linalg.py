"""Exact mod-p linear algebra, cross-checked by brute-force enumeration and
against reference eliminations."""

import itertools

import numpy as np
import pytest

from conftest import periodic_complex, truncated_polynomial
from singeq import algebra, approx, equiv, fixtures, homotopy, linalg, modules, solver
from singeq.config import Options
from singeq.errors import ValidationError
from singeq.homotopy import YES


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


def dense_rref(A, p):
    """Gauss-Jordan elimination by whole-array pivot steps, kept as the
    fast reference for large inputs: the pivot is found with one vector
    operation on the column, only the pivot row's tail is scaled, and the
    column is cleared with one rank-one update of the rows that hold it."""
    R = np.asarray(A, dtype=np.int64) % p
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        below = R[r:, c].nonzero()[0]
        if not below.size:
            continue
        if below[0]:
            pr = r + below[0]
            R[[r, pr], c:] = R[[pr, r], c:]
        if R[r, c] != 1:
            R[r, c:] = (R[r, c:] * pow(int(R[r, c]), p - 2, p)) % p
        col = R[:, c].copy()
        col[r] = 0
        hit = col.nonzero()[0]
        if hit.size:
            R[hit, c:] = (R[hit, c:] - col[hit, None] * R[r, c:]) % p
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


RREF_PRIMES = [2, 3, 5, 7, 2 ** 26 - 5]
RREF_DENSITIES = [0.001, 0.01, 0.05, 0.2, 0.5, 1.0]


def rref_inputs(p, density):
    """34 or 35 matrices over F_p at one density (1,030 over all primes
    and densities): the shapes 0 x n, n x 0, 0 x 0, 1 x n, n x 1 and 1 x 1,
    28 random shapes up to 24 x 24, and at densities up to 1% a tall 900 x
    160, as sparse as the systems solver builds.  Some have zeroed rows
    and columns, a dependent last row, entries that are not reduced mod p,
    or a transposed (not C-contiguous) layout."""
    rng = np.random.default_rng([p, round(density * 1000)])
    shapes = [(0, 7), (7, 0), (0, 0), (1, 9), (9, 1), (1, 1)]
    shapes += [tuple(int(d) for d in rng.integers(1, 25, size=2)) for _ in range(28)]
    if density <= 0.01:
        shapes.append((900, 160))
    for k, (rows, cols) in enumerate(shapes):
        A = random_matrix(rng, rows, cols, p, density)
        if k % 3 == 0:
            A[rng.random(rows) < 0.3] = 0
            A[:, rng.random(cols) < 0.3] = 0
        if k % 4 == 1 and rows >= 3:
            A[-1] = (A[0] + 2 * A[1]) % p
        if k % 5 == 2:
            A = A + p * rng.integers(-2, 3, size=A.shape)
        if k % 6 == 3:
            A = np.ascontiguousarray(A.T).T
        yield A


@pytest.mark.parametrize("density", RREF_DENSITIES)
@pytest.mark.parametrize("p", RREF_PRIMES)
def test_rref_equals_reference_bit_for_bit(p, density):
    for A in rref_inputs(p, density):
        before = A.copy()
        R, pivots = linalg.rref(A, p)
        ref_R, ref_pivots = reference_rref(A, p)
        assert pivots == ref_pivots and all(type(c) is int for c in pivots)
        assert R.dtype == np.int64 and R.shape == A.shape and np.array_equal(R, ref_R)
        assert R.flags.c_contiguous and R.flags.writeable and not np.shares_memory(R, A)
        assert np.array_equal(A, before)


def _recorded_rref_inputs(monkeypatch, decide):
    """Every (A, p) that linalg.rref receives while decide() runs."""
    seen = []
    rref = linalg.rref

    def recording(A, p):
        seen.append((np.array(A), p))
        return rref(A, p)

    with monkeypatch.context() as m:
        m.setattr(linalg, "rref", recording)
        decide()
    return seen


def _d8_round_trip():
    alg = fixtures.truncated_polynomial(8, 2, "D8")
    T, _ = approx.complete_resolution(modules.simple_modules(alg)[0])
    assert equiv.verify_round_trip(T, "P").verdict == YES


def _d4_f3_map():
    """Basis map 2 of T_1 -> T_3 over D4/F3: the periodic search finds no
    homotopy at m = 1, 2 and one at m = 3 (test_the_d4_f3_decision_needs_m_3)."""
    alg = truncated_polynomial(4, 3)
    X, Y = periodic_complex(alg, 1), periodic_complex(alg, 3)
    return solver.chain_map_space_basis(X, Y, Options())[0][2]


def _d4_f3_periodic_yes():
    assert homotopy.null_homotopy(_d4_f3_map()).verdict == YES


@pytest.mark.parametrize("decide", [_d8_round_trip, _d4_f3_periodic_yes],
                         ids=["D8-round-trip-P", "D4F3-periodic-yes-m3"])
def test_rref_equals_dense_rref_on_recorded_systems(monkeypatch, decide):
    recorded = _recorded_rref_inputs(monkeypatch, decide)
    assert recorded
    for A, p in recorded:
        R, pivots = linalg.rref(A, p)
        ref_R, ref_pivots = dense_rref(A, p)
        assert pivots == ref_pivots and np.array_equal(R, ref_R)


def test_the_d4_f3_decision_needs_m_3():
    f = _d4_f3_map()
    assert [homotopy.search_periodic_homotopy(f, m) is not None
            for m in (1, 2, 3)] == [False, False, True]


class TestModulusBound:
    def test_largest_prime_below_bound_accepted(self):
        # 2^26 - 5 is the largest prime below the bound
        assert algebra.MAX_MODULUS == 2 ** 26
        assert algebra.Field(2 ** 26 - 5).p == 2 ** 26 - 5

    @pytest.mark.parametrize("p", [4294967311, 2 ** 127 - 1])
    def test_large_prime_rejected_before_primality_test(self, p):
        with pytest.raises(ValidationError):
            algebra.Field(p)
