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
        pivot_rows, pivots = linalg.rref(A, p)
        ref_R, ref_pivots = reference_rref(A, p)
        r = len(pivots)
        R = np.vstack([densified(pivot_rows, cols), linalg.zeros(rows - r, cols)])
        assert pivots == ref_pivots and np.array_equal(R, ref_R)
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
        rows, pivots = linalg.rref(A, p)
        ref_R, ref_pivots = reference_rref(A, p)
        assert pivots == ref_pivots and all(type(c) is int for c in pivots)
        assert_sparse_rows(rows, p, A.shape[1])
        assert rows == sparse(ref_R[:len(pivots)], p)
        assert np.array_equal(A, before)
        # the helpers that read only the pivots
        assert linalg.rank(A, p) == len(ref_pivots)
        B = linalg.column_space_basis(A, p)
        assert np.array_equal(B, (A % p)[:, ref_pivots])
        k, I = B.shape[1], linalg.eye(A.shape[0])
        units = [c - k for c in reference_rref(np.hstack([B, I]), p)[1] if c >= k]
        assert np.array_equal(linalg.extend_to_basis(B, p), np.hstack([B, I[:, units]]))


@pytest.mark.parametrize("density", RREF_DENSITIES)
@pytest.mark.parametrize("p", RREF_PRIMES)
def test_both_row_readers_give_the_same_rows(monkeypatch, p, density):
    # _rows reads a small matrix through tolist() and a large one through
    # nonzero(); forced onto each in turn, they read every input alike
    for A in rref_inputs(p, density):
        expected = [row for row in sparse(A, p) if row]
        for cells in (0, A.size + 1):
            monkeypatch.setattr(linalg, "_LIST_CELLS", cells)
            rows = linalg._rows(A, p)
            assert_sparse_rows(rows, p, A.shape[1])
            assert rows == expected


@pytest.mark.parametrize("p", [2, 3, 2 ** 26 - 5])
def test_rref_refuses_a_leading_entry_that_is_0_mod_p(p):
    # such a row would become a pivot row that cannot be scaled to a
    # leading 1, and a later row with its leading column would never lose it
    with pytest.raises(ValueError, match=f"row entry {p} at column 0 is 0 mod {p}"):
        linalg.rref([{0: p}, {0: 1}], p)
    with pytest.raises(ValueError, match="column 2"):
        linalg.rref([{0: 1, 2: 1}, {2: 0, 3: 1}, {2: 1}], p)


def densified(rows, cols=None) -> np.ndarray:
    """The matrix whose rows are the sparse rows {column: value}, with
    cols columns (by default, up to the last column any row holds)."""
    if cols is None:
        cols = max((c + 1 for row in rows for c in row), default=0)
    A = linalg.zeros(len(rows), cols)
    for i, row in enumerate(rows):
        for c, v in row.items():
            A[i, c] = v
    return A


def sparse(A, p) -> list:
    """The rows of A as dicts {column: value} of reduced, nonzero Python
    ints, zero rows included as empty dicts."""
    return [{c: v % p for c, v in enumerate(row) if v % p} for row in np.asarray(A).tolist()]


def assert_sparse_rows(rows, p, cols=None):
    """Every row is a dict of reduced, nonzero Python ints, as linalg.rref
    takes them, in columns 0..cols-1 when cols is given."""
    for row in rows:
        assert type(row) is dict
        assert all(type(c) is int and c >= 0 for c in row)
        assert cols is None or all(c < cols for c in row)
        assert all(type(v) is int and 0 < v < p for v in row.values())


def reference_solve(A, B, p):
    """(X, ok) of linalg.solve_columns, from reference_rref of [A | B]."""
    n = A.shape[1]
    R, pivots = reference_rref(np.hstack([A, B]), p)
    r = sum(c < n for c in pivots)
    X = linalg.zeros(n, B.shape[1])
    X[pivots[:r]] = R[:r, n:]
    return X, ~R[r:, n:].any(axis=0)


def reference_kernel(A, p):
    """linalg.kernel_basis, from reference_rref of A."""
    R, pivots = reference_rref(A, p)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    K = linalg.zeros(cols, len(free))
    K[free, range(len(free))] = 1
    K[pivots] = (-R[:len(pivots), free]) % p
    return K


def augmented_systems(p, density):
    """34 or 35 systems [A | B] over F_p at one density (1,030 over all
    primes and densities), B of width 1 to 4: A of the shapes 0 x n, n x
    0, 0 x 0, 1 x n, n x 1 and 1 x 1, 28 random shapes up to 24 x 24 and
    at densities up to 1% a tall 600 x 120.  Some have zero rows, rows
    whose only entries are right-hand sides, a dependent last row, or
    right-hand sides that are combinations of A's columns (consistent
    ones) next to random ones."""
    rng = np.random.default_rng([p, round(density * 1000), 7])
    shapes = [(0, 6), (6, 0), (0, 0), (1, 5), (5, 1), (1, 1)]
    shapes += [tuple(int(d) for d in rng.integers(1, 25, size=2)) for _ in range(28)]
    if density <= 0.01:
        shapes.append((600, 120))
    for k, (rows, cols) in enumerate(shapes):
        A = random_matrix(rng, rows, cols, p, density)
        width = 1 + k % 4
        B = random_matrix(rng, rows, width, p, max(density, 0.3))
        if k % 2:
            B[:, :width // 2] = (A @ random_matrix(rng, cols, width // 2, p)) % p
        if rows:
            cut = rng.random(rows) < 0.3
            if k % 3 != 1:
                A[cut] = 0  # rows whose only entries are right-hand sides
            if k % 3 != 0:
                B[cut] = 0  # zero rows where A's are cut too
        if k % 4 == 1 and rows >= 3:
            A[-1], B[-1] = (A[0] + 2 * A[1]) % p, (B[0] + 2 * B[1]) % p
        yield A, B


@pytest.mark.parametrize("density", RREF_DENSITIES)
@pytest.mark.parametrize("p", RREF_PRIMES)
def test_row_elimination_solves_and_kernels_as_the_reference(p, density):
    for A, B in augmented_systems(p, density):
        n, width = A.shape[1], B.shape[1]
        AB = np.hstack([A, B])
        rows = sparse(AB, p)
        assert_sparse_rows(rows, p, n + width)
        R, pivots = linalg.rref([dict(row) for row in rows], p)
        ref_R, ref_pivots = reference_rref(AB, p)
        assert pivots == ref_pivots and R == sparse(ref_R[:len(pivots)], p)
        assert_sparse_rows(R, p, n + width)
        X, ok = linalg.solve_rows([dict(row) for row in rows], n, width, p)
        ref_X, ref_ok = reference_solve(A, B, p)
        assert np.array_equal(X, ref_X) and np.array_equal(ok, ref_ok)
        assert np.array_equal((A @ X[:, ok]) % p, B[:, ok])
        K = linalg.kernel_rows([dict(row) for row in rows], n, p)
        ref_K = reference_kernel(A, p)
        assert K.dtype == np.int64 and np.array_equal(K, ref_K)
        # the dense entry points read into the same elimination
        X, ok = linalg.solve_columns(A, B, p)
        assert np.array_equal(X, ref_X) and np.array_equal(ok, ref_ok)
        assert np.array_equal(linalg.kernel_basis(A, p), ref_K)


def test_an_inconsistent_column_before_a_consistent_one_leaves_its_solution():
    # x + y = b0 = 1 and 0 = 1: b0 is inconsistent, and the back
    # substitution of its pivot row (column 2) clears row 0's entry there;
    # b1 = (1, 0) is consistent, with the reduced solution (1, 0)
    p = 5
    A = _mat([[1, 1], [0, 0]])
    B = _mat([[1, 1], [1, 0]])
    X, ok = linalg.solve_rows(sparse(np.hstack([A, B]), p), 2, 2, p)
    assert ok.tolist() == [False, True]
    assert X[:, 1].tolist() == [1, 0]
    assert np.array_equal(X[:, 1:], linalg.solve_matrix(A, B[:, 1:], p))
    # the rows are reduced in place and keep their row space: solving
    # them again gives the same answer
    rows = sparse(np.hstack([A, B]), p)
    first = linalg.solve_rows(rows, 2, 2, p)
    again = linalg.solve_rows(rows, 2, 2, p)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


def _recorded_rref_inputs(monkeypatch, decide):
    """Every (A, p) that linalg.rref receives while decide() runs: a copy
    of each matrix, and of each list of sparse rows, which it reduces in
    place (the graded systems of solver reach it so)."""
    seen = []
    rref = linalg.rref

    def recording(A, p):
        seen.append(([dict(row) for row in A] if isinstance(A, list) else np.array(A), p))
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
    systems = [(A, p) for A, p in recorded if isinstance(A, list)]
    assert systems and len(systems) < len(recorded)
    for A, p in recorded:
        if isinstance(A, list):
            assert_sparse_rows(A, p)
            rows, pivots = linalg.rref([dict(row) for row in A], p)
            ref_R, ref_pivots = dense_rref(densified(A), p)
        else:
            rows, pivots = linalg.rref(A, p)
            ref_R, ref_pivots = dense_rref(A, p)
        assert pivots == ref_pivots
        assert rows == sparse(ref_R[:len(pivots)], p)


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
