"""Exact dense linear algebra over prime fields F_p.

Matrices are numpy int64 arrays with entries reduced mod p.  Everything
rests on one Gauss-Jordan elimination, ``rref``, whose pivot steps are
whole-array operations: the pivot is found with one vector operation on
the column, only the pivot row's tail is scaled, and the column is cleared
with a single rank-one update restricted to the rows where it is nonzero.
The systems built by ``solver`` are tall and sparse, so that restriction
touches a small share of the rows.  Solving, kernels, inverses and basis
completion each run one elimination on an augmented matrix.

Overflow bound: a product of two reduced entries is below p^2, and a
matrix product with inner dimension m sums m of them, so int64 is exact
while m * (p - 1)^2 < 2^63.  ``algebra.Field`` accepts only p < 2^26
(``MAX_MODULUS``), which keeps that true for inner dimensions up to 2^11;
a chain of products is reduced mod p after each product.  The row update
in ``rref`` stays below p^2.
"""

from __future__ import annotations

import bisect

import numpy as np

from .errors import DimensionMismatch


def reduce_mod(a, p: int) -> np.ndarray:
    return np.asarray(a, dtype=np.int64) % p


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def kron(M: np.ndarray, N: np.ndarray) -> np.ndarray:
    """np.kron(M, N) for matrices, as one broadcast multiply."""
    return (M[:, None, :, None] * N[None, :, None, :]).reshape(
        M.shape[0] * N.shape[0], M.shape[1] * N.shape[1])


def inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def rref(A: np.ndarray, p: int):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = reduce_mod(A, p)
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
            R[r, c:] = (R[r, c:] * inv_mod(R[r, c], p)) % p
        # the pivot row is zero left of c, so only columns c: change
        col = R[:, c].copy()
        col[r] = 0
        hit = col.nonzero()[0]
        if hit.size:
            R[hit, c:] = (R[hit, c:] - col[hit, None] * R[r, c:]) % p
        pivots.append(c)
        r += 1
    return R, pivots


def rank(A: np.ndarray, p: int) -> int:
    return len(rref(A, p)[1])


def kernel_basis(A: np.ndarray, p: int) -> np.ndarray:
    """Columns span Null(A); shape (cols, nullity)."""
    R, pivots = rref(A, p)
    cols = R.shape[1]
    free = np.delete(np.arange(cols), pivots)
    K = zeros(cols, free.size)
    K[free, np.arange(free.size)] = 1
    K[pivots] = (-R[: len(pivots), free]) % p
    return K


def solve_columns(A: np.ndarray, B: np.ndarray, p: int):
    """(X, ok) from one elimination of [A | B]: A X[:, k] = B[:, k] for
    every column k with ok[k], and ok[k] is False where none exists.

    Below its first rank(A) rows the rref has zero A part, so column k is
    consistent exactly when its entries there are zero.  Above them a
    consistent column holds the reduced solution, which RREF makes
    unique: X[:, k] is what solve_matrix gives that column alone.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if B.shape[0] != A.shape[0]:
        raise DimensionMismatch(
            f"matrix has {A.shape[0]} rows but right-hand side has {B.shape[0]}"
        )
    n = A.shape[1]
    R, pivots = rref(np.hstack([A, B]), p)
    r = bisect.bisect_left(pivots, n)
    X = zeros(n, B.shape[1])
    X[pivots[:r]] = R[:r, n:]
    return X, ~R[r:, n:].any(axis=0)


def solve_matrix(A: np.ndarray, B: np.ndarray, p: int):
    """One X with A X = B, or None.  B may have several columns."""
    X, ok = solve_columns(A, B, p)
    return X if ok.all() else None


def solve(A: np.ndarray, b: np.ndarray, p: int):
    """One solution of A x = b, or None if inconsistent."""
    X = solve_matrix(A, np.asarray(b).reshape(-1, 1), p)
    return None if X is None else X[:, 0]


def column_space_basis(A: np.ndarray, p: int) -> np.ndarray:
    """Pivot columns of A; shape (rows, rank)."""
    A = reduce_mod(A, p)
    _, pivots = rref(A, p)
    return A[:, pivots].copy()


def extend_to_basis(B: np.ndarray, p: int) -> np.ndarray:
    """Complete the independent columns of B to a basis of F_p^rows.

    The added columns are the unit vectors that are pivot columns of
    [B | I], i.e. each e_i not in the span of B and the earlier e_j.
    """
    rows, k = B.shape
    I = eye(rows)
    _, pivots = rref(np.hstack([B, I]), p)
    return np.hstack([B, I[:, [c - k for c in pivots if c >= k]]])


def invert(A: np.ndarray, p: int):
    """Inverse of a square matrix, or None if singular."""
    n = A.shape[0]
    if A.shape[1] != n:
        raise DimensionMismatch("matrix not square")
    return solve_matrix(A, eye(n), p)
