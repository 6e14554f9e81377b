"""Exact linear algebra over prime fields F_p.

Matrices are numpy int64 arrays with entries reduced mod p.  Everything
rests on one elimination, ``rref``, which works on sparse rows of Python
ints: each nonzero row of the input becomes a dict {column: value} and is
reduced against the pivot rows found so far until its leading column is
new, then scaled to a leading 1.  One back substitution, from the last
pivot up, clears the other pivot columns each pivot row holds, and the
rows are written into a dense R.  The systems built by ``solver`` are tall
and sparse, so a row meets few pivots.  The reduced row echelon form is
unique, so R and the pivots do not depend on the order of the work.
Solving, kernels, inverses and basis completion each run one elimination
on an augmented matrix.

Overflow bound: a product of two reduced entries is below p^2, and a
matrix product with inner dimension m sums m of them, so int64 is exact
while m * (p - 1)^2 < 2^63.  ``algebra.Field`` accepts only p < 2^26
(``MAX_MODULUS``), which keeps that true for inner dimensions up to 2^11;
a chain of products is reduced mod p after each product.  ``rref``
computes on Python ints, so no bound applies to it.
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


# Inputs of at most this many cells are read through tolist(), whose cost
# grows with the cells; larger ones through nonzero(), whose fixed cost a
# small input does not repay.
_LIST_CELLS = 256


def _rows(R: np.ndarray, p: int) -> list:
    """The rows of R that are nonzero mod p, top to bottom, each as a dict
    {column: value} of Python ints reduced mod p."""
    if R.size <= _LIST_CELLS:
        return [{c: v % p for c, v in enumerate(row) if v % p}
                for row in R.tolist() if any(row)]
    at_r, at_c = R.nonzero()
    rows = {}
    for r, c, v in zip(at_r.tolist(), at_c.tolist(), (R[at_r, at_c] % p).tolist()):
        if v:
            rows.setdefault(r, {})[c] = v
    return list(rows.values())


def _subtract(row: dict, f: int, pivot_row: dict, p: int) -> None:
    """row -= f * pivot_row mod p, in place.  An entry that becomes 0 was
    in row, since f and pivot_row's entries are nonzero mod a prime."""
    for c, v in pivot_row.items():
        x = (row.get(c, 0) - f * v) % p
        if x:
            row[c] = x
        else:
            del row[c]


def rref(A: np.ndarray, p: int):
    """Reduced row echelon form; returns (R, pivot_columns).

    R is a new C-contiguous int64 array; A is not modified."""
    R = np.array(A, dtype=np.int64, order="C")
    if not R.size:
        return R, []
    pivot = {}  # leading column -> its row, scaled to a leading 1
    for row in _rows(R, p):
        while row:
            c = min(row)
            if c not in pivot:
                if row[c] != 1:
                    f = inv_mod(row[c], p)
                    for j in row:
                        row[j] = row[j] * f % p
                pivot[c] = row
                break
            _subtract(row, row[c], pivot[c], p)
    pivots = sorted(pivot)
    # back substitution: the rows of later pivots are reduced by the time
    # row c is, so row c subtracts each of them it holds once
    for c in reversed(pivots):
        row = pivot[c]
        for j in [j for j in row if j != c and j in pivot]:
            _subtract(row, row[j], pivot[j], p)
    cols = R.shape[1]
    R.fill(0)
    R.put([i * cols + j for i, c in enumerate(pivots) for j in pivot[c]],
          [v for c in pivots for v in pivot[c].values()])
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
