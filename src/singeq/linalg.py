"""Exact linear algebra over prime fields F_p.

Matrices are numpy int64 arrays with entries reduced mod p.  Everything
rests on one elimination, ``rref``, which works on sparse rows of Python
ints, dicts {column: value}: each row is reduced against the pivot rows
found so far until its leading column is new, then scaled to a leading
1.  One back substitution, from the last pivot up, clears the other
pivot columns each pivot row holds.  The systems built by ``solver`` are
tall and sparse, so a row meets few pivots, and they reach ``rref`` as
such rows, with no dense matrix in between (``solve_rows``,
``kernel_rows``).  A dense matrix is read into rows first: ``rref(A,
p)`` writes the reduced rows back into a dense R, and ``solve_columns``
and ``kernel_basis`` hand the rows of [A | B] and of A to
``solve_rows`` and ``kernel_rows``.  The reduced row echelon form is
unique, so it does not depend on the order of the work.  Solving,
kernels, inverses and basis completion each run one elimination on an
augmented matrix.

Overflow bound: a product of two reduced entries is below p^2, and a
matrix product with inner dimension m sums m of them, so int64 is exact
while m * (p - 1)^2 < 2^63.  ``algebra.Field`` accepts only p < 2^26
(``MAX_MODULUS``), which keeps that true for inner dimensions up to 2^11;
a chain of products is reduced mod p after each product.  ``rref``
computes on Python ints, so no bound applies to it.
"""

from __future__ import annotations

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


def rref(A, p: int):
    """Reduced row echelon form of a matrix; returns (R, pivot_columns),
    the pivots in order.

    A is a 2-D array, or the list of its rows as dicts {column: value}
    whose values are Python ints in 1..p-1 (sparse rows, as solver writes
    its systems).  For an array, R is a new C-contiguous int64 array and A
    is not modified.  For rows, R is the list of the pivot rows, in the
    order of their pivots, and the rows given are reduced in place: the
    others become empty, so together they keep their row space."""
    if isinstance(A, list) and (not A or isinstance(A[0], dict)):
        return _reduce(A, p)
    R = np.array(A, dtype=np.int64, order="C")
    if not R.size:
        return R, []
    rows, pivots = _reduce(_rows(R, p), p)
    cols = R.shape[1]
    R.fill(0)
    R.put([i * cols + j for i, row in enumerate(rows) for j in row],
          [v for row in rows for v in row.values()])
    return R, pivots


def _reduce(rows: list, p: int) -> tuple:
    """rref of sparse rows.  Each row is reduced against the pivot rows
    found so far until its leading column is new, then scaled to a leading
    1; one back substitution, from the last pivot up, clears the other
    pivot columns each pivot row holds."""
    pivot = {}  # leading column -> its row, scaled to a leading 1
    for row in rows:
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
    return [pivot[c] for c in pivots], pivots


def rank(A: np.ndarray, p: int) -> int:
    return len(rref(A, p)[1])


def kernel_rows(rows: list, n: int, p: int) -> np.ndarray:
    """Columns span the null space of columns 0..n-1 of sparse rows (see
    rref), which are reduced in place; shape (n, nullity), one column per
    free column c: 1 at c, and at each pivot minus its row's entry at c.
    Columns n and up, right-hand sides, are left out: the pivot rows below
    n, cut to the columns below n, are the rref of those columns alone."""
    R, pivots = rref(rows, p)
    free = sorted(set(range(n)).difference(pivots))
    index = {c: i for i, c in enumerate(free)}
    k = len(free)
    at, vals = [c * k + i for i, c in enumerate(free)], [1] * k
    for c, row in zip(pivots, R):
        if c < n:
            for j, v in row.items():
                if j in index:
                    at.append(c * k + index[j])
                    vals.append(p - v)
    K = zeros(n, k)
    K.put(at, vals)
    return K


def kernel_basis(A: np.ndarray, p: int) -> np.ndarray:
    """Columns span Null(A); shape (cols, nullity)."""
    A = np.asarray(A, dtype=np.int64)
    return kernel_rows(_rows(A, p), A.shape[1], p)


def solve_rows(rows: list, n: int, width: int, p: int):
    """(X, ok) from one elimination (rref) of the sparse rows of [A | B],
    which are reduced in place: A in columns 0..n-1 and width right-hand
    sides B in columns n..n + width - 1.  A X[:, k] = B[:, k] for every
    column k with ok[k], and ok[k] is False where none exists.

    The pivot rows at n and up have zero A part, so column k is
    consistent exactly when none of them holds n + k.  The pivot rows
    below n hold the reduced solution of a consistent column, which RREF
    makes unique: X[:, k] is what column k gets alone."""
    R, pivots = rref(rows, p)
    at, vals, bad = [], [], []
    for c, row in zip(pivots, R):
        if c >= n:
            bad += row
            continue
        for j, v in row.items():
            if j >= n:
                at.append(c * width + j - n)
                vals.append(v)
    X = zeros(n, width)
    X.put(at, vals)
    ok = np.ones(width, dtype=bool)
    ok[[j - n for j in bad]] = False
    return X, ok


def solve_columns(A: np.ndarray, B: np.ndarray, p: int):
    """(X, ok) for A X = B, one right-hand side per column of B
    (solve_rows on the rows of [A | B])."""
    A = np.asarray(A)
    B = np.asarray(B)
    if B.shape[0] != A.shape[0]:
        raise DimensionMismatch(
            f"matrix has {A.shape[0]} rows but right-hand side has {B.shape[0]}"
        )
    return solve_rows(_rows(np.hstack([A, B]).astype(np.int64, copy=False), p),
                      A.shape[1], B.shape[1], p)


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
