"""Finite linear systems for graded maps with periodic-tail ansatz.

Unknowns are matrices u_n indexed by degree on a window [lo, hi]; outside
the window they are either zero (bounded mode) or folded back into the
window with a fixed period.  Equations of the form sum M @ u_k @ N = rhs
are row-reduced over F_p.  This is the engine behind null-homotopy
search, chain-map space bases and periodic lifting.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .complexes import ChainMap, Complex, _lcm, add_maps, chain_map, compose
from .config import Options
from .errors import ValidationError


def _kron(M: np.ndarray, N: np.ndarray) -> np.ndarray:
    """np.kron(M, N) for matrices, as one broadcast multiply."""
    return (M[:, None, :, None] * N[None, :, None, :]).reshape(
        M.shape[0] * N.shape[0], M.shape[1] * N.shape[1])


class FoldedSystem:
    def __init__(self, p: int, shapes: dict, lo: int, hi: int,
                 fold_period: int = 0, extras: dict | None = None):
        self.p = p
        self.lo = lo
        self.hi = hi
        self.fold = fold_period
        self.shapes = shapes
        self.offsets = {}
        off = 0
        for n in range(lo, hi + 1):
            r, c = shapes[n]
            self.offsets[n] = (off, r, c)
            off += r * c
        for name, (r, c) in (extras or {}).items():
            self.offsets[name] = (off, r, c)
            off += r * c
        self.total = off
        self.rows = []
        self.rhs = []

    def rep(self, n):
        """Window degree, folded representative, extra-block name, or None."""
        if n in self.offsets:
            return n
        if not isinstance(n, int) or not self.fold:
            return None
        if n < self.lo:
            return self.lo + ((n - self.lo) % self.fold)
        return self.hi - ((self.hi - n) % self.fold)

    def add_equation(self, rhs: np.ndarray, terms: list) -> None:
        """sum_i M_i @ u_{k_i} @ N_i == rhs; terms are (M, k, N)."""
        if rhs.size == 0:
            return
        block = linalg.zeros(rhs.size, self.total)
        for M, k, N in terms:
            r = self.rep(k)
            if r is None:
                continue
            off, ur, uc = self.offsets[r]
            if ur * uc == 0:
                continue
            if M.shape != (rhs.shape[0], ur) or N.shape != (uc, rhs.shape[1]):
                raise ValidationError("equation term has inconsistent shape")
            block[:, off : off + ur * uc] = (
                block[:, off : off + ur * uc] + _kron(M, N.T)
            ) % self.p
        self.rows.append(block)
        self.rhs.append(rhs.reshape(-1) % self.p)

    def _stack(self):
        if not self.rows:
            return linalg.zeros(0, self.total), linalg.zeros(0, 1).reshape(-1)
        return np.vstack(self.rows) % self.p, np.concatenate(self.rhs)

    def solve(self):
        """Particular solution as {degree: matrix}, or None."""
        A, b = self._stack()
        x = linalg.solve(A, b, self.p)
        if x is None:
            return None
        return self.unpack(x)

    def kernel(self):
        """Basis of the homogeneous solution space, unpacked per degree."""
        A, _ = self._stack()
        K = linalg.kernel_basis(A, self.p)
        return [self.unpack(K[:, j]) for j in range(K.shape[1])]

    def unpack(self, vec: np.ndarray) -> dict:
        out = {}
        for n in range(self.lo, self.hi + 1):
            off, r, c = self.offsets[n]
            out[n] = vec[off : off + r * c].reshape(r, c).copy()
        return out

    def unpack_extra(self, vec: np.ndarray, name) -> np.ndarray:
        off, r, c = self.offsets[name]
        return vec[off : off + r * c].reshape(r, c).copy()

    def require_module_map(self, n: int, source, target) -> None:
        """Constrain u_n to intertwine the algebra actions of two modules."""
        r, c = target.dim, source.dim
        for aS, aT in zip(source.action, target.action):
            self.add_equation(linalg.zeros(r, c), [
                (linalg.eye(r), n, aS),
                ((-aT) % self.p, n, linalg.eye(c)),
            ])

    def fold_blocks(self, comps: dict):
        """(neg, pos) periodic block tuples matching GradedMap conventions."""
        if not self.fold:
            return None, None
        P = self.fold
        neg = tuple(comps[self.rep(self.lo - 1 - i)] for i in range(P))
        pos = tuple(comps[self.rep(self.hi + 1 + i)] for i in range(P))
        if not any(b.any() for b in neg):
            neg_out = None
        else:
            neg_out = (P, neg)
        if not any(b.any() for b in pos):
            pos_out = None
        else:
            pos_out = (P, pos)
        return neg_out, pos_out


def _common_period(X: Complex, Y: Complex, *maps) -> int:
    periods = [X.neg_period, X.pos_period, Y.neg_period, Y.pos_period]
    for f in maps:
        periods += [f.neg_period, f.pos_period]
    return _lcm(periods)


def _bounded_side(X: Complex, Y: Complex):
    """Window of the bounded complex, or None if both are unbounded."""
    if X.bounded():
        return X.lo, X.hi
    if Y.bounded():
        return Y.lo, Y.hi
    return None


def chain_map_system(X: Complex, Y: Complex, lo: int, hi: int, fold: int,
                     extras: dict | None = None) -> FoldedSystem:
    """Homogeneous system whose solutions are chain maps X -> Y."""
    p = X.algebra.p
    shapes = {n: (Y.term(n).dim, X.term(n).dim) for n in range(lo, hi + 1)}
    sys = FoldedSystem(p, shapes, lo, hi, fold, extras)
    for n in range(lo, hi + 1):
        sys.require_module_map(n, X.term(n), Y.term(n))
    pad = fold if fold else 0
    for n in range(lo - pad, hi + pad + 1):
        rows = Y.term(n - 1).dim
        cols = X.term(n).dim
        rhs = linalg.zeros(rows, cols)
        sys.add_equation(rhs, [
            (linalg.eye(rows), n - 1, X.diff(n)),
            ((-Y.diff(n)) % p, n, linalg.eye(cols)),
        ])
    return sys


def chain_map_space_basis(X: Complex, Y: Complex, options: Options = Options()):
    """(basis of chain maps X -> Y, complete flag).

    Complete when one side is bounded; otherwise the basis spans the
    periodic-tailed maps with tail period map_period_bound * lcm of the
    tail periods, an explicit surrogate for the full hom space.
    """
    bounded = _bounded_side(X, Y)
    if bounded is not None:
        blo, bhi = bounded
        lo, hi, fold = blo - 1, bhi + 1, 0
        complete = True
    else:
        L = _common_period(X, Y)
        P = max(1, options.map_period_bound) * L
        lo = min(X.lo, Y.lo) - P
        hi = max(X.hi, Y.hi) + P
        fold = P
        complete = False
    sys = chain_map_system(X, Y, lo, hi, fold)
    basis = []
    for comps in sys.kernel():
        neg, pos = sys.fold_blocks(comps)
        comps = {n: m for n, m in comps.items() if m.size}
        basis.append(chain_map(X, Y, comps, lo, hi, neg, pos))
    return basis, complete


def chain_hom_dimension(X: Complex, Y: Complex, options: Options = Options()) -> int:
    return len(chain_map_space_basis(X, Y, options)[0])


def factor_chain_map(f: ChainMap, through: ChainMap, mode: str,
                     options: Options = Options()):
    """Factor f through another chain map, or None.

    mode "lift": through: Q -> Y and f: X -> Y; find g: X -> Q with
    through . g = f.  mode "extend": through: X -> J and f: X -> Y; find
    h: J -> Y with h . through = f.
    """
    if mode == "lift":
        S, T = f.source, through.source
    elif mode == "extend":
        S, T = through.target, f.target
    else:
        raise ValueError(f"unknown factorization mode {mode!r}")
    p = S.algebra.p
    periods = [S.neg_period, S.pos_period, T.neg_period, T.pos_period,
               f.neg_period, f.pos_period, through.neg_period, through.pos_period]
    if S.bounded() or T.bounded():
        B = S if S.bounded() else T
        lo, hi, fold = B.lo - 1, B.hi + 1, 0
    else:
        P = max(1, options.map_period_bound) * _lcm(periods)
        lo = min(S.lo, T.lo, f.clo, through.clo) - P
        hi = max(S.hi, T.hi, f.chi, through.chi) + P
        fold = P
    sys = chain_map_system(S, T, lo, hi, fold)
    pad = fold if fold else 1
    for n in range(lo - pad, hi + pad + 1):
        if mode == "lift":
            rhs = f.component(n)
            terms = [(through.component(n), n, linalg.eye(f.source.term(n).dim))]
        else:
            rhs = f.component(n)
            terms = [(linalg.eye(f.target.term(n).dim), n, through.component(n))]
        sys.add_equation(rhs, terms)
    comps = sys.solve()
    if comps is None:
        return None
    neg, pos = sys.fold_blocks(comps)
    comps = {n: m for n, m in comps.items() if m.size}
    g = chain_map(S, T, comps, lo, hi, neg, pos)
    composite = compose(through, g) if mode == "lift" else compose(g, through)
    if not add_maps(composite, f, sign=-1).is_zero():
        return None
    return g
