"""Finite linear systems for graded module maps with periodic-tail ansatz.

The unknowns are module maps u_n indexed by degree on a window [lo, hi],
plus named extra maps; outside the window they are either zero (bounded
mode) or folded back into the window with a fixed period.  Each unknown
is a coordinate vector c over the basis H = modules.hom_stack(source,
target) of its hom space, u = sum c_j H_j, so every solution is a module
map and the system has no intertwining rows.  hom_stack memoizes each
basis on the algebra by the values of its pair, so systems over equal
pairs share one basis.

An equation sum M @ u_k @ N = rhs names its module pair (S, T): the
right-hand side and every term are module maps S -> T.  It writes one row
per pivot entry of Hom(S, T) (modules.hom_pivots), not one per matrix
entry: h rows where the matrices have T.dim * S.dim entries, so n rows
per block between free D_n-modules where there are n^2 entries.  A term
contributes the columns M H_j N read at those entries.  Since a module
map S -> T is the combination of hom_stack(S, T) with its values at the
pivot entries as coefficients, every row of the full system is a
combination of the rows kept, right-hand sides included.  The two systems
are row-equivalent: they have the same solutions, the same reduced form,
and so the same kernel basis and particular solutions, bit for bit.
Hence NO stays sound: the system has no solution exactly when the full
one has none.  YES stays sound and is still checked on full matrices:
homotopy.verify_null_homotopy tests every entry and every action index
of each homotopy found, and a failed check gives UNKNOWN.

The system is row-reduced over F_p and solutions are unpacked to the
matrices sum c_j H_j.  This is the engine behind null-homotopy search,
chain-map space bases, periodic lifting and module factorizations.

Every system of graded maps between two complexes, chain maps (shift 0)
and null-homotopies (shift 1), is written by graded_system on the window
and fold that window decides.  It writes each distinct equation once:
past the complexes' windows the folded equations repeat with the same
unknowns and blocks, and a repeat adds only rows already there, so the
system is row-equivalent to the one with every equation (the same
reduced form, kernel basis and particular solutions, bit for bit).
chain_map_space_basis checks its basis in one ChainMap.validate call
that reads the kernel's per-degree stacks (FoldedSystem.table); each map
keeps its own check range, so the errors are those of the maps checked
one by one.  It memoizes each basis on X (Complex._bases) under Y, by
identity and held weakly so the entry goes with Y, and the full Options.
An entry is the system without rows or column cache: window, fold, hom
bases and read-only kernel coefficients.  A hit rebuilds fresh maps from
it by the code that built the checked ones and marks them checked
without a second check: X and Y are frozen, and no caller data enters.
"""

from __future__ import annotations

import numpy as np

from . import linalg, modules
from .complexes import ChainMap, Complex, _Blocks, _lcm, _proven, add_maps, chain_map, compose
from .config import Options
from .errors import ValidationError


def _basis(pair) -> np.ndarray:
    """Stacked basis (h x rows x cols) of the hom space of a module pair
    (source, target), or of all matrices of a shape given as (rows, cols)."""
    a, b = pair
    if isinstance(a, modules.Module):
        return modules.hom_stack(a, b)
    return linalg.eye(a * b).reshape(a * b, a, b)


class FoldedSystem:
    def __init__(self, p: int, blocks: dict, lo: int, hi: int,
                 fold_period: int = 0, extras: dict | None = None,
                 width: int = 1):
        """blocks: {degree: (source, target)} for lo..hi; extras: {name: pair};
        width: the number of right-hand sides every equation carries."""
        self.p = p
        self.lo = lo
        self.hi = hi
        self.fold = fold_period
        self.bases = {}  # key -> (column offset, stacked hom basis)
        off = 0
        keys = [(n, blocks[n]) for n in range(lo, hi + 1)] + list((extras or {}).items())
        self.modular = any(isinstance(pair[0], modules.Module) for _, pair in keys)
        for key, pair in keys:
            H = _basis(pair)
            self.bases[key] = (off, H)
            off += len(H)
        self.total = off
        self.rows = []
        self.rhs = []
        self.width = width
        # pivot-entry columns per distinct (M, H, N, entries) of a term; each
        # value keeps its key's objects alive, so their ids stay unique
        self._columns = {}
        self.kernel_coeffs = None  # set by kernel
        # the window degrees that the blocks of each periodic tail fold to
        self.tail_degrees = ([self.rep(lo - 1 - i) for i in range(self.fold)],
                             [self.rep(hi + 1 + i) for i in range(self.fold)])

    def rep(self, n):
        """Window degree, folded representative, extra-block name, or None."""
        if n in self.bases:
            return n
        if not isinstance(n, int) or not self.fold:
            return None
        if n < self.lo:
            return self.lo + ((n - self.lo) % self.fold)
        return self.hi - ((self.hi - n) % self.fold)

    def add_equation(self, rhs: np.ndarray, terms: list, pair=None) -> None:
        """sum_i M_i @ u_{k_i} @ N_i == rhs; terms are (M, k, N), where
        None stands for an identity factor, whose product is skipped.

        pair: the modules (source, target) of the equation.  The
        right-hand side and each term M_i @ u @ N_i, for u in its hom
        space, must be module maps source -> target; the equation then
        writes one row per entry of modules.hom_pivots(*pair).  It may be
        omitted only when every unknown ranges over plain matrices, and
        the rows are then every entry.

        rhs is one matrix when the width is 1, else a stack (width x rows
        x cols) of right-hand sides that share the left side.

        A term's columns are computed once per system for each distinct
        (M, H, N, entries) of objects, so a factor passed here must not be
        changed in place afterwards.
        """
        stack = rhs if rhs.ndim == 3 else rhs[None]
        if len(stack) != self.width:
            raise ValidationError(
                f"equation has {len(stack)} right-hand sides, system has {self.width}")
        shape = stack.shape[1:]
        if shape[0] * shape[1] == 0:
            return
        if pair is None:
            if self.modular:
                raise ValidationError("an equation over module maps needs its module pair")
            entries = np.arange(shape[0] * shape[1])
        elif (pair[1].dim, pair[0].dim) != shape:
            raise ValidationError("equation does not have the shape of its module pair")
        else:
            entries = modules.hom_pivots(*pair)
        if not entries.size:
            return
        p = self.p
        block = linalg.zeros(entries.size, self.total)
        for M, k, N in terms:
            r = self.rep(k)
            if r is None:
                continue
            off, H = self.bases[r]
            h, t, s = H.shape
            if ((t, t) if M is None else M.shape) != (shape[0], t) or \
                    ((s, s) if N is None else N.shape) != (s, shape[1]):
                raise ValidationError("equation term has inconsistent shape")
            if h:
                key = (id(M), id(H), id(N), id(entries))
                if key not in self._columns:
                    # H is reduced mod p, so an identity factor changes nothing
                    MH = H if M is None else (M @ H) % p
                    cols = (MH if N is None else MH @ N).reshape(h, -1).take(entries, axis=1).T
                    self._columns[key] = (cols, M, H, N, entries)
                cols = self._columns[key][0]
                block[:, off : off + h] = (block[:, off : off + h] + cols) % p
        self.rows.append(block)
        self.rhs.append(stack.reshape(len(stack), -1).take(entries, axis=1).T % p)

    def _stack(self):
        if not self.rows:
            return linalg.zeros(0, self.total), linalg.zeros(0, self.width)
        return np.vstack(self.rows) % self.p, np.concatenate(self.rhs)

    def solve(self):
        """Particular solution as {degree: matrix}, or None, for a system
        with one right-hand side."""
        if self.width != 1:
            raise ValueError(f"system has {self.width} right-hand sides; use solve_each")
        return self.solve_each()[0]

    def solve_each(self) -> list:
        """Per right-hand side, a particular solution as {degree: matrix},
        or None where it is inconsistent.  One elimination decides them
        all, and each is the solution its right-hand side gets alone
        (linalg.solve_columns)."""
        A, B = self._stack()
        X, ok = linalg.solve_columns(A, B, self.p)
        if not ok.any():
            return [None] * len(ok)
        sols = iter(self.unpack(X[:, ok]))
        return [next(sols) if consistent else None for consistent in ok]

    def kernel(self) -> dict:
        """Basis of the homogeneous solution space as stacks: {window
        degree: (basis size x rows x cols) array of the basis solutions'
        components} (_stacks).  Its coefficient matrix, one column per
        basis solution, is kept read-only as self.kernel_coeffs."""
        A, _ = self._stack()
        self.kernel_coeffs = linalg.kernel_basis(A, self.p)
        self.kernel_coeffs.flags.writeable = False
        return self._stacks(self.kernel_coeffs)

    def _stacks(self, vecs: np.ndarray) -> dict:
        """{window degree: stack of sum_j c_j H_j, one per column of vecs}."""
        mats = {}
        for n in range(self.lo, self.hi + 1):
            off, H = self.bases[n]
            h, t, s = H.shape
            c = vecs[off : off + h].T
            mats[n] = (c @ H.reshape(h, t * s)).reshape(len(c), t, s) % self.p
        return mats

    def unpack(self, vecs: np.ndarray) -> list:
        """Per column of vecs, {window degree: sum_j c_j H_j}."""
        mats = self._stacks(vecs)
        return [{n: m[j] for n, m in mats.items()} for j in range(vecs.shape[1])]

    def graded(self, comps: dict) -> tuple:
        """GradedMap arguments (components, lo, hi, neg, pos) for a solution:
        its window components with entries and its folded periodic tails,
        left out where zero as complexes._sample leaves them."""
        return self.graded_each({n: m[None] for n, m in comps.items()})[0]

    def graded_each(self, stacks: dict) -> list:
        """graded for each solution of stacks ({window degree: one
        component per solution}), with one zero test per tail degree."""
        k = len(stacks[self.lo])
        window = {n: m for n, m in stacks.items() if m.size}
        tails = []
        for degrees in self.tail_degrees:
            live = np.zeros(k, dtype=bool)
            for n in degrees:
                live |= stacks[n].any(axis=(1, 2))
            tails.append([(self.fold, tuple(stacks[n][j] for n in degrees)) if live[j] else None
                          for j in range(k)])
        return [({n: m[j] for n, m in window.items()}, self.lo, self.hi, neg, pos)
                for j, (neg, pos) in enumerate(zip(*tails))]

    def table(self, stacks: dict, X: Complex, Y: Complex) -> _Blocks:
        """The stacked table (ChainMap.validate) of the solutions
        of stacks as chain maps X -> Y: at each degree n, the stack that n
        folds to, or zeros outside an unfolded window.  Its window is the
        hull of the system's and those of X and Y; below and above it the
        blocks repeat with the fold, or unfolded with the lcm of X's and
        Y's tail periods, as the zero blocks' shapes do."""
        k = len(stacks[self.lo])
        lo, hi = min(self.lo, X.lo, Y.lo), max(self.hi, X.hi, Y.hi)
        q = self.fold or _lcm([X.neg_period, Y.neg_period])
        qp = self.fold or _lcm([X.pos_period, Y.pos_period])
        return _Blocks(lo, hi, q, qp, tuple(
            np.zeros((k, Y.term(n).dim, X.term(n).dim), dtype=np.int64)
            if (r := self.rep(n)) is None else stacks[r]
            for n in range(lo - q, hi + qp + 1)))


def solve_module_map(pairs: list, rhs: np.ndarray, terms: list, pair: tuple):
    """u_0 of module maps u_k: pairs[k] = (source, target) with
    sum M @ u_k @ N == rhs over the terms (M, k, N), or None; the
    equation is one of module maps pair[0] -> pair[1]."""
    sys = FoldedSystem(pairs[0][0].algebra.p, dict(enumerate(pairs)), 0, len(pairs) - 1)
    sys.add_equation(rhs, terms, pair)
    sol = sys.solve()
    return None if sol is None else sol[0]


def window(X: Complex, Y: Complex, maps, m: int, pad: int, around=()) -> tuple:
    """(lo, hi, fold) of a graded-map system X -> Y: the window of the
    first bounded one of X and Y widened by pad, unfolded and so complete;
    else the hull of the windows of X, Y and the maps widened by
    P = max(1, m) * lcm of all their tail periods, folded with period P.
    It also contains the degrees of around."""
    B = X if X.bounded() else Y if Y.bounded() else None
    if B is not None:
        return min([B.lo - pad, *around]), max([B.hi + pad, *around]), 0
    P = max(1, m) * _lcm([q for Z in (X, Y, *maps) for q in (Z.neg_period, Z.pos_period)])
    return (min(X.lo, Y.lo, *[f.clo for f in maps], *around) - P,
            max(X.hi, Y.hi, *[f.chi for f in maps], *around) + P, P)


def graded_system(X: Complex, Y: Complex, shift: int, lo: int, hi: int, fold: int,
                  maps=(), extras: dict | None = None) -> FoldedSystem:
    """System in maps u_n: X_n -> Y_{n+shift} on lo..hi, folded with
    period fold, and the extras; one equation of maps X_n -> Y_{n+shift-1}
    per degree n of lo - fold .. hi + fold.  shift 0: d u_n - u_{n-1} d = 0
    (chain maps).  shift 1: d s_n + s_{n-1} d = f_n, one stacked right-hand
    side per chain map f of maps (null-homotopies).

    Each distinct equation is written once: an equation is skipped when
    its folded unknowns (rep(n), rep(n - 1)) and its blocks (the terms,
    the differentials and each right-hand side) are the same objects as
    an earlier one's.  It would repeat that equation's rows, so the system
    is row-equivalent to the one with every equation."""
    p, Xb, Yb = X.algebra.p, X._blocks, Y._blocks
    blocks = {n: (X.term(n), Y.term(n + shift)) for n in range(lo, hi + 1)}
    sys = FoldedSystem(p, blocks, lo, hi, fold, extras, width=max(1, len(maps)))
    eqs = range(lo - fold, hi + fold + 1)
    # the blocks are the tables' own objects, alive with X, Y and the maps,
    # so their ids name them for the whole loop
    written, negated = set(), {}
    for n, (x, dX), (y, _), (_, dY), *rhs in zip(
            eqs, Xb.on(eqs), Yb.on([n + shift - 1 for n in eqs]),
            Yb.on([n + shift for n in eqs]), *(f._blocks.on(eqs) for f in maps)):
        if not x.dim * y.dim:
            continue  # maps with no entries: the equation has no rows
        key = (sys.rep(n), sys.rep(n - 1), *map(id, (x, y, dX, dY, *rhs)))
        if key in written:
            continue
        written.add(key)
        if not rhs:  # chain maps
            rhs = [linalg.zeros(y.dim, x.dim)]
        if not shift and id(dX) not in negated:
            negated[id(dX)] = (-dX) % p
        # one map: its matrix itself, without the copy np.stack makes
        sys.add_equation(np.stack(rhs) if len(rhs) > 1 else rhs[0],
                         [(dY, n, None), (None, n - 1, dX if shift else negated[id(dX)])],
                         (x, y))
    return sys


def chain_map_space_basis(X: Complex, Y: Complex, options: Options = Options()):
    """(basis of chain maps X -> Y, complete flag).

    Complete when one side is bounded; otherwise the basis spans the
    periodic-tailed maps with tail period map_period_bound * lcm of the
    tail periods, an explicit surrogate for the full hom space.

    Memoized on X per Y (by identity, held weakly) and Options: an entry
    is the system without its rows, with read-only kernel coefficients,
    and a hit rebuilds fresh maps from it, marked without a second check
    as no caller data enters it.  A call that raises stores nothing.
    """
    sys = X._bases.get(Y, {}).get(options)
    if sys is not None:
        return [_proven(ChainMap(X, Y, *args))
                for args in sys.graded_each(sys._stacks(sys.kernel_coeffs))], not sys.fold
    sys = graded_system(X, Y, 0, *window(X, Y, (), options.map_period_bound, 1))
    stacks = sys.kernel()
    basis = [ChainMap(X, Y, *args) for args in sys.graded_each(stacks)]
    if basis:
        # the whole basis in one check, read from the kernel's own stacks
        basis[0].validate(*basis[1:], table=sys.table(stacks, X, Y))
    # the rows and column cache are the bulk, and the cache holds X's and Y's blocks
    sys.rows, sys.rhs, sys._columns = [], [], {}
    X._bases.setdefault(Y, {})[options] = sys
    return basis, not sys.fold


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
    sys = graded_system(S, T, 0, *window(S, T, (f, through), options.map_period_bound, 1))
    pad = sys.fold or 1
    for n in range(sys.lo - pad, sys.hi + pad + 1):
        terms = [(through.component(n), n, None) if mode == "lift"
                 else (None, n, through.component(n))]
        sys.add_equation(f.component(n), terms, (f.source.term(n), f.target.term(n)))
    comps = sys.solve()
    if comps is None:
        return None
    g = chain_map(S, T, *sys.graded(comps))
    composite = compose(through, g) if mode == "lift" else compose(g, through)
    if not add_maps(composite, f, sign=-1).is_zero():
        return None
    return g
