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

A system holds its rows only as sparse rows: each a dict {column: value}
of reduced, nonzero Python ints, the unknowns' coordinates in columns
0..total-1 and right-hand side k in column total + k.  A row is the sum
of its terms' entries, each term's (column, value) lists at the pivot
entries computed once per system for each distinct (M, H, N, entries) of
objects and placed at its unknown's column offset; no dense block is
made.  The rows go straight to the one elimination, linalg.rref, through
linalg.solve_rows and linalg.kernel_rows, which read its pivot rows into
solutions and kernel coefficients; these are unpacked to the matrices
sum c_j H_j, one product per run of window degrees on one hom basis
(FoldedSystem._stacks).  This is the engine behind null-homotopy search,
chain-map space bases, periodic lifting and module factorizations.

Every system of graded maps between two complexes, chain maps (shift 0)
and null-homotopies (shift 1), is written by graded_system on the window
and fold that window decides, through the writer add_equation uses.  It
writes each distinct equation once: past the complexes' windows the
folded equations repeat with the same unknowns and blocks, and a repeat
adds only rows already there, so the system is row-equivalent to the one
with every equation (the same reduced form, kernel basis and particular
solutions, bit for bit).  It reads the right-hand sides' blocks from the
maps' family columns by slot (complexes._reads), with no table built.
chain_map_space_basis makes its basis one family (graded_each, which
complexes._from_stacks lays out): its arrays concatenate the kernel's
per-degree stacks of one block shape, and each map builds its table on
its first read, of views of its column, a tail block the view of the
window row it folds to.  It checks the basis in one ChainMap.validate
call, whose walk reads each group of the family in one gather, with no
table built; each map keeps its own check range, so the errors are
those of the maps checked one by one.  Likewise the particular solutions
of a solve (solve_each) keep their per-degree stacks, from which its
null-homotopies, factor or lift are made, one family per solve.

Each chain-map solve is memoized per pair of complexes in its source's
store (Complex._solved); the modules docstring lists the stores.
"""

from __future__ import annotations

import operator
import weakref
from itertools import groupby

import numpy as np

from . import linalg, modules
from .complexes import (ChainMap, Complex, _copied, _factors, _from_stacks, _kept, _lcm,
                        _proven, _reads, _same_module, _value)
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
        self.width = width
        self.rows = []  # per written equation, its pivot entries: one row each
        self.sparse = []  # the nonzero rows, as linalg.rref takes them
        # per module pair (or shape, for plain matrices) its pivot entries,
        # and per distinct (M, H, N, entries) of a term its columns at each
        # entry; a term's value keeps its key's objects alive, so their ids
        # stay unique
        self._entries = {}
        self._terms = {}
        self.kernel_coeffs = None  # set by kernel

    def rep(self, k):
        """The unknown that k names: a window degree or extra name as
        given, a degree outside a folded window as its representative, or
        None, the zero unknown, for a degree outside an unfolded window.
        Any other k raises ValidationError."""
        if k in self.bases:
            return k
        try:
            n = operator.index(k)
        except TypeError:
            raise ValidationError(f"equation term names no unknown of the system: {k!r}") from None
        if not self.fold:
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
        elif (pair[1].dim, pair[0].dim) != shape:
            raise ValidationError("equation does not have the shape of its module pair")
        self._write(pair, shape, terms, stack)

    def _write(self, pair, shape: tuple, terms: list, rhs) -> None:
        """Writes the equation sum M @ u_k @ N == rhs between the modules
        pair, or over plain matrices of shape where pair is None: one
        sparse row per pivot entry, a dict {column: value} of reduced,
        nonzero Python ints, with right-hand side k in column total + k.
        rhs: the width right-hand sides, matrices of shape, or none where
        they are zero.  A term adds its columns at that entry (_columns) at
        its unknown's offset."""
        key = shape if pair is None else tuple(pair)
        entries = self._entries.get(key)
        if entries is None:
            entries = self._entries[key] = (np.arange(shape[0] * shape[1]) if pair is None
                                            else modules.hom_pivots(*pair))
        if not entries.size:
            return
        p, total = self.p, self.total
        rows = [{} for _ in range(entries.size)]
        for M, k, N in terms:
            r = self.rep(k)
            if r is not None:
                off, H = self.bases[r]
                for row, column in zip(rows, self._columns(M, H, N, entries, shape)):
                    for c, v in column:
                        c += off
                        if c in row:
                            v = (row[c] + v) % p
                            if not v:
                                del row[c]
                                continue
                        row[c] = v
        for c, b in enumerate(rhs, total):
            for row, v in zip(rows, b.take(entries).tolist()):
                v %= p
                if v:
                    row[c] = v
        self.rows.append(entries)
        self.sparse += [row for row in rows if row]

    def _columns(self, M, H: np.ndarray, N, entries: np.ndarray, shape: tuple) -> list:
        """Per entry, the nonzero (column, value) of the term M @ u @ N
        with u = sum c_j H_j there, column j for c_j; computed once per
        system for each distinct (M, H, N, entries) of objects, whose
        shapes are checked then."""
        key = (id(M), id(H), id(N), id(entries))
        if key not in self._terms:
            h, t, s = H.shape
            if ((t, t) if M is None else M.shape) != (shape[0], t) or \
                    ((s, s) if N is None else N.shape) != (s, shape[1]):
                raise ValidationError("equation term has inconsistent shape")
            # H is reduced mod p, so an identity factor changes nothing
            MH = H if M is None else (M @ H) % self.p
            C = (MH if N is None else MH @ N).reshape(h, shape[0] * shape[1])
            C = C.take(entries, 1).T % self.p
            self._terms[key] = ([[(c, v) for c, v in enumerate(row) if v] for row in C.tolist()],
                                M, H, N, entries)
        return self._terms[key][0]

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
        (linalg.solve_rows).  The elimination reduces the rows in place,
        keeping their row space, so the system may be solved again.  When
        any is consistent, their components
        are kept as self.solutions, one stack per window degree in their
        order (_stacks), of which the matrices returned are the rows."""
        X, ok = linalg.solve_rows(self.sparse, self.total, self.width, self.p)
        if not ok.any():
            return [None] * len(ok)
        stacks = self.solutions = self._stacks(X[:, ok])
        sols = iter([{n: m[j] for n, m in stacks.items()} for j in range(int(ok.sum()))])
        return [next(sols) if consistent else None for consistent in ok]

    def kernel(self) -> dict:
        """Basis of the homogeneous solution space as stacks: {window
        degree: (basis size x rows x cols) array of the basis solutions'
        components} (_stacks).  Its coefficient matrix, one column per
        basis solution, is kept read-only as self.kernel_coeffs."""
        self.kernel_coeffs = linalg.kernel_rows(self.sparse, self.total, self.p)
        self.kernel_coeffs.flags.writeable = False
        return self._stacks(self.kernel_coeffs)

    def _stacks(self, vecs: np.ndarray) -> dict:
        """{window degree: stack of sum_j c_j H_j, one per column of vecs}:
        one product per run of consecutive window degrees on one hom basis
        H (one object), whose coefficients are consecutive rows of vecs;
        each degree's stack is its row of the run's result."""
        mats, k = {}, vecs.shape[1]
        for _, run in groupby(range(self.lo, self.hi + 1), key=lambda n: id(self.bases[n][1])):
            ns = list(run)
            off, H = self.bases[ns[0]]
            r, (h, t, s) = len(ns), H.shape
            c = vecs[off:off + r * h].reshape(r, h, k).transpose(0, 2, 1)
            mats.update(zip(ns, (c @ H.reshape(h, t * s)).reshape(r, k, t, s) % self.p))
        return mats

    def graded_each(self, kind, S: Complex, T: Complex, stacks: dict) -> list:
        """The maps kind (ChainMap or Homotopy) S -> T of the solutions in
        stacks ({window degree: one component per solution}, as _stacks
        unpacks them): one family, laid out by complexes._lone, whose
        arrays concatenate the stacks of one block shape and whose tail
        tests run once for all solutions (complexes._from_stacks,
        _own_periods)."""
        return _from_stacks(kind, S, T, self.lo, self.hi, self.fold, stacks)


def solve_module_map(pairs: list, rhs: np.ndarray, terms: list, pair: tuple):
    """u_0 of module maps u_k: pairs[k] = (source, target) with
    sum M @ u_k @ N == rhs over the terms (M, k, N), or None; the
    equation is one of module maps pair[0] -> pair[1]."""
    sys = FoldedSystem(pairs[0][0].algebra.p, dict(enumerate(pairs)), 0, len(pairs) - 1)
    sys.add_equation(rhs, terms, pair)
    sol = sys.solve()
    return None if sol is None else sol[0]


def window(X: Complex, Y: Complex, maps, m: int, pad: int, around=(), shift: int = 0) -> tuple:
    """(lo, hi, fold) of a system in graded maps u_n: X_n -> Y_{n+shift}:
    the window of the first bounded one of X and Y widened by pad,
    unfolded and so complete; else the hull of the windows of X, Y and
    the maps widened by P = max(1, m) * lcm of all their tail periods,
    folded with period P.  It also contains the degrees of around.

    Folded, u_{lo-1+P} stands for u_{lo-1}, so Y's term at lo - 1 +
    shift + P must be, by value, its term P below.  For shift 1 it can be
    the window term of Y at the hull's low edge, which may differ; then lo
    moves down by P, into the tails."""
    B = X if X.bounded() else Y if Y.bounded() else None
    if B is not None:
        return min([B.lo - pad, *around]), max([B.hi + pad, *around]), 0
    P = max(1, m) * _lcm([q for Z in (X, Y, *maps) for q in (Z.neg_period, Z.pos_period)])
    lo = min(X.lo, Y.lo, *[f.clo for f in maps], *around) - P
    if not _same_module(Y.term(lo - 1 + shift + P), Y.term(lo - 1 + shift)):
        lo -= P
    return lo, max(X.hi, Y.hi, *[f.chi for f in maps], *around) + P, P


def graded_system(X: Complex, Y: Complex, shift: int, lo: int, hi: int, fold: int,
                  maps=(), extras: dict | None = None) -> FoldedSystem:
    """System in maps u_n: X_n -> Y_{n+shift} on lo..hi, folded with
    period fold, and the extras; one equation of maps X_n -> Y_{n+shift-1}
    per degree n of lo - fold .. hi + fold.  shift 0: d u_n - u_{n-1} d = 0
    (chain maps).  shift 1: d s_n + s_{n-1} d = f_n, one stacked right-hand
    side per chain map f of maps (null-homotopies).

    Each distinct equation is written once: an equation is skipped when
    its folded unknowns (rep(n), rep(n - 1)), its terms and differentials
    (the same objects) and each right-hand side's block (the same slot of
    its family column, or its zero block; complexes._reads) are an earlier
    one's.  It would repeat that equation's rows, so the system is
    row-equivalent to the one with every equation."""
    p, Xb, Yb = X.algebra.p, X._blocks, Y._blocks
    blocks = {n: (X.term(n), Y.term(n + shift)) for n in range(lo, hi + 1)}
    sys = FoldedSystem(p, blocks, lo, hi, fold, extras, width=max(1, len(maps)))
    eqs = range(lo - fold, hi + fold + 1)
    # the blocks of the complexes are their tables' own objects, alive with
    # X and Y, so their ids name them for the whole loop; a map's block is
    # named by the slot it is read from (complexes._reads)
    written, negated = set(), {}
    for n, (x, dX), (y, _), (_, dY), *rhs in zip(
            eqs, Xb.on(eqs), Yb.on([n + shift - 1 for n in eqs]),
            Yb.on([n + shift for n in eqs]), *(zip(*_reads(f, eqs)) for f in maps)):
        if not x.dim * y.dim:
            continue  # maps with no entries: the equation has no rows
        key = (sys.rep(n), sys.rep(n - 1), id(x), id(y), id(dX), id(dY), *[k for k, _ in rhs])
        if key in written:
            continue
        written.add(key)
        if not shift and id(dX) not in negated:
            negated[id(dX)] = (-dX) % p
        sys._write((x, y), (y.dim, x.dim),
                   [(dY, n, None), (None, n - 1, dX if shift else negated[id(dX)])],
                   [b for _, b in rhs])
    return sys


def chain_map_space_basis(X: Complex, Y: Complex, options: Options = Options()):
    """(basis of chain maps X -> Y, complete flag).

    Complete when one side is bounded; otherwise the basis spans the
    periodic-tailed maps with tail period map_period_bound * lcm of the
    tail periods, an explicit surrogate for the full hom space.

    Memoized in X._solved[Y] under the Options: an entry is the system
    without its rows, with read-only kernel coefficients, from which a hit
    rebuilds fresh maps.  A call that raises stores nothing.
    """
    sys = X._solved.get(Y, {}).get(options)
    if sys is not None:
        return [_proven(f) for f in sys.graded_each(
            ChainMap, X, Y, sys._stacks(sys.kernel_coeffs))], not sys.fold
    sys = graded_system(X, Y, 0, *window(X, Y, (), options.map_period_bound, 1))
    basis = sys.graded_each(ChainMap, X, Y, sys.kernel())
    if basis:
        basis[0].validate(*basis[1:])  # the whole basis in one check
    # the rows and caches are the bulk, and the caches hold X's and Y's blocks
    sys.rows, sys.sparse, sys._entries, sys._terms = [], [], {}, {}
    X._solved.setdefault(Y, {})[options] = sys
    return basis, not sys.fold


def _remembered(S: Complex, T: Complex, key: tuple, ends: tuple, solve, rebuild, holds):
    """The first result of solve() that passes holds, or None; memoized in
    S._solved[T] under key, which names the complexes of ends by id (held
    weakly, matched by identity): the one memo of results a hit checks.

    solve() yields (result, value) pairs, value what an entry keeps of
    result, made read-only, or None for a result that nothing could check
    again, which is returned and not kept.  A result holds copies of the
    arrays a caller may write, or shares the entry's read-only ones.  A
    hit is rebuild(value), checked again by holds; if the check fails,
    the result is solved afresh and the entry overwritten.  Only an
    entry's array entries can be damaged, which keeps every shape, and a
    damaged entry fails holds without raising.

    A chain-map basis (chain_map_space_basis) and a walk plan
    (check._check_walk) are kept in _solved outside this: a basis hit
    reads no caller data and hands out new products of its read-only
    kernel coefficients, so there is nothing of the caller's to check it
    against, and a plan holds no result."""
    entry = S._solved.get(T, {}).get(key)
    if entry is not None and all(r() is e for r, e in zip(entry[0], ends)):
        result = rebuild(entry[1])
        if holds(result):
            return result
    for result, value in solve():
        if holds(result):
            if value is not None:
                S._solved.setdefault(T, {})[key] = (tuple(map(weakref.ref, ends)),
                                                    modules._read_only(value))
            return result
    return None


def _solved_map(sys: FoldedSystem, S: Complex, T: Complex) -> tuple:
    """(chain map, value) for _remembered from the one solution of sys,
    made from the solve's stacks: the chain map S -> T it gives,
    validated, and what a memo keeps of it (complexes._kept: its family
    column, from which its table is read), of which the map is a copy."""
    g = sys.graded_each(ChainMap, S, T, sys.solutions)[0]
    g.validate()
    kept = _kept(g)
    return _proven(_copied(ChainMap, S, T, kept)), kept


def _kept_map(S: Complex, T: Complex):
    """The rebuild for _remembered of a value of _solved_map: a copy of
    the kept chain map, marked as a basis hit is, since its table passed
    the check on the same frozen S and T."""
    return lambda kept: _proven(_copied(ChainMap, S, T, kept))


def factor_chain_map(f: ChainMap, through: ChainMap, mode: str,
                     options: Options = Options()):
    """Factor f through another chain map, or None.

    mode "lift": through: Q -> Y and f: X -> Y; find g: X -> Q with
    through . g = f.  mode "extend": through: X -> J and f: X -> Y; find
    h: J -> Y with h . through = f.  Memoized, and a hit checked again
    (_remembered); the check, of a found factor too, compares the
    composite with f on the three maps' tables (complexes._factors), with
    no map built.
    """
    if mode == "lift":
        S, T = f.source, through.source
    elif mode == "extend":
        S, T = through.target, f.target
    else:
        raise ValueError(f"unknown factorization mode {mode!r}")

    def found():
        sys = graded_system(S, T, 0, *window(S, T, (f, through), options.map_period_bound, 1))
        pad = sys.fold or 1
        for n in range(sys.lo - pad, sys.hi + pad + 1):
            terms = [(through.component(n), n, None) if mode == "lift"
                     else (None, n, through.component(n))]
            sys.add_equation(f.component(n), terms, (f.source.term(n), f.target.term(n)))
        if sys.solve() is not None:
            yield _solved_map(sys, S, T)

    def holds(g):
        return _factors(f, through, g) if mode == "lift" else _factors(f, g, through)

    ends = (f.source, f.target, through.source, through.target)
    key = (mode, *map(id, ends), _value(f), _value(through), options)
    return _remembered(S, T, key, ends, found, _kept_map(S, T), holds)
