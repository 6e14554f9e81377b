"""Z-graded chain complexes with finite windows and periodic tails.

A complex stores modules and differentials on a window lo..hi plus
optional periodic tails on either side; absent tails mean zero modules.
Everything outside the window is reached through the term/diff accessors,
which fold degrees into the periodic blocks.

Constructors validate by default.  Complex.validate and ChainMap.validate
cover every degree of a check range: the window (for a chain map, the
hull of its own window and those of its complexes) widened by 2q+1 on
each side, where q is the lcm of all tail periods.  The shape of each
differential or component is checked at every degree; the other checks
are stacked across degrees.  Intertwining groups the matrices by their
(source, target) module pair and checks each group against all action
indices with one batched product per side (modules.intertwining_failures,
as in ModuleMap.validate).  d*d = 0 and f d = d f group the products by
the shapes of their factors, one batched matmul per side and group.  A
tail block repeated across the range -- the same matrix object between
the same modules, or the same tuple of matrix objects -- is stacked once,
at its first degree.  An error names the smallest failing degree, and for
intertwining the first failing action index there.  ChainMap.validate
also takes further maps and stacks their checks with its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, modules
from .algebra import Algebra
from .errors import DimensionMismatch, UnsupportedShape, ValidationError
from .modules import Module, ModuleMap


@dataclass(frozen=True)
class Tail:
    period: int
    terms: tuple  # block 0 is adjacent to the window
    diffs: tuple  # see Complex.diff for the indexing convention

    def __post_init__(self):
        if self.period != len(self.terms) or self.period != len(self.diffs):
            raise ValidationError("tail period does not match block count")


def _check_intertwining(maps, what: str) -> None:
    """Raise unless every (degree, source, target, matrix) is a module map.

    The matrices are grouped by their (source, target) module pair; each
    distinct matrix object of a group is stacked once, at its first
    degree, and the group is checked with one batched product per side.
    The error names the smallest failing degree and its action index.
    """
    groups = {}
    for n, src, tgt, f in maps:
        groups.setdefault((src, tgt), {}).setdefault(id(f), (n, f))
    failures = []
    for (src, tgt), firsts in groups.items():
        degrees, mats = zip(*firsts.values())
        bad = modules.intertwining_failures(src, tgt, mats)
        failures += [(degrees[k], int(bad[k].argmax()))
                     for k in bad.any(axis=1).nonzero()[0]]
    if failures:
        n, i = min(failures)
        raise ValidationError(f"{what} at degree {n} does not intertwine action {i}")


def _first_failure(checks, residue):
    """Smallest degree whose check fails, or None.

    A check is (n, *matrices) and holds when residue(*matrices) is zero.
    Each distinct tuple of matrix objects is checked once, at its first
    degree; the distinct tuples are stacked per shape group, and residue
    runs once per group on the stacks, one batched product per term.
    """
    distinct = {}
    for check in checks:
        # checks keeps every keyed matrix alive, so no id is reused here
        key = tuple(map(id, check[1:]))
        if key not in distinct:
            distinct[key] = check
    groups = {}
    for check in distinct.values():
        groups.setdefault(tuple([m.shape for m in check[1:]]), []).append(check)
    failures = []
    for group in groups.values():
        degrees, *mats = zip(*group)
        bad = residue(*map(np.array, mats)).any(axis=(1, 2))
        failures += [degrees[i] for i in bad.nonzero()[0]]
    return min(failures, default=None)


def _composite(p: int):
    """Residue of the check d_n d_{n+1} = 0, for _first_failure."""
    return lambda d0, d1: (d0 @ d1) % p


def _lcm(values) -> int:
    out = 1
    for v in values:
        if v:
            out = math.lcm(out, v)
    return out


@dataclass(frozen=True, eq=False)
class Complex:
    algebra: Algebra
    lo: int
    hi: int
    terms: dict  # degree -> Module on lo..hi
    diffs: dict  # degree n -> matrix of d_n for lo+1..hi
    neg_tail: Tail | None = None
    pos_tail: Tail | None = None
    neg_seam: np.ndarray | None = None  # d_lo into neg block 0
    pos_seam: np.ndarray | None = None  # d_{hi+1} out of pos block 0

    @staticmethod
    def build(algebra, lo, hi, terms, diffs, neg_tail=None, pos_tail=None,
              neg_seam=None, pos_seam=None, validate=True) -> "Complex":
        if neg_tail is not None and all(t.dim == 0 for t in neg_tail.terms):
            neg_tail, neg_seam = None, None
        if pos_tail is not None and all(t.dim == 0 for t in pos_tail.terms):
            pos_tail, pos_seam = None, None
        X = Complex(algebra, lo, hi, dict(terms), dict(diffs),
                    neg_tail, pos_tail, neg_seam, pos_seam)
        if validate:
            X.validate()
        return X

    # -- accessors -----------------------------------------------------

    def term(self, n: int) -> Module:
        if self.lo <= n <= self.hi:
            return self.terms[n]
        if n < self.lo:
            if self.neg_tail is None:
                return modules.zero_module(self.algebra)
            return self.neg_tail.terms[(self.lo - 1 - n) % self.neg_tail.period]
        if self.pos_tail is None:
            return modules.zero_module(self.algebra)
        return self.pos_tail.terms[(n - self.hi - 1) % self.pos_tail.period]

    def diff(self, n: int) -> np.ndarray:
        """Matrix of d_n: X_n -> X_{n-1}."""
        if self.lo + 1 <= n <= self.hi:
            return self.diffs[n]
        if n == self.lo:
            if self.neg_tail is not None and self.neg_seam is not None:
                return self.neg_seam
            return self._zero_diff(n)
        if n < self.lo:
            if self.neg_tail is None:
                return self._zero_diff(n)
            return self.neg_tail.diffs[(self.lo - 1 - n) % self.neg_tail.period]
        if n == self.hi + 1:
            if self.pos_tail is not None and self.pos_seam is not None:
                return self.pos_seam
            return self._zero_diff(n)
        if self.pos_tail is None:
            return self._zero_diff(n)
        return self.pos_tail.diffs[(n - self.hi - 1) % self.pos_tail.period]

    def diff_map(self, n: int) -> ModuleMap:
        return ModuleMap(self.term(n), self.term(n - 1), self.diff(n))

    def _zero_diff(self, n: int) -> np.ndarray:
        return modules.zero_block(self.algebra, self.term(n - 1).dim, self.term(n).dim)

    # -- structure -----------------------------------------------------

    @property
    def neg_period(self) -> int:
        return self.neg_tail.period if self.neg_tail else 0

    @property
    def pos_period(self) -> int:
        return self.pos_tail.period if self.pos_tail else 0

    def bounded(self) -> bool:
        return self.neg_tail is None and self.pos_tail is None

    def bounded_below(self) -> bool:
        return self.neg_tail is None

    def bounded_above(self) -> bool:
        return self.pos_tail is None

    def support_degrees(self):
        """Window degrees with nonzero terms; None-bounded sides excluded."""
        return [n for n in range(self.lo, self.hi + 1) if self.term(n).dim > 0]

    def is_zero(self) -> bool:
        return self.bounded() and not self.support_degrees()

    def check_range(self) -> tuple:
        q = _lcm([self.neg_period, self.pos_period])
        return (self.lo - 2 * max(q, 1) - 1, self.hi + 2 * max(q, 1) + 1)

    def validate(self) -> None:
        for n in range(self.lo, self.hi + 1):
            if n not in self.terms:
                raise ValidationError(f"missing term at degree {n}")
        a, b = self.check_range()
        maps = [(n, self.term(n), self.term(n - 1), self.diff(n))
                for n in range(a, b + 1)]
        for n, src, tgt, d in maps:
            if d.shape != (tgt.dim, src.dim):
                raise ValidationError(f"differential at degree {n} has wrong shape")
        _check_intertwining(maps, "differential")
        bad = _first_failure([(n + 1, d0, d1) for (n, _, _, d0), (_, _, _, d1)
                              in zip(maps, maps[1:])], _composite(self.algebra.p))
        if bad is not None:
            raise ValidationError(f"d*d != 0 at degree {bad}")


def zero_complex(algebra: Algebra) -> Complex:
    return Complex.build(algebra, 0, 0, {0: modules.zero_module(algebra)}, {})


def complex_from_callable(algebra, lo, hi, term_fn, diff_fn,
                          neg_period=0, pos_period=0, validate=True) -> Complex:
    """Assemble a complex by sampling term/diff functions.

    Outside lo..hi the functions must be periodic with the given periods;
    one extra period is sampled and compared to catch wrong periods.
    """
    terms = {n: term_fn(n) for n in range(lo, hi + 1)}
    diffs = {n: diff_fn(n) % algebra.p for n in range(lo + 1, hi + 1)}
    neg_tail = pos_tail = None
    neg_seam = pos_seam = None
    if neg_period:
        q = neg_period
        blocks = tuple(term_fn(lo - 1 - i) for i in range(q))
        bdiffs = tuple(diff_fn(lo - 1 - i) % algebra.p for i in range(q))
        for i in range(q + 1):
            n = lo - 1 - i - q
            if term_fn(n).dim != term_fn(n + q).dim or not np.array_equal(
                diff_fn(n) % algebra.p, diff_fn(n + q) % algebra.p
            ):
                raise ValidationError(f"negative tail not {q}-periodic at {n}")
        neg_tail = Tail(q, blocks, bdiffs)
        neg_seam = diff_fn(lo) % algebra.p
    if pos_period:
        q = pos_period
        blocks = tuple(term_fn(hi + 1 + i) for i in range(q))
        bdiffs = tuple(diff_fn(hi + 1 + i if i else hi + 1 + q) % algebra.p
                       for i in range(q))
        for i in range(q + 1):
            n = hi + 1 + i + q
            if term_fn(n).dim != term_fn(n - q).dim or not np.array_equal(
                diff_fn(n + 1) % algebra.p, diff_fn(n + 1 - q) % algebra.p
            ):
                raise ValidationError(f"positive tail not {q}-periodic at {n}")
        pos_tail = Tail(q, blocks, bdiffs)
        pos_seam = diff_fn(hi + 1) % algebra.p
    return Complex.build(algebra, lo, hi, terms, diffs,
                         neg_tail, pos_tail, neg_seam, pos_seam, validate=validate)


# -- chain maps and homotopies -----------------------------------------


@dataclass(frozen=True, eq=False)
class GradedMap:
    """Shared shape for chain maps (shift 0) and homotopies (shift +1)."""

    source: Complex
    target: Complex
    components: dict  # degree -> matrix on window clo..chi
    clo: int
    chi: int
    neg: tuple | None = None  # (period, blocks) for degrees < clo
    pos: tuple | None = None  # (period, blocks) for degrees > chi
    shift: int = 0

    def component(self, n: int) -> np.ndarray:
        if self.clo <= n <= self.chi:
            m = self.components.get(n)
            if m is not None:
                return m
        elif n < self.clo and self.neg is not None:
            q, blocks = self.neg
            return blocks[(self.clo - 1 - n) % q]
        elif n > self.chi and self.pos is not None:
            q, blocks = self.pos
            return blocks[(n - self.chi - 1) % q]
        return modules.zero_block(self.source.algebra,
                                  self.target.term(n + self.shift).dim,
                                  self.source.term(n).dim)

    @property
    def neg_period(self) -> int:
        return self.neg[0] if self.neg else 0

    @property
    def pos_period(self) -> int:
        return self.pos[0] if self.pos else 0

    def check_range(self) -> tuple:
        q = _lcm([self.neg_period, self.pos_period,
                  self.source.neg_period, self.source.pos_period,
                  self.target.neg_period, self.target.pos_period])
        a = min(self.clo, self.source.lo, self.target.lo)
        b = max(self.chi, self.source.hi, self.target.hi)
        return (a - 2 * q - 1, b + 2 * q + 1)


class ChainMap(GradedMap):
    def validate(self, *others: "ChainMap") -> None:
        """Check this map and any others, each over its own check range.

        The checks of all the maps are stacked together, so a whole basis
        of chain maps costs one batched product per group.
        """
        entries, checks = [], []
        for f in (self, *others):
            S, T = f.source, f.target
            if S.algebra is not T.algebra or S.algebra is not self.source.algebra:
                raise DimensionMismatch("chain map across different algebras")
            a, b = f.check_range()
            maps = [(n, S.term(n), T.term(n), f.component(n)) for n in range(a, b + 1)]
            for n, src, tgt, m in maps:
                if m.shape != (tgt.dim, src.dim):
                    raise ValidationError(f"component at degree {n} has wrong shape")
            entries += maps
            checks += [(n, f0, S.diff(n), T.diff(n), f1)
                       for (_, _, _, f0), (n, _, _, f1) in zip(maps, maps[1:])]
        _check_intertwining(entries, "component")
        p = self.source.algebra.p
        bad = _first_failure(checks,
                             lambda f0, dS, dT, f1: (f0 @ dS) % p - (dT @ f1) % p)
        if bad is not None:
            raise ValidationError(f"does not commute with d at degree {bad}")

    def is_mono(self) -> bool:
        p = self.source.algebra.p
        a, b = self.check_range()
        return all(
            linalg.rank(self.component(n), p) == self.source.term(n).dim
            for n in range(a, b + 1)
        )

    def is_epi(self) -> bool:
        p = self.source.algebra.p
        a, b = self.check_range()
        return all(
            linalg.rank(self.component(n), p) == self.target.term(n).dim
            for n in range(a, b + 1)
        )

    def is_zero(self) -> bool:
        a, b = self.check_range()
        return not any(self.component(n).any() for n in range(a, b + 1))


class Homotopy(GradedMap):
    """Degree +1 maps s_n: X_n -> Y_{n+1}; meaning fixed by its consumer."""

    def __init__(self, source, target, components, clo, chi, neg=None, pos=None):
        super().__init__(source, target, components, clo, chi, neg, pos, shift=1)


def chain_map(source, target, components, clo=None, chi=None,
              neg=None, pos=None, validate=True) -> ChainMap:
    components = {n: np.asarray(m, dtype=np.int64) % source.algebra.p
                  for n, m in components.items()}
    if clo is None:
        degs = sorted(components) or [0]
        clo, chi = degs[0], degs[-1]
    f = ChainMap(source, target, components, clo, chi, neg, pos)
    if validate:
        f.validate()
    return f


def chain_map_from_callable(source, target, clo, chi, comp_fn,
                            neg_period=0, pos_period=0, validate=True) -> ChainMap:
    comps = {n: comp_fn(n) for n in range(clo, chi + 1)}  # reduced by chain_map
    neg = pos = None
    if neg_period:
        blocks = tuple(comp_fn(clo - 1 - i) % source.algebra.p
                       for i in range(neg_period))
        if any(b.any() for b in blocks):
            neg = (neg_period, blocks)
    if pos_period:
        blocks = tuple(comp_fn(chi + 1 + i) % source.algebra.p
                       for i in range(pos_period))
        if any(b.any() for b in blocks):
            pos = (pos_period, blocks)
    return chain_map(source, target, comps, clo, chi, neg, pos, validate=validate)


def identity_chain_map(X: Complex) -> ChainMap:
    comps = {n: linalg.eye(X.term(n).dim) for n in range(X.lo, X.hi + 1)}
    neg = pos = None
    if X.neg_tail:
        neg = (X.neg_period, tuple(linalg.eye(t.dim) for t in X.neg_tail.terms))
    if X.pos_tail:
        pos = (X.pos_period, tuple(linalg.eye(t.dim) for t in X.pos_tail.terms))
    return chain_map(X, X, comps, X.lo, X.hi, neg, pos)


def zero_chain_map(X: Complex, Y: Complex) -> ChainMap:
    return chain_map(X, Y, {}, 0, 0)


def _map_profile(*objects):
    """Common window and tail periods of complexes / graded maps."""
    los, his, negs, poss = [], [], [], []
    for o in objects:
        if isinstance(o, Complex):
            los.append(o.lo)
            his.append(o.hi)
        else:
            los.append(o.clo)
            his.append(o.chi)
        negs.append(o.neg_period)
        poss.append(o.pos_period)
    return min(los), max(his), _lcm(negs), _lcm(poss)


def compose(f: ChainMap, g: ChainMap, validate=True) -> ChainMap:
    """f after g."""
    p = f.source.algebra.p
    lo, hi, nq, pq = _map_profile(f, g, g.source, f.target)
    return chain_map_from_callable(
        g.source, f.target, lo, hi,
        lambda n: (f.component(n) @ g.component(n)) % p,
        nq, pq, validate=validate)


def add_maps(f: ChainMap, g: ChainMap, sign: int = 1) -> ChainMap:
    p = f.source.algebra.p
    lo, hi, nq, pq = _map_profile(f, g, f.source, f.target)
    return chain_map_from_callable(
        f.source, f.target, lo, hi,
        lambda n: (f.component(n) + sign * g.component(n)) % p,
        nq, pq)


# -- basic operations ---------------------------------------------------


def homology_data(X: Complex, n: int):
    """(H_n, cycle inclusion into X_n, projection from cycles)."""
    d_n = X.diff_map(n)
    Z, incl = modules.kernel(d_n)
    p = X.algebra.p
    u = linalg.solve_matrix(incl.matrix, X.diff(n + 1), p)
    if u is None:
        raise ValidationError("boundaries do not land in cycles")
    bmap = ModuleMap(X.term(n + 1), Z, u)
    H, proj = modules.cokernel(bmap)
    return H, incl, proj


def homology(X: Complex, n: int) -> Module:
    return homology_data(X, n)[0]


def is_exact(X: Complex) -> bool:
    """H_n = 0 on the window widened by one tail period and one degree.

    H_n = 0 iff rank d_n + rank d_{n+1} = dim X_n, given d_n d_{n+1} = 0,
    which is checked first (stacked) as homology_data checks it.
    """
    a = X.lo - max(X.neg_period, 1) - 1
    b = X.hi + max(X.pos_period, 1) + 1
    p = X.algebra.p
    diffs = [X.diff(n) for n in range(a, b + 2)]
    bad = _first_failure(list(zip(range(a, b + 1), diffs, diffs[1:])), _composite(p))
    if bad is not None:
        raise ValidationError(f"boundaries do not land in cycles at degree {bad}")
    rank = {}  # per distinct differential object; diffs keeps each alive
    for d in diffs:
        if id(d) not in rank:
            rank[id(d)] = linalg.rank(d, p)
    return all(rank[id(d0)] + rank[id(d1)] == X.term(n).dim
               for n, d0, d1 in zip(range(a, b + 1), diffs, diffs[1:]))


def reindex(X: Complex, k: int) -> Complex:
    """Degree shift X[k] with d^{X[k]} = (-1)^k d^X."""
    if k == 0:
        return X
    sign = 1 if k % 2 == 0 else -1
    return complex_from_callable(
        X.algebra, X.lo + k, X.hi + k,
        lambda n: X.term(n - k),
        lambda n: (sign * X.diff(n - k)) % X.algebra.p,
        X.neg_period, X.pos_period)


def reindex_chain_map(f: ChainMap, k: int) -> ChainMap:
    S, T = reindex(f.source, k), reindex(f.target, k)
    return chain_map_from_callable(
        S, T, f.clo + k, f.chi + k,
        lambda n: f.component(n - k),
        f.neg_period, f.pos_period)


def direct_sum_complex(X: Complex, Y: Complex):
    """(X + Y, inclusion of X, inclusion of Y, projections)."""
    p = X.algebra.p
    lo, hi, nq, pq = _map_profile(X, Y)
    cache = {}

    def parts(n):
        if n not in cache:
            cache[n] = modules.direct_sum([X.term(n), Y.term(n)])
        return cache[n]

    def diff_fn(n):
        dX, dY = X.diff(n), Y.diff(n)
        top = np.hstack([dX, linalg.zeros(dX.shape[0], dY.shape[1])])
        bot = np.hstack([linalg.zeros(dY.shape[0], dX.shape[1]), dY])
        return np.vstack([top, bot]) % p

    S = complex_from_callable(X.algebra, lo, hi, lambda n: parts(n)[0], diff_fn, nq, pq)
    iX = chain_map_from_callable(X, S, lo, hi, lambda n: parts(n)[1][0].matrix, nq, pq)
    iY = chain_map_from_callable(Y, S, lo, hi, lambda n: parts(n)[1][1].matrix, nq, pq)
    pX = chain_map_from_callable(S, X, lo, hi, lambda n: parts(n)[2][0].matrix, nq, pq)
    pY = chain_map_from_callable(S, Y, lo, hi, lambda n: parts(n)[2][1].matrix, nq, pq)
    return S, iX, iY, pX, pY


def cone(f: ChainMap) -> Complex:
    """Mapping cone; C_n = X_{n-1} + Y_n, d = [[-dX, 0], [f, dY]]."""
    X, Y = f.source, f.target
    p = X.algebra.p
    lo = min(X.lo + 1, Y.lo, f.clo + 1)
    hi = max(X.hi + 1, Y.hi, f.chi + 1)
    nq = _lcm([X.neg_period, Y.neg_period, f.neg_period])
    pq = _lcm([X.pos_period, Y.pos_period, f.pos_period])
    cache = {}

    def term_fn(n):
        if n not in cache:
            cache[n] = modules.direct_sum([X.term(n - 1), Y.term(n)])[0]
        return cache[n]

    def diff_fn(n):
        dX = X.diff(n - 1)
        dY = Y.diff(n)
        fn = f.component(n - 1)
        top = np.hstack([(-dX) % p, linalg.zeros(dX.shape[0], dY.shape[1])])
        bot = np.hstack([fn, dY])
        return np.vstack([top, bot]) % p

    return complex_from_callable(X.algebra, lo, hi, term_fn, diff_fn,
                                 nq if nq > 0 else 0, pq if pq > 0 else 0)


def is_quasi_isomorphism(f: ChainMap) -> bool:
    return is_exact(cone(f))


def hard_truncate_above(X: Complex, n: int) -> Complex:
    """Keep degrees > n; positive tail survives."""
    if X.pos_tail is None and X.hi <= n:
        return zero_complex(X.algebra)
    hi = max(X.hi, n + 1)
    # degrees <= n are never sampled: the window starts at n+1 and there
    # is no negative tail, so the seam differential is implicitly zero
    return complex_from_callable(X.algebra, n + 1, hi, X.term, X.diff,
                                 0, X.pos_period)


def hard_truncate_below(X: Complex, n: int) -> Complex:
    """Keep degrees <= n; negative tail survives."""
    if X.neg_tail is None and X.lo > n:
        return zero_complex(X.algebra)
    lo = min(X.lo, n)
    return complex_from_callable(X.algebra, lo, n, X.term, X.diff,
                                 X.neg_period, 0)


@dataclass
class SplitTruncation:
    upper: Complex
    lower: Complex
    inclusion: ChainMap  # upper -> X
    projection: ChainMap  # X -> lower


def two_sided_split(X: Complex, n: int) -> SplitTruncation:
    """Split X at degree n through the image factorization of d_n.

    Returns the short exact sequence 0 -> upper -> X -> lower -> 0 with
    Ker(d_n) placed at degree n of upper and Im(d_n) at degree n of lower.
    """
    p = X.algebra.p
    d_n = X.diff_map(n)
    W, iota = modules.image(d_n)
    pi = linalg.solve_matrix(iota.matrix, d_n.matrix, p)
    K, kincl = modules.kernel(d_n)
    zero = modules.zero_module(X.algebra)

    corestr = linalg.solve_matrix(kincl.matrix, X.diff(n + 1), p)
    if pi is None or corestr is None:
        raise UnsupportedShape("image factorization failed to produce complex maps")

    hi_u = max(X.hi, n + 1)
    upper = complex_from_callable(
        X.algebra, n, hi_u,
        lambda m: K if m == n else (X.term(m) if m > n else zero),
        lambda m: corestr if m == n + 1 else X.diff(m),
        0, X.pos_period)
    lo_l = min(X.lo, n - 1)
    lower = complex_from_callable(
        X.algebra, lo_l, n,
        lambda m: W if m == n else (X.term(m) if m < n else zero),
        lambda m: iota.matrix if m == n else X.diff(m),
        X.neg_period, 0)
    incl = chain_map_from_callable(
        upper, X, n, hi_u,
        lambda m: kincl.matrix if m == n else (
            linalg.eye(X.term(m).dim) if m > n else linalg.zeros(X.term(m).dim, 0)),
        0, X.pos_period)
    proj = chain_map_from_callable(
        X, lower, lo_l, n,
        lambda m: pi if m == n else (
            linalg.eye(X.term(m).dim) if m < n else linalg.zeros(0, X.term(m).dim)),
        X.neg_period, 0)
    # exactness of 0 -> upper -> X -> lower -> 0, degreewise
    a, b = X.check_range()
    for m in range(a, b + 1):
        im = incl.component(m)
        pm = proj.component(m)
        if linalg.rank(im, p) != upper.term(m).dim:
            raise ValidationError("split inclusion not mono")
        if linalg.rank(pm, p) != lower.term(m).dim:
            raise ValidationError("split projection not epi")
        if ((pm @ im) % p).any():
            raise ValidationError("split composite nonzero")
        if upper.term(m).dim + lower.term(m).dim != X.term(m).dim:
            raise ValidationError("split ranks do not add up")
    return SplitTruncation(upper, lower, incl, proj)


def kernel_complex(f: ChainMap):
    """(K, inclusion K -> source) computed degreewise."""
    p = f.source.algebra.p
    lo, hi, nq, pq = _map_profile(f, f.source, f.target)
    cache = {}

    def data(n):
        if n not in cache:
            fm = ModuleMap(f.source.term(n), f.target.term(n), f.component(n))
            cache[n] = modules.kernel(fm)
        return cache[n]

    def diff_fn(n):
        d = linalg.solve_matrix(
            data(n - 1)[1].matrix, (f.source.diff(n) @ data(n)[1].matrix) % p, p)
        if d is None:
            raise ValidationError("differential does not restrict to the kernel")
        return d

    K = complex_from_callable(f.source.algebra, lo, hi,
                              lambda n: data(n)[0], diff_fn, nq, pq)
    incl = chain_map_from_callable(K, f.source, lo, hi,
                                   lambda n: data(n)[1].matrix, nq, pq)
    return K, incl


def cokernel_complex(f: ChainMap):
    """(C, projection target -> C) computed degreewise."""
    p = f.source.algebra.p
    lo, hi, nq, pq = _map_profile(f, f.source, f.target)
    cache = {}

    def data(n):
        if n not in cache:
            fm = ModuleMap(f.source.term(n), f.target.term(n), f.component(n))
            cache[n] = modules.cokernel(fm)
        return cache[n]

    def diff_fn(n):
        rhs = (data(n - 1)[1].matrix @ f.target.diff(n)) % p
        dT = linalg.solve_matrix(data(n)[1].matrix.T, rhs.T, p)
        if dT is None:
            raise ValidationError("differential does not descend to the cokernel")
        return dT.T % p

    C = complex_from_callable(f.source.algebra, lo, hi,
                              lambda n: data(n)[0], diff_fn, nq, pq)
    proj = chain_map_from_callable(f.target, C, lo, hi,
                                   lambda n: data(n)[1].matrix, nq, pq)
    return C, proj
