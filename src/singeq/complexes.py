"""Z-graded chain complexes with finite windows and periodic tails.

A complex stores modules and differentials on a window lo..hi plus
optional periodic tails on either side; absent tails mean zero modules.
Everything outside the window is reached through the term/diff accessors,
which fold degrees into the periodic blocks.

Each complex and each graded map describes its distinct blocks once, in a
read-only table cached on the object (_Blocks): its data on the window,
the seams and one period of each tail.  The accessors read this table,
and its size depends only on the object.

Checked by construction.  A Complex or ChainMap that passed its check
carries the fact (_checked; never set by the dataclass constructor or
replace).  Complex.build, complex_from_callable, chain_map and
chain_map_from_callable validate what they build, or, given checked=True
by a caller that proves it, mark it without a check.  Constructions pass
checked=True when all their inputs are marked: add_maps and compose of
chain maps on the same complex objects, and the complexes and structure
maps of reindex, dual, direct_sum_complex, cone, kernel_complex,
cokernel_complex and two_sided_split, whose tail periods are the lcm of
their inputs' periods; functors.stalk, whose one term has no
differential, always does.  With an unmarked input they validate,
raising the same errors, and is_exact validates an unmarked complex.  An
explicit validate() always runs the check.

Complex.validate and ChainMap.validate cover every degree of a check
range (_check_range): the hull of the windows of the objects a check
reads, widened by 2q+1 on each side, where q is the lcm of all their tail
periods.  The checks walk only the degrees that carry distinct checks
(_Range.walk).  Below the windows of the objects a check reads, the check
at n equals the check at n + L, L the lcm of their negative tail periods;
above them it equals the check at n - L', L' the lcm of the positive
ones.  So the walk keeps the first L degrees of the range, the windows,
and the first L' degrees after them.

One engine runs the checks (_first_failure), and one walk feeds it the
checks of graded maps g: S_n -> T_{n+k} (_graded_checks): the shapes, g a
module map at every action index, and the equation, f d = d f for chain
maps (ChainMap.validate) and d s + s d = f for null-homotopies
(homotopy.verify_null_homotopy).  Maps that share one source and one
target are walked once, over the union of their check ranges; each
object's own range lies inside it and its periods divide the joint ones,
so the joint walk runs a superset of each object's checks.  At each
walked degree the blocks of the objects are stacked: read from each
object's own table, or from one stacked table of them all whose block at
a degree is already the array (objects x rows x cols), as
solver.chain_map_space_basis has it from its kernel solve.  The degrees
are grouped by the modules (intertwining) or the shapes (d*d = 0, the
equation) they share.  Each group costs one array per operand and one
batched product per side; intertwining tests every action index
(modules.intertwining_residue, as ModuleMap.validate does), and over
several objects multiplies out only the nonzero blocks.  Shapes are
checked first, at every walked degree of every object.  A failing check
is reported at the first degree of its object's own range that carries
it (_Range.first), so an error names the same smallest failing degree,
and for intertwining the same first failing action index, as a check of
that object alone.

add_maps and compose compute their result from the operands' block
tables, one array operation per group of distinct blocks of one shape,
and hand the result the table they computed when it is the one
GradedMap._blocks would build.

dual gives D(X) = Hom_k(X, k) over the opposite algebra, once per complex,
and dual_chain_map D(f).  The injective side derives from the projective
one through them: theta is D . omega . D (functors), and the co side's
stable criterion and stable lifts run on duals (homotopy, equiv).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import linalg, modules
from .algebra import Algebra
from .errors import DimensionMismatch, UnsupportedShape, ValidationError
from .modules import Module, ModuleMap


@dataclass(frozen=True)
class Tail:
    period: int
    terms: tuple  # block 0 is adjacent to the window
    diffs: tuple  # see Complex._blocks for the indexing convention

    def __post_init__(self):
        if self.period != len(self.terms) or self.period != len(self.diffs):
            raise ValidationError("tail period does not match block count")


def _lcm(values) -> int:
    return math.lcm(*[v for v in values if v])


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


def _check_range(*objects) -> tuple:
    """The degrees a check of complexes / graded maps read together
    covers: the hull of their windows widened by 2q + 1 on each side, q
    the lcm of all their tail periods."""
    lo, hi, nq, pq = _map_profile(*objects)
    q = math.lcm(nq, pq)
    return lo - 2 * q - 1, hi + 2 * q + 1


class _Blocks(NamedTuple):
    """The distinct blocks of a graded object: its data at each degree of
    lo - neg .. hi + pos.  Below lo the data repeats with period neg, and
    above hi with period pos, so these degrees hold every block."""

    lo: int
    hi: int
    neg: int
    pos: int
    data: tuple

    def at(self, n: int):
        lo, hi, neg, pos, data = self
        if n < lo:
            n = lo - 1 - (lo - 1 - n) % neg
        elif n > hi:
            n = hi + 1 + (n - hi - 1) % pos
        return data[n - lo + neg]

    def on(self, degrees) -> list:
        """[self.at(n) for n in degrees], with the fold inlined."""
        lo, hi, neg, pos, data = self
        base = neg - lo
        return [data[n + base] if lo <= n <= hi
                else data[lo - 1 - (lo - 1 - n) % neg + base] if n < lo
                else data[hi + 1 + (n - hi - 1) % pos + base] for n in degrees]


class _Range(NamedTuple):
    """An object's checks from degree a on, when the check at n reads its
    tables at n - 1, n or n + 1: below lo they repeat with period neg,
    above hi with period pos (the windows of the tables widened by one)."""

    a: int
    lo: int
    hi: int
    neg: int
    pos: int

    @staticmethod
    def of(a: int, *tables) -> "_Range":
        return _Range(a, min([t.lo for t in tables]) - 1,
                      max([t.hi for t in tables]) + 1,
                      math.lcm(*[t.neg for t in tables]),
                      math.lcm(*[t.pos for t in tables]))

    @staticmethod
    def union(ranges) -> "_Range":
        """The checks of several objects walked together, from the first a."""
        return _Range(min([r.a for r in ranges]), min([r.lo for r in ranges]),
                      max([r.hi for r in ranges]), math.lcm(*[r.neg for r in ranges]),
                      math.lcm(*[r.pos for r in ranges]))

    def first(self, n: int) -> int:
        """The first degree from a on whose check equals the one at n."""
        if n < self.lo:
            return self.a + (n - self.a) % self.neg
        if n > self.hi:
            return self.hi + 1 + (n - self.hi - 1) % self.pos
        return n

    def walk(self, b: int) -> list:
        """The degrees of a..b that carry every distinct check: the first
        period of each side and the window lo..hi.  Each is the first of
        its repeats in a..b."""
        a, lo, hi, neg, pos = self
        right = max(a, hi + 1)
        return [*range(a, min(a + neg, lo, b + 1)),
                *range(max(a, lo), min(b, hi) + 1),
                *range(right, min(b + 1, right + pos))]


def _first_failure(ranges, ns, keys, check, *columns):
    """Smallest (degree, detail) over the checks that fail, or None.

    Each object, given by its check range in ranges, has one check at
    each walked degree of ns.  A column holds one operand per walked
    degree: a matrix shared by the objects, a tuple of one matrix per
    object (_per_degree), or the block of one stacked table, the objects'
    matrices as one array (objects, rows, cols).  The walked degrees are
    grouped by keys (the modules or shapes their operands share), and
    check(key, *stacks) runs once per group on each column stacked, (g, 1,
    rows, cols) when shared and (g, objects, rows, cols) otherwise.  It
    returns an array (g, objects, details, ...) that is nonzero exactly
    where a check fails: its residue mod p, whose details are rows, or for
    intertwining one per action index.  A failing check is reported at
    the first degree of its object's range that carries it, with its
    first failing detail.  A group whose first operand has no rows or
    whose last has no columns holds.
    """
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    failures = []
    for key, idx in groups.items():
        first, last = columns[0][idx[0]], columns[-1][idx[0]]
        if isinstance(first, tuple):
            first = first[0]
        if isinstance(last, tuple):
            last = last[0]
        if not (first.shape[-2] and last.shape[-1]):
            continue
        stacks = [np.array([c[i] for i in idx]) for c in columns]
        bad = check(key, *[s if s.ndim == 4 else s[:, None] for s in stacks])
        failures += [(ranges[j].first(ns[idx[i]]), int(d))
                     for i, j, d, *_ in zip(*bad.nonzero())]
    return min(failures, default=None)


def _per_degree(columns: list) -> list:
    """One column for _first_failure from one column per object: per
    walked degree, the tuple of the objects' blocks, or for a single
    object its blocks themselves."""
    return columns[0] if len(columns) == 1 else list(zip(*columns))


def _wrong_shape(ranges, ns, columns, shapes):
    """Smallest reported degree (see _first_failure) at which a block of
    an object's column (one block per walked degree) does not have the
    shape given for its degree in shapes, or None."""
    return min([r.first(n) for r, col in zip(ranges, columns)
                if [m.shape for m in col] != shapes
                for n, m, shape in zip(ns, col, shapes) if m.shape != shape], default=None)


def _intertwining(key, F):
    """Check for _first_failure that the stacked matrices F are module
    maps between the modules key = (source, target), at every action
    index.  Over several objects, whose blocks are often zero, only the
    nonzero matrices are multiplied out: a zero matrix is a module map."""
    g, k = F.shape[:2]
    if k == 1:
        return modules.intertwining_residue(*key, F)
    live = F.any(axis=(2, 3))
    bad = np.zeros((g, k, key[0].algebra.dim), dtype=bool)
    bad[live] = modules.intertwining_residue(*key, F[live]).any(axis=(2, 3))
    return bad


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
    # whether the complex is known to pass validate: set on the object by
    # validate or by a constructor given checked=True, never by
    # Complex(...) or replace
    _checked = False

    @staticmethod
    def build(algebra, lo, hi, terms, diffs, neg_tail=None, pos_tail=None,
              neg_seam=None, pos_seam=None, checked=False) -> "Complex":
        """The complex, validated, or marked when the caller proves it (checked)."""
        if neg_tail is not None and all(t.dim == 0 for t in neg_tail.terms):
            neg_tail, neg_seam = None, None
        if pos_tail is not None and all(t.dim == 0 for t in pos_tail.terms):
            pos_tail, pos_seam = None, None
        return _settled(Complex(algebra, lo, hi, dict(terms), dict(diffs),
                                neg_tail, pos_tail, neg_seam, pos_seam), checked)

    # -- accessors -----------------------------------------------------

    @cached_property
    def _blocks(self) -> _Blocks:
        """(term, differential) at lo - q .. hi + 1 + q', one period past
        each seam; q, q' are the tail periods, 1 where a tail is absent.

        Block i of the negative tail sits at degree lo - 1 - i with
        d = diffs[i]; block i of the positive tail sits at hi + 1 + i with
        d = diffs[i], except that d_{hi+1} is the positive seam."""
        A, lo, hi = self.algebra, self.lo, self.hi
        zero = modules.zero_module(A)
        neg, pos = self.neg_tail, self.pos_tail
        terms = [*(neg.terms[::-1] if neg else [zero]),
                 *(self.terms[n] for n in range(lo, hi + 1)),
                 *(pos.terms + pos.terms[:1] if pos else [zero, zero])]
        diffs = [*(neg.diffs[::-1] if neg else [None]),
                 self.neg_seam if neg else None,
                 *(self.diffs[n] for n in range(lo + 1, hi + 1)),
                 self.pos_seam if pos else None,
                 *(pos.diffs[1:] + pos.diffs[:1] if pos else [None])]
        q = neg.period if neg else 1
        # the term below the first degree is the one a period above it
        prev = [terms[q - 1], *terms[:-1]]
        return _Blocks(lo, hi + 1, q, pos.period if pos else 1, tuple(
            (t, modules.zero_block(A, s.dim, t.dim) if d is None else d)
            for s, t, d in zip(prev, terms, diffs)))

    @cached_property
    def _membership(self) -> dict:
        """Verdicts decided once per complex: "exact" (is_exact), and
        "proj" / "inj" (homotopy.is_exP / is_exI), which share it."""
        return {}

    @cached_property
    def _equivalences(self) -> dict:
        """homotopy.homotopy_equivalence_certificate of the maps out of this
        complex: (target, verdict, payload of a YES certificate without its
        map) under the target's id, the map's window, periods and blocks,
        and the Options."""
        return {}

    @cached_property
    def _bases(self) -> weakref.WeakKeyDictionary:
        """solver.chain_map_space_basis out of this complex: {target, held
        weakly so its entry goes with it: {Options: the system without
        rows, with read-only kernel coefficients}}; a hit is not checked
        again, as no caller data enters it."""
        return weakref.WeakKeyDictionary()

    @cached_property
    def _dual(self) -> "Complex":
        """dual(self), whose own dual is self; one dual per distinct term."""
        duals = {id(t): modules.dual_module(t) for t, _ in self._blocks.data}
        D = complex_from_callable(
            modules._opposite_of(self.algebra), -self.hi, -self.lo,
            lambda n: duals[id(self.term(-n))], lambda n: self.diff(1 - n).T,
            self.pos_period, self.neg_period, checked=self._checked)
        object.__setattr__(D, "_dual", self)
        return D

    def term(self, n: int) -> Module:
        return self._blocks.at(n)[0]

    def diff(self, n: int) -> np.ndarray:
        """Matrix of d_n: X_n -> X_{n-1}."""
        return self._blocks.at(n)[1]

    def diff_map(self, n: int) -> ModuleMap:
        return ModuleMap(self.term(n), self.term(n - 1), self.diff(n))

    # -- structure -----------------------------------------------------

    @property
    def neg_period(self) -> int:
        return self.neg_tail.period if self.neg_tail else 0

    @property
    def pos_period(self) -> int:
        return self.pos_tail.period if self.pos_tail else 0

    def bounded(self) -> bool:
        return self.neg_tail is None and self.pos_tail is None

    def check_range(self) -> tuple:
        return _check_range(self)

    def validate(self) -> None:
        for n in range(self.lo, self.hi + 1):
            if n not in self.terms:
                raise ValidationError(f"missing term at degree {n}")
        a, b = self.check_range()
        B = self._blocks
        r = _Range.of(a, B)
        ns = r.walk(b)
        prev, cur = B.on([n - 1 for n in ns]), B.on(ns)
        for n, (tgt, _), (src, d) in zip(ns, prev, cur):
            if d.shape != (tgt.dim, src.dim):
                raise ValidationError(f"differential at degree {n} has wrong shape")
        d0, d1 = [d for _, d in prev], [d for _, d in cur]
        bad = _first_failure([r], ns, [(s, t) for (t, _), (s, _) in zip(prev, cur)],
                             _intertwining, d1)
        if bad is not None:
            raise ValidationError(
                f"differential at degree {bad[0]} does not intertwine action {bad[1]}")
        p = self.algebra.p
        bad = _first_failure([r._replace(a=a + 1)], ns,
                             [(x.shape, y.shape) for x, y in zip(d0, d1)],
                             lambda _, d0, d1: (d0 @ d1) % p, d0, d1)
        if bad is not None:
            raise ValidationError(f"d*d != 0 at degree {bad[0]}")
        _proven(self)


def zero_complex(algebra: Algebra) -> Complex:
    return Complex.build(algebra, 0, 0, {0: modules.zero_module(algebra)}, {})


def complex_from_callable(algebra, lo, hi, term_fn, diff_fn,
                          neg_period=0, pos_period=0, checked=False) -> Complex:
    """Assemble a complex by sampling term/diff functions.

    Outside lo..hi the functions must be periodic with the given periods;
    one extra period is sampled and compared to catch wrong periods, and
    the result is validated.  checked=True means the caller proves the
    result a complex with these periods, so neither runs and the result is
    marked (Complex.build).
    """
    # one reduced copy per distinct sampled object, so repeats share it
    sample = _once(lambda d: d % algebra.p)
    terms = {n: term_fn(n) for n in range(lo, hi + 1)}
    diffs = {n: sample(diff_fn(n)) for n in range(lo + 1, hi + 1)}
    neg_tail = pos_tail = None
    neg_seam = pos_seam = None
    if neg_period:
        q = neg_period
        blocks = tuple(term_fn(lo - 1 - i) for i in range(q))
        bdiffs = tuple(sample(diff_fn(lo - 1 - i)) for i in range(q))
        for i in range(0 if checked else q + 1):
            n = lo - 1 - i - q
            if term_fn(n).dim != term_fn(n + q).dim or not np.array_equal(
                diff_fn(n) % algebra.p, diff_fn(n + q) % algebra.p
            ):
                raise ValidationError(f"negative tail not {q}-periodic at {n}")
        neg_tail = Tail(q, blocks, bdiffs)
        neg_seam = sample(diff_fn(lo))
    if pos_period:
        q = pos_period
        blocks = tuple(term_fn(hi + 1 + i) for i in range(q))
        bdiffs = tuple(sample(diff_fn(hi + 1 + i if i else hi + 1 + q)) for i in range(q))
        for i in range(0 if checked else q + 1):
            n = hi + 1 + i + q
            if term_fn(n).dim != term_fn(n - q).dim or not np.array_equal(
                diff_fn(n + 1) % algebra.p, diff_fn(n + 1 - q) % algebra.p
            ):
                raise ValidationError(f"positive tail not {q}-periodic at {n}")
        pos_tail = Tail(q, blocks, bdiffs)
        pos_seam = sample(diff_fn(hi + 1))
    return Complex.build(algebra, lo, hi, terms, diffs,
                         neg_tail, pos_tail, neg_seam, pos_seam, checked=checked)


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

    @cached_property
    def _blocks(self) -> _Blocks:
        """Component at lo - q .. hi + q' over the hull lo..hi of the map's
        window and its complexes' windows.  q is the map's own negative tail
        period, or where it has none the lcm of its complexes' ones, with
        which its zero blocks repeat; likewise q' on the positive side."""
        S, T, k = self.source, self.target, self.shift
        clo, chi, neg, pos = self.clo, self.chi, self.neg, self.pos
        lo, hi = min(clo, S.lo, T.lo - k), max(chi, S.hi, T.hi - k)
        q = neg[0] if neg else _lcm([S.neg_period, T.neg_period])
        qp = pos[0] if pos else _lcm([S.pos_period, T.pos_period])
        get = self.components.get
        data = [neg[1][(clo - 1 - n) % q] if n < clo and neg
                else pos[1][(n - chi - 1) % qp] if n > chi and pos
                else get(n) if clo <= n <= chi else None
                for n in range(lo - q, hi + qp + 1)]
        for i, m in enumerate(data):
            if m is None:
                n = lo - q + i
                data[i] = modules.zero_block(S.algebra, T.term(n + k).dim, S.term(n).dim)
        return _Blocks(lo, hi, q, qp, tuple(data))

    def component(self, n: int) -> np.ndarray:
        return self._blocks.at(n)

    @property
    def neg_period(self) -> int:
        return self.neg[0] if self.neg else 0

    @property
    def pos_period(self) -> int:
        return self.pos[0] if self.pos else 0

    def check_range(self) -> tuple:
        return _check_range(self, self.source, self.target)


class ChainMap(GradedMap):
    # whether the map is known to be a chain map at every degree: set on the
    # object by validate or by a constructor given checked=True, never by
    # ChainMap(...) or replace
    _checked = False

    def validate(self, *others: "ChainMap", table: _Blocks | None = None) -> None:
        """Check this map and any others, each over its own check range.

        Maps that share a source and a target are walked once and their
        checks stacked, so a whole basis of chain maps costs one batched
        product per group and side.  Errors come in the order shape,
        intertwining, commutation, each at its smallest failing degree.

        table, for maps that share one source and one target, is one
        stacked table of them all: a _Blocks whose block at each degree n
        is the array (maps x rows x cols) of their components f_n.  Its
        window and periods need not be any map's, but its blocks must be
        theirs at every degree.  The checks then read it in place of the
        maps' own tables, and raise the same errors.

        Every map that passes is marked as checked.  Without a check, so
        are identity_chain_map, zero_chain_map, add_maps(f, g) of checked
        maps with the same source and target objects, compose(f, g) of
        checked maps with g.target is f.source (chain maps are closed under
        sums and composites), dual_chain_map of a checked map, and the
        structure maps of the constructions on checked inputs that the
        module docstring lists.  An explicit call always runs the check.
        """
        A = self.source.algebra
        groups = {}
        maps = (self, *others)
        for f in maps:
            if f.source.algebra is not A or f.target.algebra is not A:
                raise DimensionMismatch("chain map across different algebras")
            groups.setdefault((f.source, f.target), []).append(f)
        if table is not None and len(groups) > 1:
            raise ValueError("a stacked table needs maps with one source and one target")
        shapes, twists, equations = zip(*[_graded_checks(S, T, 0, fs, table=table)
                                          for (S, T), fs in groups.items()])
        bad = min([n for n in shapes if n is not None], default=None)
        if bad is not None:
            raise ValidationError(f"component at degree {bad} has wrong shape")
        bad = min(filter(None, [_first_failure(*c) for c in twists]), default=None)
        if bad is not None:
            raise ValidationError(
                f"component at degree {bad[0]} does not intertwine action {bad[1]}")
        bad = min(filter(None, [_first_failure(*c) for c in equations]), default=None)
        if bad is not None:
            raise ValidationError(f"does not commute with d at degree {bad[0]}")
        for f in maps:
            _proven(f)

    def _full_rank(self, side: int) -> bool:
        """rank f_n equals the dimension of the source (side 0) or target
        (side 1) term at every degree of the check range; one rank per
        distinct component."""
        p = self.source.algebra.p
        terms = (self.source._blocks, self.target._blocks)[side]
        a, b = self.check_range()
        ns = _Range.of(a, self._blocks, self.source._blocks, self.target._blocks).walk(b)
        ranks = {}
        for m, (t, _) in zip(self._blocks.on(ns), terms.on(ns)):
            if id(m) not in ranks:
                ranks[id(m)] = linalg.rank(m, p)
            if ranks[id(m)] != t.dim:
                return False
        return True

    def is_mono(self) -> bool:
        return self._full_rank(0)

    def is_epi(self) -> bool:
        return self._full_rank(1)

    def is_zero(self) -> bool:
        # the table holds every distinct component of the check range
        return not any(m.any() for m in self._blocks.data)

    @cached_property
    def _kernel(self) -> tuple:
        return _kernel_complex(self)

    @cached_property
    def _cokernel(self) -> tuple:
        return _cokernel_complex(self)


class Homotopy(GradedMap):
    """Degree +1 maps s_n: X_n -> Y_{n+1}; meaning fixed by its consumer."""

    def __init__(self, source, target, components, clo, chi, neg=None, pos=None):
        super().__init__(source, target, components, clo, chi, neg, pos, shift=1)


def _proven(x):
    """x, a Complex or ChainMap, marked as passing its validate."""
    object.__setattr__(x, "_checked", True)
    return x


def _settled(x, checked: bool):
    """x, marked when its constructor's caller proves it (checked), else validated."""
    if checked:
        return _proven(x)
    x.validate()
    return x


def _graded_checks(S: Complex, T: Complex, k: int, maps: list, rhs: list | None = None,
                   table: _Blocks | None = None) -> tuple:
    """The checks of graded maps g: S_n -> T_{n+k}, walked once over the
    union of their check ranges: (smallest reported degree of a block of
    the wrong shape, or None; _first_failure arguments of the check that
    each g is a module map; _first_failure arguments of the equation).

    The equation is f d = d f for chain maps (k = 0, rhs None) and
    d s + s d = f for homotopies (k = 1, rhs the map f of each), whose
    check range is that of the pair.  It reads g at n - 1 and n, reported
    from a + 1 for chain maps and from a for homotopies, whose walk starts
    at a - 1.  The components are read from each map's own table, or from
    table, one stacked table of them all (ChainMap.validate)."""
    Sb, Tb = S._blocks, T._blocks
    objects = [(g,) for g in maps] if rhs is None else list(zip(maps, rhs))
    spans = [_check_range(S, T, *o) for o in objects]
    ranges = [_Range.of(a, Sb, Tb, *[x._blocks for x in o]) for (a, _), o in zip(spans, objects)]
    union = _Range.union(ranges)
    ns = union._replace(a=union.a - k).walk(max([b for _, b in spans]))
    prev = [n - 1 for n in ns]
    S1, T1 = Sb.on(ns), Tb.on([n + k for n in ns])
    shapes = [(t.dim, s.dim) for (s, _), (t, _) in zip(S1, T1)]
    if table is None:
        G1 = [g._blocks.on(ns) for g in maps]
        bad = [_wrong_shape(ranges, ns, G1, shapes)]
        G0, G1 = _per_degree([g._blocks.on(prev) for g in maps]), _per_degree(G1)
    else:
        G0, G1 = table.on(prev), table.on(ns)
        # every map reads the same shape from the table
        bad = [_wrong_shape(ranges, ns, [[m[0] for m in G1]] * len(maps), shapes)]
    dS, dT = [d for _, d in S1], [d for _, d in T1]
    p = S.algebra.p
    if rhs is None:
        equation = (lambda _, f0, dS, dT, f1: (f0 @ dS - dT @ f1) % p, G0, dS, dT, G1)
    else:
        F = [f._blocks.on(ns) for f in rhs]
        bad.append(_wrong_shape(ranges, ns, F, [(t.dim, s.dim) for (s, _), (t, _)
                                                in zip(S1, Tb.on(ns))]))
        equation = (lambda _, dT, s1, s0, dS, f: (dT @ s1 + s0 @ dS) % p - f,
                    dT, G1, G0, dS, _per_degree(F))
    return (min([n for n in bad if n is not None], default=None),
            (ranges, ns, [(s, t) for (s, _), (t, _) in zip(S1, T1)], _intertwining, G1),
            ([r._replace(a=r.a + 1 - k) for r in ranges], ns,
             [(x.shape, y.shape) for x, y in zip(dS, dT)], *equation))


def chain_map(source, target, components, clo=None, chi=None,
              neg=None, pos=None, checked=False) -> ChainMap:
    """The chain map, validated, or marked when the caller proves it (checked)."""
    reduce = _once(lambda m: np.asarray(m, dtype=np.int64) % source.algebra.p)
    components = {n: reduce(m) for n, m in components.items()}
    if clo is None:
        degs = sorted(components) or [0]
        clo, chi = degs[0], degs[-1]
    return _settled(ChainMap(source, target, components, clo, chi, neg, pos), checked)


def _tail(period: int, blocks: tuple):
    """A graded map's tail (period, blocks), or None when every block is
    zero: then the map is zero on that side."""
    return (period, blocks) if any(b.any() for b in blocks) else None


def _sample(clo: int, chi: int, comp_fn, neg_period: int, pos_period: int,
            p: int) -> tuple:
    """GradedMap arguments (components, clo, chi, neg, pos) sampled from
    comp_fn mod p on the window clo..chi and one period of each tail."""
    return ({n: comp_fn(n) % p for n in range(clo, chi + 1)}, clo, chi,
            _tail(neg_period, tuple(comp_fn(clo - 1 - i) % p for i in range(neg_period))),
            _tail(pos_period, tuple(comp_fn(chi + 1 + i) % p for i in range(pos_period))))


def chain_map_from_callable(source, target, clo, chi, comp_fn,
                            neg_period=0, pos_period=0, checked=False) -> ChainMap:
    return chain_map(source, target,
                     *_sample(clo, chi, comp_fn, neg_period, pos_period, source.algebra.p),
                     checked=checked)


def identity_chain_map(X: Complex) -> ChainMap:
    eye = _once(lambda t: linalg.eye(t.dim))  # one per distinct term
    comps = {n: eye(X.term(n)) for n in range(X.lo, X.hi + 1)}
    neg = pos = None
    if X.neg_tail:
        neg = (X.neg_period, tuple(eye(t) for t in X.neg_tail.terms))
    if X.pos_tail:
        pos = (X.pos_period, tuple(eye(t) for t in X.pos_tail.terms))
    return chain_map(X, X, comps, X.lo, X.hi, neg, pos, checked=True)


def zero_chain_map(X: Complex, Y: Complex) -> ChainMap:
    if X.algebra is not Y.algebra:
        raise DimensionMismatch("chain map across different algebras")
    return chain_map(X, Y, {}, 0, 0, checked=True)


def _joint_blocks(X: Complex, Y: Complex):
    """The pairs of X's and Y's (term, differential) blocks at each degree
    of one walk that meets every distinct pair: below both tables each
    repeats with the lcm of their negative periods, and above them with
    that of their positive ones, so the walk is the hull of the tables
    widened by these lcms.  Their windows and periods may differ."""
    XB, YB = X._blocks, Y._blocks
    neg, pos = math.lcm(XB.neg, YB.neg), math.lcm(XB.pos, YB.pos)
    ns = range(min(XB.lo, YB.lo) - neg, max(XB.hi, YB.hi) + pos + 1)
    return zip(XB.on(ns), YB.on(ns))


def _same_terms(X: Complex, Y: Complex) -> bool:
    """Whether the terms of X and Y have equal dimensions in every degree."""
    return X is Y or all(s.dim == t.dim for (s, _), (t, _) in _joint_blocks(X, Y))


def same_complex(X: Complex, Y: Complex) -> bool:
    """Whether X and Y are one complex: over one algebra, with equal term
    modules (dimension and action) and equal differentials in every
    degree, whatever their windows and declared tail periods."""
    if X is Y:
        return True
    return X.algebra is Y.algebra and all(
        (s is t or s.dim == t.dim and np.array_equal(s.stacked_action, t.stacked_action))
        and np.array_equal(d, e) for (s, d), (t, e) in _joint_blocks(X, Y))


def _from_tables(S, T, profile, op, f, g, checked=False) -> ChainMap:
    """The chain map S -> T whose component at n is op(f_n, g_n), on the
    window lo..hi and one period nq, pq of each tail (profile), as
    chain_map_from_callable samples them.

    The components are read from the tables of f and g.  op runs on the
    distinct pairs of blocks among them, stacked per pair of shapes: one
    array operation per group, where op gets one (k, rows, cols) stack
    per operand.  The result is validated, or with checked=True, which a
    caller passes when the operands prove it a chain map, marked as one
    (ChainMap.validate).

    The result gets the table computed here, with the shared zero blocks
    on a zero tail, as GradedMap._blocks would build it.  A zero tail
    whose period is not the lcm of S's and T's on its side has another
    table there, which the property builds.
    """
    lo, hi, nq, pq = profile
    ns = range(lo - nq, hi + pq + 1)
    fs, gs = f._blocks.on(ns), g._blocks.on(ns)
    keys = list(zip(map(id, fs), map(id, gs)))
    pairs = dict(zip(keys, zip(fs, gs)))
    groups = {}
    for key, (a, b) in pairs.items():
        groups.setdefault((a.shape, b.shape), []).append(key)
    out, nonzero = {}, {}
    for group in groups.values():
        res = op(np.array([pairs[k][0] for k in group]), np.array([pairs[k][1] for k in group]))
        out.update(zip(group, res))
        nonzero.update(zip(group, res.reshape(len(res), -1).any(axis=1).tolist()))
    data = [out[k] for k in keys]
    neg, pos = tuple(data[nq - 1::-1]), tuple(data[len(data) - pq:])
    live_neg = any([nonzero[k] for k in keys[:nq]])
    live_pos = any([nonzero[k] for k in keys[len(keys) - pq:]])
    h = ChainMap(S, T, dict(zip(range(lo, hi + 1), data[nq:len(data) - pq])), lo, hi,
                 (nq, neg) if live_neg else None, (pq, pos) if live_pos else None)
    if ((live_neg or nq == _lcm([S.neg_period, T.neg_period]))
            and (live_pos or pq == _lcm([S.pos_period, T.pos_period]))):
        zero = [*range(0 if live_neg else nq), *range(len(ns) - (0 if live_pos else pq), len(ns))]
        for i in zero:
            data[i] = modules.zero_block(S.algebra, T.term(ns[i]).dim, S.term(ns[i]).dim)
        object.__setattr__(h, "_blocks", _Blocks(lo, hi, nq, pq, tuple(data)))
    return _settled(h, checked)


def compose(f: ChainMap, g: ChainMap) -> ChainMap:
    """f after g; DimensionMismatch unless g's target and f's source have
    terms of equal dimensions.  Checked unless both are and g.target is
    f.source (ChainMap.validate)."""
    if not _same_terms(f.source, g.target):
        raise DimensionMismatch("maps not composable: terms of different dimensions")
    p = f.source.algebra.p
    known = f._checked and g._checked and g.target is f.source
    return _from_tables(g.source, f.target, _map_profile(f, g, g.source, f.target),
                        lambda a, b: (a @ b) % p, f, g, checked=known)


def add_maps(f: ChainMap, g: ChainMap, sign: int = 1) -> ChainMap:
    """f + sign g; DimensionMismatch unless their sources, and their
    targets, have terms of equal dimensions.  Checked unless both are and
    they share their source and target objects (ChainMap.validate)."""
    if not (_same_terms(f.source, g.source) and _same_terms(f.target, g.target)):
        raise DimensionMismatch("summands have terms of different dimensions")
    p = f.source.algebra.p
    known = f._checked and g._checked and g.source is f.source and g.target is f.target
    return _from_tables(f.source, f.target, _map_profile(f, g, f.source, f.target),
                        lambda a, b: (a + sign * b) % p, f, g, checked=known)


# -- basic operations ---------------------------------------------------


def homology(X: Complex, n: int) -> Module:
    """H_n = Ker d_n / Im d_{n+1}."""
    Z, incl = modules.kernel(X.diff_map(n))
    u = linalg.solve_matrix(incl.matrix, X.diff(n + 1), X.algebra.p)
    if u is None:
        raise ValidationError("boundaries do not land in cycles")
    return modules.cokernel(ModuleMap(X.term(n + 1), Z, u))[0]


def is_exact(X: Complex) -> bool:
    """H_n = 0 on the window widened by one tail period and one degree.

    H_n = 0 iff rank d_n + rank d_{n+1} = dim X_n, given d_n d_{n+1} = 0,
    which holds on a complex marked as checked; an unmarked X is validated
    first, and raises as validate does.  The verdict is memoized on X; an
    invalid X raises on every call.
    """
    memo = X._membership
    if "exact" in memo:
        return memo["exact"]
    if not X._checked:
        X.validate()
    p = X.algebra.p
    B = X._blocks
    ns = _Range.of(X.lo - max(X.neg_period, 1) - 1, B).walk(X.hi + max(X.pos_period, 1) + 1)
    rank = {}  # per distinct differential; the table keeps each alive
    for _, d in B.data:
        if id(d) not in rank:
            rank[id(d)] = linalg.rank(d, p)
    memo["exact"] = all(rank[id(d0)] + rank[id(d1)] == t.dim
                        for (t, d0), (_, d1) in zip(B.on(ns), B.on([n + 1 for n in ns])))
    return memo["exact"]


def reindex(X: Complex, k: int) -> Complex:
    """Degree shift X[k] with d^{X[k]} = (-1)^k d^X."""
    if k == 0:
        return X
    sign = 1 if k % 2 == 0 else -1
    return complex_from_callable(
        X.algebra, X.lo + k, X.hi + k,
        lambda n: X.term(n - k),
        lambda n: (sign * X.diff(n - k)) % X.algebra.p,
        X.neg_period, X.pos_period, checked=X._checked)


def dual(X: Complex) -> Complex:
    """D(X) = Hom_k(X, k) over the opposite algebra: D(X)_n = D(X_{-n})
    with d_n = D(d_{1-n}).  Built once per complex, and an involution like
    modules.dual_module: dual(dual(X)) is X."""
    return X._dual


def dual_chain_map(f: ChainMap) -> ChainMap:
    """D(f): D(target) -> D(source) with D(f)_n = D(f_{-n}); a chain map
    exactly when f is one, so checked only when f is not (ChainMap.validate)."""
    return chain_map_from_callable(
        dual(f.target), dual(f.source), -f.chi, -f.clo, lambda n: f.component(-n).T,
        f.pos_period, f.neg_period, checked=f._checked)


def direct_sum_complex(X: Complex, Y: Complex):
    """(X + Y, inclusion of X, inclusion of Y, projections); checked unless
    X and Y are, over one algebra."""
    p = X.algebra.p
    known = X._checked and Y._checked and X.algebra is Y.algebra
    lo, hi, nq, pq = _map_profile(X, Y)
    sums = _once(lambda x, y: modules.direct_sum([x, y]))

    def parts(n):
        return sums(X.term(n), Y.term(n))

    def diff_fn(n):
        dX, dY = X.diff(n), Y.diff(n)
        top = np.hstack([dX, linalg.zeros(dX.shape[0], dY.shape[1])])
        bot = np.hstack([linalg.zeros(dY.shape[0], dX.shape[1]), dY])
        return np.vstack([top, bot]) % p

    S = complex_from_callable(X.algebra, lo, hi, lambda n: parts(n)[0], diff_fn,
                              nq, pq, checked=known)

    def part(source, target, i, j):  # the structure map of parts(n)[i][j]
        return chain_map_from_callable(source, target, lo, hi,
                                       lambda n: parts(n)[i][j].matrix, nq, pq, checked=known)

    return S, part(X, S, 1, 0), part(Y, S, 1, 1), part(S, X, 2, 0), part(S, Y, 2, 1)


def cone(f: ChainMap) -> Complex:
    """Mapping cone; C_n = X_{n-1} + Y_n, d = [[-dX, 0], [f, dY]].
    Checked unless f, X and Y are."""
    X, Y = f.source, f.target
    p = X.algebra.p
    lo = min(X.lo + 1, Y.lo, f.clo + 1)
    hi = max(X.hi + 1, Y.hi, f.chi + 1)
    nq = _lcm([X.neg_period, Y.neg_period, f.neg_period])
    pq = _lcm([X.pos_period, Y.pos_period, f.pos_period])
    term = _once(lambda x, y: modules.direct_sum([x, y])[0])
    diff = _once(lambda dX, dY, fn: np.vstack([
        np.hstack([(-dX) % p, linalg.zeros(dX.shape[0], dY.shape[1])]),
        np.hstack([fn, dY])]) % p)
    return complex_from_callable(X.algebra, lo, hi, lambda n: term(X.term(n - 1), Y.term(n)),
                                 lambda n: diff(X.diff(n - 1), Y.diff(n), f.component(n - 1)),
                                 nq, pq, checked=_inputs_checked(f))


def is_quasi_isomorphism(f: ChainMap) -> bool:
    return is_exact(cone(f))


def two_sided_split(X: Complex, n: int) -> tuple:
    """Split X at degree n through the image factorization of d_n.

    Returns (upper, lower) of the short exact sequence
    0 -> upper -> X -> lower -> 0 with Ker(d_n) placed at degree n of upper
    and Im(d_n) at degree n of lower.  The pieces and the maps of the
    sequence are checked unless X is; its exactness is decided either way.
    """
    p = X.algebra.p
    known = X._checked
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
        0, X.pos_period, checked=known)
    lo_l = min(X.lo, n - 1)
    lower = complex_from_callable(
        X.algebra, lo_l, n,
        lambda m: W if m == n else (X.term(m) if m < n else zero),
        lambda m: iota.matrix if m == n else X.diff(m),
        X.neg_period, 0, checked=known)
    incl = chain_map_from_callable(
        upper, X, n, hi_u,
        lambda m: kincl.matrix if m == n else (
            linalg.eye(X.term(m).dim) if m > n else linalg.zeros(X.term(m).dim, 0)),
        0, X.pos_period, checked=known)
    proj = chain_map_from_callable(
        X, lower, lo_l, n,
        lambda m: pi if m == n else (
            linalg.eye(X.term(m).dim) if m < n else linalg.zeros(0, X.term(m).dim)),
        X.neg_period, 0, checked=known)
    # exactness of 0 -> upper -> X -> lower -> 0: given a mono, an epi and a
    # zero composite, dim upper_m + dim lower_m <= dim X_m at every degree,
    # so one sum of the term dimensions over the check range decides equality
    if not incl.is_mono():
        raise ValidationError("split inclusion not mono")
    if not proj.is_epi():
        raise ValidationError("split projection not epi")
    if not compose(proj, incl).is_zero():
        raise ValidationError("split composite nonzero")
    a, b = X.check_range()
    if sum(upper.term(m).dim + lower.term(m).dim - X.term(m).dim for m in range(a, b + 1)):
        raise ValidationError("split ranks do not add up")
    return upper, lower


def kernel_complex(f: ChainMap):
    """(K, inclusion K -> source), built once per map; checked unless f
    and its source and target are."""
    return f._kernel


def cokernel_complex(f: ChainMap):
    """(C, projection target -> C), built once per map; checked unless f
    and its source and target are."""
    return f._cokernel


def _inputs_checked(f: ChainMap) -> bool:
    """Whether f and its source and target are all checked."""
    return f._checked and f.source._checked and f.target._checked


def _once(compute):
    """compute, run once per distinct tuple of arguments, by identity: the
    block tables share their blocks across the periodic repeats that
    complex_from_callable samples.  The memo holds the arguments, so no
    id it is keyed on is reused while it lives."""
    memo = {}

    def once(*blocks):
        key = tuple(map(id, blocks))
        if key not in memo:
            memo[key] = (blocks, compute(*blocks))
        return memo[key][1]

    return once


def _per_block(f: ChainMap, compute):
    """n -> compute(f_n as a ModuleMap), computed once per distinct
    (source term, target term, component)."""
    data = _once(lambda S, T, m: compute(ModuleMap(S, T, m)))
    return lambda n: data(f.source.term(n), f.target.term(n), f.component(n))


def _kernel_complex(f: ChainMap):
    """(K, inclusion K -> source) computed degreewise."""
    p = f.source.algebra.p
    lo, hi, nq, pq = _map_profile(f, f.source, f.target)
    data = _per_block(f, modules.kernel)

    def diff_fn(n):
        d = linalg.solve_matrix(
            data(n - 1)[1].matrix, (f.source.diff(n) @ data(n)[1].matrix) % p, p)
        if d is None:
            raise ValidationError("differential does not restrict to the kernel")
        return d

    known = _inputs_checked(f)
    K = complex_from_callable(f.source.algebra, lo, hi, lambda n: data(n)[0],
                              diff_fn, nq, pq, checked=known)
    incl = chain_map_from_callable(K, f.source, lo, hi, lambda n: data(n)[1].matrix,
                                   nq, pq, checked=known)
    return K, incl


def _cokernel_complex(f: ChainMap):
    """(C, projection target -> C) computed degreewise."""
    p = f.source.algebra.p
    lo, hi, nq, pq = _map_profile(f, f.source, f.target)
    data = _per_block(f, modules.cokernel)

    def diff_fn(n):
        rhs = (data(n - 1)[1].matrix @ f.target.diff(n)) % p
        dT = linalg.solve_matrix(data(n)[1].matrix.T, rhs.T, p)
        if dT is None:
            raise ValidationError("differential does not descend to the cokernel")
        return dT.T % p

    known = _inputs_checked(f)
    C = complex_from_callable(f.source.algebra, lo, hi, lambda n: data(n)[0],
                              diff_fn, nq, pq, checked=known)
    proj = chain_map_from_callable(f.target, C, lo, hi, lambda n: data(n)[1].matrix,
                                   nq, pq, checked=known)
    return C, proj
