"""Z-graded chain complexes with finite windows and periodic tails.

A complex stores modules and differentials on a window lo..hi plus
optional periodic tails on either side; absent tails mean zero modules.
Everything outside the window is reached through the term/diff accessors,
which fold degrees into the periodic blocks.

Each complex and each graded map describes its blocks once, in a table
(_Blocks): its data on the window, the seams and one period of each
tail.  The accessors read it, and its size depends only on the object.
A complex builds its table on first use (read-only).  A graded map's
blocks are stacked in a family (_Family) whose column j is map j at
every degree; a tail position names the row of the window block it
repeats.  One loop lays out a family degree by degree (_lone), from
(count, rows, cols) stacks: a lone map made from blocks (the
constructor, which _sample calls) keeps them until its column is first
read, which builds its family of one from its blocks as one-row views,
and the solutions of one solve are one family (_from_stacks) built from
the solve's window stacks, a folded tail given as the window stacks it
folds to.  Its arrays concatenate the stacks of one block shape (a
stack alone in its shape is viewed, not copied).  Each sum, composite
and copy of a kept map is one family too (_kept, _copied).
One rule for every map: its table is built on its first read, from its
family column (_table).  The walks of check, sums and is_zero read only
the column (_column) and frame (_frame), and solver's graded systems
read a right-hand side's blocks from its column by slot (_reads, which
_table reads too), so a map nothing reads block by block, such as a
partial sum or a basis map that is only walked or solved against, builds
none.  The table format (_Blocks, _Family, _family, _frame, _table,
_members, _own_periods, _lone) is this module's alone; others use these
producers and _reads, and check, the certificate checker that the
validate methods run, reads tables and family columns.

Checked by construction.  A Complex or ChainMap that passed its check
carries the fact (_checked; never set by the dataclass constructor or
replace).  Complex.build, complex_from_callable, chain_map and
chain_map_from_callable validate what they build, or, given checked=True
by a caller that proves it, mark it without a check.  Constructions pass
checked=True when all their inputs are marked: add_maps and compose of
chain maps on the same complex objects, and the complexes and structure
maps of reindex, dual, direct_sum_complex, cone, kernel_complex,
cokernel_complex and two_sided_split, whose tail periods are the lcm of
their inputs' periods, and functors.unit, counit, apply_F and apply_G on
maps; functors.stalk, whose one term has no differential, and
zero_complex always do.  With an unmarked input they validate, raising
the same errors, and is_exact validates an unmarked complex.  An explicit
validate() always runs the check.

One object per input, so the memos on it serve every later call:
reindex(X, k) per complex and shift and direct_sum_complex(X, Y) per pair,
kept on X (Complex._built) and gone with it, dual(X) per complex and
zero_complex per algebra.  The structure maps of a sum of checked
summands carry their kernels and cokernels, the summands or 0; every
other map computes them once (kernel_complex, cokernel_complex).

add_maps and compose compute their result on the operands' families
(_from_tables).  Operands whose columns sit on one layout of slots that
covers the result, with arrays of one block shape pair by pair, as the
maps of one basis and all their sums do, meet array by array: one
operation per array, and the result's family keeps that slots object,
so a k-term combination of a basis stays on the basis's layout.  A
blockless operand (zero_chain_map) between the same complexes reads as
zero on the other's layout and builds no family.  Other operands are
sampled degree by degree (_sample).  So every family holds one array
per block shape, and a walk reads each group of degrees, whose blocks
share a shape, from one array (check._Read.stack).  A tail of zero blocks
that a producer samples or computes is no tail, decided on the stacked
tails of a whole family at once, one any per array (_own_periods); a
constructor keeps the tails it gets.

dual gives D(X) = Hom_k(X, k) over the opposite algebra, once per complex,
and dual_chain_map D(f).  The injective side derives from the projective
one through them: theta is D . omega . D (functors), and the co side's
stable criterion, stable lifts, orthogonality and fibrant replacements
are the ctr side's, run on duals over A^op (homotopy, equiv, modelcat,
approx).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import check, linalg, modules
from .algebra import Algebra
from .errors import AlgebraMismatch, DimensionMismatch, UnsupportedShape, ValidationError
from .modules import Module, ModuleMap


@dataclass(frozen=True)
class Tail:
    period: int
    terms: tuple  # block 0 is adjacent to the window
    diffs: tuple  # see Complex._blocks for the indexing convention

    def __post_init__(self):
        object.__setattr__(self, "period", _period(self.period, len(self.terms), len(self.diffs)))


def _period(q, *counts: int) -> int:
    """q as an int, the one rule for a tail period (Tail, GradedMap): an
    integer, not a bool, equal to each block count."""
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or any(q != c for c in counts):
        raise ValidationError("tail period does not match block count")
    return int(q)


def _lcm(values) -> int:
    return math.lcm(*[v for v in values if v])


def _map_profile(*objects):
    """Common window and tail periods of complexes / graded maps."""
    ends = [(o.lo, o.hi) if isinstance(o, Complex) else (o.clo, o.chi) for o in objects]
    return (min([lo for lo, _ in ends]), max([hi for _, hi in ends]),
            _lcm([o.neg_period for o in objects]), _lcm([o.pos_period for o in objects]))


def _value(f) -> tuple:
    """A graded map's window, periods and blocks as (shape, bytes): equal
    for two maps between the same complexes exactly when they are equal;
    read from its family column (_reads), with no table built."""
    return (*_map_profile(f), tuple((b.shape, b.tobytes()) for b in _reads(f)[1]))


class _Blocks(NamedTuple):
    """The distinct blocks of a graded object: its data at each degree of
    lo - neg .. hi + pos.  Below lo the data repeats with period neg, and
    above hi with period pos, so these degrees hold every block.

    A graded map's data are views of the rows of its family column's
    arrays (GradedMap._column), and where the map has no block the shared
    zero block (modules.zero_block)."""

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

    def index(self, degrees) -> tuple:
        """The position in data of the block at each of degrees."""
        lo, hi, neg, pos, _ = self
        base = neg - lo
        return tuple([n + base if lo <= n <= hi
                      else lo - 1 - (lo - 1 - n) % neg + base if n < lo
                      else hi + 1 + (n - hi - 1) % pos + base for n in degrees])

    def on(self, degrees) -> list:
        """[self.at(n) for n in degrees], with the fold inlined; a range of
        degrees that data holds is a slice of it."""
        lo, hi, neg, pos, data = self
        base = neg - lo
        if type(degrees) is range and degrees.step == 1 and lo - neg <= degrees.start \
                and degrees.stop <= hi + pos + 1:
            return list(data[degrees.start + base:degrees.stop + base])
        return [data[n + base] if lo <= n <= hi
                else data[lo - 1 - (lo - 1 - n) % neg + base] if n < lo
                else data[hi + 1 + (n - hi - 1) % pos + base] for n in degrees]


class _Family(NamedTuple):
    """The blocks of k graded maps S_n -> T_{n+shift}, stacked: arrays
    (count, k, rows, cols), and where the block at each position of a
    frame sits (slots: a _Blocks of (array, row) pairs; a tail position
    may name a window row).  Column j of the arrays is map j at every
    degree, from which its table is built on its first read (_table); the
    frame may be wider than a map's own table.  Each block fits the terms
    of its degree, and no two arrays have one block shape: _lone checks
    and keeps both, and _from_tables and _copied derive from its families."""

    slots: _Blocks
    arrays: tuple


def _family(frame: tuple, blocks: list) -> _Family:
    """The family whose block at each position of frame (lo, hi, neg, pos)
    is blocks[i], a (k, rows, cols) array; equal objects are one block.
    Each array is one concatenate of its blocks, viewed as (count, k,
    rows, cols), or a view of its only block.  Every graded map's table is
    read from a column of such a family (_table)."""
    groups = {}
    for b in {id(b): b for b in blocks}.values():
        groups.setdefault(b.shape, []).append(b)
    slots, arrays = {}, []
    for s, g in enumerate(groups.values()):
        arrays.append(np.concatenate(g).reshape(len(g), *g[0].shape) if len(g) > 1 else g[0][None])
        slots.update({id(b): (s, r) for r, b in enumerate(g)})
    return _Family(_Blocks(*frame, tuple([slots[id(b)] for b in blocks])), tuple(arrays))


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
        """Verdicts decided once per complex: "exact" (is_exact), "proj" /
        "inj" (homotopy.is_exP / is_exI), which share it, and "flags"
        (modelcat.membership_flags), which reads them."""
        return {}

    @cached_property
    def _solved(self) -> weakref.WeakKeyDictionary:
        """{target or generator family, held weakly: {key: entry}}, what was
        solved for maps out of this complex, or between it and a family's
        shifts; the modules docstring lists the entries."""
        return weakref.WeakKeyDictionary()

    @cached_property
    def _built(self) -> dict:
        """reindex(self, k) under k, which does not hold self, and
        direct_sum_complex(self, Y) under Y, whose maps hold Y."""
        return {}

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
        return check._check_range(self)

    def validate(self) -> None:
        for n in range(self.lo, self.hi + 1):
            if n not in self.terms:
                raise ValidationError(f"missing term at degree {n}")
        B = self._blocks
        for n, (t, _) in enumerate(B.data, B.lo - B.neg):  # every term (_Blocks)
            if t.algebra is not self.algebra:
                raise AlgebraMismatch(f"term at degree {n} lives over another algebra "
                                      f"({t.algebra.name}) than the complex ({self.algebra.name})")
        bad = check._check_complex(self)
        if bad is not None:
            kind, n, i = bad
            raise ValidationError((f"differential at degree {n} has wrong shape",
                                   f"differential at degree {n} does not intertwine action {i}",
                                   f"d*d != 0 at degree {n}")[kind])
        _proven(self)


def zero_complex(algebra: Algebra) -> Complex:
    """The zero complex, checked by construction; one per algebra."""
    return modules._memo(algebra, ("zero", "complex"), lambda: Complex.build(
        algebra, 0, 0, {0: modules.zero_module(algebra)}, {}, checked=True))


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
    tails = []
    for side, q, e, s in (("negative", neg_period, lo - 1, -1),
                          ("positive", pos_period, hi + 1, 1)):
        if not q:
            tails.append((None, None))
            continue
        # block i sits at e + s i with the differential out of it, except
        # that above the window d_{hi+1} is the seam: block 0 keeps d_{hi+1+q}
        blocks = tuple(term_fn(e + s * i) for i in range(q))
        bdiffs = tuple(sample(diff_fn(e + s * i if s < 0 or i else e + q)) for i in range(q))
        for i in range(0 if checked else q + 1):
            n = e + s * (i + q)
            m = n + (s > 0)  # the differential between n and the next degree out
            if term_fn(n).dim != term_fn(n - s * q).dim or not np.array_equal(
                    diff_fn(m) % algebra.p, diff_fn(m - s * q) % algebra.p):
                raise ValidationError(f"{side} tail not {q}-periodic at {n}")
        tails.append((Tail(q, blocks, bdiffs), sample(diff_fn(e + (s < 0)))))
    (neg_tail, neg_seam), (pos_tail, pos_seam) = tails
    return Complex.build(algebra, lo, hi, terms, diffs,
                         neg_tail, pos_tail, neg_seam, pos_seam, checked=checked)


# -- chain maps and homotopies -----------------------------------------


@dataclass(frozen=True, eq=False, init=False)
class GradedMap:
    """A graded map S_n -> T_{n+shift}: chain maps (shift 0) and
    homotopies (shift +1).  It holds its window clo..chi, its own tail
    periods (0 where it has none) and its family column (_column), which
    a producer that holds a family hands it (_of) and a lone map made
    from blocks (the constructor, which _sample calls) builds on its
    first read from the blocks it keeps.  Its table (_blocks) is built on
    its first read, from the column.
    components, neg and pos read the table, and are dataclass fields, so
    dataclasses.replace makes a new, unmarked map from them.

    The constructor checks its input when it is called: every component
    lies in the window, converts to an array, and each tail (period,
    blocks) has a period equal to its number of blocks, as a Tail has
    (_period; (0, ()) is no tail)."""

    source: Complex
    target: Complex
    components: dict  # degree -> matrix on window clo..chi
    clo: int
    chi: int
    neg: tuple | None  # (period, blocks) for degrees < clo
    pos: tuple | None  # (period, blocks) for degrees > chi
    shift = 0

    def __new__(cls, source, target, components, clo, chi, neg=None, pos=None):
        outside = [n for n in components if not clo <= n <= chi]
        if outside:
            raise ValidationError(
                f"component at degree {min(outside)} lies outside the window {clo}..{chi}")
        neg, pos = [tail and (_period(tail[0], len(tail[1])), tuple(map(np.asarray, tail[1])))
                    for tail in (neg, pos)]
        # the blocks on clo..chi (None for zero) and the tails, as given,
        # from which _column builds the map's family of one on its first read
        window = [None if m is None else np.asarray(m)
                  for m in map(components.get, range(clo, chi + 1))]
        h = object.__new__(cls)
        vars(h).update(source=source, target=target, clo=clo, chi=chi, _given=(window, neg, pos),
                       neg_period=neg[0] if neg else 0, pos_period=pos[0] if pos else 0)
        return h

    @classmethod
    def _of(cls, source, target, clo, chi, family, member, neg_period, pos_period):
        """Map member of family, as its producer made or kept it."""
        h = object.__new__(cls)
        vars(h).update(source=source, target=target, clo=clo, chi=chi, _column=(family, member),
                       neg_period=neg_period, pos_period=pos_period)
        return h

    @cached_property
    def _column(self) -> tuple:
        """(family, member) of a lone map: its family of one (_lone) on its
        distinct blocks as one-row views, built from the blocks it keeps,
        which it then drops (every other map is made with its column)."""
        window, neg, pos = vars(self)["_given"]
        row = _once(lambda m: m[None])
        family = _lone(self.source, self.target, self.shift, self.clo, self.chi,
                       [m if m is None else row(m) for m in window],
                       *[t and (t[0], tuple(map(row, t[1]))) for t in (neg, pos)])
        del vars(self)["_given"]
        return family, 0

    @cached_property
    def _blocks(self) -> _Blocks:
        return _table(self)

    @property
    def components(self) -> dict:
        return {n: self._blocks.at(n) for n in range(self.clo, self.chi + 1)}

    @property
    def neg(self) -> tuple | None:
        q, clo = self.neg_period, self.clo
        return (q, tuple(self._blocks.on(range(clo - 1, clo - 1 - q, -1)))) if q else None

    @property
    def pos(self) -> tuple | None:
        q, chi = self.pos_period, self.chi
        return (q, tuple(self._blocks.on(range(chi + 1, chi + 1 + q)))) if q else None

    def component(self, n: int) -> np.ndarray:
        return self._blocks.at(n)

    def check_range(self) -> tuple:
        return check._check_range(self, self.source, self.target)


class ChainMap(GradedMap):
    # whether the map is known to be a chain map at every degree: set on the
    # object by validate or by a constructor given checked=True, never by
    # ChainMap(...) or replace
    _checked = False

    def validate(self, *others: "ChainMap") -> None:
        """Check this map and any others, each over its own check range,
        in one walk per group (check._check_walk), so a whole basis of chain
        maps costs one batched product per group and side.  A block of the
        wrong shape raises when the walk lays its map out (_lone); then
        errors come in the order intertwining, commutation, each at its
        smallest failing degree.

        Every map that passes is marked as checked.  Without a check, so
        are identity_chain_map, zero_chain_map, add_maps(f, g) of checked
        maps with the same source and target objects, compose(f, g) of
        checked maps with g.target is f.source (chain maps are closed under
        sums and composites), dual_chain_map of a checked map, and the
        structure maps of the constructions on checked inputs that the
        module docstring lists.  An explicit call always runs the check.
        """
        A = self.source.algebra
        maps = (self, *others)
        if any(f.source.algebra is not A or f.target.algebra is not A for f in maps):
            raise DimensionMismatch("chain map across different algebras")
        bad = check._check_walk([(f,) for f in maps])
        if bad is not None:
            kind, n, i = bad
            raise ValidationError((f"component at degree {n} does not intertwine action {i}",
                                   f"does not commute with d at degree {n}")[kind])
        for f in maps:
            _proven(f)

    def _full_rank(self, side: int) -> bool:
        """rank f_n equals the dimension of the source (side 0) or target
        (side 1) term at every degree of the check range; one rank per
        distinct component."""
        p = self.source.algebra.p
        terms = (self.source._blocks, self.target._blocks)[side]
        a, b = self.check_range()
        ns = check._Range.of(a, self._blocks, self.source._blocks, self.target._blocks).walk(b)
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
        # the family's column holds the map's block at every degree
        family, member = self._column
        return not any(a[:, member].any() for a in family.arrays)

    @cached_property
    def _kernel(self) -> tuple:
        return _kernel_complex(self)

    @cached_property
    def _cokernel(self) -> tuple:
        return _cokernel_complex(self)


class Homotopy(GradedMap):
    """Degree +1 maps s_n: X_n -> Y_{n+1}; meaning fixed by its consumer."""

    shift = 1


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


def chain_map(source, target, components, clo=None, chi=None,
              neg=None, pos=None, checked=False) -> ChainMap:
    """The chain map, validated, or marked when the caller proves it (checked)."""
    if clo is None:
        degs = sorted(components) or [0]
        clo, chi = degs[0], degs[-1]
    # one reduced copy per distinct block, so the window and tails share it
    once = _once(lambda m: np.asarray(m, dtype=np.int64) % source.algebra.p)
    neg, pos = (t and (t[0], tuple(map(once, t[1]))) for t in (neg, pos))
    return _settled(ChainMap(source, target, {n: once(m) for n, m in components.items()},
                             clo, chi, neg, pos), checked)


def _frame(S: Complex, T: Complex, k: int, clo: int, chi: int, nq: int, pq: int) -> tuple:
    """The frame (lo, hi, q, q') of the table of a graded map S_n ->
    T_{n+k} with the window clo..chi and own tail periods nq, pq: lo..hi
    the hull of its and its complexes' windows, q its own negative tail
    period or, where it has none, the lcm of its complexes' ones (their
    tables' periods, which are 1 where a complex has no tail); likewise q'."""
    return (min(clo, S.lo, T.lo - k), max(chi, S.hi, T.hi - k),
            nq or math.lcm(S._blocks.neg, T._blocks.neg),
            pq or math.lcm(S._blocks.pos, T._blocks.pos))


def _lone(S: Complex, T: Complex, k: int, clo: int, chi: int, window: list,
          neg, pos) -> _Family:
    """The family of the graded maps S_n -> T_{n+k} with the stacks window
    on clo..chi ((count, rows, cols) arrays, None for zero) and the tails
    neg, pos: (period, stacks), stack i at clo - 1 - i, resp. chi + 1 + i,
    or None; count is the window stacks' (1 where there are none).  Its
    frame is the maps' (_frame), each distinct stack object one block, and
    where the maps have none one zero stack per shape: for count 1 a view
    of the shared zero block (modules.zero_block).  The one frame loop for
    every family: a lone map's (GradedMap._column) and a solve's
    (_from_stacks), and the one shape check: each given stack fits
    (dim T_{n+k}, dim S_n) at each n of the frame's window widened by one
    period of the lcm of all tail periods on each side, else
    ValidationError at the first n where it does not."""
    nq, pq = neg[0] if neg else 0, pos[0] if pos else 0
    lo, hi, q, qp = frame = _frame(S, T, k, clo, chi, nq, pq)
    Sb, Tb = S._blocks, T._blocks
    a, b = lo - math.lcm(q, Sb.neg, Tb.neg), hi + math.lcm(qp, Sb.pos, Tb.pos)
    count = next((len(m) for m in window if m is not None), 1)
    blocks, zeros = [], {}
    for n, (s, _), (t, _) in zip(range(a, b + 1), Sb.on(range(a, b + 1)),
                                 Tb.on(range(a + k, b + k + 1))):
        m = ((neg[1][(clo - 1 - n) % nq] if nq else None) if n < clo
             else (pos[1][(n - chi - 1) % pq] if pq else None) if n > chi else window[n - clo])
        shape = (t.dim, s.dim)
        if m is not None and m.shape[1:] != shape:
            raise ValidationError(f"component at degree {n} has wrong shape")
        if not lo - q <= n <= hi + qp:
            continue
        if m is None:
            m = zeros.get(shape)
            if m is None:
                m = zeros[shape] = (modules.zero_block(S.algebra, *shape)[None] if count == 1
                                    else np.zeros((count, *shape), dtype=np.int64))
        blocks.append(m)
    return _family(frame, blocks)


def _table(g: GradedMap) -> _Blocks:
    """The table of g: its block at each degree of its frame (_frame),
    read from its family column (_reads)."""
    frame = _frame(g.source, g.target, g.shift, g.clo, g.chi, g.neg_period, g.pos_period)
    return _Blocks(*frame, tuple(_reads(g)[1]))


def _reads(g: GradedMap, degrees=None) -> tuple:
    """(keys, blocks) of g at each of degrees, by default at each degree of
    its table's frame (_frame), read from its family column with no table
    built, the degrees folded as in its table: the view of its row in the
    family's arrays, one view per distinct (array, row), keyed by that
    slot; or where g has no block (outside its window and own tails) the
    shared zero block of modules.zero_block, keyed by its id.  So two
    degrees have one key exactly where g's table (_table) holds one
    object."""
    family, j = g._column
    clo, chi, nq, pq = g.clo, g.chi, g.neg_period, g.pos_period
    lo, hi, q, qp = frame = _frame(g.source, g.target, g.shift, clo, chi, nq, pq)
    ns = (range(lo - q, hi + qp + 1) if degrees is None
          else [i + lo - q for i in _Blocks(*frame, ()).index(degrees)])
    keys = family.slots.on(ns)
    views = {w: family.arrays[w[0]][w[1], j] for w in set(keys)}
    blocks = [views[w] for w in keys]
    if not (nq and pq):  # zero outside the window on a side with no tail
        first, last = clo if not nq else -math.inf, chi if not pq else math.inf
        for i, n in enumerate(ns):
            if not first <= n <= last:
                blocks[i] = modules.zero_block(g.source.algebra, *blocks[i].shape)
                keys[i] = id(blocks[i])
    return keys, blocks


def _members(kind, S: Complex, T: Complex, clo: int, chi: int, family: _Family,
             periods: list) -> list:
    """The maps kind (ChainMap or Homotopy) S -> T with the window
    clo..chi held in family, map j with own tail periods periods[j]; each
    builds its table on its first read (_table)."""
    return [kind._of(S, T, clo, chi, family, j, *q) for j, q in enumerate(periods)]


def _from_stacks(kind, S: Complex, T: Complex, lo: int, hi: int, fold: int,
                 stacks: dict) -> list:
    """The maps kind (ChainMap or Homotopy) S -> T of the solutions of a
    system on lo..hi folded with period fold (solver.FoldedSystem), whose
    components at window degree n are stacks[n], one per solution: one
    family (_lone), whose arrays concatenate the stacks of one block
    shape, from which each map builds its table on its first read.
    A folded tail is the window stacks it folds to, so a tail block is
    the row of the window block it folds to, not a copy; past an unfolded
    window every block is zero.  A solution whose blocks on a tail are
    all zero has no tail there (_own_periods)."""
    if not len(stacks[lo]):
        return []
    window = [stacks[n] for n in range(lo, hi + 1)]
    tails = ((fold, window[fold - 1::-1]), (fold, window[-fold:])) if fold else (None, None)
    family = _lone(S, T, kind.shift, lo, hi, window, *tails)
    return _members(kind, S, T, lo, hi, family, _own_periods(family, lo, hi, fold, fold))


def _own_periods(family: _Family, lo: int, hi: int, nq: int, pq: int) -> list:
    """Per map of family, its own tail periods as a map with the window
    lo..hi and a tail of period nq, pq (0 for none) on each side: 0 on a
    side where its blocks at lo - nq .. lo - 1, resp. hi + 1 .. hi + pq,
    are all zero, for a tail of zero blocks that a producer computes is no
    tail (as one that _sample samples).  One any per array a tail's slots
    name (window rows, where it folds), for every map and row at once;
    each side then joins the flags of its rows map by map, with no test
    per map and slot."""
    slots, arrays = family
    if not (nq or pq):
        return [(0, 0)] * arrays[0].shape[1]
    tails = [(nq, slots.on(range(lo - nq, lo))), (pq, slots.on(range(hi + 1, hi + pq + 1)))]
    # per array a tail reads: per row, per map, whether the block is nonzero
    live = {s: arrays[s].any(axis=(2, 3)).tolist() for s in {s for _, tail in tails for s, _ in tail}}
    return list(zip(*[[q if x else 0 for x in map(any, zip(*[live[s][r] for s, r in tail]))]
                      if q else [0] * arrays[0].shape[1] for q, tail in tails]))


def _sample(kind, S: Complex, T: Complex, clo: int, chi: int, comp_fn,
            neg_period: int, pos_period: int) -> GradedMap:
    """The kind (ChainMap or Homotopy) S -> T sampled from comp_fn mod p on
    the window clo..chi and one period of each tail, one reduced copy per
    distinct object comp_fn returns, so its repeats share it.  A tail of
    zero blocks that it samples is no tail."""
    sample = _once(lambda m: np.asarray(m, dtype=np.int64) % S.algebra.p)
    window = {n: sample(comp_fn(n)) for n in range(clo, chi + 1)}
    tails = [(q, [sample(comp_fn(n)) for n in degrees]) for q, degrees in (
        (neg_period, range(clo - 1, clo - 1 - neg_period, -1)),
        (pos_period, range(chi + 1, chi + 1 + pos_period)))]
    neg, pos = [t if any(map(np.count_nonzero, {id(m): m for m in t[1]}.values())) else None
                for t in tails]
    return kind(S, T, window, clo, chi, neg, pos)


def _kept(h: GradedMap) -> tuple:
    """What a memo keeps of h, from which _copied makes copies: (clo, chi,
    family column, own tail periods).  A table is read from its column,
    so keeping h builds none."""
    return h.clo, h.chi, h._column, h.neg_period, h.pos_period


def _copied(kind, S: Complex, T: Complex, kept: tuple) -> GradedMap:
    """The map kind S -> T that kept (_kept) describes, in a family of one
    on a copy of the column's slice of each of the family's arrays: what a
    remembered map hands a caller, who may write into it.  Its table is
    read from that copy, as every table is read from its column."""
    clo, chi, (family, j), nq, pq = kept
    family = family._replace(arrays=tuple([a[:, j:j + 1].copy() for a in family.arrays]))
    return _members(kind, S, T, clo, chi, family, [(nq, pq)])[0]


def chain_map_from_callable(source, target, clo, chi, comp_fn,
                            neg_period=0, pos_period=0, checked=False) -> ChainMap:
    return _settled(_sample(ChainMap, source, target, clo, chi, comp_fn,
                            neg_period, pos_period), checked)


def identity_chain_map(X: Complex) -> ChainMap:
    eye = _once(lambda t: linalg.eye(t.dim))  # one per distinct term
    return chain_map_from_callable(X, X, X.lo, X.hi, lambda n: eye(X.term(n)),
                                   X.neg_period, X.pos_period, checked=True)


def zero_chain_map(X: Complex, Y: Complex) -> ChainMap:
    if X.algebra is not Y.algebra:
        raise DimensionMismatch("chain map across different algebras")
    return chain_map(X, Y, {}, 0, 0, checked=True)


def _joint_blocks(*objects):
    """The tuples of the objects' blocks ((term, differential) of a
    complex, the matrix of a graded map) at each degree of one walk that
    meets every distinct tuple: below all their tables each repeats with
    the lcm of their negative periods, and above them with that of their
    positive ones, so the walk is the hull of the tables widened by these
    lcms.  Their windows and periods may differ."""
    tables = [o._blocks for o in objects]
    neg, pos = math.lcm(*[t.neg for t in tables]), math.lcm(*[t.pos for t in tables])
    ns = range(min([t.lo for t in tables]) - neg, max([t.hi for t in tables]) + pos + 1)
    return zip(*[t.on(ns) for t in tables])


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
        _same_module(s, t) and np.array_equal(d, e) for (s, d), (t, e) in _joint_blocks(X, Y))


def _same_module(M: Module, N: Module) -> bool:
    """Whether M and N are one module by value: dimension and action."""
    return M is N or M.dim == N.dim and np.array_equal(M.stacked_action, N.stacked_action)


def _covers(slots: _Blocks, profile: tuple) -> bool:
    """Whether a family's frame holds a map of profile (lo, hi, nq, pq):
    it covers the window lo..hi, and its periods are multiples of nq and
    pq (any period, where that is 0)."""
    lo, hi, nq, pq = profile
    return slots.lo <= lo and slots.hi >= hi and not (
        slots.neg % (nq or 1) or slots.pos % (pq or 1))


def _blockless(h: GradedMap) -> bool:
    """Whether h is a lone map given no block and no tail, as
    zero_chain_map makes, whose family of one is not built yet."""
    given = vars(h).get("_given")
    return given is not None and not (h.neg_period or h.pos_period) and all(
        m is None for m in given[0])


def _from_tables(S, T, profile, op, f, g, checked=False) -> ChainMap:
    """The chain map S -> T whose component at n is op(f_n, g_n), on the
    window lo..hi and one period nq, pq of each tail (profile, which
    covers S and T), as chain_map_from_callable samples them; op takes
    (count, rows, cols) stacks.

    Operands whose columns sit on one layout of slots that covers the
    profile (_covers), with arrays of one block shape pair by pair, as
    the maps of one basis and their sums do, meet array by array: op runs
    once per array, on whole arrays, and the result's family keeps that
    slots object, so it too holds one array per block shape.  A blockless
    operand (_blockless, zero_chain_map) between the same complexes as the
    other reads as zero on the other's layout, with no family of its own
    built.  Other operands are sampled degree by degree (_sample), one op
    per distinct pair of blocks.  The result builds its table on its
    first read, and is validated, or with checked=True, which a caller
    passes when the operands prove it a chain map, marked as one
    (ChainMap.validate).
    """
    lo, hi, nq, pq = profile
    # a blockless operand takes the other's column and reads zeros of its
    # blocks' shapes, which are its own only between the same complexes
    shared = f.source is g.source and f.target is g.target
    zf = shared and _blockless(f)
    zg = shared and not zf and _blockless(g)
    (F, jf), (G, jg) = (g if zf else f)._column, (f if zg else g)._column
    if (F.slots is G.slots or F.slots == G.slots) and _covers(F.slots, profile) and all(
            a.shape[2:] == b.shape[2:] for a, b in zip(F.arrays, G.arrays)):
        zero = np.zeros_like
        family = _Family(F.slots, tuple([
            op(zero(a[:, jf]) if zf else a[:, jf], zero(b[:, jg]) if zg else b[:, jg])[:, None]
            for a, b in zip(F.arrays, G.arrays)]))
        return _settled(_members(ChainMap, S, T, lo, hi, family,
                                 _own_periods(family, lo, hi, nq, pq))[0], checked)
    pair = _once(lambda a, b: op(a[None], b[None])[0])
    return chain_map_from_callable(S, T, lo, hi, lambda n: pair(f.component(n), g.component(n)),
                                   nq, pq, checked)


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


def _one_algebra(A: Algebra, B: Algebra) -> bool:
    """Whether A and B are one algebra: one object, or over one field
    with equal structure constants and unit."""
    return A is B or A.p == B.p and np.array_equal(A.mul, B.mul) and np.array_equal(A.unit, B.unit)


def _summable(S: Complex, T: Complex, g: ChainMap) -> None:
    """DimensionMismatch unless a map S -> T and g can be summed (add_maps)."""
    A = S.algebra
    if not (g.source.algebra is A is g.target.algebra or all(
            _one_algebra(A, Z.algebra) for Z in (g.source, g.target))):
        raise DimensionMismatch("chain map across different algebras")
    if not (_same_terms(S, g.source) and _same_terms(T, g.target)):
        raise DimensionMismatch("summands have terms of different dimensions")


def add_maps(f: ChainMap, g: ChainMap, sign: int = 1) -> ChainMap:
    """f + sign g; DimensionMismatch unless they live over one algebra
    (_one_algebra) and their sources, and their targets, have terms of
    equal dimensions.
    Checked unless both are and they share their source and target
    objects (ChainMap.validate)."""
    _summable(f.source, f.target, g)
    p = f.source.algebra.p
    known = f._checked and g._checked and g.source is f.source and g.target is f.target
    return _from_tables(f.source, f.target, _map_profile(f, g, f.source, f.target),
                        lambda a, b: (a + sign * b) % p, f, g, checked=known)


def _factors(f: ChainMap, outer: ChainMap, inner: ChainMap) -> bool:
    """Whether outer after inner, where inner.target is outer.source,
    equals f mod p, with no map built: one product per degree of one walk
    of the three maps' tables (_joint_blocks).  DimensionMismatch where
    the sum of that composite and f would raise it (add_maps)."""
    _summable(inner.source, outer.target, f)
    p = f.source.algebra.p
    return not any(((a @ b - c) % p).any() for a, b, c in _joint_blocks(outer, inner, f))


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
    ns = check._Range.of(X.lo - max(X.neg_period, 1) - 1, B).walk(
        X.hi + max(X.pos_period, 1) + 1)
    rank = {}  # per distinct differential; the table keeps each alive
    for _, d in B.data:
        if id(d) not in rank:
            rank[id(d)] = linalg.rank(d, p)
    memo["exact"] = all(rank[id(d0)] + rank[id(d1)] == t.dim
                        for (t, d0), (_, d1) in zip(B.on(ns), B.on([n + 1 for n in ns])))
    return memo["exact"]


def reindex(X: Complex, k: int) -> Complex:
    """Degree shift X[k] with d^{X[k]} = (-1)^k d^X, built once per complex
    and shift and kept on X; X[k] does not hold X."""
    if k == 0:
        return X
    if k not in X._built:
        sign = 1 if k % 2 == 0 else -1
        X._built[k] = complex_from_callable(
            X.algebra, X.lo + k, X.hi + k,
            lambda n: X.term(n - k),
            lambda n: (sign * X.diff(n - k)) % X.algebra.p,
            X.neg_period, X.pos_period, checked=X._checked)
    return X._built[k]


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
    """(X + Y, inclusion of X, of Y, projection to X, to Y), built once per
    pair and kept on X; DimensionMismatch unless over one algebra.  Checked
    unless X and Y are; then 0 -> X -> X + Y -> Y -> 0 splits, so the maps
    carry their kernels and cokernels: coker i_X = (Y, p_Y), ker p_Y =
    (X, i_X), ker i_X = coker p_X = 0, and likewise with X and Y swapped."""
    if Y in X._built:
        return X._built[Y]
    p = X.algebra.p
    known = X._checked and Y._checked
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

    iX, iY, pX, pY = maps = (part(X, S, 1, 0), part(Y, S, 1, 1),
                             part(S, X, 2, 0), part(S, Y, 2, 1))
    if known:
        zero = zero_complex(X.algebra)
        for i, p_i, p_j in ((iX, pX, pY), (iY, pY, pX)):
            # i includes one summand, p_i projects to it, p_j to the other
            object.__setattr__(i, "_kernel", (zero, zero_chain_map(zero, i.source)))
            object.__setattr__(i, "_cokernel", (p_j.target, p_j))
            object.__setattr__(p_j, "_kernel", (i.source, i))
            object.__setattr__(p_i, "_cokernel", (zero, zero_chain_map(i.source, zero)))
    X._built[Y] = (S, *maps)
    return X._built[Y]


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
    """(K, inclusion K -> source), built once per map unless a direct sum
    gave it (direct_sum_complex); checked unless f, source and target are."""
    return f._kernel


def cokernel_complex(f: ChainMap):
    """(C, projection target -> C), built once per map unless a direct sum
    gave it (direct_sum_complex); checked unless f, source and target are."""
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


def _kernel_complex(f: ChainMap):
    """(K, inclusion K -> source) computed degreewise (_degreewise)."""
    p = f.source.algebra.p

    def diff_fn(data, n):
        d = linalg.solve_matrix(
            data(n - 1)[1].matrix, (f.source.diff(n) @ data(n)[1].matrix) % p, p)
        if d is None:
            raise ValidationError("differential does not restrict to the kernel")
        return d

    return _degreewise(f, modules.kernel, diff_fn)


def _cokernel_complex(f: ChainMap):
    """(C, projection target -> C) computed degreewise (_degreewise)."""
    p = f.source.algebra.p

    def diff_fn(data, n):
        rhs = (data(n - 1)[1].matrix @ f.target.diff(n)) % p
        dT = linalg.solve_matrix(data(n)[1].matrix.T, rhs.T, p)
        if dT is None:
            raise ValidationError("differential does not descend to the cokernel")
        return dT.T % p

    return _degreewise(f, modules.cokernel, diff_fn)


def _degreewise(f: ChainMap, compute, diff_fn) -> tuple:
    """(Z, its map) with Z_n and the map at n from compute(f_n as a
    ModuleMap), which is modules.kernel (the map includes Z in the source)
    or modules.cokernel (it projects the target onto Z), computed once per
    distinct (source term, target term, component), and d_n =
    diff_fn(data, n); on f's window and tail periods, and checked unless
    f, source and target are."""
    lo, hi, nq, pq = _map_profile(f, f.source, f.target)
    blockwise = _once(lambda S, T, m: compute(ModuleMap(S, T, m)))

    def data(n):
        return blockwise(f.source.term(n), f.target.term(n), f.component(n))

    known = _inputs_checked(f)
    Z = complex_from_callable(f.source.algebra, lo, hi, lambda n: data(n)[0],
                              lambda n: diff_fn(data, n), nq, pq, checked=known)
    ends = (Z, f.source) if compute is modules.kernel else (f.target, Z)
    return Z, chain_map_from_callable(*ends, lo, hi, lambda n: data(n)[1].matrix,
                                      nq, pq, checked=known)
