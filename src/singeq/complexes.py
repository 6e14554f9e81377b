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
repeats.  The solutions of one solve are one family (_from_stacks), as
is each sum, composite and copy of a kept map (_kept, _copied); a lone
map made from blocks (the constructor, which _sample calls) keeps them.
One rule for every map: its table is built on its first read, from its
family column or from the blocks a lone map keeps (_held).  Walks, sums
and is_zero read only the column (_column) and frame (_frame), so a map
nothing reads block by block, such as a partial sum or a basis map that
is only walked, builds none.  The table format (_family, _frame,
_table, _members, _own_periods, _held) is this module's alone; others
use these producers.

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

Complex.validate and ChainMap.validate cover every degree of a check
range (_check_range): the hull of the windows of the objects a check
reads, widened by 2q+1 on each side, where q is the lcm of all their tail
periods.  The checks walk only the degrees that carry distinct checks
(_Range.walk).  Below the windows of the objects a check reads, the check
at n equals the check at n + L, L the lcm of their negative tail periods;
above them it equals the check at n - L', L' the lcm of the positive
ones.  So the walk keeps the first L degrees of the range, the windows,
and the first L' degrees after them.

One engine runs the checks (_first_failure), and one function walks the
checks of graded maps g: S_n -> T_{n+k} and returns the first that fails
(_check_walk): the shapes, then g a module map at every action index,
then the equation: f d = d f for chain maps (ChainMap.validate),
d s + s d = f for null-homotopies (homotopy.verify_null_homotopy), and
d s + s d = g f - 1 for the homotopies of a homotopy inverse, from the
blocks of f and g with no map built (homotopy._verify_inverse_payload).
homotopy reaches it as complexes._check_walk: this module holds the
only binding of either, so one patch here sees every check.  Maps that
share one source and one target are walked once, over the union of
their check ranges; each object's own range lies inside it and its
periods divide the joint ones, so the joint walk runs a superset of
each object's checks.  The degrees are grouped by the modules
(intertwining) or the shapes (d*d = 0, the equation; for g f - 1 also
the shape of f_n, which the third complex sets) they share, and the
maps' blocks of a group are read from their families, one gather per
run of maps of one family (_Read); a complex's differentials are
stacked once per plan.
Each group costs one array per operand and one batched product per side;
intertwining tests every action index (modules.intertwining_residue, as
ModuleMap.validate does), and over several objects multiplies out only
the nonzero blocks.  Shapes are checked first, at every walked degree of
every object.  A failing check is reported at the first degree of its
object's own range that carries it (_Range.first), so an error names the
same smallest failing degree, and for intertwining the same first
failing action index, as a check of that object alone.

Each walk has a plan (_Walk): the check ranges, the walked degrees, the
shapes, the grouping by modules and by shapes, the differentials stacked
per group, and where the blocks at those degrees sit in each frame read,
a table's or a family's.  It depends only on S, T, the degree k, the
kind of right-hand side and each object's window and tail periods,
never on a map's values, and holds no check result: every check runs on
every call, on the caller's maps.  A plan is kept in S._solved[T], so it goes with T, from the second
walk of its key on; a walk made once keeps only its key.

add_maps and compose compute their result on the operands' families,
one array operation per pair of arrays that meet: on whole arrays when
the operands are held on one frame with one layout of slots, after a
gather by index where they are not; the results are the arrays of the
result's family, which may hold two arrays of one block shape, so a
walk reads each degree from the array its own slot names (_Read.stack).
A tail of zero blocks that a producer samples or computes is no tail,
decided on the stacked tails of a whole family at once (_own_periods);
a constructor keeps the tails it gets.

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
    for two maps between the same complexes exactly when they are equal."""
    return (*_map_profile(f), tuple((b.shape, b.tobytes()) for b in f._blocks.data))


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
    above hi with period pos, so these degrees hold every block.

    A graded map's table also names the family its blocks are stacked in
    and its column there (_Family): its data share memory with the
    family's arrays (views of their rows, or the block an array of one
    block views), and where the map has no block they are the shared zero
    block (modules.zero_block).  A complex's table has no family."""

    lo: int
    hi: int
    neg: int
    pos: int
    data: tuple
    family: "_Family | None" = None
    member: int = 0

    def at(self, n: int):
        lo, hi, neg, pos, data, _, _ = self
        if n < lo:
            n = lo - 1 - (lo - 1 - n) % neg
        elif n > hi:
            n = hi + 1 + (n - hi - 1) % pos
        return data[n - lo + neg]

    def index(self, degrees) -> tuple:
        """The position in data of the block at each of degrees."""
        lo, hi, neg, pos, _, _, _ = self
        base = neg - lo
        return tuple([n + base if lo <= n <= hi
                      else lo - 1 - (lo - 1 - n) % neg + base if n < lo
                      else hi + 1 + (n - hi - 1) % pos + base for n in degrees])

    def on(self, degrees) -> list:
        """[self.at(n) for n in degrees], with the fold inlined."""
        lo, hi, neg, pos, data, _, _ = self
        base = neg - lo
        return [data[n + base] if lo <= n <= hi
                else data[lo - 1 - (lo - 1 - n) % neg + base] if n < lo
                else data[hi + 1 + (n - hi - 1) % pos + base] for n in degrees]


class _Family(NamedTuple):
    """The blocks of k graded maps S_n -> T_{n+shift}, stacked: arrays
    (count, k, rows, cols), and where the block at each position of a
    frame sits (slots: a _Blocks of (array, row) pairs; a tail position
    may name a window row).  Column j of the arrays is map j at every
    degree, from which its table is built on its first read (_table); the
    frame may be wider than a map's own table."""

    slots: _Blocks
    arrays: tuple


def _family(frame: tuple, blocks: list) -> tuple:
    """(family, held): the family whose block at each position of frame
    (lo, hi, neg, pos) is blocks[i], a (k, rows, cols) array, or for a
    family of one a matrix; equal objects are one block.  Each array is
    one concatenate of its blocks, viewed as (count, k, rows, cols), or a
    view of its only block.  For a family of one, held gives, per block
    object, what its map's table holds for it: the block itself where
    its array views it alone, else the view of its row."""
    groups = {}
    for b in {id(b): b for b in blocks}.values():
        groups.setdefault(b.shape, []).append(b)
    slots, held, arrays = {}, {}, []
    for s, g in enumerate(groups.values()):
        one = g[0].ndim == 2  # a family of one, whose blocks are matrices
        if len(g) == 1:
            arrays.append(g[0][None, None] if one else g[0][None])
            slots[id(g[0])], held[id(g[0])] = (s, 0), g[0]
        else:
            arrays.append(np.concatenate(g).reshape(len(g), *(1,) * one, *g[0].shape))
            slots.update({id(b): (s, r) for r, b in enumerate(g)})
            if one:
                held.update(zip(map(id, g), arrays[-1][:, 0]))
    return _Family(_Blocks(*frame, tuple([slots[id(b)] for b in blocks])), tuple(arrays)), held


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
    def of(a: int, *frames) -> "_Range":
        """frames: tables, or their frames (lo, hi, neg, pos)."""
        return _Range(a, min([t[0] for t in frames]) - 1,
                      max([t[1] for t in frames]) + 1,
                      math.lcm(*[t[2] for t in frames]),
                      math.lcm(*[t[3] for t in frames]))

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


def _grouped(keys) -> tuple:
    """The groups keys make: ((key, (indices of its degrees)), ...) in
    order of first appearance."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return tuple([(key, tuple(idx)) for key, idx in groups.items()])


class _Keys(list):
    """Group keys for _first_failure: the key of each of size walked
    degrees, laid out from the groups they make (_grouped), so equal keys
    are one object."""

    __slots__ = ("groups",)

    def __init__(self, groups: tuple, size: int):
        keys = [None] * size
        for key, idx in groups:
            for i in idx:
                keys[i] = key
        super().__init__(keys)
        self.groups = groups

    @classmethod
    def of(cls, keys: list) -> "_Keys":
        """keys, grouped (_grouped)."""
        return cls(_grouped(keys), len(keys))


class _Stacked(list):
    """A column for _first_failure of one operand per walked degree,
    stacked (g, 1, rows, cols) per group the first time the engine reads
    that group: one concatenate, which costs less per matrix than
    np.array.  A stack is kept under the group's degrees, not its number,
    so walks that group the degrees differently share a kept column."""

    __slots__ = ("_stacks",)

    def __init__(self, operands):
        super().__init__(operands)
        self._stacks = {}

    def shape(self, i: int) -> tuple:
        return self[i].shape

    def stack(self, idx: tuple) -> np.ndarray:
        if idx not in self._stacks:
            self._stacks[idx] = np.concatenate([self[i] for i in idx]).reshape(
                len(idx), 1, *self[idx[0]].shape)
        return self._stacks[idx]


def _first_failure(ranges, ns, keys: _Keys, check, *columns):
    """Smallest (degree, detail) over the checks that fail, or None; the
    check engine, run only from this module (Complex.validate and
    _check_walk).

    Each object, given by its check range in ranges, has one check at
    each walked degree of ns.  A column holds one operand per walked
    degree: a matrix shared by the objects (_Stacked), or one matrix per
    object (_Read); column.shape(i) is the shape of its (first) matrix at
    walked degree i.  The walked degrees are
    grouped by keys (the modules or shapes their operands share), and
    check(key, *stacks) runs once per group on each column stacked
    (column.stack), (g, 1, rows, cols) when shared and (g, objects, rows,
    cols) otherwise.  It returns an array (g, objects, details, ...) that
    is nonzero exactly where a check fails: its residue mod p, whose
    details are rows, or for intertwining one per action index.  A
    failing check is reported at the first degree of its object's range
    that carries it, with its first failing detail.  A group whose first
    operand has no rows or whose last has no columns holds.
    """
    failures = []
    first, last = columns[0], columns[-1]
    for key, idx in keys.groups:
        if not (first.shape(idx[0])[-2] and last.shape(idx[0])[-1]):
            continue
        bad = check(key, *[c.stack(idx) for c in columns])
        failures += [(ranges[j].first(ns[idx[i]]), int(d))
                     for i, j, d, *_ in zip(*bad.nonzero())]
    return min(failures, default=None)


class _Read:
    """A column for _first_failure: the blocks of graded maps at the
    walked degrees of a plan, at n (at 1), or at n - 1 for the read
    before() gives, which shares its runs.  stack reads a group from the
    maps' family columns (GradedMap._column), with no table built: one
    gather per run of maps of one family, so a basis costs one gather per
    group, not one matrix per map and degree."""

    __slots__ = ("maps", "plan", "at", "runs")

    def __init__(self, plan: "_Walk", maps: list):
        # runs: (family, its maps' columns, or None for all of them in
        # order, the first map's place in maps, where the family's slots at
        # n - 1 and at n sit in its frame (_Walk.positions))
        self.maps, self.plan, self.at, runs = maps, plan, 1, []
        for j, g in enumerate(maps):
            family, member = g._column
            if runs and runs[-1][0] is family:
                runs[-1][1].append(member)
            else:
                runs.append((family, [member], j, plan.positions(family.slots)))
        self.runs = [(family, None if members == list(range(family.arrays[0].shape[1]))
                      else members, j, index) for family, members, j, index in runs]

    def before(self) -> "_Read":
        """The same maps' blocks at n - 1, read on the same runs."""
        read = object.__new__(_Read)
        read.maps, read.plan, read.at, read.runs = self.maps, self.plan, 0, self.runs
        return read

    def shape(self, i: int) -> tuple:
        """The shape of the first map's block at walked degree i."""
        family, _, _, index = self.runs[0]
        return family.arrays[family.slots.data[index[self.at][i]][0]].shape[2:]

    def stack(self, idx: tuple) -> np.ndarray:
        # each degree's rows from the array its own slot names
        parts = []
        for family, members, _, index in self.runs:
            data, at = family.slots.data, index[self.at]
            arrays, rows = zip(*[data[at[i]] for i in idx])
            part = (_rows(family.arrays[arrays[0]], list(rows))
                    if arrays.count(arrays[0]) == len(arrays)
                    else np.stack([family.arrays[a][r] for a, r in zip(arrays, rows)]))
            parts.append(part if members is None else part[:, members])
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def wrong_shape(self, ranges, ns, shapes: tuple):
        """Smallest reported degree (see _first_failure) at which a map's
        block does not have the shape given for its degree in shapes, or
        None.  The maps of one family share their blocks' shapes, except
        where a map has no block: its zero block there has the shape of
        its complexes' terms, which shapes gives."""
        bad = []
        for family, members, start, index in self.runs:
            have = tuple([family.arrays[family.slots.data[i][0]].shape[2:]
                          for i in index[self.at]])
            if have != shapes:
                wrong = [n for n, a, b in zip(ns, have, shapes) if a != b]
                count = family.arrays[0].shape[1] if members is None else len(members)
                for j in range(start, start + count):
                    g = self.maps[j]
                    bad += [ranges[j].first(n) for n in wrong if g.clo <= n + self.at - 1 <= g.chi
                            or (g.neg_period if n + self.at - 1 < g.clo else g.pos_period)]
        return min(bad, default=None)


def _rows(array: np.ndarray, rows: list) -> np.ndarray:
    """array's rows at rows: a slice, with no copy, where they are
    consecutive."""
    r = rows[0]
    return array[r:r + len(rows)] if rows == list(range(r, r + len(rows))) else array.take(rows, 0)


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
    def _solved(self) -> weakref.WeakKeyDictionary:
        """{target, held weakly: {key: entry}}, what was solved for maps out
        of this complex; the modules docstring lists the entries."""
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
        return _check_range(self)

    def validate(self) -> None:
        for n in range(self.lo, self.hi + 1):
            if n not in self.terms:
                raise ValidationError(f"missing term at degree {n}")
        B = self._blocks
        for n, (t, _) in enumerate(B.data, B.lo - B.neg):  # every term (_Blocks)
            if t.algebra is not self.algebra:
                raise AlgebraMismatch(f"term at degree {n} lives over another algebra "
                                      f"({t.algebra.name}) than the complex ({self.algebra.name})")
        a, b = self.check_range()
        r = _Range.of(a, B)
        ns = r.walk(b)
        prev, cur = B.on([n - 1 for n in ns]), B.on(ns)
        for n, (tgt, _), (src, d) in zip(ns, prev, cur):
            if d.shape != (tgt.dim, src.dim):
                raise ValidationError(f"differential at degree {n} has wrong shape")
        d0, d1 = _Stacked([d for _, d in prev]), _Stacked([d for _, d in cur])
        bad = _first_failure([r], ns, _Keys.of([(s, t) for (t, _), (s, _) in zip(prev, cur)]),
                             _intertwining, d1)
        if bad is not None:
            raise ValidationError(
                f"differential at degree {bad[0]} does not intertwine action {bad[1]}")
        p = self.algebra.p
        bad = _first_failure([r._replace(a=a + 1)], ns,
                             _Keys.of([(x.shape, y.shape) for x, y in zip(d0, d1)]),
                             lambda _, d0, d1: (d0 @ d1) % p, d0, d1)
        if bad is not None:
            raise ValidationError(f"d*d != 0 at degree {bad[0]}")
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
    from blocks (the constructor, which _sample calls) makes from the
    blocks it keeps.  Its table (_blocks) is built on its first read.
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
        # from which _blocks builds the table on its first read
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
        """(family, member) of a lone map: its family of one, made with its
        table (every other map is made with its column)."""
        return self._blocks.family, 0

    @cached_property
    def _blocks(self) -> _Blocks:
        """The table, built on the first read: a lone map's from the blocks
        it keeps, which it then drops, every other map's from its column."""
        given = vars(self).get("_given")
        if given is None:
            return _table(self.source, self.target, self.shift, self.clo, self.chi,
                          *self._column, self.neg_period, self.pos_period)
        table = _held(self.source, self.target, self.shift, self.clo, self.chi, *given)
        del vars(self)["_given"]
        return table

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
        return _check_range(self, self.source, self.target)


class ChainMap(GradedMap):
    # whether the map is known to be a chain map at every degree: set on the
    # object by validate or by a constructor given checked=True, never by
    # ChainMap(...) or replace
    _checked = False

    def validate(self, *others: "ChainMap") -> None:
        """Check this map and any others, each over its own check range.

        Maps that share a source and a target are walked once and their
        checks stacked, so a whole basis of chain maps costs one batched
        product per group and side.  Errors come in the order shape,
        intertwining, commutation, each at its smallest failing degree:
        the least first failure (_check_walk) over the groups.

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
        bad = min(filter(None, [_check_walk(S, T, 0, fs) for (S, T), fs in groups.items()]),
                  default=None)
        if bad is not None:
            kind, n, i = bad
            raise ValidationError((f"component at degree {n} has wrong shape",
                                   f"component at degree {n} does not intertwine action {i}",
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


class _Walk:
    """The plan of one check walk of _check_walk: everything but the
    maps' values.  It depends only on S, T, k, the kind of right-hand
    side, and the profile (window and tail periods) of each object, and
    holds no map value and no check result.

    Check ranges are computed once per distinct profile, from the frame
    (_frame) of each object's walked map and the own window and tail
    periods of its right-hand side's maps, over which their blocks
    repeat as values (1 where a map has no tail): the frames of a loop's
    maps depend on a third complex, which the key does not fix.  The
    plan holds the walked degrees ns, the shapes of g (and of the
    right-hand side) there, the groups of degrees by module pair
    (twists) and by differential shapes (equations) as _first_failure
    groups them, the differential columns with their stacks per equation
    group, and, per frame read (a table's or a family's), where its
    blocks at ns and at n - 1 sit in its data.
    It holds no object of T but arrays: a module of T may hold T, as
    functors.stalk keeps a stalk on its module.  Equal group keys are held
    once, and the columns of ints are tuples, which the garbage collector
    stops tracking: a kept plan adds few objects to its full passes."""

    __slots__ = ("ranges", "eq_ranges", "ns", "prev", "shapes", "rhs_shapes", "twists",
                 "equations", "dS", "dT", "_index", "_loops", "__weakref__")

    def __init__(self, S: Complex, T: Complex, k: int, objects: list, profiles: tuple):
        Sb, Tb = S._blocks, T._blocks
        by_profile = {}
        for o, profile in zip(objects, profiles):
            if profile not in by_profile:
                a, b = _check_range(S, T, *o)
                r = _Range.of(a, Sb, Tb, _frame(S, T, k, *profile[0]), *[
                    (lo, hi, nq or 1, pq or 1) for lo, hi, nq, pq in profile[1:]])
                by_profile[profile] = (r, r._replace(a=r.a + 1 - k), b)
        self.ranges = tuple([by_profile[profile][0] for profile in profiles])
        self.eq_ranges = tuple([by_profile[profile][1] for profile in profiles])
        union = _Range.union([r for r, _, _ in by_profile.values()])
        ns = union._replace(a=union.a - k).walk(max([b for *_, b in by_profile.values()]))
        self.ns, self.prev = tuple(ns), tuple([n - 1 for n in ns])
        at = Tb.index([n + k for n in ns])
        S1, T1 = Sb.on(ns), [Tb.data[i] for i in at]
        self.shapes = tuple([(t.dim, s.dim) for (s, _), (t, _) in zip(S1, T1)])
        self.rhs_shapes = self.shapes if not k else tuple(
            [(t.dim, s.dim) for (s, _), (t, _) in zip(S1, Tb.on(ns))])
        # per group of module pairs, S's module and where T's sits in its table
        self.twists = tuple([((s, at[idx[0]]), idx) for (s, _), idx
                             in _grouped([(s, t) for (s, _), (t, _) in zip(S1, T1)])])
        dS, dT = [d for _, d in S1], [d for _, d in T1]
        self.equations = _Keys.of([(x.shape, y.shape) for x, y in zip(dS, dT)])
        self.dS, self.dT = _Stacked(dS), _Stacked(dT)
        self._index, self._loops = {}, {}

    def twist_keys(self, T: Complex) -> _Keys:
        """The module pairs (S_n, T_{n+k}) at the walked degrees, grouped."""
        data = T._blocks.data
        return _Keys(tuple([((s, data[i][0]), idx) for (s, i), idx in self.twists]),
                     len(self.ns))

    def loop_keys(self, f: "_Read") -> _Keys:
        """The equation groups split by the shape of the maps' blocks at
        each walked degree in f, which a third complex sets (the loops of
        _check_walk); computed once per distinct shapes."""
        shapes = tuple([f.shape(i) for i in range(len(self.ns))])
        keys = self._loops.get(shapes)
        if keys is None:
            keys = self._loops[shapes] = _Keys.of(list(zip(self.equations, shapes)))
        return keys

    def positions(self, table: _Blocks) -> tuple:
        """Where table's blocks at n - 1 and at n for n in ns sit in its
        data, as a pair indexed by 0 and 1; computed once per frame."""
        frame = table[:4]
        index = self._index.get(frame)
        if index is None:
            index = self._index[frame] = (table.index(self.prev), table.index(self.ns))
        return index


def _profile(g: GradedMap) -> tuple:
    return g.clo, g.chi, g.neg_period, g.pos_period


def _check_walk(S: Complex, T: Complex, k: int, maps: list, rhs: list | None = None,
                loops: list | None = None):
    """The first failing check of graded maps g: S_n -> T_{n+k}, walked
    once over the union of their check ranges, as (kind, degree, detail),
    or None.  The kinds run in order, each only when the ones before it
    pass: 0 a block of the wrong shape (detail 0), 1 a g that is no module
    map (detail the first failing action index), 2 the equation (detail
    the first failing row); each at its smallest reported degree.

    The equation is f d = d f for chain maps (k = 0, no right-hand side),
    d s + s d = f for homotopies (k = 1, rhs the map f of each), and
    d s + s d = g f - 1 for homotopies on S = T (k = 1, loops the pair
    (f, g) of each: chain maps f: S -> Z and g: Z -> S that passed
    ChainMap.validate, every f into one Z).  A homotopy's check range is
    that of it and its right-hand side's maps.  g_n f_n is one batched
    product per group, with no map built: the degrees are grouped by the
    shapes of f_n too, which Z sets, and each product is reduced mod p
    before the sum.  The equation reads g at n - 1 and n, reported from
    a + 1 for chain maps and from a for homotopies, whose walk starts at
    a - 1.  The walk's plan (_Walk) is kept as the module docstring
    says."""
    if loops is not None:
        objects, kind = [(h, *loop) for h, loop in zip(maps, loops)], "g f - 1"
    elif rhs is not None:
        objects, kind = list(zip(maps, rhs)), True
    else:
        objects, kind = [(g,) for g in maps], False
    one = {}  # equal profiles as one object, so that a kept key is small
    profiles = tuple([one.setdefault(q, q) for q in [tuple(map(_profile, o)) for o in objects]])
    key = ("walk", k, kind, profiles)
    plans = S._solved.get(T)
    if plans is None:
        plans = S._solved[T] = {}
    plan = plans.get(key)
    if plan is None:
        plan = _Walk(S, T, k, objects, profiles)
        # None marks a walk made once: a plan is kept from its second walk
        # on, so a walk made once keeps nothing but its key
        plans[key] = plan if key in plans else None
    ranges, ns = plan.ranges, plan.ns
    G1 = _Read(plan, maps)
    bad = [G1.wrong_shape(ranges, ns, plan.shapes)]
    if rhs is not None:
        F = _Read(plan, rhs)
        bad.append(F.wrong_shape(ranges, ns, plan.rhs_shapes))
    bad = min([n for n in bad if n is not None], default=None)
    if bad is not None:
        return 0, bad, 0
    bad = _first_failure(ranges, ns, plan.twist_keys(T), _intertwining, G1)
    if bad is not None:
        return 1, *bad
    G0, p = G1.before(), S.algebra.p
    if loops is not None:
        f, g = _Read(plan, [f for f, _ in loops]), _Read(plan, [g for _, g in loops])

        def minus_one(_, dT, s1, s0, dS, g, f):  # d s + s d - (g f - 1)
            r = dT @ s1 % p + s0 @ dS % p - g @ f % p
            m = r.shape[-1]
            r.reshape(*r.shape[:-2], m * m)[..., ::m + 1] += 1  # a view of each diagonal
            return r % p

        bad = _first_failure(plan.eq_ranges, ns, plan.loop_keys(f), minus_one,
                             plan.dT, G1, G0, plan.dS, g, f)
    elif rhs is None:
        bad = _first_failure(plan.eq_ranges, ns, plan.equations,
                             lambda _, f0, dS, dT, f1: (f0 @ dS - dT @ f1) % p,
                             G0, plan.dS, plan.dT, G1)
    else:
        bad = _first_failure(plan.eq_ranges, ns, plan.equations,
                             lambda _, dT, s1, s0, dS, f: (dT @ s1 + s0 @ dS) % p - f,
                             plan.dT, G1, G0, plan.dS, F)
    return bad and (2, *bad)


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


def _held(S: Complex, T: Complex, k: int, clo: int, chi: int, window: list,
          neg, pos) -> _Blocks:
    """The table of the one graded map S_n -> T_{n+k} with the blocks
    window on clo..chi (arrays, None for zero) and the tails neg, pos:
    (period, blocks), block i at clo - 1 - i, resp. chi + 1 + i, or None.
    Its family's frame is that of the table (_frame), with a row per
    distinct block object (_family); the table holds what the family
    holds of each block, and the shared zero block where the map has
    none.  It runs when a lone map's table or column is first read
    (GradedMap._blocks), not when the map is made."""
    nq, pq = neg[0] if neg else 0, pos[0] if pos else 0
    lo, hi, q, qp = frame = _frame(S, T, k, clo, chi, nq, pq)
    blocks, zeros = [], {}
    for n in range(lo - q, hi + qp + 1):
        m = ((neg[1][(clo - 1 - n) % nq] if nq else None) if n < clo
             else (pos[1][(n - chi - 1) % pq] if pq else None) if n > chi else window[n - clo])
        if m is None:
            m = zeros[len(blocks)] = modules.zero_block(S.algebra, T.term(n + k).dim,
                                                        S.term(n).dim)
        blocks.append(m)
    family, held = _family(frame, blocks)
    return _Blocks(*frame, tuple([zeros[i] if i in zeros else held[id(b)]
                                  for i, b in enumerate(blocks)]), family)


def _table(S: Complex, T: Complex, k: int, clo: int, chi: int, family: _Family, j: int,
           nq: int, pq: int) -> _Blocks:
    """The table of map j of family, a graded map S_n -> T_{n+k} with the
    window clo..chi and own tail periods nq, pq: at each degree of its
    frame (_frame) the view of its row in the family's arrays, one view
    per distinct (array, row), and where the map has none (outside its
    window and tails) the shared zero block of modules.zero_block."""
    lo, hi, q, qp = frame = _frame(S, T, k, clo, chi, nq, pq)
    where = (family.slots.data if family.slots[:4] == frame
             else family.slots.on(range(lo - q, hi + qp + 1)))
    views = {w: family.arrays[w[0]][w[1], j] for w in set(where)}
    data = [views[w] for w in where]
    for n in [*(range(lo - q, clo) if not nq else ()),
              *(range(chi + 1, hi + qp + 1) if not pq else ())]:
        data[n + q - lo] = modules.zero_block(S.algebra, *data[n + q - lo].shape)
    return _Blocks(*frame, tuple(data), family, j)


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
    family, whose arrays are the stacks, from which each map builds its
    table on its first read.  A tail block is the row of the window block
    it folds to, not a copy, and past an unfolded window every block is
    zero, one zero stack per shape.  A solution whose blocks on a tail are
    all zero has no tail there (_own_periods)."""
    k = len(stacks[lo])
    if not k:
        return []
    flo, fhi, nq, pq = frame = _frame(S, T, kind.shift, lo, hi, fold, fold)
    blocks, zeros = [], {}
    for n in range(flo - nq, fhi + pq + 1):
        if lo <= n <= hi:
            blocks.append(stacks[n])
        elif fold:
            blocks.append(stacks[lo + (n - lo) % fold if n < lo else hi - (hi - n) % fold])
        else:
            shape = (k, T.term(n + kind.shift).dim, S.term(n).dim)
            if shape not in zeros:
                zeros[shape] = np.zeros(shape, dtype=np.int64)
            blocks.append(zeros[shape])
    family = _family(frame, blocks)[0]
    return _members(kind, S, T, lo, hi, family, _own_periods(family, lo, hi, fold, fold))


def _own_periods(family: _Family, lo: int, hi: int, nq: int, pq: int) -> list:
    """Per map of family, its own tail periods as a map with the window
    lo..hi and a tail of period nq, pq (0 for none) on each side: 0 on a
    side where its blocks at lo - nq .. lo - 1, resp. hi + 1 .. hi + pq,
    are all zero, for a tail of zero blocks that a producer computes is no
    tail (as one that _sample samples).  One test per array a tail's
    slots name (window rows, where it folds), for every map at once."""
    if not (nq or pq):
        return [(0, 0)] * family.arrays[0].shape[1]
    sides = [(nq, set(family.slots.on(range(lo - nq, lo)))),
             (pq, set(family.slots.on(range(hi + 1, hi + pq + 1))))]
    # per array a tail reads: per row, per map, whether the block is nonzero
    live = {s: family.arrays[s].any(axis=(2, 3)).tolist()
            for s in {s for _, tail in sides for s, _ in tail}}
    return [tuple([q if any(live[s][r][j] for s, r in tail) else 0 for q, tail in sides])
            for j in range(family.arrays[0].shape[1])]


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
    table, own tail periods)."""
    return h.clo, h.chi, h._blocks, h.neg_period, h.pos_period


def _copied(kind, S: Complex, T: Complex, kept: tuple) -> GradedMap:
    """The map kind S -> T that kept (_kept) describes, on a copy of each
    of the table's arrays: what a remembered map hands a caller, who may
    write into it.  Where the map has no block it reads the shared
    read-only zero block, as every table does."""
    clo, chi, table, nq, pq = kept
    j = table.member
    family = table.family._replace(
        arrays=tuple([a[:, j:j + 1].copy() for a in table.family.arrays]))
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


def _from_tables(S, T, profile, op, f, g, checked=False) -> ChainMap:
    """The chain map S -> T whose component at n is op(f_n, g_n), on the
    window lo..hi and one period nq, pq of each tail (profile, which
    covers S and T), as chain_map_from_callable samples them.

    op runs on the operands' family columns, once per pair of arrays
    whose blocks meet at some degree, on (count, rows, cols) stacks of the
    rows that meet there, one array of the result's family per pair.
    Operands held on the result's frame with one layout of slots meet row
    by row, so op runs on their whole arrays, with no gather.  The result
    builds its table on its first read, and is validated, or with
    checked=True, which a caller passes when the operands prove it a
    chain map, marked as one (ChainMap.validate).
    """
    lo, hi, nq, pq = profile
    (F, jf), (G, jg) = f._column, g._column
    # a frame holds the result if it covers the window and its periods are
    # multiples of the profile's; an operand's own frame spares its gather.
    # Else a side with no tail reads one zero block
    frame = (lo, hi, nq or 1, pq or 1)
    for H in (F, G):
        if H.slots.lo <= lo and H.slots.hi >= hi and not (
                H.slots.neg % (nq or 1) or H.slots.pos % (pq or 1)):
            frame = H.slots[:4]
    ns = range(frame[0] - frame[2], frame[1] + frame[3] + 1)
    fw, gw = [H.slots.data if H.slots[:4] == frame else tuple(H.slots.on(ns)) for H in (F, G)]
    if fw == gw and F.slots[:4] == G.slots[:4] == frame:
        slots = fw
        parts = [(a, a, list(range(len(m))), list(range(len(m)))) for a, m in enumerate(F.arrays)]
    else:
        pairs, groups = {}, {}
        for a, b in dict.fromkeys(zip(fw, gw)):
            i, fr, gr = groups.setdefault((a[0], b[0]), (len(groups), [], []))
            pairs[a, b] = (i, len(fr))
            fr.append(a[1])
            gr.append(b[1])
        slots = tuple([pairs[pair] for pair in zip(fw, gw)])
        parts = [(a, b, fr, gr) for (a, b), (_, fr, gr) in groups.items()]
    family = _Family(_Blocks(*frame, slots), tuple([
        op(_rows(F.arrays[a], fr)[:, jf], _rows(G.arrays[b], gr)[:, jg])[:, None]
        for a, b, fr, gr in parts]))
    return _settled(_members(ChainMap, S, T, lo, hi, family,
                             _own_periods(family, lo, hi, nq, pq))[0], checked)


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
    ns = _Range.of(X.lo - max(X.neg_period, 1) - 1, B).walk(X.hi + max(X.pos_period, 1) + 1)
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
