"""The certificate checker: the one engine behind every check that a
certificate rests on.  Complex.validate, ChainMap.validate and homotopy's
verify_null_homotopy and _verify_inverse_payload run it through this
module (_check_complex, _check_walk), the only one that binds it, so one
patch here sees every check.  Of complexes it reads tables (_Blocks.on,
index), family columns, _frame, _same_terms and _map_profile, and it
imports no solver, homotopy, model structure or input/output module.

A check covers every degree of its check range (_check_range): the hull
of the windows of the objects it reads, widened by 2q+1 on each side,
where q is the lcm of all their tail periods.  It walks only the degrees
that carry distinct checks (_Range.walk): below the windows the check at
n equals the check at n + L, L the lcm of their negative tail periods,
and above them the check at n - L', L' the lcm of the positive ones, so
the walk keeps the first L degrees of the range, the windows, and the
first L' degrees after them.

One engine runs the checks (_first_failure), on the walked degrees
grouped by the modules or shapes they share (_grouped), with one array
per operand and one batched product per group and side: for a complex,
each differential's shape, that it is a module map, and d*d = 0
(_check_complex); for what a caller claims about maps, that its first
map is a module map at every action index, then its equation
(_check_walk).  A failing check is reported at the first degree of its
object's own range that carries it (_Range.first), so an error names the
same smallest failing degree, and for intertwining the same first
failing action index, as a check of that object alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import complexes, modules
from .errors import ValidationError


def _check_range(*objects) -> tuple:
    """The degrees a check of complexes / graded maps read together
    covers: the hull of their windows widened by 2q + 1 on each side, q
    the lcm of all their tail periods."""
    lo, hi, nq, pq = complexes._map_profile(*objects)
    q = math.lcm(nq, pq)
    return lo - 2 * q - 1, hi + 2 * q + 1


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


def _first_failure(ranges, ns, groups: tuple, check, *columns):
    """Smallest (degree, detail) over the checks that fail, or None; the
    check engine, run only from this module (_check_complex and
    _check_walk).

    Each object, given by its check range in ranges, has one check at each
    walked degree of ns.  A column holds one operand per walked degree: a
    matrix shared by the objects (_Stacked), or one matrix per object
    (_Read); column.shape(i) is the shape of its (first) matrix at walked
    degree i.  groups ((key, indices of its walked degrees), ...), as
    _grouped makes them, partition the walked degrees by the modules or
    shapes their operands share, and check(key, *stacks) runs once per group
    on each column stacked (column.stack), (g, 1, rows, cols) when shared
    and (g, objects, rows, cols) otherwise.  It returns an array (g,
    objects, details, ...) that is nonzero exactly where a check fails: its
    residue mod p, whose details are rows, or for intertwining one per
    action index.  A failing check is reported at the first degree of its
    object's range that carries it, with its first failing detail.  A group
    whose first operand has no rows or whose last has no columns holds.
    """
    failures = []
    first, last = columns[0], columns[-1]
    for key, idx in groups:
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

    __slots__ = ("at", "runs")

    def __init__(self, plan: "_Walk", maps: list):
        # runs: (family, its maps' columns, or None for all of them in
        # order, where the family's slots at n - 1 and at n sit in its
        # frame (_Walk.positions))
        self.at, runs = 1, []
        for g in maps:
            family, member = g._column
            if runs and runs[-1][0] is family:
                runs[-1][1].append(member)
            else:
                runs.append((family, [member], plan.positions(family.slots)))
        self.runs = [(family, None if members == list(range(family.arrays[0].shape[1]))
                      else members, index) for family, members, index in runs]

    def before(self) -> "_Read":
        """The same maps' blocks at n - 1, read on the same runs."""
        read = object.__new__(_Read)
        read.at, read.runs = 0, self.runs
        return read

    def shape(self, i: int) -> tuple:
        """The shape of the first map's block at walked degree i."""
        family, _, index = self.runs[0]
        return family.arrays[family.slots.data[index[self.at][i]][0]].shape[2:]

    def stack(self, idx: tuple) -> np.ndarray:
        # a group's blocks share one shape, and a family holds one array
        # per block shape, so the group's first slot names its array
        parts = []
        for family, members, index in self.runs:
            data, at = family.slots.data, index[self.at]
            part = _rows(family.arrays[data[at[idx[0]]][0]], [data[at[i]][1] for i in idx])
            parts.append(part if members is None else part[:, members])
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


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


def _check_complex(X: complexes.Complex):
    """The first failing check of the complex X over its check range, as
    (kind, degree, detail), or None: 0 a differential of the wrong shape
    (detail 0), 1 one that is no module map (detail the first failing
    action index), 2 d*d != 0 (detail the first failing row), in that
    order, each at its smallest failing degree."""
    B = X._blocks
    a, b = _check_range(X)
    r = _Range.of(a, B)
    ns = r.walk(b)
    prev, cur = B.on([n - 1 for n in ns]), B.on(ns)
    for n, (tgt, _), (src, d) in zip(ns, prev, cur):
        if d.shape != (tgt.dim, src.dim):
            return 0, n, 0
    d0, d1 = _Stacked([d for _, d in prev]), _Stacked([d for _, d in cur])
    bad = _first_failure([r], ns, _grouped([(s, t) for (t, _), (s, _) in zip(prev, cur)]),
                         _intertwining, d1)
    if bad is not None:
        return 1, *bad
    p = X.algebra.p
    bad = _first_failure([r._replace(a=a + 1)], ns,
                         _grouped([(x.shape, y.shape) for x, y in zip(d0, d1)]),
                         lambda _, d0, d1: (d0 @ d1) % p, d0, d1)
    return bad and (2, *bad)


class _Walk:
    """The plan of one check walk of _check_walk.  It depends only on S,
    T, k, the kind of right-hand side, and the profile (window and tail
    periods) of each object, and holds no map value and no check result.

    Check ranges are computed once per distinct profile, from the frame
    (_frame) of each object's walked map and the own window and tail
    periods of its right-hand side's maps, over which their blocks
    repeat as values (1 where a map has no tail): the frames of f and g
    in an (h, f, g) depend on a third complex, which the key does not
    fix.  The plan holds the walked degrees ns, the groups of degrees by
    module pair (twists, with where T's module sits in its table;
    twist_keys gives the groups for one T) and by differential shapes
    (equations; split by the shape of f_n in loop_keys), each in the
    form _first_failure takes (_grouped), the differential columns with
    their stacks per equation group, and, per frame read (a table's or a
    family's), where its blocks at ns and at n - 1 sit in its data.
    It holds no object of T but arrays: a module of T may hold T, as
    functors.stalk keeps a stalk on its module.  Equal group keys are held
    once, and the columns of ints are tuples, which the garbage collector
    stops tracking: a kept plan adds few objects to its full passes."""

    __slots__ = ("ranges", "eq_ranges", "ns", "prev", "twists", "equations", "dS", "dT",
                 "_index", "_loops", "__weakref__")

    def __init__(self, S, T, k: int, objects: list, profiles: tuple):
        Sb, Tb = S._blocks, T._blocks
        by_profile = {}
        for o, profile in zip(objects, profiles):
            if profile not in by_profile:
                a, b = _check_range(S, T, *o)
                r = _Range.of(a, Sb, Tb, complexes._frame(S, T, k, *profile[0]), *[
                    (lo, hi, nq or 1, pq or 1) for lo, hi, nq, pq in profile[1:]])
                by_profile[profile] = (r, r._replace(a=r.a + 1 - k), b)
        self.ranges = tuple([by_profile[profile][0] for profile in profiles])
        self.eq_ranges = tuple([by_profile[profile][1] for profile in profiles])
        union = _Range.union([r for r, _, _ in by_profile.values()])
        ns = union._replace(a=union.a - k).walk(max([b for *_, b in by_profile.values()]))
        self.ns, self.prev = tuple(ns), tuple([n - 1 for n in ns])
        at = Tb.index([n + k for n in ns])
        S1, T1 = Sb.on(ns), [Tb.data[i] for i in at]
        # per group of module pairs, S's module and where T's sits in its table
        self.twists = tuple([((s, at[idx[0]]), idx) for (s, _), idx
                             in _grouped([(s, t) for (s, _), (t, _) in zip(S1, T1)])])
        dS, dT = [d for _, d in S1], [d for _, d in T1]
        self.equations = _grouped([(x.shape, y.shape) for x, y in zip(dS, dT)])
        self.dS, self.dT = _Stacked(dS), _Stacked(dT)
        self._index, self._loops = {}, {}

    def twist_keys(self, T: complexes.Complex) -> tuple:
        """The groups of module pairs (S_n, T_{n+k}) at the walked degrees."""
        return tuple([((s, T._blocks.data[i][0]), idx) for (s, i), idx in self.twists])

    def loop_keys(self, f: "_Read") -> tuple:
        """The equation groups, each split by the shape of the maps' blocks
        at its walked degrees in f, which a third complex sets (the
        (h, f, g) of _check_walk); computed once per distinct shapes."""
        shapes = tuple([f.shape(i) for i in range(len(self.ns))])
        groups = self._loops.get(shapes)
        if groups is None:
            groups = self._loops[shapes] = tuple([
                ((key, shape), tuple([idx[i] for i in sub])) for key, idx in self.equations
                for shape, sub in _grouped([shapes[i] for i in idx])])
        return groups

    def positions(self, table: complexes._Blocks) -> tuple:
        """Where table's blocks at n - 1 and at n for n in ns sit in its
        data, as a pair indexed by 0 and 1; computed once per frame."""
        frame = table[:4]
        index = self._index.get(frame)
        if index is None:
            index = self._index[frame] = (table.index(self.prev), table.index(self.ns))
        return index


def _profile(g: complexes.GradedMap) -> tuple:
    return g.clo, g.chi, g.neg_period, g.pos_period


def _check_walk(objects: list):
    """The first failing check of the objects, as (kind, degree, detail),
    or None: 0 an object's first map that is no module map (detail the
    first failing action index), else 1 its equation (detail the first
    failing row), each at its smallest reported degree.  An object is
    what a caller claims, and its kind fixes the degree k of its first
    map: (g,) a chain map g (k = 0), g d = d g; (s, f) a homotopy s of
    the chain map f (k = 1), d s + s d = f; (h, f, g) a homotopy h on
    S = T of g f - 1 (k = 1), d h + h d = g f - 1, for chain maps
    f: S -> Z and g: Z -> S that passed ChainMap.validate.

    An object is walked between the complexes S and T of the chain maps
    it claims about: g's ends, f's ends, or f's source and g's target;
    its first map is read as a map S_n -> T_{n+k}, and needs only their
    terms (_runs).  Objects of one kind between one S and one T are
    walked once (_walk), over the union of their check ranges; each
    object's own range lies inside it and its periods divide the joint
    ones, so the joint walk runs a superset of each object's checks.  The
    result is the least first failure over the walks, each reported as
    the module docstring says.  A first map of degree other than k, an f
    or g of degree other than 0, or a map between complexes of other
    terms (_same_terms) raises ValidationError, as one whose blocks do
    not fit does when the walk first lays it out (_lone); the f of one
    walk's (h, f, g) all run into one Z."""
    groups = {}
    for o in objects:
        groups.setdefault((o[min(1, len(o) - 1)].source, o[-1].target, len(o)), []).append(o)
    return min(filter(None, [_walk(S, T, group) for (S, T, _), group in groups.items()]),
               default=None)


def _walk(S: complexes.Complex, T: complexes.Complex, objects: list):
    """The first failure of _check_walk over objects of one kind between S
    and T, walked once.  For g f - 1, g_n f_n is one batched product per
    group, with no map built: the degrees are grouped by the shapes of f_n
    too, which Z sets, and each product is reduced mod p before the sum.
    The equation reads the first map at n - 1 and n, reported from a + 1 for
    chain maps and from a for homotopies, whose walk starts at a - 1.  The
    walk's plan (_Walk) is kept in S._solved[T], so it goes with T."""
    k = min(1, len(objects[0]) - 1)
    for g, *rhs in objects:
        Z = rhs[0].target if len(rhs) == 2 else T  # f: S -> Z, g: Z -> T in an (h, f, g)
        if not (_runs(g, k, S, T) and all([_runs(f, 0, a, b) for f, a, b
                                           in zip(rhs, (S, Z), (Z, T))])):
            raise ValidationError("a map of another degree or between other terms in a walk")
    kind = (False, True, "g f - 1")[len(objects[0]) - 1]
    one = {}  # equal profiles as one object, so that a kept key is small
    profiles = tuple([one.setdefault(q, q) for q in [tuple(map(_profile, o)) for o in objects]])
    key = ("walk", k, kind, profiles)
    plans = S._solved.setdefault(T, {})
    plan = plans.get(key)
    if plan is None:
        plan = _Walk(S, T, k, objects, profiles)
        # None marks a walk made once: a plan is kept from its second walk
        # on, so a walk made once keeps nothing but its key
        plans[key] = plan if key in plans else None
    ns = plan.ns
    G1, *rhs = [_Read(plan, list(c)) for c in zip(*objects)]
    bad = _first_failure(plan.ranges, ns, plan.twist_keys(T), _intertwining, G1)
    if bad is not None:
        return 0, *bad
    G0, p = G1.before(), S.algebra.p
    if len(rhs) == 2:
        f, g = rhs

        def minus_one(_, dT, s1, s0, dS, g, f):  # d s + s d - (g f - 1)
            r = dT @ s1 % p + s0 @ dS % p - g @ f % p
            m = r.shape[-1]
            r.reshape(*r.shape[:-2], m * m)[..., ::m + 1] += 1  # a view of each diagonal
            return r % p

        bad = _first_failure(plan.eq_ranges, ns, plan.loop_keys(f), minus_one,
                             plan.dT, G1, G0, plan.dS, g, f)
    elif not rhs:
        bad = _first_failure(plan.eq_ranges, ns, plan.equations,
                             lambda _, f0, dS, dT, f1: (f0 @ dS - dT @ f1) % p,
                             G0, plan.dS, plan.dT, G1)
    else:
        bad = _first_failure(plan.eq_ranges, ns, plan.equations,
                             lambda _, dT, s1, s0, dS, f: (dT @ s1 + s0 @ dS) % p - f,
                             plan.dT, G1, G0, plan.dS, *rhs)
    return bad and (1, *bad)


def _runs(g, k: int, S, T) -> bool:
    """Whether the graded map g reads as a map S_n -> T_{n+k} in a walk:
    of degree k, between complexes with the terms of the complexes S and T."""
    same = complexes._same_terms
    return g.shift == k and same(g.source, S) and same(g.target, T)

