"""Distinct-block walks: the same checks as a walk over every degree.

The reference walks below are the range walks the checks used before
they walked distinct blocks: they read every degree of the check range
through an independent copy of the old accessors and keep, per distinct
tuple of objects, its first degree.  The checks under test are recorded
at the stacked check engine, _first_failure, one per object and walked
degree at the degree the engine reports for it, and must give the same
map from distinct tuples to first degrees.  The failure cases pin the
smallest failing degree, and the action index, far out in a tail and at
a seam, for one object alone and for one corrupted object among many.
"""

import dataclasses
import gc
import random
import weakref

import numpy as np
import pytest

from conftest import (mismatched_cone, mono_quasi_iso, periodic_complex,
                      random_chain_map, random_contractible, random_d2_complex,
                      truncated_polynomial)
import singeq.check
from singeq import cli, complexes, fixtures, functors, homotopy, linalg, modelcat, modules, solver
from singeq.complexes import Complex, ChainMap, Tail, identity_chain_map
from singeq.errors import ValidationError
from singeq.homotopy import YES


# -- the old accessors and range walks ----------------------------------


def old_term(X, n):
    if X.lo <= n <= X.hi:
        return X.terms[n]
    if n < X.lo:
        if X.neg_tail is None:
            return modules.zero_module(X.algebra)
        return X.neg_tail.terms[(X.lo - 1 - n) % X.neg_tail.period]
    if X.pos_tail is None:
        return modules.zero_module(X.algebra)
    return X.pos_tail.terms[(n - X.hi - 1) % X.pos_tail.period]


def old_diff(X, n):
    def zero():
        return modules.zero_block(X.algebra, old_term(X, n - 1).dim, old_term(X, n).dim)

    if X.lo + 1 <= n <= X.hi:
        return X.diffs[n]
    if n == X.lo:
        return X.neg_seam if X.neg_tail is not None and X.neg_seam is not None else zero()
    if n < X.lo:
        return zero() if X.neg_tail is None else \
            X.neg_tail.diffs[(X.lo - 1 - n) % X.neg_tail.period]
    if n == X.hi + 1:
        return X.pos_seam if X.pos_tail is not None and X.pos_seam is not None else zero()
    return zero() if X.pos_tail is None else \
        X.pos_tail.diffs[(n - X.hi - 1) % X.pos_tail.period]


def old_component(f, n):
    if f.clo <= n <= f.chi:
        m = f.components.get(n)
        if m is not None:
            return m
    elif n < f.clo and f.neg is not None:
        return f.neg[1][(f.clo - 1 - n) % f.neg[0]]
    elif n > f.chi and f.pos is not None:
        return f.pos[1][(n - f.chi - 1) % f.pos[0]]
    return modules.zero_block(f.source.algebra, old_term(f.target, n + f.shift).dim,
                              old_term(f.source, n).dim)


def old_complex_walk(X):
    a, b = X.check_range()
    maps = [(n, old_term(X, n), old_term(X, n - 1), old_diff(X, n))
            for n in range(a, b + 1)]
    return maps, [(n + 1, d0, d1) for (n, *_, d0), (*_, d1) in zip(maps, maps[1:])]


def old_chain_map_walk(*fs):
    entries, checks = [], []
    for f in fs:
        S, T = f.source, f.target
        a, b = f.check_range()
        maps = [(n, old_term(S, n), old_term(T, n), old_component(f, n))
                for n in range(a, b + 1)]
        entries += maps
        checks += [(n, f0, old_diff(S, n), old_diff(T, n), f1)
                   for (*_, f0), (n, *_, f1) in zip(maps, maps[1:])]
    return entries, checks


def old_homotopy_walk(*pairs):
    entries, checks = [], []
    for f, s in pairs:
        X, Y = f.source, f.target
        q = complexes._lcm([f.neg_period, f.pos_period, s.neg_period, s.pos_period,
                            X.neg_period, X.pos_period, Y.neg_period, Y.pos_period])
        a = min(f.clo, s.clo, X.lo, Y.lo) - 2 * q - 1
        b = max(f.chi, s.chi, X.hi, Y.hi) + 2 * q + 1
        maps = [(n, old_term(X, n), old_term(Y, n + 1), old_component(s, n))
                for n in range(a - 1, b + 1)]
        entries += maps[1:]
        checks += [(n, old_diff(Y, n + 1), sn, sm, old_diff(X, n), old_component(f, n))
                   for (*_, sm), (n, *_, sn) in zip(maps, maps[1:])]
    return entries, checks


def first_degrees(tuples) -> dict:
    """Distinct tuple of objects (by identity) -> its smallest degree."""
    out = {}
    for n, *objs in tuples:
        key = tuple(map(id, objs))
        out[key] = min(n, out.get(key, n))
    return out


def recorded(check):
    """(intertwining entries, residue checks) that check() runs, one per
    object and walked degree, as (reported degree, *objects).

    The engine (check._first_failure) takes the checks as columns
    stacked over the walked degrees and the objects; the hook unstacks
    them, reading each map column's maps from the walk (read_maps).  An
    intertwining check names its modules in its group key.
    """
    seen = ([], [])
    real = singeq.check._first_failure

    def first_failure(ranges, ns, groups, test, *columns):
        keys = {i: key for key, idx in groups for i in idx}
        entries = test is singeq.check._intertwining
        for j, r in enumerate(ranges):
            for i, n in enumerate(ns):
                objs = [maps(c)[j].component(n - 1 + c.at)
                        if isinstance(c, singeq.check._Read) else c[i] for c in columns]
                seen[0 if entries else 1].append(
                    (r.first(n), *(keys[i] if entries else ()), *objs))
        return real(ranges, ns, groups, test, *columns)

    with pytest.MonkeyPatch.context() as mp:
        maps = read_maps(mp)
        mp.setattr(singeq.check, "_first_failure", first_failure)
        check()
    return seen


def read_maps(mp):
    """From now on, the maps each map column of a walk (check._Read) reads:
    the maps at one position of the objects the walk was handed, as a
    function of the column, recorded where the walk makes the column
    (its before() shares the column's runs)."""
    made = {}
    real = singeq.check._Read.__init__

    def init(self, plan, maps):
        real(self, plan, maps)
        made[id(self.runs)] = (self.runs, maps)

    mp.setattr(singeq.check._Read, "__init__", init)
    return lambda column: made[id(column.runs)][1]


def assert_same_walk(check, reference):
    entries, checks = recorded(check)
    ref_entries, ref_checks = reference
    assert first_degrees(entries) == first_degrees(ref_entries)
    assert first_degrees(checks) == first_degrees(ref_checks)


# -- inputs -------------------------------------------------------------


def htpy_complexes():
    """T_j over D3/F2 and D4/F3 with their shifts by one: period 2."""
    out = []
    for n, p in ((3, 2), (4, 3)):
        alg = truncated_polynomial(n, p)
        for j in range(1, n):
            T = periodic_complex(alg, j)
            out += [T, complexes.reindex(T, 1)]
    return out


def bounded_complexes(count=25):
    rng = random.Random(11)
    return [random_d2_complex(rng) for _ in range(count)] + \
        [random_contractible(rng) for _ in range(5)]


@pytest.fixture(scope="module")
def cone_mixed():
    return mismatched_cone()


@pytest.fixture(scope="module")
def htpy_bases():
    """Period-4 chain-map bases between period-2 complexes."""
    alg = truncated_polynomial(4, 2)
    X, Y = periodic_complex(alg, 1), periodic_complex(alg, 3)
    return [solver.chain_map_space_basis(S, T)[0]
            for S, T in ((X, X), (X, Y), (X, complexes.reindex(Y, 1)))]


# -- the same checks ------------------------------------------------------


class TestSameChecks:
    def test_complex_validate(self, cone_mixed, t_per, contractible):
        for X in [*bounded_complexes(), *htpy_complexes(), t_per, contractible,
                  cone_mixed, complexes.reindex(t_per, 3)]:
            assert_same_walk(X.validate, old_complex_walk(X))

    def test_is_exact(self, cone_mixed, t_per):
        for X in [*bounded_complexes(), *htpy_complexes(), t_per, cone_mixed]:
            # a fresh copy: the verdict of a cached fixture may be memoized
            _, checks = recorded(lambda: complexes.is_exact(dataclasses.replace(X)))
            assert first_degrees(checks) == first_degrees(old_complex_walk(X)[1])

    def test_chain_map_validate_bounded(self):
        rng = random.Random(5)
        maps = [mono_quasi_iso(rng) for _ in range(10)]
        for _ in range(10):
            X, Y = random_d2_complex(rng), random_d2_complex(rng)
            maps.append(random_chain_map(rng, X, Y))
        for f in maps:
            assert_same_walk(f.validate, old_chain_map_walk(f))

    def test_chain_map_validate_periodic_bases(self, htpy_bases):
        for basis in htpy_bases:
            assert any(f.neg_period == 4 for f in basis)
            assert_same_walk(lambda: basis[0].validate(*basis[1:]),
                             old_chain_map_walk(*basis))

    def test_chain_map_validate_mismatched_periods(self, cone_mixed):
        f = identity_chain_map(cone_mixed)
        assert (f.neg_period, f.pos_period) == (2, 1)
        assert_same_walk(f.validate, old_chain_map_walk(f))

    def test_verify_null_homotopy_bounded(self):
        rng = random.Random(3)
        pairs = []
        for _ in range(6):
            X, C = random_d2_complex(rng), random_contractible(rng)
            basis, _ = solver.chain_map_space_basis(X, C)
            pairs += [(f, r.homotopy) for f, r
                      in zip(basis, homotopy.null_homotopies(basis)) if r.verdict == YES]
        assert pairs
        assert_same_walk(lambda: homotopy.verify_null_homotopy(*pairs[0], *pairs[1:]),
                         old_homotopy_walk(*pairs))

    def test_verify_null_homotopy_periodic(self, htpy_bases, cone_mixed):
        pairs = []
        for f in htpy_bases[0][:3]:
            res = homotopy.null_homotopy(f)
            if res.verdict == YES:
                pairs.append((f, res.homotopy))
        res = homotopy.null_homotopy(identity_chain_map(cone_mixed))
        assert res.verdict == YES
        pairs.append((res.certificate.payload["map"], res.homotopy))
        for pair in pairs:
            assert_same_walk(lambda: homotopy.verify_null_homotopy(*pair),
                             old_homotopy_walk(pair))
        assert_same_walk(lambda: homotopy.verify_null_homotopy(*pairs[0], *pairs[1:]),
                         old_homotopy_walk(*pairs))

    def test_rank_and_class_tests(self, cone_mixed, htpy_bases, t_per):
        rng = random.Random(9)
        maps = [mono_quasi_iso(rng) for _ in range(5)] + \
            [f for basis in htpy_bases for f in basis] + [identity_chain_map(cone_mixed)]
        for f in maps:
            p, (a, b) = f.source.algebra.p, f.check_range()
            comps = [old_component(f, n) for n in range(a, b + 1)]
            assert f.is_mono() == all(
                linalg.rank(m, p) == old_term(f.source, n).dim
                for n, m in zip(range(a, b + 1), comps))
            assert f.is_epi() == all(
                linalg.rank(m, p) == old_term(f.target, n).dim
                for n, m in zip(range(a, b + 1), comps))
            assert f.is_zero() == (not any(m.any() for m in comps))
        for X in [*bounded_complexes(), *htpy_complexes(), t_per, cone_mixed]:
            q = complexes._lcm([X.neg_period, X.pos_period])
            for which, attr in (("proj", "is_projective"), ("inj", "is_injective")):
                assert homotopy._terms_in_class(X, which) == all(
                    getattr(old_term(X, n), attr)
                    for n in range(X.lo - q, X.hi + q + 1))
                q1 = max(q, 1)
                assert modelcat._cycles_in_class(X, which) == all(
                    getattr(modules.kernel(modules.ModuleMap(
                        old_term(X, n), old_term(X, n - 1), old_diff(X, n)))[0], attr)
                    for n in range(X.lo - q1, X.hi + q1 + 1))

    def test_accessors_match_the_old_fold(self, cone_mixed, htpy_bases):
        for X in [*bounded_complexes(5), *htpy_complexes(), cone_mixed]:
            a, b = X.check_range()
            for n in range(a - 5, b + 6):
                assert X.term(n) is old_term(X, n) and X.diff(n) is old_diff(X, n)
        for f in [*htpy_bases[1], identity_chain_map(cone_mixed)]:
            a, b = f.check_range()
            for n in range(a - 5, b + 6):
                assert f.component(n) is old_component(f, n)


# -- smallest failing degree far out in a tail ------------------------------


def _d2():
    A = fixtures.regular_D2()
    x = A.algebra.left_multiplication(1)
    one, zero = linalg.eye(2), linalg.zeros(2, 2)
    twist = np.array([[1, 0], [0, 0]], dtype=np.int64)  # not D2-linear
    return A, x, one, zero, twist


def complex_failing_in_left_tail():
    """d*d != 0 at one pair of a period-4 negative tail (1, 1, 0, 0)."""
    A, x, one, zero, _ = _d2()
    return Complex(A.algebra, 0, 1, {0: A, 1: A}, {1: x},
                   neg_tail=Tail(4, (A,) * 4, (one, one, zero, zero)), neg_seam=zero)


def complex_failing_in_right_tail():
    """d*d != 0 at one pair of a period-4 positive tail."""
    A, x, one, zero, _ = _d2()
    return Complex(A.algebra, 0, 1, {0: A, 1: A}, {1: x},
                   pos_tail=Tail(4, (A,) * 4, (zero, one, one, zero)), pos_seam=zero)


def complex_twisted_in_left_tail():
    """One block of a period-2 negative tail is not a module map."""
    A, x, _, _, twist = _d2()
    return Complex(A.algebra, 0, 0, {0: A}, {},
                   neg_tail=Tail(2, (A, A), (x, twist)), neg_seam=x)


def complex_failing_at_seam():
    """T_per with the identity as its negative seam: d*d fails at lo only."""
    A, x, one, _, _ = _d2()
    tail = Tail(1, (A,), (x,))
    return Complex(A.algebra, 0, 0, {0: A}, {}, neg_tail=tail, pos_tail=tail,
                   neg_seam=one, pos_seam=x)


def complex_twisted_at_seam():
    A, x, _, _, twist = _d2()
    tail = Tail(1, (A,), (x,))
    return Complex(A.algebra, 2, 3, {2: A, 3: A}, {3: x}, neg_tail=tail,
                   pos_tail=tail, neg_seam=x, pos_seam=twist)


def _periodic_map(side, block, delta):
    """A period-4 chain map T_1 -> T_1 over D4/F2 with one tail block
    changed by delta (a matrix, or a function of the block)."""
    alg = truncated_polynomial(4, 2)
    X = periodic_complex(alg, 1)
    basis, _ = solver.chain_map_space_basis(X, X)
    f = next(g for g in basis if g.neg is not None and g.pos is not None)
    tails = {"neg": f.neg, "pos": f.pos}
    q, blocks = tails[side]
    blocks = list(blocks)
    blocks[block] = delta(blocks[block]) % 2
    tails[side] = (q, tuple(blocks))
    return ChainMap(X, X, dict(f.components), f.clo, f.chi, tails["neg"], tails["pos"])


def map_failing_in_left_tail():
    """f d != d f in one block of the negative tail (plus the identity,
    which is D4-linear, so intertwining still holds)."""
    return _periodic_map("neg", 2, lambda m: m + linalg.eye(len(m)))


def map_twisted_in_left_tail():
    twist = np.zeros((4, 4), dtype=np.int64)
    twist[0, 0] = 1
    return _periodic_map("neg", 1, lambda m: m + twist)


def map_failing_in_right_tail():
    return _periodic_map("pos", 3, lambda m: m + linalg.eye(len(m)))


# message of each case's validate(), as the range walk over every degree
# reported it
FAILURES = [
    (complex_failing_in_left_tail, "d*d != 0 at degree -5"),
    (complex_failing_in_right_tail, "d*d != 0 at degree 4"),
    (complex_twisted_in_left_tail,
     "differential at degree -4 does not intertwine action 1"),
    (complex_failing_at_seam, "d*d != 0 at degree 0"),
    (complex_twisted_at_seam, "differential at degree 4 does not intertwine action 1"),
    (map_failing_in_left_tail, "does not commute with d at degree -11"),
    (map_twisted_in_left_tail, "component at degree -10 does not intertwine action 1"),
    (map_failing_in_right_tail, "does not commute with d at degree 9"),
]


class TestSmallestFailingDegree:
    @pytest.mark.parametrize("build, message", FAILURES,
                             ids=[b.__name__ for b, _ in FAILURES])
    def test_reported_degree(self, build, message):
        with pytest.raises(ValidationError) as err:
            build().validate()
        assert str(err.value) == message


# -- joint checks: one corrupted object among many ----------------------------


def changed(f, n, delta):
    """f (a chain map or homotopy) with delta added to its block at degree
    n: a window component, or the tail block that degree reads."""
    p = f.source.algebra.p
    comps, tails = dict(f.components), {"neg": f.neg, "pos": f.pos}
    if f.clo <= n <= f.chi:
        comps[n] = (f.component(n) + delta) % p
    else:
        side, i = ("neg", f.clo - 1 - n) if n < f.clo else ("pos", n - f.chi - 1)
        q, blocks = tails[side]
        blocks = list(blocks)
        blocks[i % q] = (blocks[i % q] + delta) % p
        tails[side] = (q, tuple(blocks))
    return type(f)(f.source, f.target, comps, f.clo, f.chi, tails["neg"], tails["pos"])


def corrupted(f):
    """Copies of f with one block changed, each failing validation alone:
    in the window, at its first degree (the seam with the negative tail),
    and one period into each tail; by a unit entry (no module map, so
    intertwining fails at some action index) or by a module map (so only
    f d = d f can fail)."""
    degrees = {"window": (f.clo + f.chi) // 2, "seam": f.clo}
    if f.neg is not None:
        degrees["neg tail"] = f.clo - 1 - f.neg[0]
    if f.pos is not None:
        degrees["pos tail"] = f.chi + 1 + f.pos[0]
    out = []
    for where, n in degrees.items():
        s, t = f.source.term(n), f.target.term(n)
        if not (s.dim and t.dim):
            continue
        unit = linalg.zeros(t.dim, s.dim)
        unit[0, 0] = 1
        for kind, deltas in (("entry", [unit]), ("module map", modules.hom_stack(s, t))):
            for delta in deltas:
                g = changed(f, n, delta)
                try:
                    g.validate()
                except ValidationError as err:
                    out.append((where, kind, g, str(err)))
                    break
    return out


def bounded_bases():
    rng = random.Random(8)
    out = []
    while len(out) < 3:
        X, Y = random_d2_complex(rng), random_d2_complex(rng)
        basis, _ = solver.chain_map_space_basis(X, Y)
        if len(basis) >= 3:
            out.append(basis)
    return out


def doubled(f):
    """f with its tails written over twice their periods: the same map,
    with a wider check range."""
    return ChainMap(f.source, f.target, f.components, f.clo, f.chi,
                    *[(2 * t[0], t[1] * 2) if t else None for t in (f.neg, f.pos)])


class TestJointChecks:
    def test_one_corrupted_map_reports_as_alone(self, htpy_bases):
        seen = set()
        for basis in [*htpy_bases, *bounded_bases()]:
            # a map whose check range reaches further than any other's
            wide = doubled(next((f for f in basis if f.neg), basis[0]))
            for j in (0, len(basis) // 2, len(basis) - 1):
                for where, kind, bad, alone in corrupted(basis[j]):
                    maps = [*basis[:j], bad, *basis[j + 1:], wide]
                    with pytest.raises(ValidationError) as err:
                        maps[0].validate(*maps[1:])
                    assert str(err.value) == alone, (where, kind)
                    seen.add((where, alone.split(" at ")[0]))
        assert {where for where, _ in seen} == {"window", "seam", "neg tail", "pos tail"}
        assert {what for _, what in seen} == {"component", "does not commute with d"}

    def test_maps_with_other_ends_are_walked_apart(self, htpy_bases):
        XX, XY, XY1 = htpy_bases
        for where, kind, bad, alone in corrupted(XY[0]):
            for maps in ([XX[0], bad], [XX[1], bad, *XY1, *XX], [bad, *XY1]):
                with pytest.raises(ValidationError) as err:
                    maps[0].validate(*maps[1:])
                assert str(err.value) == alone

    def test_errors_compare_by_kind_then_degree_across_groups(self, t_per):
        # maps with other ends are walked apart; the error raised is the
        # first kind (shape, intertwining, commutation) that fails in any
        # group, at its smallest degree over the groups
        X, Y = t_per, complexes.reindex(t_per, 1)
        unit = linalg.zeros(2, 2)
        unit[0, 0] = 1  # no module map: it does not commute with x

        def only(Z, n, m):
            return ChainMap(Z, Z, {n: m}, n, n)

        cases = [((only(X, 3, linalg.zeros(1, 1)), only(Y, -2, linalg.eye(2))),
                  "component at degree 3 has wrong shape"),
                 ((only(X, 4, unit), only(Y, 1, unit)),
                  "component at degree 1 does not intertwine action 1"),
                 ((only(X, 1, unit), only(Y, 4, unit)),
                  "component at degree 1 does not intertwine action 1")]
        for maps, message in cases:
            for f, g in (maps, maps[::-1]):
                with pytest.raises(ValidationError) as err:
                    f.validate(g)
                assert str(err.value) == message
        # alone, each map fails at its own degree: the shape error beats a
        # smaller one
        alone = []
        for f in [f for maps, _ in cases for f in maps]:
            with pytest.raises(ValidationError) as err:
                f.validate()
            alone.append(str(err.value).split(" at degree ")[1])
        assert alone == ["3 has wrong shape", "-2", "4 does not intertwine action 1",
                         "1 does not intertwine action 1", "1 does not intertwine action 1",
                         "4 does not intertwine action 1"]

    def test_one_corrupted_homotopy_fails_the_joint_check(self, htpy_bases):
        rng = random.Random(3)
        groups = []
        for _ in range(4):
            X, C = random_d2_complex(rng), random_contractible(rng)
            basis, _ = solver.chain_map_space_basis(X, C)
            groups.append([(f, r.homotopy) for f, r
                           in zip(basis, homotopy.null_homotopies(basis))
                           if r.verdict == YES])
        results = [(f, homotopy.null_homotopy(f)) for f in htpy_bases[0][:4]]
        groups.append([(f, r.homotopy) for f, r in results if r.verdict == YES])
        checked = 0
        for pairs in groups:
            if not pairs:
                continue
            assert homotopy.verify_null_homotopy(*pairs[0], *pairs[1:])
            for j, (f, s) in enumerate(pairs):
                n = next((n for n in range(s.clo, s.chi + 1) if s.component(n).size), None)
                if n is None:
                    continue
                unit = linalg.zeros(*s.component(n).shape)
                unit[0, 0] = 1
                bad = [*pairs[:j], (f, changed(s, n, unit)), *pairs[j + 1:]]
                assert not homotopy.verify_null_homotopy(*bad[j])
                assert not homotopy.verify_null_homotopy(*bad[0], *bad[1:])
                checked += 1
        assert checked >= 10


# -- walk groups --------------------------------------------------------------


def walk_groups(check) -> list:
    """(kind, key of each walked degree, groups) of every module-pair
    grouping (_Walk.twist_keys) and every loop grouping (_Walk.loop_keys)
    that check() hands the check engine from _check_walk; each degree's
    key is worked out from the maps' complexes, as the plan keys it: the
    modules (S_n, T_{n+k}), or the shapes of dS_n and dT_{n+1} with that
    of f_n."""
    seen = []
    real = singeq.check._first_failure

    def first_failure(ranges, ns, groups, test, *columns):
        if test is singeq.check._intertwining and isinstance(columns[0], singeq.check._Read):
            g = maps(columns[0])[0]
            S, T, k = g.source, g.target, g.shift
            seen.append(("twist", [(S.term(n), T.term(n + k)) for n in ns], groups))
        elif len(columns) == 6:  # d s + s d - (g f - 1): dT, s_n, s_{n-1}, dS, g, f
            s, f = maps(columns[1])[0], maps(columns[-1])[0]
            S, T = s.source, s.target
            seen.append(("loop", [((S.diff(n).shape, T.diff(n + 1).shape), f.component(n).shape)
                                  for n in ns], groups))
        return real(ranges, ns, groups, test, *columns)

    with pytest.MonkeyPatch.context() as mp:
        maps = read_maps(mp)
        mp.setattr(singeq.check, "_first_failure", first_failure)
        check()
    return seen


def regrouped(keys: list) -> set:
    """{(key, indices of the degrees with that key)}."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return {(key, tuple(idx)) for key, idx in groups.items()}


class TestWalkGroups:
    def test_twist_and_loop_groups_partition_the_walked_degrees(self, capsys):
        from test_formats_cli import _PINNED_REPORTS, fx

        def run():
            # inverse checks whose third complex has terms of other
            # dimensions in one equation group: T_per and a D3/F3 periodic
            # complex, each into its sum with a bounded cone
            for X in (fixtures.t_per(), periodic_complex(truncated_polynomial(3, 3), 1)):
                A = modules.regular_module(X.algebra)
                C = complexes.cone(identity_chain_map(functors.stalk(A)))
                f = complexes.direct_sum_complex(X, C)[1]
                assert homotopy.homotopy_equivalence_certificate(f).verdict == YES
            for argv in _PINNED_REPORTS:
                path = [fx(a) if a.endswith((".alg", ".mod", ".cx", ".map")) else a
                        for a in argv]
                assert cli.main(["--format", "json", *path]) == 0

        seen = walk_groups(run)
        capsys.readouterr()
        assert {kind for kind, _, _ in seen} == {"twist", "loop"}
        # some loop grouping splits an equation group by the shape of f_n
        assert any(len(regrouped(keys)) > len({key for key, _ in keys})
                   for kind, keys, _ in seen if kind == "loop")
        for kind, keys, groups in seen:
            assert sorted(i for _, idx in groups for i in idx) == list(range(len(keys)))
            assert set(groups) == regrouped(keys)


# -- per-object memos ---------------------------------------------------------


class TestKernelCokernelMemo:
    def test_built_once_per_map(self, monkeypatch, contractible):
        built = []
        for name in ("_kernel_complex", "_cokernel_complex"):
            real = getattr(complexes, name)
            monkeypatch.setattr(complexes, name,
                                lambda f, real=real, name=name:
                                built.append((name, id(f))) or real(f))
        rng = random.Random(7)
        C = complexes.direct_sum_complex(complexes.reindex(contractible, -1),
                                         complexes.reindex(contractible, 2))[0]
        # i composed with the identity: the inclusion i of a sum carries its
        # kernel and cokernel, and this map, equal to i, computes them
        f, g = (complexes.compose(identity_chain_map(i.target), i) for i in (
            complexes.direct_sum_complex(random_d2_complex(rng, 3, 2), C)[1]
            for _ in range(2)))
        fam = modelcat.default_family(f.source.algebra)
        flags = []
        for h in (f, g):
            for tag in modelcat.TAGS:
                c = modelcat.classify_map(h, tag, fam)
                flags.append(tuple(flag.verdict for flag in (
                    c.cofibration, c.trivial_cofibration, c.fibration,
                    c.trivial_fibration)))
        assert flags == [(YES, YES, "NO", "NO")] * 4
        assert sorted(built) == sorted((name, id(h)) for h in (f, g)
                                       for name in ("_kernel_complex",
                                                    "_cokernel_complex"))
        assert complexes.kernel_complex(f) is complexes.kernel_complex(f)


class TestMembershipMemo:
    def test_verdicts_live_and_die_with_the_complex(self, t_per):
        rng = random.Random(2)
        for make in (lambda: random_contractible(rng),
                     # a shift is kept by its source: shift a new copy of T_per
                     lambda: complexes.reindex(dataclasses.replace(t_per), 1),
                     lambda: random_d2_complex(rng)):
            X = make()
            cold = (homotopy.is_exP(X), homotopy.is_exI(X))
            warm = (homotopy.is_exP(X), homotopy.is_exI(X))
            assert warm == cold
            assert cold == (complexes.is_exact(X) and homotopy._terms_in_class(X, "proj"),
                            complexes.is_exact(X) and homotopy._terms_in_class(X, "inj"))
            ref = weakref.ref(X)
            del X
            gc.collect()
            assert ref() is None
