"""Null-homotopy solving, the stable criterion, and homotopy equivalences."""

import dataclasses
import gc
import json
import os
import random
import subprocess
import sys
import weakref

import numpy as np
import pytest

from conftest import (alternating_tail_complex, assert_one_table, count_calls, fresh_t_per,
                      kept_block, periodic_complex, random_combination, random_contractible,
                      random_d2_complex, random_module, reference_inverse_check, triangular_d2,
                      truncated_polynomial, with_entry)
from singeq import (approx, check, cli, complexes, fixtures, functors, homotopy, linalg,
                    modelcat, modules, solver)
from singeq.config import Options
from singeq.complexes import (ChainMap, Homotopy, chain_map_from_callable,
                              identity_chain_map, reindex, zero_chain_map)
from singeq.errors import ValidationError
from singeq.homotopy import NO, UNKNOWN, YES


def x_id(t_per):
    x = np.array([[0, 0], [1, 0]], dtype=np.int64)
    return chain_map_from_callable(t_per, t_per, 0, 0, lambda n: x, 1, 1)


class TestNullHomotopy:
    def test_x_id_is_null_homotopic_with_2_periodic_homotopy(self, t_per):
        res = homotopy.null_homotopy(x_id(t_per))
        assert res.verdict == YES
        assert homotopy.verify_null_homotopy(x_id(t_per), res.homotopy)
        # the found homotopy alternates: s_n = (n mod 2) id
        assert res.homotopy.neg is None or res.homotopy.neg[0] % 2 == 0

    def test_no_1_periodic_homotopy_for_x_id(self, t_per):
        assert homotopy.search_periodic_homotopy(x_id(t_per), 1) is None
        assert homotopy.search_periodic_homotopy(x_id(t_per), 2) is not None

    def test_identity_on_contractible(self, contractible):
        res = homotopy.null_homotopy(identity_chain_map(contractible))
        assert res.verdict == YES
        assert res.strategy == "bounded"

    def test_identity_on_t_per_is_not_null_homotopic(self, t_per):
        res = homotopy.null_homotopy(identity_chain_map(t_per))
        assert res.verdict == NO
        assert res.strategy == "stable"

    def test_zero_map(self, t_per):
        res = homotopy.null_homotopy(zero_chain_map(t_per, t_per))
        assert res.verdict == YES

    def test_certificates_reverify(self, t_per, contractible):
        for f in (x_id(t_per), identity_chain_map(contractible)):
            res = homotopy.null_homotopy(f)
            assert res.certificate is not None
            assert homotopy.verify_certificate(res.certificate)


def same_homotopy(s, t) -> bool:
    return ((s.clo, s.chi, s.neg, s.pos) == (t.clo, t.chi, t.neg, t.pos)
            and s.components.keys() == t.components.keys()
            and all(np.array_equal(m, t.components[n]) for n, m in s.components.items()))


def zero_homotopies(maps, m=0):
    """Stand-in for the bounded solve that finds a wrong homotopy: zero."""
    return [Homotopy(f.source, f.target, {}, 0, 0) for f in maps]


class TestNullHomotopies:
    def assert_matches_single_solves(self, maps):
        joint = homotopy.null_homotopies(maps)
        for f, res in zip(maps, joint, strict=True):
            alone = homotopy.null_homotopy(f)
            assert (res.verdict, res.strategy) == (alone.verdict, alone.strategy)
            if res.verdict == YES:
                assert same_homotopy(res.homotopy, alone.homotopy)
                assert res.certificate.checked
                assert homotopy.verify_certificate(res.certificate)
        return [res.verdict for res in joint]

    def test_bounded_homotopies_equal_single_solves(self, contractible):
        rng = random.Random(4)
        verdicts = []
        for _ in range(8):
            X = random_d2_complex(rng, 4, 3)
            shifts = [reindex(contractible, k) for k in (-1, 0, 1)]
            for S, T in [(X, C) for C in shifts] + [(C, X) for C in shifts] + [(X, X)]:
                basis, complete = solver.chain_map_space_basis(S, T)
                assert complete
                if len(basis) > 1:
                    verdicts.append(self.assert_matches_single_solves(basis))
        assert len(verdicts) >= 10
        assert [YES, YES, YES] in verdicts and [NO, YES, NO] in verdicts

    def test_bounded_refutation_matches_per_map_loop(self, monkeypatch, k, contractible):
        # End(k + C) with C contractible: the identity is not null-homotopic,
        # the maps through C are; put it behind them, so that the joint
        # system is inconsistent in some columns and consistent in others
        S = complexes.direct_sum_complex(functors.stalk(k), contractible)[0]
        basis, _ = solver.chain_map_space_basis(S, S)
        maps = basis[1:] + basis[:2]
        verdicts = self.assert_matches_single_solves(maps)
        assert NO in verdicts[1:] and YES in verdicts

        solves = []
        solve_each = solver.FoldedSystem.solve_each

        def recording(sys_):
            solves.append(sys_.width)
            return solve_each(sys_)

        monkeypatch.setattr(solver.FoldedSystem, "solve_each", recording)
        assert [res.verdict for res in homotopy.null_homotopies(maps)] == verdicts
        assert solves == [len(maps)]  # one elimination, no solve per map

    def test_maps_must_share_source_and_target(self, k, contractible):
        f, g = identity_chain_map(contractible), identity_chain_map(functors.stalk(k))
        assert homotopy.null_homotopies([]) == []
        with pytest.raises(ValueError, match="share one source"):
            homotopy.null_homotopies([f, g])

    def test_failed_check_gives_unknown(self, monkeypatch, contractible):
        f = identity_chain_map(contractible)
        monkeypatch.setattr(homotopy, "_homotopies", zero_homotopies)
        res = homotopy.null_homotopy(f)
        assert res.verdict == UNKNOWN
        assert res.homotopy is None and res.certificate is None


def bits(h):
    """The window, the tails and every block of a graded map, comparable
    bit for bit."""
    return (h.clo, h.chi, sorted((n, m.shape, m.tobytes()) for n, m in h.components.items()),
            [None if t is None else (t[0], [(b.shape, b.tobytes()) for b in t[1]])
             for t in (h.neg, h.pos)])


def one_by_one(f, options=Options()):
    """Reference: the map-by-map loop that joint decisions replaced.
    (verdict, strategy, homotopy, m that found it)."""
    X, Y = f.source, f.target
    if X.bounded() or Y.bounded():
        s = homotopy.search_periodic_homotopy(f, 1)  # the complete solve
        return (NO, "bounded", None, None) if s is None else (YES, "bounded", s, 1)
    gorenstein = modules.gorenstein_dimension(X.algebra, options.gorenstein_bound) is not None
    ctr = gorenstein and homotopy.is_exP(X) and homotopy.is_exP(Y)
    stable = ctr or gorenstein and homotopy.is_exI(X) and homotopy.is_exI(Y)
    if stable and not homotopy.stably_zero(f if ctr else complexes.dual_chain_map(f)):
        return NO, "stable", None, None
    for m in range(1, options.homotopy_period_bound + 1):
        s = homotopy.search_periodic_homotopy(f, m)
        if s is not None:
            return YES, "stable+periodic" if stable else "periodic", s, m
    return UNKNOWN, "stable" if stable else "periodic", None, None


def combinations(rng, basis, count):
    """count random combinations of a basis of chain maps over F_p."""
    p = basis[0].source.algebra.p
    out = []
    for _ in range(count):
        f = zero_chain_map(basis[0].source, basis[0].target)
        for b in basis:
            c = rng.randrange(p)
            if c:
                f = complexes.add_maps(f, b, sign=c)
        out.append(f)
    return out


def kstalk_fibrant_co_bases():
    """Hom(X, T[k]) for the fibrant-co replacement X of the stalk of k and
    the shifts T[k] of the default family: bases that mix maps with zero
    and with nonzero tails."""
    rep = approx.stalk_replacement(functors.stalk(fixtures.simple_k()), "fibrant_co")
    fam = modelcat.default_family(fixtures.D2())
    return [solver.chain_map_space_basis(rep.object, Tk)[0] for Tk in fam.shifts]


def unbounded_bases():
    """Bases of chain maps between unbounded complexes: T_1 -> T_(n-1)[s]
    over D_n (n = 3, 4, p = 2, 3) with random combinations, Hom between
    the generators of both default families over T_2(D_2), and the
    fibrant-co replacement of the stalk of k against T_per."""
    rng = random.Random(16)
    bases = []
    for n, p in [(3, 2), (3, 3), (4, 2), (4, 3)]:
        alg = truncated_polynomial(n, p)
        X = periodic_complex(alg, 1)
        for s in (0, 1):
            basis, _ = solver.chain_map_space_basis(X, reindex(periodic_complex(alg, n - 1), s))
            bases.append(basis + combinations(rng, basis, 4))
    fam = modelcat.default_family(triangular_d2())
    for gens in (fam.generators, fam.injective.generators):
        bases += [solver.chain_map_space_basis(S, T)[0] for S in gens for T in gens]
    return bases + kstalk_fibrant_co_bases()


class TestJointUnbounded:
    def test_joint_decisions_match_the_map_by_map_loop(self):
        seen, mixed = set(), 0
        bases = unbounded_bases()
        # with one round only, the maps of the first basis that need m = 2
        # stay UNKNOWN: the bound runs out
        short = Options(homotopy_period_bound=1)
        for basis, options in [(b, Options()) for b in bases] + [(bases[0], short)]:
            assert not (basis[0].source.bounded() or basis[0].target.bounded())
            mixed += len({f.neg_period or f.pos_period for f in basis} & {0}) and \
                any(f.neg_period or f.pos_period for f in basis)
            for f, res in zip(basis, homotopy.null_homotopies(basis, options), strict=True):
                verdict, strategy, s, m = one_by_one(f, options)
                assert (res.verdict, res.strategy) == (verdict, strategy)
                seen.add((verdict, m))
                if verdict == YES:
                    assert bits(res.homotopy) == bits(s)
                    assert res.certificate.checked
                else:
                    assert res.homotopy is None and res.certificate is None
        assert {(NO, None), (UNKNOWN, None), (YES, 1), (YES, 2)} <= seen
        assert mixed

    def test_one_solve_per_window_group_and_round(self, monkeypatch):
        basis = max(kstalk_fibrant_co_bases(), key=len)
        X, Y = basis[0].source, basis[0].target
        reference = [one_by_one(f) for f in basis]
        expected = []  # (fold, maps) per system: a map is open at m until decided
        for m in range(1, Options().homotopy_period_bound + 1):
            groups = {}
            for f, (verdict, _, _, k) in zip(basis, reference):
                if verdict != NO and (k is None or k >= m):
                    groups.setdefault(solver.window(X, Y, [f], m, 2), []).append(f)
            expected += [(w[2], len(g)) for w, g in groups.items()]
        # at m = 1 the maps with zero tails have their own, narrower fold
        assert (1, 5) in expected and (2, 4) in expected
        solves = []
        solve_each = solver.FoldedSystem.solve_each

        def recording(sys_):
            if sys_.fold:  # not a module-map solve of the stable criterion
                solves.append((sys_.fold, sys_.width))
            return solve_each(sys_)

        monkeypatch.setattr(solver.FoldedSystem, "solve_each", recording)
        homotopy.null_homotopies(basis)
        assert sorted(solves) == sorted(expected)

    def test_a_failing_pair_leaves_the_others_yes(self, monkeypatch):
        homotopies = homotopy._homotopies
        rng = random.Random(0)
        bounded, _ = solver.chain_map_space_basis(random_d2_complex(rng), random_d2_complex(rng))
        for basis in (max(kstalk_fibrant_co_bases(), key=len), bounded):
            reference = [one_by_one(f) for f in basis]
            assert [r[0] for r in reference].count(YES) >= 2
            bad = next(f for f, r in zip(basis, reference) if r[3] == 1 and not f.is_zero())

            def corrupted(maps, m, bad=bad):
                found = homotopies(maps, m)
                return [Homotopy(f.source, f.target, {}, 0, 0) if f is bad and m <= 1 else s
                        for f, s in zip(maps, found)]

            monkeypatch.setattr(homotopy, "_homotopies", corrupted)
            for f, res, (verdict, strategy, s, _) in zip(
                    basis, homotopy.null_homotopies(basis), reference, strict=True):
                if f is bad and strategy == "bounded":
                    # round 1 is the complete solve and the only round
                    assert (res.verdict, res.strategy) == (UNKNOWN, "bounded")
                    assert res.homotopy is None and res.certificate is None
                elif f is bad:
                    # its pair fails at m = 1, so it moves on to m = 2
                    assert res.verdict == YES
                    assert bits(res.homotopy) == bits(homotopy.search_periodic_homotopy(f, 2))
                    assert homotopy.verify_certificate(res.certificate)
                else:
                    assert (res.verdict, res.strategy) == (verdict, strategy)
                    assert verdict != YES or bits(res.homotopy) == bits(s)


class TestVerifyNullHomotopy:
    def with_component(self, s, n, m):
        return Homotopy(s.source, s.target, {**s.components, n: m},
                        min(s.clo, n), max(s.chi, n), s.neg, s.pos)

    def test_found_homotopy_passes_and_a_changed_one_fails(self, t_per):
        f = x_id(t_per)
        s = homotopy.null_homotopy(f).homotopy
        assert homotopy.verify_null_homotopy(f, s)
        assert not homotopy.verify_null_homotopy(identity_chain_map(t_per), s)
        # one window component plus the identity, still a module map
        bad = self.with_component(s, s.clo, (s.component(s.clo) + linalg.eye(2)) % 2)
        assert not homotopy.verify_null_homotopy(f, bad)

    def test_wrong_shape_is_false_not_an_error(self, t_per):
        f = x_id(t_per)
        s = homotopy.null_homotopy(f).homotopy
        assert not homotopy.verify_null_homotopy(f, self.with_component(s, 0, linalg.eye(1)))

    def test_a_tail_block_of_the_wrong_shape_past_the_frame_is_false(self):
        # s's tail of period 1 fits A -> 0 at -2, its frame's first degree,
        # but not 0 -> A at -3, one period of the lcm (2) below the frame
        X = alternating_tail_complex()
        s = Homotopy(X, X, {-1: linalg.zeros(2, 0), 0: linalg.zeros(0, 2)}, -1, 0,
                     (1, (linalg.zeros(0, 2),)))
        assert not homotopy.verify_null_homotopy(zero_chain_map(X, X), s)
        with pytest.raises(ValidationError, match="^component at degree -3 has wrong shape$"):
            s._column

    @pytest.mark.parametrize("wrong", ["wrong shape", "other terms", "a chain map",
                                       "other differentials"])
    def test_a_homotopy_the_walk_cannot_read_is_false_not_an_error(self, t_per, k, wrong):
        # the zero map of T_per is null-homotopic; d c + c d = 2 x c = 0 for
        # every chain map c of T_per over F_2, but c has degree 0.  A
        # homotopy is read between its map's complexes: the identity at 0
        # of T_per's terms with d = 0 is a null-homotopy of 0 there, but
        # d 1 + 1 d = x on T_per
        f = zero_chain_map(t_per, t_per)
        assert homotopy.verify_null_homotopy(f, Homotopy(t_per, t_per, {}, 0, 0))
        Z, A, z = functors.stalk(k), t_per.term(0), linalg.zeros(2, 2)
        tail = complexes.Tail(1, (A,), (z,))
        W = complexes.Complex.build(t_per.algebra, 0, 0, {0: A}, {}, tail, tail, z, z)
        one = Homotopy(W, W, {0: linalg.eye(2)}, 0, 0)
        assert homotopy.verify_null_homotopy(zero_chain_map(W, W), one)
        s = {"wrong shape": lambda: Homotopy(t_per, t_per, {0: linalg.eye(1)}, 0, 0),
             "other terms": lambda: Homotopy(Z, Z, {}, 0, 0),
             "a chain map": lambda: identity_chain_map(t_per),
             "other differentials": lambda: one}[wrong]
        assert not homotopy.verify_null_homotopy(f, s())
        inverse = homotopy.homotopy_equivalence_certificate(identity_chain_map(t_per))
        for cert in (homotopy.Certificate("null-homotopy", {"map": f, "homotopy": s()}),
                     homotopy.Certificate("orthogonality", {"pairs": [(f, s())]}),
                     homotopy.Certificate("homotopy-inverse",
                                          {**inverse.certificate.payload, "homotopy_source": s()})):
            assert not homotopy.verify_certificate(cert) and not cert.checked

    def test_several_pairs_fail_when_any_pair_fails(self, t_per, contractible):
        f = x_id(t_per)
        s = homotopy.null_homotopy(f).homotopy
        g = identity_chain_map(contractible)
        t = homotopy.null_homotopy(g).homotopy
        assert homotopy.verify_null_homotopy(f, s, (g, t), (f, s))
        assert not homotopy.verify_null_homotopy(f, s, (g, t), (identity_chain_map(t_per), s))
        assert not homotopy.verify_null_homotopy(g, zero_homotopies([g])[0], (f, s))

    def test_non_intertwining_component_fails_where_the_equation_holds(self, D2, A):
        # zero differentials: f = 0 = d s + s d for every s, so only the
        # module-map check can reject s
        X = complexes.Complex.build(D2, 0, 1, {0: A, 1: A}, {1: linalg.zeros(2, 2)})
        f = zero_chain_map(X, X)
        not_linear = np.array([[0, 1], [0, 0]], dtype=np.int64)
        x = np.array([[0, 0], [1, 0]], dtype=np.int64)
        assert homotopy.verify_null_homotopy(f, Homotopy(X, X, {0: x}, 0, 0))
        assert not homotopy.verify_null_homotopy(f, Homotopy(X, X, {0: not_linear}, 0, 0))


class TestStableCriterion:
    def test_stably_zero_x_id(self, t_per):
        # omega(x.id) is x acting on k, which is zero
        assert homotopy.stably_zero(x_id(t_per))

    def test_identity_not_stably_zero(self, t_per):
        # id_k does not factor through a projective: k -> A -> k composites
        # all vanish over D2
        assert not homotopy.stably_zero(identity_chain_map(t_per))

    def test_the_criterion_builds_no_table(self):
        # it reads each map's block at 0 from its family column
        X = fresh_t_per()
        basis, _ = solver.chain_map_space_basis(X, X)
        assert basis
        for f in basis:
            verdict = homotopy.stably_zero(f)
            assert "_blocks" not in vars(f)
            assert verdict == homotopy.stably_zero(dataclasses.replace(f))  # from its table

    def test_membership_predicates(self, t_per, contractible, k):
        assert homotopy.is_exP(t_per) and homotopy.is_exI(t_per)
        assert homotopy.is_exP(contractible)
        from singeq import functors
        assert not homotopy.is_exP(functors.stalk(k))


class TestFactorsThroughInjective:
    def test_matches_extension_along_the_envelope(self, duality_algebra):
        """g factors through an injective exactly when D(g) factors through
        a projective: checked against extension along injective_envelope."""
        rng = random.Random(3)
        p = duality_algebra.p
        outcomes = set()
        for _ in range(16):
            M, N = random_module(rng, duality_algebra), random_module(rng, duality_algebra)
            H = modules.hom_stack(M, N)
            if not len(H):
                continue
            g = modules.ModuleMap(M, N, random_combination(rng, H, p))
            E, iota = modules.injective_envelope(M)
            extends = solver.solve_module_map([(E, N)], g.matrix, [(None, 0, iota.matrix)],
                                              (M, N)) is not None
            assert homotopy.factors_through_projective(modules.dual_map(g)) == extends
            outcomes.add(extends)
        assert outcomes == {True, False}


class TestHomotopyEquivalence:
    def test_identity_certificate(self, t_per):
        res = homotopy.homotopy_equivalence_certificate(
            identity_chain_map(t_per))
        assert res.verdict == YES
        assert homotopy.verify_certificate(res.certificate)

    def test_zero_endomorphism_is_not_an_equivalence(self, t_per):
        res = homotopy.homotopy_equivalence_certificate(
            zero_chain_map(t_per, t_per))
        assert res.verdict != YES

    def test_non_quasi_iso_refuted_by_cone(self, t_per, k):
        from singeq import functors
        z = zero_chain_map(functors.stalk(k), t_per)
        res = homotopy.homotopy_equivalence_certificate(z)
        assert res.verdict == NO

    def test_inverse_that_is_not_a_chain_map_is_rejected(self, contractible):
        # f = 0 on a contractible C has the inverse g = 0: g f - id and
        # f g - id are both -id, null-homotopic through -s for a contraction
        # s.  Any g of the right shapes gives g f = f g = 0, so only
        # validating g itself rejects one that does not commute with d.
        C = contractible
        p = C.algebra.p
        s = homotopy.null_homotopy(identity_chain_map(C)).homotopy

        def negated(tail):
            return None if tail is None else (tail[0], tuple((-b) % p for b in tail[1]))

        minus_s = Homotopy(C, C, {n: (-m) % p for n, m in s.components.items()},
                           s.clo, s.chi, negated(s.neg), negated(s.pos))

        def certificate(g):
            return homotopy.Certificate("homotopy-inverse", {
                "map": zero_chain_map(C, C), "inverse": g,
                "homotopy_source": minus_s, "homotopy_target": minus_s})

        assert homotopy.verify_certificate(certificate(zero_chain_map(C, C)))
        bad = complexes.ChainMap(C, C, {1: linalg.eye(2)}, 1, 1)
        with pytest.raises(ValidationError, match="does not commute"):
            bad.validate()
        cert = certificate(bad)
        assert not homotopy.verify_certificate(cert)
        assert not cert.checked

    @pytest.mark.parametrize("kind", ["splitting", "contraction"])
    def test_unknown_certificate_kinds_are_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown certificate kind"):
            homotopy.verify_certificate(homotopy.Certificate(kind, {}))

    def test_inverse_is_validated_once(self, monkeypatch, t_per):
        calls = []
        validate = ChainMap.validate

        def recording(self, *others):
            calls.append((self, *others))
            return validate(self, *others)

        monkeypatch.setattr(ChainMap, "validate", recording)
        res = homotopy.homotopy_equivalence_certificate(identity_chain_map(t_per))
        assert res.verdict == YES
        g = res.certificate.payload["inverse"]
        assert sum(any(m is g for m in call) for call in calls) == 1

    def test_contractible_to_zero(self, contractible, D2):
        z = zero_chain_map(contractible, complexes.zero_complex(D2))
        res = homotopy.homotopy_equivalence_certificate(z)
        assert res.verdict == YES


def one_plus_x(X, Y=None):
    """1 + x on every term, an automorphism of X, a copy of T_per; to Y,
    another copy, when it is given."""
    u = (linalg.eye(2) + X.diff(0)) % 2
    return chain_map_from_callable(X, X if Y is None else Y, 0, 0, lambda n: u, 1, 1)


def equivalence_outcomes(bounds) -> list:
    """[verdict, certificate digest] of the equivalence 1 + x of one fresh
    copy of T_per under each homotopy_period_bound of bounds in turn, as
    plain values."""
    X = fresh_t_per()
    out = []
    for b in bounds:
        res = homotopy.homotopy_equivalence_certificate(
            one_plus_x(X), Options(homotopy_period_bound=b))
        out.append([res.verdict, cli.digest(res.certificate)])
    return out


def cold_equivalence_outcome(bound) -> list:
    """equivalence_outcomes([bound])[0] in a new process, whose memos
    start empty."""
    paths = [os.path.dirname(os.path.dirname(homotopy.__file__)),
             os.path.dirname(__file__)]
    code = ("import json, sys; sys.path[:0] = %r; from test_homotopy import "
            "equivalence_outcomes; print(json.dumps(equivalence_outcomes([%d])[0]))"
            % (paths, bound))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout)


def count_solves(monkeypatch) -> list:
    """The maps homotopy_equivalence_certificate solves for from now on,
    its memo missed."""
    calls = []
    solve = homotopy._equivalence
    monkeypatch.setattr(homotopy, "_equivalence",
                        lambda f, options: calls.append(f) or solve(f, options))
    return calls


def equivalence_entries(X, Y) -> dict:
    """The remembered equivalences X -> Y, in X's store under Y."""
    return {key: e for key, e in X._solved.get(Y, {}).items()
            if isinstance(key, tuple) and key[0] == "equivalence"}


class TestEquivalenceMemo:
    def test_a_hit_is_checked_against_the_callers_map(self, monkeypatch):
        X = fresh_t_per()
        first = homotopy.homotopy_equivalence_certificate(one_plus_x(X))
        solves = count_solves(monkeypatch)
        checked = []
        verify = homotopy.verify_certificate
        monkeypatch.setattr(homotopy, "verify_certificate",
                            lambda cert: checked.append(cert) or verify(cert))
        f = one_plus_x(X)
        hit = homotopy.homotopy_equivalence_certificate(f)
        cert = hit.certificate
        assert not solves and hit.verdict == YES
        assert cert is not first.certificate and cert.payload["map"] is f
        assert cert.checked and checked == [cert]
        assert verify(cert)
        assert [hit.verdict, cli.digest(cert)] == cold_equivalence_outcome(4)

    def test_a_hit_builds_no_table_of_the_callers_map(self, monkeypatch):
        # the memo key is read from the map's family column (complexes._value)
        X = fresh_t_per()
        homotopy.homotopy_equivalence_certificate(one_plus_x(X))
        solves = count_solves(monkeypatch)
        f = one_plus_x(X)
        hit = homotopy.homotopy_equivalence_certificate(f)
        assert not solves and hit.verdict == YES and hit.certificate.checked
        assert "_blocks" not in vars(f)

    def test_a_refutation_is_remembered(self, monkeypatch, k):
        X, S = fresh_t_per(), functors.stalk(k)
        first = homotopy.homotopy_equivalence_certificate(zero_chain_map(S, X))
        solves = count_solves(monkeypatch)
        again = homotopy.homotopy_equivalence_certificate(zero_chain_map(S, X))
        assert first.verdict == again.verdict == NO and not solves

    def test_an_equal_map_to_another_target_misses(self, monkeypatch):
        X, Y = fresh_t_per(), fresh_t_per()
        homotopy.homotopy_equivalence_certificate(one_plus_x(X))
        solves = count_solves(monkeypatch)
        res = homotopy.homotopy_equivalence_certificate(one_plus_x(X, Y))
        assert len(solves) == 1 and res.verdict == YES
        assert res.certificate.payload["inverse"].source is Y

    def test_each_options_gets_its_own_entry(self, monkeypatch):
        solves = count_solves(monkeypatch)
        warm = equivalence_outcomes([4, 1, 4, 1])
        assert len(solves) == 2
        assert warm == [cold_equivalence_outcome(b) for b in (4, 1)] * 2

    def test_the_memo_does_not_keep_its_complex_alive(self):
        X = fresh_t_per()
        res = homotopy.homotopy_equivalence_certificate(one_plus_x(X))
        assert res.verdict == YES and equivalence_entries(X, X)
        ref = weakref.ref(X)
        del X, res
        gc.collect()
        assert ref() is None

    def test_an_entry_keeps_no_target_alive(self, D2):
        # one shared source, the zero complex, and five targets it certifies
        rng = random.Random(71)
        zero = complexes.zero_complex(D2)
        targets = [random_contractible(rng) for _ in range(5)]
        for X in targets:
            res = homotopy.homotopy_equivalence_certificate(zero_chain_map(zero, X))
            assert res.verdict == YES and equivalence_entries(zero, X)
        refs = [weakref.ref(X) for X in targets]
        del X, res, targets
        gc.collect()
        assert all(r() is None for r in refs)
        assert not any(equivalence_entries(zero, Y) for Y in list(zero._solved))

    def test_a_hit_is_handed_copies_of_the_kept_tables(self, monkeypatch):
        X, Y = fresh_t_per(), fresh_t_per()
        cold = homotopy.homotopy_equivalence_certificate(one_plus_x(X, Y)).certificate
        [(_, (_, parts))] = equivalence_entries(X, Y).values()
        names = ("inverse", "homotopy_source", "homotopy_target")
        f = one_plus_x(X, Y)
        f._blocks  # the caller's map, laid out (_lone) before the counts start
        lone = count_calls(monkeypatch, complexes, "_lone")
        from_tables = count_calls(monkeypatch, complexes, "_from_tables")
        hit = homotopy.homotopy_equivalence_certificate(f).certificate
        maps = [hit.payload[name] for name in names]
        # the hit's check builds no map: g, hX and hY are copies of their
        # kept family columns, with one copy per distinct kept block, and
        # g f - 1 and f g - 1 are checked in the walk; a copy's table shares
        # no memory with the kept arrays but through the read-only zero
        # blocks every table reads where its map has no block
        assert hit.checked and not lone and not from_tables
        for h, name in zip(maps, names):
            clo, chi, (kept, j), *periods = parts[name]
            copy = h._column[0]
            assert (h.clo, h.chi, h._blocks[:4], [h.neg_period, h.pos_period]) == (
                clo, chi, kept.slots[:4], periods)
            assert copy.slots == kept.slots and h._column[1] == 0
            assert [a.shape for a in copy.arrays] == [a[:, j:j + 1].shape for a in kept.arrays]
            assert all(a.flags.writeable and not any(np.shares_memory(a, b) for b in kept.arrays)
                       for a in copy.arrays)
            for b in h._blocks.data:
                if b.flags.writeable:
                    assert not any(np.shares_memory(b, a) for a in kept.arrays)
                else:
                    assert b is modules.zero_block(h.source.algebra, *b.shape)
        for h in [*maps, *[cold.payload[name] for name in names]]:
            assert_one_table(h)

    def test_a_corrupted_stored_inverse_is_solved_again(self, monkeypatch):
        X = fresh_t_per()
        cold = homotopy.homotopy_equivalence_certificate(one_plus_x(X))
        cold_digest = cli.digest(cold.certificate)
        [(_, (verdict, parts))] = equivalence_entries(X, X).values()
        block = kept_block(parts["inverse"], parts["inverse"][0])
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 1
        block.flags.writeable = True
        block[0, 0] += 1
        solves = count_solves(monkeypatch)
        res = homotopy.homotopy_equivalence_certificate(one_plus_x(X))
        assert len(solves) == 1 and res.verdict == cold.verdict == verdict == YES
        assert cli.digest(res.certificate) == cold_digest
        # the entry was overwritten, and hits again
        again = homotopy.homotopy_equivalence_certificate(one_plus_x(X))
        assert len(solves) == 1 and cli.digest(again.certificate) == cold_digest

    def test_a_failed_inverse_check_is_not_remembered(self, monkeypatch):
        X = fresh_t_per()
        monkeypatch.setattr(homotopy, "_verify_inverse_payload", lambda payload: False)
        res = homotopy.homotopy_equivalence_certificate(one_plus_x(X))
        assert res.verdict == UNKNOWN and not equivalence_entries(X, X)
        monkeypatch.undo()
        res = homotopy.homotopy_equivalence_certificate(one_plus_x(X))
        assert res.verdict == YES and res.certificate.checked
        assert homotopy.verify_certificate(res.certificate) and equivalence_entries(X, X)

    def test_writing_into_a_returned_inverse_leaves_the_next_hit(self):
        X, cold = fresh_t_per(), cold_equivalence_outcome(4)[1]
        for _ in range(2):  # the cold call's certificate, then a hit's
            cert = homotopy.homotopy_equivalence_certificate(one_plus_x(X)).certificate
            before, g = cli.digest(cert), cert.payload["inverse"]
            for m in [*g.components.values(), *(g.neg or (0, ()))[1], *(g.pos or (0, ()))[1]]:
                m += 1
            hit = homotopy.homotopy_equivalence_certificate(one_plus_x(X))
            assert cli.digest(hit.certificate) == before == cold


def inverse_certificates(seeds) -> list:
    """Homotopy-inverse certificates, cold and hit: 1 + x on a copy of
    T_per (X is Y) and to another copy, and the inclusion and projection
    of split sums X + C over T_per and random D2 complexes (test_metamorphic),
    with the identity of each sum (X is Y)."""
    from test_metamorphic import split_sum

    X, Y = fresh_t_per(), fresh_t_per()
    maps = [one_plus_x(X), one_plus_x(X, Y)]
    for seed in seeds:
        for Z in (fixtures.t_per(), random_d2_complex(random.Random(1000 + seed))):
            iX, pX = split_sum(Z, seed)
            maps += [iX, pX, identity_chain_map(iX.target)]
    certs = []
    for f in maps:
        for _ in range(2):  # cold, then a hit
            res = homotopy.homotopy_equivalence_certificate(f)
            assert res.verdict == YES
            certs.append(res.certificate)
    return certs


def corruptions(payload: dict) -> list:
    """(map, place, payload) for each copy of payload with one entry of g,
    hX or hY changed: at each window degree ("window") and at each tail
    block ("tail", a new tail where the map has none) where it has one."""
    out = []
    for name in ("inverse", "homotopy_source", "homotopy_target"):
        h = payload[name]
        for place, degrees in (("window", range(h.clo, h.chi + 1)),
                               ("tail", range(h.clo - h._blocks.neg, h.clo))):
            out += [(name, place, {**payload, name: with_entry(h, n)})
                    for n in degrees if h.component(n).size]
    return out


class TestInverseRecheck:
    """The inverse check reads g f - 1 and f g - 1 in the walk; it gives the
    verdicts of the check that built them as maps (reference_inverse_check)."""

    def test_certificates_pass_both_checks(self):
        for cert in inverse_certificates(range(40)):
            assert reference_inverse_check(cert.payload)
            assert homotopy._verify_inverse_payload(cert.payload)

    def test_corrupted_payloads_get_the_reference_verdicts(self):
        # a changed entry can leave a valid certificate (d e + e d = 0, as
        # on a complex with zero differentials); every map and place has
        # changes that both checks reject
        changed, rejected = set(), set()
        for cert in inverse_certificates(range(8))[::2]:  # the cold ones
            payload = cert.payload
            for name, place, bad in corruptions(payload):
                verdict = homotopy._verify_inverse_payload(bad)
                assert verdict == reference_inverse_check(bad)
                changed.add((name, place))
                if not verdict:
                    rejected.add((name, place))
            swapped = {**payload, "homotopy_source": payload["homotopy_target"],
                       "homotopy_target": payload["homotopy_source"]}
            X, Y = payload["map"].source, payload["map"].target
            verdict = homotopy._verify_inverse_payload(swapped)
            assert verdict == reference_inverse_check(swapped)
            assert not verdict or complexes._same_terms(X, Y)
            assert homotopy._verify_inverse_payload(payload)
        assert rejected == changed and len(changed) == 6

    @pytest.mark.parametrize("wrong", ["no chain map", "other ends"])
    def test_an_inverse_that_is_no_chain_map_back_fails_the_check(self, t_per, wrong):
        cert = homotopy.homotopy_equivalence_certificate(identity_chain_map(t_per)).certificate
        assert homotopy._verify_inverse_payload(cert.payload)
        if wrong == "no chain map":
            # the identity at degree 0 alone does not commute with d
            g = ChainMap(t_per, t_per, {0: linalg.eye(2)}, 0, 0)
            with pytest.raises(ValidationError, match="does not commute with d at degree 0"):
                cert.payload["map"].validate(g)
        else:  # the identity of an equal complex, which is another object
            g = identity_chain_map(dataclasses.replace(t_per))
        bad = homotopy.Certificate("homotopy-inverse", {**cert.payload, "inverse": g})
        assert not homotopy._verify_inverse_payload(bad.payload)
        assert not homotopy.verify_certificate(bad) and not bad.checked

    def test_one_walk_per_side_and_one_when_x_is_y(self):
        # one walk per side, and one for both when X is Y, as
        # verify_null_homotopy groups its pairs
        X, Y = fresh_t_per(), fresh_t_per()
        for f, walks in ((one_plus_x(X), 1), (one_plus_x(X, Y), 2)):
            for _ in range(2):  # cold, then a hit
                cert = homotopy.homotopy_equivalence_certificate(f).certificate
                with pytest.MonkeyPatch.context() as mp:
                    calls = count_calls(mp, check, "_walk")
                    assert homotopy._verify_inverse_payload(cert.payload)
                loops = [c for c in calls if c[2][0][0] in (cert.payload["homotopy_source"],
                                                            cert.payload["homotopy_target"])]
                assert len(loops) == walks
