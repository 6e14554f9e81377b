"""Round-trip certification of the functor pipeline."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from conftest import (count_solves, in_new_process, memo_digest, periodic_complex, triangular_d2,
                      truncated_polynomial)
from singeq import approx, complexes, equiv, fixtures, functors, homotopy, modelcat, modules
from singeq.complexes import ChainMap, identity_chain_map, reindex
from singeq.config import Options
from singeq.errors import LiftError, ValidationError
from singeq.homotopy import YES


class TestPrimes:
    def test_f_prime_of_t_per(self, t_per):
        pipe = equiv.f_prime(t_per)
        # F(T_per) = stalk(k); the fibrant replacement is 1-periodic with
        # injective terms, i.e. T_per up to presentation
        assert pipe.stalk.term(0).dim == 1
        assert homotopy.is_exI(pipe.object)
        assert pipe.object.neg_period == 1 and pipe.object.pos_period == 1

    def test_g_prime_of_t_per(self, t_per):
        pipe = equiv.g_prime(t_per)
        assert pipe.stalk.term(0).dim == 1
        assert homotopy.is_exP(pipe.object)

    def test_f_prime_of_contractible(self, contractible):
        pipe = equiv.f_prime(contractible)
        res = homotopy.null_homotopy(identity_chain_map(pipe.object))
        assert res.verdict == YES  # zero object maps to zero object

    def test_f_prime_over_t2_contractible_output(self):
        AT2 = modules.regular_module(fixtures.T2())
        C = complexes.cone(identity_chain_map(functors.stalk(AT2)))
        pipe = equiv.f_prime(C)
        res = homotopy.null_homotopy(identity_chain_map(pipe.object))
        assert res.verdict == YES

    def test_f_prime_rejects_non_member(self, k):
        with pytest.raises(ValidationError):
            equiv.f_prime(functors.stalk(k))


class TestLiftStableMap:
    def test_lift_identity_of_k(self, t_per, k):
        phi = modules.identity_map(functors.omega(t_per))
        f = equiv.lift_stable_map(phi, t_per, t_per, "omega")
        res = homotopy.homotopy_equivalence_certificate(f)
        assert res.verdict == YES

    def test_lift_zero_map(self, t_per):
        W = functors.omega(t_per)
        f = equiv.lift_stable_map(modules.zero_map(W, W), t_per, t_per,
                                  "omega")
        assert homotopy.null_homotopy(f).verdict == YES

    def test_lift_of_x_action_is_null_homotopic(self, t_per):
        # x acting on k = omega(T_per) is the zero stable map
        W = functors.omega(t_per)
        x_on_k = modules.ModuleMap(
            W, W, np.zeros((1, 1), dtype=np.int64))
        f = equiv.lift_stable_map(x_on_k, t_per, t_per, "omega")
        assert homotopy.null_homotopy(f).verdict == YES

    def test_exhaustion_names_its_bound(self, t_per):
        phi = modules.identity_map(functors.omega(t_per))
        with pytest.raises(LiftError, match="homotopy_period_bound=0"):
            equiv.lift_stable_map(phi, t_per, t_per, "omega",
                                  Options(homotopy_period_bound=0))


LIFT_CASES = ["T_per over D2", "D3/F3"]


def lift_case(name: str) -> tuple:
    """(phi, X) of a new stable lift of LIFT_CASES, built the same way in
    every process: the identity of omega(X) for a 1-periodic complex X."""
    alg = fixtures.D2() if name == "T_per over D2" else truncated_polynomial(3, 3)
    X = periodic_complex(alg, 1)
    return modules.identity_map(functors.omega(X)), X


def lift_entries(X, Y) -> dict:
    return {key: e for key, e in X._solved.get(Y, {}).items()
            if isinstance(key, tuple) and key[0] == "omega"}


def cold_lift_digests(name: str, bounds=(4,)) -> list:
    """memo_digest of a cold omega lift on lift_case(name), per
    homotopy_period_bound, in a new process."""
    return in_new_process("test_equiv", f"cold_lifts({name!r}, {list(bounds)!r})")


def cold_lifts(name: str, bounds: list) -> list:
    out = []
    for m in bounds:
        phi, X = lift_case(name)
        out.append(memo_digest([equiv.lift_stable_map(phi, X, X, "omega",
                                                      Options(homotopy_period_bound=m))]))
    return out


class TestLiftMemo:
    def test_three_equal_calls_run_one_solve(self, monkeypatch):
        phi, X = lift_case("D3/F3")
        solves = count_solves(monkeypatch)
        # an equal phi that is another object hits too
        digests = {memo_digest([equiv.lift_stable_map(psi, X, X, "omega")])
                   for psi in (phi, dataclasses.replace(phi), phi)}
        assert len(solves) == 1 and len(digests) == 1

    @pytest.mark.parametrize("name", LIFT_CASES)
    def test_a_hit_equals_a_cold_call_in_a_new_process(self, name, monkeypatch):
        phi, X = lift_case(name)
        solves = count_solves(monkeypatch)
        cold = equiv.lift_stable_map(phi, X, X, "omega")
        hit = equiv.lift_stable_map(phi, X, X, "omega")
        assert len(solves) == 1 and hit is not cold and hit._checked
        assert memo_digest([hit]) == memo_digest([cold]) == cold_lift_digests(name)[0]
        diff = (functors.omega_map(hit).matrix - phi.matrix) % X.algebra.p
        assert homotopy.factors_through_projective(modules.ModuleMap(phi.source, phi.target, diff))

    def test_the_theta_side_lifts_once_through_the_duals(self, monkeypatch):
        X = periodic_complex(truncated_polynomial(3, 3), 1)
        phi = modules.identity_map(functors.theta(X))
        solves = count_solves(monkeypatch)
        first, second = (equiv.lift_stable_map(phi, X, X, "theta") for _ in range(2))
        assert len(solves) == 1 and memo_digest([first]) == memo_digest([second])
        assert lift_entries(complexes.dual(X), complexes.dual(X))

    def test_a_corrupted_entry_is_solved_again(self, monkeypatch):
        phi, X = lift_case("T_per over D2")
        equiv.lift_stable_map(phi, X, X, "omega")
        [(_, (_, _, table, *_))] = lift_entries(X, X).values()
        block = table.at(0)
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 1
        block.flags.writeable = True
        block[0, 0] += 1
        solves = count_solves(monkeypatch)
        f = equiv.lift_stable_map(phi, X, X, "omega")
        assert len(solves) == 1 and memo_digest([f]) == cold_lift_digests("T_per over D2")[0]
        # the entry was overwritten, and hits again
        assert memo_digest([equiv.lift_stable_map(phi, X, X, "omega")]) == memo_digest([f])
        assert len(solves) == 1

    def test_each_options_has_its_own_entry(self, monkeypatch):
        phi, X = lift_case("D3/F3")
        solves = count_solves(monkeypatch)
        warm = [memo_digest([equiv.lift_stable_map(phi, X, X, "omega",
                                                   Options(homotopy_period_bound=m))])
                for m in (4, 1, 4)]
        assert len(solves) == 2 and len(lift_entries(X, X)) == 2
        assert warm == cold_lift_digests("D3/F3", (4, 1, 4))

    def test_an_entry_goes_with_its_target_and_keeps_no_source_alive(self, monkeypatch):
        # omega_data's module-level caches would keep X and Y alive; here
        # they are scratch dicts dropped with the test's references
        monkeypatch.setattr(functors, "_OMEGA_CACHE", {})
        alg = truncated_polynomial(3, 3)
        X, Y = periodic_complex(alg, 1), reindex(periodic_complex(alg, 1), 2)
        phi = modules.identity_map(functors.omega(X))
        assert functors.omega(Y).dim == phi.target.dim
        f = equiv.lift_stable_map(modules.ModuleMap(phi.source, functors.omega(Y), phi.matrix),
                                  X, Y, "omega")
        target, source, store = weakref.ref(Y), weakref.ref(X), X._solved
        assert lift_entries(X, Y)
        monkeypatch.undo()
        del f, phi, Y
        gc.collect()
        assert target() is None and len(store) == 0
        del X
        gc.collect()
        assert source() is None

    def test_writing_into_a_returned_map_leaves_the_next_hit(self):
        phi, X = lift_case("D3/F3")
        for _ in range(2):  # the cold call's map, then a hit's
            f = equiv.lift_stable_map(phi, X, X, "omega")
            before = memo_digest([f])
            for m in [*f.components.values(), *(f.neg or (0, ()))[1], *(f.pos or (0, ()))[1]]:
                m += 1
            assert memo_digest([equiv.lift_stable_map(phi, X, X, "omega")]) == before

    def test_a_cold_call_that_finds_nothing_or_raises_stores_nothing(self, monkeypatch):
        phi, X = lift_case("T_per over D2")
        monkeypatch.setattr(homotopy, "factors_through_projective", lambda _: False)
        solves = count_solves(monkeypatch)
        with pytest.raises(LiftError, match="homotopy_period_bound=4"):
            equiv.lift_stable_map(phi, X, X, "omega")
        assert solves and not lift_entries(X, X)

        def refuse(*maps, table=None):
            raise ValidationError("refused")

        monkeypatch.undo()
        monkeypatch.setattr(ChainMap, "validate", refuse)
        with pytest.raises(ValidationError, match="refused"):
            equiv.lift_stable_map(phi, X, X, "omega")
        assert not lift_entries(X, X)
        monkeypatch.undo()
        solves = count_solves(monkeypatch)
        f = equiv.lift_stable_map(phi, X, X, "omega")
        assert memo_digest([f]) == cold_lift_digests("T_per over D2")[0]
        assert len(solves) == 1


class TestRoundTrip:
    def test_t_per_side_p(self, t_per):
        rt = equiv.verify_round_trip(t_per, "P")
        assert rt.verdict == YES
        assert rt.composite_check == YES
        assert homotopy.verify_certificate(rt.certificate)

    def test_t_per_side_i(self, t_per):
        rt = equiv.verify_round_trip(t_per, "I")
        assert rt.verdict == YES
        assert rt.composite_check == YES

    def test_contractible(self, contractible):
        rt = equiv.verify_round_trip(contractible, "P")
        assert rt.verdict == YES

    def test_shifted_t_per(self, t_per):
        rt = equiv.verify_round_trip(reindex(t_per, 5), "P")
        assert rt.verdict == YES

    def test_over_t2(self):
        AT2 = modules.regular_module(fixtures.T2())
        C = complexes.cone(identity_chain_map(functors.stalk(AT2)))
        rt = equiv.verify_round_trip(C, "P")
        assert rt.verdict == YES

    # over T_2(D_2), which is 1-Gorenstein but not self-injective: side P
    # on the complete resolutions of the syzygies of the simples, side I
    # on the generators of the injective side's default family
    @pytest.mark.parametrize("side, i", [("P", 0), ("P", 1), ("I", 0), ("I", 1)])
    def test_over_triangular_d2(self, side, i):
        alg = triangular_d2()
        if side == "P":
            X, _ = approx.complete_resolution(modules.syzygy(modules.simple_modules(alg)[i], 1))
        else:
            X = modelcat.default_family(alg).injective.generators[i]
        rt = equiv.verify_round_trip(X, side)
        assert (rt.verdict, rt.composite_check) == (YES, YES)
        assert homotopy.verify_certificate(rt.certificate)
