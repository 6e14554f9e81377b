"""Round-trip certification of the functor pipeline."""

import numpy as np
import pytest

from conftest import simple_modules, triangular_d2
from singeq import approx, complexes, equiv, fixtures, functors, homotopy, modelcat, modules
from singeq.complexes import identity_chain_map, reindex
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
            X, _ = approx.complete_resolution(modules.syzygy(simple_modules(alg)[i], 1))
        else:
            X = modelcat.default_family(alg).injective.generators[i]
        rt = equiv.verify_round_trip(X, side)
        assert (rt.verdict, rt.composite_check) == (YES, YES)
        assert homotopy.verify_certificate(rt.certificate)
