"""Gorenstein checks, approximations, complete resolutions, replacements."""

import gc

import numpy as np
import pytest

from conftest import count_calls, triangular_d2, truncated_polynomial
from singeq import (approx, complexes, fixtures, functors, homotopy, linalg, modelcat,
                    modules)
from singeq.config import Options
from singeq.errors import NotGorensteinError, PeriodicityError
from singeq.homotopy import NO, UNKNOWN, YES
from singeq.modelcat import CERTIFIED
from test_approx_pins import t2_t2_d2


class TestGorenstein:
    def test_d2_self_injective(self, D2):
        assert modules.gorenstein_dimension(D2, 5) == 0

    def test_t2_hereditary(self, T2):
        assert modules.gorenstein_dimension(T2, 5) == 1

    def test_f2_semisimple(self, F2):
        assert modules.gorenstein_dimension(F2, 5) == 0

    def test_cached_dimension_honours_gorenstein_bound(self, T2):
        # T2 has Gorenstein dimension 1, so a bound of 0 finds none, also
        # after a call with the default bound
        assert modules.gorenstein_dimension(T2, Options().gorenstein_bound) == 1
        assert modules.gorenstein_dimension(T2, 0) is None


class TestApproximationTriples:
    def test_gp_of_k_over_d2(self, k):
        triple = approx.gp_approximation(k)
        triple.verify()
        # dimension 0: every module is Gorenstein projective, so the
        # precover may be an iso-like epi with finite-dimension kernel
        assert triple.epi.matrix.shape[0] == k.dim
        assert triple.left.dim == triple.mid.dim - k.dim

    def test_gp_of_s2_over_t2(self):
        S2 = fixtures.S2()
        triple = approx.gp_approximation(S2)
        triple.verify()
        # over a hereditary algebra GP modules are projective
        assert triple.mid.is_projective

    def test_gi_of_k_over_d2(self, k):
        triple = approx._dual_triple(approx.gp_approximation(modules.dual_module(k)))
        triple.verify()
        # the right-hand piece has finite injective dimension
        assert triple.finite_dim is not None

    def test_zero_module(self, D2):
        Z = modules.zero_module(D2)
        gi = approx._dual_triple(approx.gp_approximation(modules.dual_module(Z)))
        for triple in (approx.gp_approximation(Z), gi):
            triple.verify()
            assert triple.mid.dim == triple.left.dim


class TestCompleteResolution:
    def test_k_over_d2_gives_t_per_shape(self, k):
        T, witness = approx.complete_resolution(k)
        assert complexes.is_exact(T)
        assert T.neg_period == 1 and T.pos_period == 1
        for n in range(T.lo - 1, T.hi + 2):
            assert T.term(n).dim == 2
            assert T.term(n).is_projective
        # the syzygy witness identifies omega of the resolution with the input
        assert witness.source.dim == functors.omega(T).dim
        assert witness.is_invertible()

    def test_projective_input_gives_split_complex(self, A):
        T, witness = approx.complete_resolution(A)
        assert complexes.is_exact(T)
        assert T.bounded()
        assert witness.is_invertible()

    def test_k_over_f2_is_split(self):
        kF2 = fixtures.simple_k_F2()
        T, _ = approx.complete_resolution(kF2)
        assert complexes.is_exact(T)
        assert T.bounded()

    @pytest.mark.parametrize("answered, tower", [(0, "syzygy"), (1, "cosyzygy")])
    def test_periodicity_error_names_its_tower(self, monkeypatch, k, answered, tower):
        # find_isomorphism answers only its first `answered` questions; the
        # first syzygy of k over D2 is k again, so one answer closes the
        # syzygy tower and leaves the cosyzygy tower open
        real, calls = modules.find_isomorphism, []

        def find(*args):
            calls.append(args)
            return real(*args) if len(calls) <= answered else None

        monkeypatch.setattr(modules, "find_isomorphism", find)
        with pytest.raises(PeriodicityError, match=f"no {tower} repeats within "
                                                   "periodicity_bound=8"):
            approx.complete_resolution(k)

    def test_gorenstein_projectives_over_a_non_self_injective_algebra(self):
        # over T_2(D_2) injective envelopes of GP modules need not be
        # projective; the right half runs along add(A)-approximations
        S1, S2 = modules.simple_modules(triangular_d2())
        with pytest.raises(NotGorensteinError, match="not Gorenstein projective"):
            approx.complete_resolution(S2)
        for M in (S1, modules.syzygy(S2, 1)):
            T, witness = approx.complete_resolution(M)
            assert homotopy.is_exP(T) and witness.is_invertible()
            assert homotopy.null_homotopy(complexes.identity_chain_map(T)).verdict == NO


@pytest.fixture(scope="module", params=[2, 3, 2 ** 26 - 5], ids=["F2", "F3", "Fmax"])
def cubic(request):
    """F_p[x]/(x^3) in the basis 1, x, x^2; Fmax is the largest allowed p."""
    return truncated_polynomial(3, request.param)


class TestStalkReplacement:
    def test_cofibrant_replacement_of_stalk_k(self, k, t_per):
        rep = approx.stalk_replacement(functors.stalk(k), "cofibrant_ctr")
        assert rep.verdict == YES
        assert modelcat.membership_flags(rep.object).in_exP
        assert rep.map.is_epi()
        assert rep.upper.verdict == CERTIFIED
        assert rep.lower.verdict == CERTIFIED
        # the replacement is the complete resolution: 1-periodic, terms A
        assert rep.object.neg_period == 1 and rep.object.pos_period == 1

    def test_fibrant_replacement_of_stalk_k(self, k):
        rep = approx.stalk_replacement(functors.stalk(k), "fibrant_co")
        assert rep.verdict == YES
        assert modelcat.membership_flags(rep.object).in_exI
        assert rep.map.is_mono()
        # degree-0 component is the socle inclusion, matching the counit
        assert not ((rep.object.diff(0) @ rep.map.component(0)) % 2).any()

    def test_projective_injective_stalk(self, A):
        for which in ("cofibrant_ctr", "fibrant_co"):
            rep = approx.stalk_replacement(functors.stalk(A), which)
            assert rep.verdict == YES
            res = homotopy.null_homotopy(
                complexes.identity_chain_map(rep.object))
            # replacement of a projective-injective stalk is contractible
            assert res.verdict == YES

    @pytest.mark.parametrize("which", ["cofibrant_ctr", "fibrant_co"])
    def test_stalk_k_over_cubic_truncated_polynomials(self, cubic, which):
        # k has syzygy period 2 here (Omega k = x A, Omega^2 k = k), so the
        # left half has differentials that are not the wrap differential
        k = modules.Module(cubic, 1, (linalg.eye(1),) + (linalg.zeros(1, 1),) * 2)
        k.validate()
        rep = approx.stalk_replacement(functors.stalk(k), which)
        rep.object.validate()
        rep.map.validate()
        rep.triple.verify()
        if cubic.p > 3:
            # the default family holds the complete resolution of k; the
            # null-homotopies against it need tail period 3L at p = 3, and
            # for p >= 5 none is found within homotopy_period_bound = 4
            assert rep.verdict == UNKNOWN
            assert rep.upper.verdict == rep.lower.verdict == UNKNOWN
        else:
            assert rep.verdict == YES
            for piece in (rep.upper, rep.lower):
                assert piece.verdict == CERTIFIED
                assert homotopy.verify_certificate(piece.certificate)
        if which == "cofibrant_ctr":
            assert homotopy.is_exP(rep.object) and rep.map.is_epi()
            assert rep.witness.is_invertible()
        else:
            assert homotopy.is_exI(rep.object) and rep.map.is_mono()
            assert rep.witness.is_injective()

    @pytest.mark.parametrize("which", ["cofibrant_ctr", "fibrant_co"])
    def test_simple_over_a_non_self_injective_algebra(self, which):
        # the simple of T_2(D_2) that is not GP: the GP approximation has
        # depth 1, and the default family has a generator per side
        S = modules.simple_modules(triangular_d2())[1]
        rep = approx.stalk_replacement(functors.stalk(S), which)
        assert rep.verdict == YES
        rep.triple.verify()
        if which == "cofibrant_ctr":
            assert homotopy.is_exP(rep.object) and rep.map.is_epi()
        else:
            assert homotopy.is_exI(rep.object) and rep.map.is_mono()

    @pytest.mark.parametrize("build", [triangular_d2, t2_t2_d2], ids=["T2(D2)", "T2(T2(D2))"])
    def test_a_cold_replacement_resolves_its_module_once(self, monkeypatch, build):
        # the GP triple resolves its middle term, the GI triple reads the
        # GP triple over the opposite algebra, and the replacement reads
        # the triple
        alg = build()
        modelcat.default_family(alg)
        calls = count_calls(monkeypatch, approx, "complete_resolution")
        for S in modules.simple_modules(alg):
            for which in ("cofibrant_ctr", "fibrant_co"):
                before = len(calls)
                approx.stalk_replacement(functors.stalk(S), which)
                assert len(calls) == before + 1

    @pytest.mark.parametrize("which", ["cofibrant_ctr", "fibrant_co"])
    def test_cache_hit_on_an_equal_stalk_ends_at_the_new_stalk(self, D2, which):
        first, second = (functors.stalk(modules.Module(D2, 1, (linalg.eye(1), linalg.zeros(1, 1))))
                         for _ in range(2))
        old = approx.stalk_replacement(first, which)
        new = approx.stalk_replacement(second, which)
        stalk_end, object_end = ((new.map.target, new.map.source) if which == "cofibrant_ctr"
                                 else (new.map.source, new.map.target))
        assert stalk_end is second and object_end is new.object
        assert new.object is old.object and new.map is not old.map
        assert new.map.components.keys() == old.map.components.keys()
        assert all(np.array_equal(m, old.map.components[n])
                   for n, m in new.map.components.items())
        assert (new.triple, new.upper, new.lower, new.witness, new.verdict) == \
            (old.triple, old.upper, old.lower, old.witness, old.verdict)

    def test_verdict_does_not_depend_on_call_history(self):
        # with no periodic homotopy search the replacement cannot be
        # certified; a cached default-options result must not leak in
        S = functors.apply_F(fixtures.t_per())
        tight = Options(homotopy_period_bound=0)
        cold = approx.stalk_replacement(S, "cofibrant_ctr", options=tight)
        warm_up = approx.stalk_replacement(S, "cofibrant_ctr")
        warm = approx.stalk_replacement(S, "cofibrant_ctr", options=tight)
        assert warm_up.verdict == YES
        assert cold.verdict == UNKNOWN
        assert warm.verdict == UNKNOWN

    def test_a_recycled_family_id_gets_its_own_replacement(self, D2, k):
        # a two-sided family whose co side certifies against one generator,
        # then dropped: a fresh empty family may get its id
        fam = modelcat.GeneratorFamily((), 0, injective=modelcat.default_family(D2))
        approx.stalk_replacement(functors.stalk(k), "fibrant_co", fam)
        old = id(fam)
        del fam
        gc.collect()
        fresh = []
        for _ in range(5000):
            fresh.append(modelcat.GeneratorFamily((), 0))
            if id(fresh[-1]) == old:
                break
        rep = approx.stalk_replacement(functors.stalk(k), "fibrant_co", fresh[-1])
        assert rep.upper.family is rep.lower.family is fresh[-1].opposite
        assert rep.verdict == YES

    def test_rejects_non_stalk(self, t_per):
        from singeq.errors import ValidationError
        with pytest.raises(ValidationError):
            approx.stalk_replacement(t_per, "cofibrant_ctr")
