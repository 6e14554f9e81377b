"""Gorenstein checks, approximations, complete resolutions, replacements."""

import numpy as np
import pytest

from singeq import (algebra, approx, complexes, fixtures, functors, homotopy, linalg,
                    modelcat, modules)
from singeq.config import Options
from singeq.homotopy import UNKNOWN, YES
from singeq.modelcat import CERTIFIED


class TestGorenstein:
    def test_d2_self_injective(self, D2):
        rep = approx.check_gorenstein(D2, 5)
        assert rep.verdict == "GORENSTEIN" and rep.dimension == 0

    def test_t2_hereditary(self, T2):
        rep = approx.check_gorenstein(T2, 5)
        assert rep.verdict == "GORENSTEIN" and rep.dimension == 1

    def test_f2_semisimple(self, F2):
        rep = approx.check_gorenstein(F2, 5)
        assert rep.verdict == "GORENSTEIN" and rep.dimension == 0

    def test_cached_dimension_honours_gorenstein_bound(self, T2):
        # T2 has Gorenstein dimension 1, so a bound of 0 finds none, also
        # after a call with the default bound
        assert homotopy._gorenstein_dim(T2, Options()) == 1
        assert homotopy._gorenstein_dim(T2, Options(gorenstein_bound=0)) is None


class TestApproximationTriples:
    def test_gp_of_k_over_d2(self, k):
        triple = approx.gp_gi_approximation(k, "GP")
        triple.verify()
        # dimension 0: every module is Gorenstein projective, so the
        # precover may be an iso-like epi with finite-dimension kernel
        assert triple.epi.matrix.shape[0] == k.dim
        assert triple.left.dim == triple.mid.dim - k.dim

    def test_gp_of_s2_over_t2(self):
        S2 = fixtures.S2()
        triple = approx.gp_gi_approximation(S2, "GP")
        triple.verify()
        # over a hereditary algebra GP modules are projective
        assert modules.split_class(triple.mid).is_projective

    def test_gi_of_k_over_d2(self, k):
        triple = approx.gp_gi_approximation(k, "GI")
        triple.verify()
        # the right-hand piece has finite injective dimension
        assert triple.finite_dim is not None

    def test_zero_module(self, D2):
        Z = modules.zero_module(D2)
        for side in ("GP", "GI"):
            triple = approx.gp_gi_approximation(Z, side)
            triple.verify()
            assert triple.mid.dim == triple.left.dim


class TestCompleteResolution:
    def test_k_over_d2_gives_t_per_shape(self, k):
        T, witness = approx.complete_resolution(k, 8)
        assert complexes.is_exact(T)
        assert T.neg_period == 1 and T.pos_period == 1
        for n in range(T.lo - 1, T.hi + 2):
            assert T.term(n).dim == 2
            assert modules.split_class(T.term(n)).is_projective
        # the syzygy witness identifies omega of the resolution with the input
        assert witness.source.dim == functors.omega(T).dim
        assert witness.is_invertible()

    def test_projective_input_gives_split_complex(self, A):
        T, witness = approx.complete_resolution(A, 8)
        assert complexes.is_exact(T)
        assert T.bounded()
        assert witness.is_invertible()

    def test_k_over_f2_is_split(self):
        kF2 = fixtures.simple_k_F2()
        T, _ = approx.complete_resolution(kF2, 8)
        assert complexes.is_exact(T)
        assert T.bounded()


@pytest.fixture(scope="module", params=[2, 3, 2 ** 26 - 5], ids=["F2", "F3", "Fmax"])
def cubic(request):
    """F_p[x]/(x^3) in the basis 1, x, x^2; Fmax is the largest allowed p."""
    n = 3
    mul = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n - i):
            mul[i, j, i + j] = 1
    alg = algebra.Algebra(algebra.Field(request.param), n, ("1", "x", "x^2"), mul,
                          linalg.eye(n)[0], (0,), (1, 2), name=f"D3/F{request.param}")
    alg.validate()
    return alg


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
        assert rep.verdict == YES
        rep.object.validate()
        rep.map.validate()
        rep.triple.verify()
        for piece in (rep.upper, rep.lower):
            assert piece.verdict == CERTIFIED
            assert homotopy.verify_certificate(piece.certificate)
        if which == "cofibrant_ctr":
            assert homotopy.is_exP(rep.object) and rep.map.is_epi()
            assert rep.witness.is_invertible()
        else:
            assert homotopy.is_exI(rep.object) and rep.map.is_mono()
            assert rep.witness.is_injective()

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

    def test_rejects_non_stalk(self, t_per):
        from singeq.errors import ValidationError
        with pytest.raises(ValidationError):
            approx.stalk_replacement(t_per, "cofibrant_ctr")
