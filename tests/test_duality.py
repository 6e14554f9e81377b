"""The duality D = Hom_k(-, k) on complexes and chain maps, and what the
injective side derives from it."""

import functools
import random

import numpy as np
import pytest

from conftest import (periodic_complex, random_chain_map, random_d2_complex,
                      t_per_with_period_2_tails, triangular_d2, truncated_polynomial)
from singeq import (approx, complexes, equiv, fixtures, functors, homotopy, linalg, modelcat,
                    modules, solver)
from singeq.complexes import dual, dual_chain_map, same_complex
from singeq.config import Options
from singeq.errors import ValidationError
from singeq.homotopy import NO, YES


@functools.cache
def sample_complexes():
    """Bounded and unbounded complexes over D2, D3 and T_2(D_2), both
    sides of the default family over T_2(D_2) included."""
    rng = random.Random(19)
    fam = modelcat.default_family(triangular_d2())
    return [fixtures.t_per(), fixtures.contractible_AA(), t_per_with_period_2_tails(),
            periodic_complex(truncated_polynomial(3, 3), 1),
            *fam.generators, *fam.injective.generators,
            *[random_d2_complex(rng) for _ in range(4)]]


@functools.cache
def sample_maps():
    """Chain maps: random ones between bounded complexes over D2, and bases
    between unbounded complexes over D3 and between the co-side generators
    over T_2(D_2)."""
    rng = random.Random(19)
    maps = []
    for _ in range(4):
        X, Y = random_d2_complex(rng), random_d2_complex(rng)
        maps.append(random_chain_map(rng, X, Y))
    D3 = truncated_polynomial(3, 3)
    maps += solver.chain_map_space_basis(periodic_complex(D3, 1), periodic_complex(D3, 2))[0]
    gens = modelcat.default_family(triangular_d2()).injective.generators
    return maps + solver.chain_map_space_basis(gens[0], gens[1])[0]


def block_bits(X, periods=3):
    """A complex's window, tail periods, and terms and differentials at
    every degree of the window widened by a few periods, as plain values."""
    q = max(X.neg_period, X.pos_period, 1)
    return (X.lo, X.hi, X.neg_period, X.pos_period,
            [(X.term(n).dim, X.term(n).stacked_action.tobytes(), X.diff(n).shape,
              X.diff(n).tobytes()) for n in range(X.lo - periods * q, X.hi + periods * q + 1)])


def map_bits(f, periods=3):
    q = max(f.neg_period, f.pos_period, f.source.neg_period, f.source.pos_period,
            f.target.neg_period, f.target.pos_period, 1)
    return (f.clo, f.chi, f.neg_period, f.pos_period,
            [(f.component(n).shape, f.component(n).tobytes())
             for n in range(f.clo - periods * q, f.chi + periods * q + 1)])


class TestDualComplex:
    @pytest.mark.parametrize("i", range(len(sample_complexes())))
    def test_an_involution(self, i):
        X = sample_complexes()[i]
        DX = dual(X)
        assert dual(DX) is X and dual(X) is DX
        assert DX.algebra is modules._opposite_of(X.algebra)
        for n in range(X.lo - 3, X.hi + 4):
            assert np.array_equal(DX.term(n).stacked_action,
                                  modules.dual_module(X.term(-n)).stacked_action)
            assert np.array_equal(DX.diff(n), X.diff(1 - n).T)
        fresh = complexes.Complex._dual.func(complexes.Complex._dual.func(X))
        assert fresh is not X and same_complex(fresh, X)

    def test_exactness_and_classes_swap(self):
        # D turns exact complexes of injectives into exact complexes of
        # projectives over the opposite algebra, and back
        fam = modelcat.default_family(triangular_d2())
        for J in fam.injective.generators:
            assert homotopy.is_exP(dual(J)) and not homotopy.is_exI(dual(J))
        for T in fam.generators:
            assert homotopy.is_exI(dual(T)) and not homotopy.is_exP(dual(T))


class TestDualChainMap:
    @pytest.mark.parametrize("i", range(len(sample_maps())))
    def test_a_chain_map_whose_dual_is_the_map(self, i):
        f = sample_maps()[i]
        Df = dual_chain_map(f)
        assert Df.source is dual(f.target) and Df.target is dual(f.source)
        Df.validate()  # an explicit check runs, and passes
        DDf = dual_chain_map(Df)
        assert DDf.source is f.source and DDf.target is f.target
        assert map_bits(DDf) == map_bits(f)

    def test_an_unchecked_map_is_checked(self, t_per):
        x = np.array([[0, 0], [1, 0]], dtype=np.int64)
        good = complexes.ChainMap(t_per, t_per, {0: x}, 0, 0, (1, (x,)), (1, (x,)))
        assert dual_chain_map(good)._checked
        bad = complexes.ChainMap(t_per, t_per, {0: linalg.eye(2)}, 0, 0)
        with pytest.raises(ValidationError, match="does not commute"):
            dual_chain_map(bad)


def hand_built_injective_resolution(M, options=Options()):
    """approx.complete_injective_resolution as it was written before
    complexes.dual: the dual of the complete resolution, degree by degree."""
    Top, iso_op = approx.complete_resolution(M, options)
    A = modules._opposite_of(M.algebra)
    p = A.p
    _, projop = functors.omega_data(Top)
    c = (iso_op.matrix @ projop.matrix) % p
    J = complexes.complex_from_callable(
        A, -Top.hi, -Top.lo, lambda n: modules.dual_module(Top.term(-n)),
        lambda n: Top.diff(1 - n).T % p, Top.pos_period, Top.neg_period)
    return J, modules.ModuleMap(modules.dual_module(M), J.term(0), c.T % p)


class TestCompleteInjectiveResolution:
    @pytest.mark.parametrize("name", ["D2", "T2(D2)"])
    def test_matches_the_hand_built_dual(self, name):
        if name == "D2":
            inputs = [modules.dual_module(fixtures.simple_k())]
        else:
            op = modules._opposite_of(triangular_d2())
            inputs = [modules.syzygy(S, 1) for S in modules.simple_modules(op)]
        for M in inputs:
            J, mono = approx.complete_injective_resolution(M)
            ref, ref_mono = hand_built_injective_resolution(M)
            assert block_bits(J) == block_bits(ref)
            assert mono.matrix.tobytes() == ref_mono.matrix.tobytes()
            assert mono.matrix.shape == ref_mono.matrix.shape
            assert np.array_equal(mono.source.stacked_action, ref_mono.source.stacked_action)


class TestTheta:
    @pytest.mark.parametrize("i", range(len(sample_complexes())))
    def test_theta_is_the_kernel_of_d0(self, i):
        X = sample_complexes()[i]
        K, kincl = modules.kernel(X.diff_map(0))
        T, incl = functors.theta_data(X)
        incl.validate()
        p = X.algebra.p
        assert not ((X.diff(0) @ incl.matrix) % p).any()
        assert linalg.rank(incl.matrix, p) == T.dim == K.dim
        assert modules.find_isomorphism(T, K) is not None

    def test_theta_map_is_the_restriction(self):
        for f in sample_maps():
            m = functors.theta_map(f)
            _, inX = functors.theta_data(f.source)
            _, inY = functors.theta_data(f.target)
            p = f.source.algebra.p
            assert np.array_equal((inY.matrix @ m.matrix) % p, (f.component(0) @ inX.matrix) % p)


class TestThetaLift:
    def test_theta_of_the_lift_is_phi_up_to_an_injective(self):
        # theta(f) - phi factors through an injective: D of it through a
        # projective
        for J in modelcat.default_family(triangular_d2()).injective.generators:
            T = functors.theta(J)
            p = J.algebra.p
            for phi in (modules.identity_map(T), modules.zero_map(T, T)):
                f = equiv.lift_stable_map(phi, J, J, "theta")
                diff = (functors.theta_map(f).matrix - phi.matrix) % p
                assert homotopy.factors_through_projective(
                    modules.dual_map(modules.ModuleMap(T, T, diff)))
                equivalence = homotopy.homotopy_equivalence_certificate(f).verdict == YES
                assert equivalence == phi.matrix.any()

    def test_unknown_side(self, t_per):
        phi = modules.identity_map(functors.omega(t_per))
        with pytest.raises(ValueError, match="unknown stable side"):
            equiv.lift_stable_map(phi, t_per, t_per, "sigma")


class TestCoSide:
    def test_the_identity_of_an_injective_generator_is_refuted(self):
        # over T_2(D_2) the generators of the co side are in exI, not in
        # exP, and not contractible: the stable criterion on D(id) says NO
        for J in modelcat.default_family(triangular_d2()).injective.generators:
            assert homotopy.is_exI(J) and not homotopy.is_exP(J)
            res = homotopy.null_homotopy(complexes.identity_chain_map(J))
            assert (res.verdict, res.strategy) == (NO, "stable")
            assert res.certificate is None

    def test_a_cone_of_members_is_a_member(self, monkeypatch):
        # homotopy_equivalence_certificate gives the exact cone of a map
        # between complexes in exI (exP) the verdict of its ends, and that
        # verdict holds
        cones = []
        cone = homotopy.cone
        monkeypatch.setattr(homotopy, "cone", lambda f: cones.append(cone(f)) or cones[-1])
        fam = modelcat.default_family(triangular_d2())
        for X, which in [(J, "inj") for J in fam.injective.generators] + \
                [(T, "proj") for T in fam.generators]:
            assert homotopy._is_ex(X, which)
            res = homotopy.homotopy_equivalence_certificate(complexes.identity_chain_map(X))
            assert res.verdict == YES
            C = cones[-1]
            assert C._membership[which] is True
            assert complexes.is_exact(C) and homotopy._terms_in_class(C, which)
