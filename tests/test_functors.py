"""Degree-zero functors, adjunction transposes, unit and counit."""

import gc
import weakref

import numpy as np

from singeq import complexes, functors, homotopy, modules, solver
from singeq.complexes import add_maps, compose, identity_chain_map, reindex


class TestOmegaTheta:
    def test_omega_t_per_is_k(self, t_per, k):
        W = functors.omega(t_per)
        assert W.dim == 1
        assert modules.find_isomorphism(W, k) is not None

    def test_omega_of_stalk(self, k):
        assert functors.omega(functors.stalk(k)).dim == k.dim

    def test_omega_of_contractible(self, contractible):
        # window is degrees 1, 0 with identity differential: Im d_1 = X_0
        assert functors.omega(contractible).dim == 0

    def test_theta_t_per_is_k(self, t_per, k):
        T = functors.theta(t_per)
        assert T.dim == 1
        assert modules.find_isomorphism(T, k) is not None

    def test_theta_of_stalk(self, k):
        assert functors.theta(functors.stalk(k)).dim == k.dim

    def test_theta_of_shifted_contractible(self, contractible):
        # degrees 0, -1 with identity differential: injective d_0
        assert functors.theta(reindex(contractible, -1)).dim == 0


class TestStalk:
    def test_stalk_of_zero(self, D2):
        S = functors.stalk(modules.zero_module(D2))
        assert S.bounded() and (S.lo, S.hi) == (0, 0) and S.term(0).dim == 0

    def test_stalk_round_trips(self, k):
        S = functors.stalk(k)
        assert functors.theta(S).dim == k.dim
        assert functors.omega(S).dim == k.dim

    def test_stalk_not_exact(self, k):
        assert not complexes.is_exact(functors.stalk(k))

    def test_one_stalk_per_module_object(self, t_per, k):
        assert functors.stalk(k) is functors.stalk(k)
        assert functors.apply_F(t_per) is functors.apply_F(t_per)
        assert functors.apply_G(t_per) is functors.apply_G(t_per)
        # an equal module that is another object has a stalk of its own
        assert functors.stalk(modules.Module(k.algebra, k.dim, k.action)) is not functors.stalk(k)
        # the kept stalk is still marked, and passes its check
        assert functors.stalk(k)._checked
        functors.stalk(k).validate()

    def test_a_stalk_goes_with_its_module(self, k):
        M = modules.Module(k.algebra, k.dim, k.action)
        module, complex_ = weakref.ref(M), weakref.ref(functors.stalk(M))
        del M
        gc.collect()
        assert module() is None and complex_() is None


class TestApplyFG:
    def test_f_and_g_of_t_per(self, t_per):
        for apply in (functors.apply_F, functors.apply_G):
            S = apply(t_per)
            assert S.bounded() and S.lo == S.hi == 0
            assert S.term(0).dim == 1

    def test_functor_identity_law(self, t_per):
        for apply in (functors.apply_F, functors.apply_G):
            idm = apply(identity_chain_map(t_per))
            assert np.array_equal(idm.component(0), np.eye(1, dtype=np.int64))

    def test_fg_equals_g_on_exact_injective_fixtures(self, t_per, contractible):
        # FG(Y) = G(Y) as literal presentations when theta(Y) is computed
        for Y in (t_per, contractible):
            GY = functors.apply_G(Y)
            FGY = functors.apply_F(GY)
            assert FGY.term(0).dim == GY.term(0).dim
            for i, mat in enumerate(FGY.term(0).action):
                assert np.array_equal(mat % 2, GY.term(0).action[i] % 2)


class TestAdjunction:
    def test_hom_dimensions_match(self, t_per):
        FX = functors.apply_F(t_per)
        GY = functors.apply_G(t_per)
        dim_left = len(solver.chain_map_space_basis(FX, t_per)[0])
        dim_right = len(solver.chain_map_space_basis(t_per, GY)[0])
        assert dim_left == dim_right == 1

    def test_transposes_mutually_inverse(self, t_per):
        w = functors.AdjunctionWitness(t_per, t_per)
        FX = functors.apply_F(t_per)
        basis, complete = solver.chain_map_space_basis(FX, t_per)
        assert complete
        for f in basis:
            back = w.backward(w.forward(f))
            assert add_maps(back, f, sign=-1).is_zero()
        basis2, complete2 = solver.chain_map_space_basis(
            t_per, functors.apply_G(t_per))
        assert complete2
        for g in basis2:
            fwd = w.forward(w.backward(g))
            assert add_maps(fwd, g, sign=-1).is_zero()

    def test_zero_map_transposes_to_zero(self, t_per):
        w = functors.AdjunctionWitness(t_per, t_per)
        z = complexes.zero_chain_map(functors.apply_F(t_per), t_per)
        assert w.forward(z).is_zero()

    def test_triangle_identity_counit(self, t_per):
        # the counit transposes forward to the identity of G(Y)
        w = functors.AdjunctionWitness(functors.apply_G(t_per), t_per)
        eps = functors.counit(t_per)
        fwd = w.forward(eps)
        assert np.array_equal(fwd.component(0) % 2, np.eye(1, dtype=np.int64))


class TestUnitCounit:
    def test_counit_t_per_shape(self, t_per):
        eps = functors.counit(t_per)
        assert eps.source.term(0).dim == 1
        assert eps.is_mono()
        # degree-0 component includes the cycles: image killed by d_0
        assert not ((t_per.diff(0) @ eps.component(0)) % 2).any()

    def test_counit_on_stalk_is_identity(self, k):
        eps = functors.counit(functors.stalk(k))
        assert np.array_equal(eps.component(0) % 2, np.eye(1, dtype=np.int64))

    def test_unit_t_per_is_boundary_projection(self, t_per):
        eta = functors.unit(t_per)
        assert eta.is_epi()
        # the projection kills Im d_1
        assert not ((eta.component(0) @ t_per.diff(1)) % 2).any()
