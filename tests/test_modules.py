"""Module arithmetic over the built-in algebras."""

import numpy as np
import pytest

from singeq import fixtures, linalg, modules
from singeq.errors import DimensionMismatch, ValidationError


class TestHomBasis:
    def test_k_to_regular(self, k, A):
        # f(1) = a needs x.a = 0, so a lies in (x): one basis map
        basis = modules.hom_basis(k, A)
        assert len(basis) == 1
        img = basis[0].matrix
        # image is the socle span{x}: second coordinate only
        assert np.array_equal(img % 2, np.array([[0], [1]]))

    def test_regular_to_k(self, A, k):
        basis = modules.hom_basis(A, k)
        assert len(basis) == 1

    def test_endomorphisms_of_regular(self, A):
        # End(A) has dim 2: multiplication by 1 and by x
        assert len(modules.hom_basis(A, A)) == 2

    def test_composition_is_matrix_product(self, A, k):
        into = modules.hom_basis(k, A)[0]
        onto = modules.hom_basis(A, k)[0]
        comp = (onto.matrix @ into.matrix) % 2
        # every composite k -> A -> k is zero over D2
        assert not comp.any()

    def test_duality_symmetry(self, k, A):
        for M, N in [(k, A), (A, k), (A, A), (k, k)]:
            DM, DN = modules.dual_module(M), modules.dual_module(N)
            assert len(modules.hom_basis(M, N)) == len(modules.hom_basis(DN, DM))


class TestSubquotients:
    def test_x_multiplication_on_regular(self, A, k):
        x = np.array([[0, 0], [1, 0]], dtype=np.int64)
        f = modules.ModuleMap(A, A, x)
        (K, _), (I, _), (C, _) = modules.subquotients(f)
        assert K.dim == I.dim == C.dim == 1
        for M in (K, I, C):
            assert modules.find_isomorphism(M, k) is not None

    def test_identity(self, A):
        f = modules.identity_map(A)
        (K, _), (I, _), (C, _) = modules.subquotients(f)
        assert (K.dim, I.dim, C.dim) == (0, 2, 0)

    def test_zero_map(self, A, k):
        f = modules.zero_map(A, k)
        (K, _), (I, _), (C, _) = modules.subquotients(f)
        assert (K.dim, I.dim, C.dim) == (2, 0, 1)

    def test_rank_nullity(self, A, k):
        for M, N in [(A, A), (A, k), (k, A)]:
            for f in modules.hom_basis(M, N):
                (K, _), (I, _), _ = modules.subquotients(f)
                assert K.dim + I.dim == M.dim


class TestCoversAndEnvelopes:
    def test_projective_cover_of_k(self, k, A):
        P, epi = modules.projective_cover(k)
        assert P.dim == 2
        assert modules.find_isomorphism(P, A) is not None
        assert linalg.rank(epi.matrix, 2) == 1

    def test_projective_cover_of_projective(self, A):
        P, epi = modules.projective_cover(A)
        assert P.dim == A.dim
        assert linalg.invert(epi.matrix, 2) is not None

    def test_projective_cover_simple_projective_t2(self):
        S1 = fixtures.S1()
        P, epi = modules.projective_cover(S1)
        assert P.dim == 1
        assert linalg.invert(epi.matrix, 2) is not None

    def test_injective_envelope_of_k(self, k, A):
        I, mono = modules.injective_envelope(k)
        assert I.dim == 2
        assert modules.find_isomorphism(I, A) is not None
        assert linalg.rank(mono.matrix, 2) == 1

    def test_injective_envelope_of_regular(self, A):
        I, mono = modules.injective_envelope(A)
        assert I.dim == A.dim
        assert linalg.invert(mono.matrix, 2) is not None

    def test_injective_envelope_of_zero(self, D2):
        I, mono = modules.injective_envelope(modules.zero_module(D2))
        assert I.dim == 0

    def test_cover_section_exists_iff_projective(self, k, A):
        for M in (k, A):
            _, epi = modules.projective_cover(M)
            section = linalg.solve_matrix(epi.matrix, linalg.eye(M.dim), 2)
            has_section = section is not None and modules.split_class(M).is_projective
            assert has_section == modules.split_class(M).is_projective


class TestSplitClass:
    def test_regular_d2(self, A):
        cls = modules.split_class(A)
        assert cls.is_projective and cls.is_injective

    def test_simple_d2(self, k):
        cls = modules.split_class(k)
        assert not cls.is_projective and not cls.is_injective

    def test_s1_over_t2(self):
        cls = modules.split_class(fixtures.S1())
        assert cls.is_projective and not cls.is_injective


class TestSyzygy:
    def test_first_syzygy_of_k(self, k):
        assert modules.find_isomorphism(modules.syzygy(k, 1), k) is not None

    def test_cosyzygy_of_k(self, k):
        assert modules.find_isomorphism(modules.syzygy(k, -1), k) is not None

    def test_zeroth_syzygy(self, k):
        assert modules.syzygy(k, 0) is k

    def test_ext_style_dimension(self, k):
        assert len(modules.hom_basis(modules.syzygy(k, 1), k)) == 1


class TestFindIsomorphism:
    def test_dimension_mismatch(self, k, A):
        assert modules.find_isomorphism(k, A) is None

    def test_reflexive(self, A):
        iso = modules.find_isomorphism(A, A)
        assert iso is not None
        assert linalg.invert(iso.matrix, 2) is not None

    def test_iso_transported_action(self, k):
        assert modules.find_isomorphism(k, modules.syzygy(k, 1)) is not None


class TestDimensions:
    def test_projective_dimension(self, k, A):
        assert modules.projective_dimension(A, 4) == 0
        assert modules.projective_dimension(k, 4) is None  # infinite over D2

    def test_gorenstein_dimensions(self):
        assert modules.gorenstein_dimension(fixtures.D2(), 5) == 0
        assert modules.gorenstein_dimension(fixtures.T2(), 5) == 1
        assert modules.gorenstein_dimension(fixtures.F2(), 5) == 0


class TestValidation:
    def test_bad_action_rejected(self, D2):
        bad = modules.Module(D2, 1, (linalg.eye(1), linalg.eye(1)))
        with pytest.raises(ValidationError):
            bad.validate()  # x acting invertibly contradicts x^2 = 0

    def test_intertwining_failure_names_first_action(self, T2):
        M = modules.regular_module(T2)
        # basis (e11, e22, e12): diag(0, 0, 1) keeps both idempotent
        # summands but does not commute with e12
        only_e12 = np.diag([0, 0, 1]).astype(np.int64)
        with pytest.raises(ValidationError, match=r"intertwine action 2$"):
            modules.ModuleMap(M, M, only_e12).validate()
        # e11 -> e22 breaks every relation; the first one is named
        mixes = linalg.zeros(3, 3)
        mixes[1, 0] = 1
        with pytest.raises(ValidationError, match=r"intertwine action 0$"):
            modules.ModuleMap(M, M, mixes).validate()
        modules.ModuleMap(M, M, np.diag([1, 1, 1]).astype(np.int64)).validate()

    def test_empty_map_still_checks_shape(self, D2, A):
        Z = modules.zero_module(D2)
        modules.ModuleMap(Z, A, linalg.zeros(2, 0)).validate()
        with pytest.raises(DimensionMismatch):
            modules.ModuleMap(Z, A, linalg.zeros(1, 0)).validate()


class TestSubmodule:
    def test_socle_of_regular_d2(self, A, k):
        # basis (1, x): the span of x is the socle, a copy of k
        sub, incl = modules.submodule(A, np.array([[0], [1]], dtype=np.int64))
        assert sub.dim == 1
        assert all(np.array_equal(a, b) for a, b in zip(sub.action, k.action))
        sub.validate()
        incl.validate()

    def test_actions_match_one_solve_per_element(self, T2):
        M = modules.regular_module(T2)
        # e11 A = span(e11, e12)
        basis = np.array([[1, 0], [0, 0], [0, 1]], dtype=np.int64)
        sub, incl = modules.submodule(M, basis)
        for a, x in zip(M.action, sub.action):
            expected = linalg.solve_matrix(incl.matrix, (a @ incl.matrix) % 2, 2)
            assert np.array_equal(x, expected)
        sub.validate()
        incl.validate()

    def test_span_that_is_not_invariant(self, A):
        with pytest.raises(ValidationError, match="not invariant"):
            modules.submodule(A, np.array([[1], [0]], dtype=np.int64))
