"""Complexes with periodic tails: homology, cones, truncations, shifts."""

import numpy as np
import pytest

from singeq import complexes, fixtures, functors, modules
from singeq.complexes import (add_maps, compose, cone, direct_sum_complex,
                              hard_truncate_above, hard_truncate_below,
                              homology, identity_chain_map, is_exact,
                              is_quasi_isomorphism, reindex,
                              reindex_chain_map, two_sided_split,
                              zero_chain_map, cokernel_complex)
from singeq.errors import ValidationError


class TestHomology:
    def test_t_per_is_acyclic_everywhere(self, t_per):
        for n in range(-3, 4):
            assert homology(t_per, n).dim == 0

    def test_stalk_homology_is_the_module(self, k):
        S = functors.stalk(k)
        assert homology(S, 0).dim == k.dim
        assert homology(S, 1).dim == 0

    def test_cone_of_identity_is_acyclic(self, k):
        C = cone(identity_chain_map(functors.stalk(k)))
        for n in range(-2, 3):
            assert homology(C, n).dim == 0


class TestExactness:
    def test_t_per(self, t_per):
        assert is_exact(t_per)

    def test_stalk_not_exact(self, k):
        assert not is_exact(functors.stalk(k))

    def test_contractible(self, contractible):
        assert is_exact(contractible)

    def test_d_squared_enforced(self, D2, A):
        with pytest.raises(ValidationError):
            complexes.Complex.build(
                D2, 0, 2, {0: A, 1: A, 2: A},
                {1: np.eye(2, dtype=np.int64), 2: np.eye(2, dtype=np.int64)})


X_D2 = np.array([[0, 0], [1, 0]], dtype=np.int64)  # x on basis (1, x)
I2 = np.eye(2, dtype=np.int64)


def periodic_complex(A, d, pos_seam=None):
    """... A -d-> A -d-> A ... in every degree, window 0..0, both tails 1-periodic."""
    tail = complexes.Tail(1, (A,), (d,))
    return complexes.Complex.build(
        A.algebra, 0, 0, {0: A}, {}, neg_tail=tail, pos_tail=tail,
        neg_seam=d, pos_seam=d if pos_seam is None else pos_seam)


class TestValidationCoversEveryDegree:
    """Each check fails only at degrees outside the window."""

    def zero_diff_map(self, A, neg, pos):
        # every matrix commutes with zero differentials, so only the
        # intertwining check can reject these maps
        Z = periodic_complex(A, np.zeros((2, 2), dtype=np.int64))
        return complexes.ChainMap(Z, Z, {0: I2}, 0, 0, (1, (neg,)), (1, (pos,)))

    def test_non_intertwining_negative_tail_block(self, A):
        bad = np.array([[1, 0], [0, 0]], dtype=np.int64)  # does not commute with x
        self.zero_diff_map(A, I2, I2).validate()
        with pytest.raises(ValidationError, match="intertwine action 1"):
            self.zero_diff_map(A, bad, I2).validate()

    def test_non_intertwining_positive_tail_block(self, A):
        bad = np.array([[1, 0], [0, 0]], dtype=np.int64)
        with pytest.raises(ValidationError, match="intertwine action 1"):
            self.zero_diff_map(A, I2, bad).validate()

    def test_same_matrix_between_other_modules_is_checked_again(self, A):
        # A' is A with x acting by the transpose; x itself intertwines the
        # action on A but not on A', and one array serves every degree
        # the tail degrees come first in the check range and pass
        A_t = modules.Module(A.algebra, 2, (I2, X_D2.T.copy()))
        zero = np.zeros((2, 2), dtype=np.int64)
        tail = complexes.Tail(1, (A,), (zero,))
        Z = complexes.Complex.build(A.algebra, 0, 0, {0: A_t}, {}, neg_tail=tail,
                                    neg_seam=zero)
        f = complexes.ChainMap(Z, Z, {0: X_D2}, 0, 0, (1, (X_D2,)), None)
        with pytest.raises(ValidationError, match="intertwine action 1"):
            f.validate()

    def test_fails_to_commute_only_at_the_positive_seam(self, t_per):
        # components a I + b x commute with d = x iff a is the same on both
        # sides of d; here a jumps from 1 to 0 across the positive seam
        f = complexes.ChainMap(t_per, t_per, {0: I2}, 0, 0, (1, (I2,)), (1, (X_D2,)))
        with pytest.raises(ValidationError, match="commute with d at degree 1$"):
            f.validate()
        complexes.ChainMap(t_per, t_per, {0: I2}, 0, 0, (1, (I2,)), (1, (I2,))).validate()

    def test_fails_to_commute_only_inside_a_tail(self, t_per):
        # 2-periodic negative tail I, x, I, x, ... from degree -1 down: the
        # seam (f_-1 = f_0 = I) commutes, the tail does not; the check range
        # is -5..5 and the first failure is d_-4: X_-4 -> X_-5
        f = complexes.ChainMap(t_per, t_per, {0: I2}, 0, 0, (2, (I2, X_D2)), None)
        assert f.check_range() == (-5, 5)
        with pytest.raises(ValidationError, match="commute with d at degree -4$"):
            f.validate()

    def test_d_squared_nonzero_only_across_a_seam(self, A):
        periodic_complex(A, X_D2)
        # d_1 = id meets d = x on both sides: d_0 d_1 = x and d_1 d_2 = x
        with pytest.raises(ValidationError, match=r"d\*d != 0 at degree 1$"):
            periodic_complex(A, X_D2, pos_seam=I2)

    def test_d_squared_nonzero_only_inside_a_tail(self, A):
        tail = complexes.Tail(2, (A, A), (X_D2, I2))
        with pytest.raises(ValidationError, match=r"d\*d != 0 at degree -4$"):
            complexes.Complex.build(A.algebra, 0, 0, {0: A}, {}, neg_tail=tail,
                                    neg_seam=X_D2)


class TestCone:
    def test_cone_identity_on_stalk(self, k):
        C = cone(identity_chain_map(functors.stalk(k)))
        assert (C.term(0).dim, C.term(1).dim) == (1, 1)
        assert is_exact(C)

    def test_cone_to_zero_target(self, D2, contractible):
        f = zero_chain_map(contractible, complexes.zero_complex(D2))
        C = cone(f)
        # cone of X -> 0 presents X shifted down by one
        for n in range(-1, 4):
            assert C.term(n).dim == contractible.term(n - 1).dim

    def test_cone_of_x_id_on_t_per_is_exact(self, t_per):
        x = np.array([[0, 0], [1, 0]], dtype=np.int64)
        f = complexes.chain_map_from_callable(
            t_per, t_per, 0, 0, lambda n: x, 1, 1)
        assert is_exact(cone(f))

    def test_quasi_iso_iff_exact_cone(self, t_per, k):
        zero_to_tper = zero_chain_map(
            complexes.zero_complex(t_per.algebra), t_per)
        assert is_quasi_isomorphism(zero_to_tper) == is_exact(cone(zero_to_tper))
        assert is_quasi_isomorphism(zero_to_tper)  # t_per exact
        incl = functors.counit(t_per)
        assert is_quasi_isomorphism(incl) == is_exact(cone(incl))


class TestTruncation:
    def test_truncate_above_keeps_pos_tail(self, t_per):
        U = hard_truncate_above(t_per, 0)
        assert U.term(0).dim == 0
        assert U.term(1).dim == 2
        assert U.neg_tail is None and U.pos_tail is not None

    def test_truncate_stalk_below(self, k):
        S = functors.stalk(k)
        T = hard_truncate_below(S, 0)
        assert T.term(0).dim == 1 and T.bounded()

    def test_counit_cokernel_split(self, t_per):
        # cokernel of the cycle inclusion in degree 0, split at 0:
        # upper keeps the strictly positive tower, lower the cycle image
        eps = functors.counit(t_per)
        C, _ = cokernel_complex(eps)
        split = two_sided_split(C, 0)
        for piece in (split.upper, split.lower):
            a, b = piece.check_range()
            for n in range(a, b):
                assert not ((piece.diff(n) @ piece.diff(n + 1)) % 2).any()
        # the split is a degreewise short exact sequence
        for n in range(-3, 4):
            assert (split.upper.term(n).dim + split.lower.term(n).dim
                    == C.term(n).dim)


class TestReindex:
    def test_stalk_shift(self, k):
        S = reindex(functors.stalk(k), 1)
        assert S.term(1).dim == 1 and S.term(0).dim == 0

    def test_t_per_shift_isomorphic(self, t_per):
        T1 = reindex(t_per, 1)
        for n in range(-2, 3):
            assert T1.term(n).dim == t_per.term(n).dim
            assert np.array_equal(T1.diff(n) % 2, t_per.diff(n) % 2)

    def test_round_trip_shift(self, t_per, contractible):
        for X in (t_per, contractible):
            Y = reindex(reindex(X, 2), -2)
            for n in range(-2, 4):
                assert Y.term(n).dim == X.term(n).dim
                assert np.array_equal(Y.diff(n) % 2, X.diff(n) % 2)


class TestMaps:
    def test_compose_matches_matrix_product(self, t_per):
        f = identity_chain_map(t_per)
        g = compose(f, f)
        for n in range(-2, 3):
            assert np.array_equal(g.component(n), f.component(n))

    def test_add_maps_cancel(self, t_per):
        f = identity_chain_map(t_per)
        assert add_maps(f, f, sign=-1).is_zero()

    def test_direct_sum_inclusions_and_projections(self, t_per, contractible):
        S, iX, iY, pX, pY = direct_sum_complex(t_per, contractible)
        assert compose(pX, iX).is_mono() and compose(pX, iX).is_epi()
        assert compose(pX, iY).is_zero()
        assert iX.is_mono() and pY.is_epi()

    def test_reindex_chain_map(self, t_per):
        f = identity_chain_map(t_per)
        g = reindex_chain_map(f, 1)
        assert g.source.lo == t_per.lo + 1
        assert not add_maps(g, identity_chain_map(g.source), sign=-1
                            ).component(1).any()
