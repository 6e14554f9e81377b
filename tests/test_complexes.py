"""Complexes with periodic tails: homology, cones, truncations, shifts."""

import dataclasses
import glob
import math
import os
import random

import numpy as np
import pytest

from conftest import periodic_complex as T_j
from conftest import (alternating_tail_complex, assert_one_table, assert_same_table,
                      assert_views_of_stacks, count_calls, count_checks, equal_by_degrees,
                      fresh_t_per, mismatched_cone, random_chain_map, random_contractible,
                      random_d2_complex, reference_from_tables, reference_lone_table,
                      t_per_with_period_2_tails, truncated_polynomial)
from singeq import (complexes, fixtures, formats, functors, homotopy, linalg, modelcat, modules,
                    solver)
from singeq.complexes import (add_maps, compose, cone, direct_sum_complex,
                              homology, identity_chain_map, is_exact,
                              is_quasi_isomorphism, reindex, two_sided_split,
                              zero_chain_map, cokernel_complex)
from singeq.errors import AlgebraMismatch, DimensionMismatch, ValidationError


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


def exact_by_homology(X):
    """Oracle: every homology module vanishes over is_exact's degrees."""
    a = X.lo - max(X.neg_period, 1) - 1
    b = X.hi + max(X.pos_period, 1) + 1
    return all(homology(X, n).dim == 0 for n in range(a, b + 1))


def shipped_complexes():
    """The fixture files, the built-in complexes and stalks of built-in modules."""
    fixdir = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    out = [formats.load_complex(path)
           for path in sorted(glob.glob(os.path.join(fixdir, "*.cx")))]
    out += [fixtures.builtin_complex(name)
            for name in ("T_per", "contractible", "T_per[1]")]
    out += [functors.stalk(fixtures.builtin_module(name))
            for name in ("k", "A", "kF2", "S1", "S2", "AT2")]
    return out


class TestRankExactness:
    def assert_agrees(self, X):
        verdict = is_exact(X)
        assert verdict == exact_by_homology(X)
        return verdict

    def test_shipped_complexes_and_cones_of_their_identities(self):
        verdicts = set()
        for X in shipped_complexes():
            verdicts.add(self.assert_agrees(X))
            assert self.assert_agrees(cone(identity_chain_map(X)))
        assert verdicts == {True, False}

    def test_random_d2_complexes(self):
        rng = random.Random(20261018)
        verdicts = set()
        for _ in range(60):
            verdicts.add(self.assert_agrees(random_d2_complex(rng)))
            assert self.assert_agrees(random_contractible(rng))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n", [3, 4])
    def test_periodic_complexes_over_truncated_polynomials(self, n):
        alg = truncated_polynomial(n, 2)
        for j in range(1, n):
            assert self.assert_agrees(T_j(alg, j))
        # d = x^(n-1) in every degree squares to zero but is not exact
        A = modules.regular_module(alg)
        assert not self.assert_agrees(periodic_complex(A, alg.left_multiplication(n - 1)))

    @pytest.mark.parametrize("n", [3, 4])
    def test_homology_only_at_an_end_of_the_range(self, n):
        # a non-exact 1-periodic tail (y = x^(n-1)) behind an exact seam, and
        # exact (x, y alternating) on the other side: only the outermost
        # degree of the range sees the tail's homology
        alg = truncated_polynomial(n, 2)
        A = modules.regular_module(alg)
        x, y = alg.left_multiplication(1), alg.left_multiplication(n - 1)

        def d(m):
            return y if m < 0 or m % 2 else x

        below = complexes.complex_from_callable(alg, 0, 0, lambda m: A, d, 1, 2)
        above = complexes.complex_from_callable(alg, 0, 0, lambda m: A,
                                                lambda m: d(1 - m), 2, 1)
        for X, end in ((below, -2), (above, 2)):
            assert not self.assert_agrees(X)
            assert [m for m in range(-2, 3) if homology(X, m).dim] == [end]

    def test_d_squared_nonzero_still_raises(self, D2, A):
        X = complexes.Complex(D2, 0, 2, {0: A, 1: A, 2: A},
                              {1: linalg.eye(2), 2: linalg.eye(2)})
        with pytest.raises(ValidationError, match=r"d\*d != 0"):
            is_exact(X)

    @pytest.mark.parametrize("n", [3, 4])
    def test_one_rank_per_distinct_differential(self, n, monkeypatch):
        alg = truncated_polynomial(n, 2)
        A = modules.regular_module(alg)
        Xs = [T_j(alg, j) for j in range(1, n)]
        Xs += [periodic_complex(A, alg.left_multiplication(n - 1)),
               fixtures.contractible_AA(), functors.stalk(fixtures.simple_k())]
        rank = linalg.rank
        ranked = []
        monkeypatch.setattr(linalg, "rank", lambda d, p: ranked.append(d) or rank(d, p))
        for X in Xs:
            ranked.clear()
            # a fresh copy: the verdict of a cached fixture may be memoized
            is_exact(dataclasses.replace(X))
            assert ranked and len(set(map(id, ranked))) == len(ranked)


    def test_constructions_share_a_block_across_periodic_repeats(self, t_per, monkeypatch):
        # complex_from_callable, chain_map and identity_chain_map reduce
        # each distinct object once: the identity's window components and
        # tails share one copy of its one eye, and the cone's differential
        # blocks follow them
        C = cone(identity_chain_map(t_per))
        assert len({id(d) for _, d in C._blocks.data}) == 1
        rank = linalg.rank
        ranked = []
        monkeypatch.setattr(linalg, "rank", lambda d, p: ranked.append(d) or rank(d, p))
        assert is_exact(dataclasses.replace(C)) and len(ranked) == 1

    def test_a_map_shares_a_block_between_its_window_and_tails(self, t_per):
        # chain_map reduces the tails through the window's memo, and
        # _sample reduces each distinct sampled object once
        assert len({id(b) for b in identity_chain_map(t_per)._blocks.data}) == 1
        eye = linalg.eye(t_per.term(0).dim)
        f = complexes.chain_map_from_callable(t_per, t_per, 0, 1, lambda n: eye, 1, 1)
        assert len({id(b) for b in f._blocks.data}) == 1
        assert all(np.array_equal(b, eye) for b in f._blocks.data)

    def test_second_call_does_no_rank_work(self, monkeypatch):
        X = dataclasses.replace(T_j(truncated_polynomial(3, 2), 1))
        ranked = []
        rank = linalg.rank
        monkeypatch.setattr(linalg, "rank", lambda d, p: ranked.append(d) or rank(d, p))
        assert is_exact(X) and ranked
        ranked.clear()
        assert is_exact(X) and not ranked

    def test_d_squared_nonzero_raises_on_every_call(self, D2, A):
        X = complexes.Complex(D2, 0, 2, {0: A, 1: A, 2: A},
                              {1: linalg.eye(2), 2: linalg.eye(2)})
        for _ in range(2):
            with pytest.raises(ValidationError, match=r"d\*d != 0"):
                is_exact(X)


class TestZeroBlocks:
    def test_diff_outside_a_bounded_window_is_a_read_only_zero(self, contractible, k):
        for X in (contractible, functors.stalk(k)):
            for n in (X.lo - 3, X.lo, X.hi + 1, X.hi + 4):
                d = X.diff(n)
                assert d.shape == (X.term(n - 1).dim, X.term(n).dim)
                assert not d.any() and not d.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    d[...] = 1

    def test_zero_seam_and_missing_components_share_one_block(self, A):
        # a negative tail with no seam: d_0 is zero between nonzero terms
        X = complexes.Complex.build(A.algebra, 0, 0, {0: A}, {},
                                    neg_tail=complexes.Tail(1, (A,), (X_D2,)))
        Z = X.diff(0)
        assert Z.shape == (2, 2) and not Z.any()
        f = zero_chain_map(X, X)
        # the missing component at 0 is read from f's family column, a view
        # of Z there
        assert f.component(-5) is Z and np.shares_memory(f.component(0), Z)
        for m in (Z, f.component(0)):
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 1
        assert is_exact(X) == exact_by_homology(X)


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

    def test_a_tail_block_fits_over_the_lcm_of_the_tail_periods(self):
        # the map's tail of period 1 fits the 0 at -1 but not the A at -2:
        # the layout checks one period of the lcm (2) below the frame
        X = alternating_tail_complex()
        f = complexes.ChainMap(X, X, {0: linalg.zeros(2, 2)}, 0, 0, (1, (linalg.zeros(0, 0),)))
        with pytest.raises(ValidationError, match="^component at degree -2 has wrong shape$"):
            f.validate()
        assert not f._checked
        # where every term is A, such a tail fits each degree of the lcm period
        Y = t_per_with_period_2_tails()
        x = Y.diff(0)
        complexes.ChainMap(Y, Y, {0: x}, 0, 0, (1, (x,)), (1, (x,))).validate()

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

    @pytest.mark.parametrize("where, degree", [("window", 1), ("neg_tail", -2),
                                               ("pos_tail", 2)])
    def test_a_term_over_another_algebra_is_named_by_degree(self, k, where, degree):
        # S1 lives over T2 and k over D2; in a tail S1 is the block at offset 1
        S1, zero = fixtures.S1(), np.zeros((1, 1), dtype=np.int64)
        terms, tails = {0: k}, {}
        if where == "window":
            terms[1] = S1
        else:
            tails[where] = complexes.Tail(2, (k, S1), (zero, zero))
            tails[where[:3] + "_seam"] = zero
        with pytest.raises(AlgebraMismatch, match=f"^term at degree {degree} lives over "
                           r"another algebra \(T2\) than the complex \(D2\)$"):
            complexes.Complex.build(k.algebra, 0, len(terms) - 1, terms,
                                    {1: zero} if len(terms) > 1 else {}, **tails)


class TestStackedValidation:
    """Checks stacked across degrees still name the one degree that fails."""

    BAD = np.array([[1, 0], [0, 0]], dtype=np.int64)  # does not commute with x

    def two_degree_map(self, A, comps):
        # zero differentials, so only intertwining can fail; degrees 0 and 1
        # share the (A, A) module pair and are stacked together
        Z = complexes.Complex.build(A.algebra, 0, 1, {0: A, 1: A},
                                    {1: np.zeros((2, 2), dtype=np.int64)})
        return complexes.ChainMap(Z, Z, comps, 0, 1)

    @pytest.mark.parametrize("bad_degree", [0, 1])
    def test_one_failing_component_names_its_degree(self, A, bad_degree):
        comps = {0: I2, 1: I2}
        self.two_degree_map(A, comps).validate()
        comps[bad_degree] = self.BAD
        with pytest.raises(ValidationError,
                           match=f"degree {bad_degree} does not intertwine action 1$"):
            self.two_degree_map(A, comps).validate()

    def test_repeated_tail_block_names_the_smallest_degree(self, A):
        # the one bad array serves degrees -1, -2, -3 of the check range -3..3
        Z = periodic_complex(A, np.zeros((2, 2), dtype=np.int64))
        f = complexes.ChainMap(Z, Z, {0: I2}, 0, 0, (1, (self.BAD,)), None)
        assert f.check_range() == (-3, 3)
        with pytest.raises(ValidationError,
                           match="degree -3 does not intertwine action 1$"):
            f.validate()

    def test_one_failing_differential_names_its_degree(self, A):
        zero = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ValidationError,
                           match="differential at degree 2 does not intertwine action 1$"):
            complexes.Complex.build(A.algebra, 0, 2, {0: A, 1: A, 2: A},
                                    {1: zero, 2: self.BAD})

    def test_commutation_fails_at_one_degree_of_a_shape_group(self, t_per):
        # every term is A and every d is x, so all checks form one shape
        # group; f = I up to degree 1 and x from degree 2 on fails only at
        # d_2 (f_1 x = x, x f_2 = 0)
        f = complexes.ChainMap(t_per, t_per, {0: I2, 1: I2, 2: X_D2}, 0, 2,
                               (1, (I2,)), (1, (X_D2,)))
        with pytest.raises(ValidationError, match="commute with d at degree 2$"):
            f.validate()
        complexes.ChainMap(t_per, t_per, {0: I2, 1: I2, 2: I2}, 0, 2,
                           (1, (I2,)), (1, (I2,))).validate()

    def test_maps_validated_together_are_each_checked(self, t_per):
        good = identity_chain_map(t_per)
        bad = complexes.ChainMap(t_per, t_per, {0: I2}, 0, 0, (1, (I2,)), (1, (X_D2,)))
        good.validate(good)
        with pytest.raises(ValidationError, match="commute with d at degree 1$"):
            good.validate(good, bad)
        with pytest.raises(ValidationError, match="commute with d at degree 1$"):
            bad.validate(good)


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

    def test_each_distinct_block_is_built_once(self, monkeypatch, t_per):
        # every term of T_per is one module, and every d and f_n one matrix
        sums = []
        direct_sum = modules.direct_sum
        monkeypatch.setattr(modules, "direct_sum", lambda ms: sums.append(ms) or direct_sum(ms))
        C = cone(identity_chain_map(t_per))
        assert len(sums) == 1
        assert len({id(C.term(n)) for n in range(-5, 6)}) == 1

    def test_each_distinct_tuple_of_blocks_is_computed_once(self, monkeypatch):
        # T_per, T_1 and T_2 over D3/F2, their shifts and kernel complexes
        # of maps between them, whose terms differ by degree; counted from
        # the maps between them
        groups, D3 = [], truncated_polynomial(3, 2)
        for Ts in ([fixtures.t_per()], [T_j(D3, 1), T_j(D3, 2)]):
            Ts += [reindex(T, 1) for T in Ts]
            Ks = [complexes.kernel_complex(f)[0] for f in solver.chain_map_space_basis(*Ts[-2:])[0]]
            Xs = Ts + Ks[:2]
            maps = [f for X in Xs for Y in Xs[-3:]
                    for f in [identity_chain_map(X), *solver.chain_map_space_basis(X, Y)[0][:2]]]
            groups.append((Xs, maps))
        calls = {}
        for name in ("direct_sum", "kernel", "cokernel"):
            real, calls[name] = getattr(modules, name), []
            monkeypatch.setattr(modules, name,
                                lambda *a, real=real, log=calls[name]: log.append(a) or real(*a))

        def count(build, name, *blocks):
            """calls of modules.<name> by build(), and the number of distinct
            tuples of blocks (n -> block) over far more than every period"""
            calls[name].clear()
            build()
            return len(calls[name]), len({tuple(id(b(n)) for b in blocks)
                                          for n in range(-20, 21)})

        def fresh_sum(X, Y):
            """direct_sum_complex of new copies of X and Y, so no kept sum
            answers: a copy shares the terms of its original"""
            return direct_sum_complex(dataclasses.replace(X), dataclasses.replace(Y))

        assert count(lambda: fresh_sum(fixtures.t_per(), fixtures.t_per()),
                     "direct_sum", fixtures.t_per().term) == (1, 1)
        for Xs, maps in groups:
            for X in Xs:
                for Y in Xs:
                    made, distinct = count(lambda: fresh_sum(X, Y), "direct_sum",
                                           X.term, Y.term)
                    assert made == distinct
            for f in maps:
                X, Y = f.source, f.target
                made, distinct = count(lambda: cone(f), "direct_sum",
                                       lambda n: X.term(n - 1), Y.term)
                assert made == distinct
                for build, name in ((complexes.kernel_complex, "kernel"),
                                    (cokernel_complex, "cokernel")):
                    made, distinct = count(lambda: build(f), name, X.term, Y.term, f.component)
                    assert made == distinct

    def test_quasi_iso_iff_exact_cone(self, t_per, k):
        zero_to_tper = zero_chain_map(
            complexes.zero_complex(t_per.algebra), t_per)
        assert is_quasi_isomorphism(zero_to_tper) == is_exact(cone(zero_to_tper))
        assert is_quasi_isomorphism(zero_to_tper)  # t_per exact
        incl = functors.counit(t_per)
        assert is_quasi_isomorphism(incl) == is_exact(cone(incl))


class TestTruncation:
    def test_counit_cokernel_split(self, t_per):
        # cokernel of the cycle inclusion in degree 0, split at 0:
        # upper keeps the strictly positive tower, lower the cycle image
        eps = functors.counit(t_per)
        C, _ = cokernel_complex(eps)
        upper, lower = two_sided_split(C, 0)
        for piece in (upper, lower):
            a, b = piece.check_range()
            for n in range(a, b):
                assert not ((piece.diff(n) @ piece.diff(n + 1)) % 2).any()
        # the split is a degreewise short exact sequence
        for n in range(-3, 4):
            assert upper.term(n).dim + lower.term(n).dim == C.term(n).dim

    @pytest.mark.parametrize("patches, message", [
        ([(complexes.ChainMap, "is_mono", lambda self: False)], "split inclusion not mono"),
        ([(complexes.ChainMap, "is_epi", lambda self: False)], "split projection not epi"),
        ([(complexes.ChainMap, "is_zero", lambda self: False)], "split composite nonzero"),
        # an image as large as X_0 for the zero d_0 of a stalk: a zero
        # projection, so only the count sees it once is_epi is bypassed
        ([(complexes.ChainMap, "is_epi", lambda self: True),
          (modules, "image", lambda f: (f.source, modules.ModuleMap(
              f.source, f.target, linalg.zeros(f.target.dim, f.source.dim))))],
         "split ranks do not add up"),
    ], ids=["mono", "epi", "composite", "count"])
    def test_each_split_check_fires(self, monkeypatch, k, patches, message):
        S = functors.stalk(k)
        two_sided_split(S, 0)
        for owner, name, value in patches:
            monkeypatch.setattr(owner, name, value)
        with pytest.raises(ValidationError, match=message):
            two_sided_split(S, 0)

    def test_kernel_and_cokernel_once_per_distinct_block(self, monkeypatch, t_per):
        # x on T_per: the window and both tails hold the one reduced copy
        # of x; the tails are sampled over several periods, each repeat the
        # same object
        calls = []

        def counting(name):
            run = getattr(modules, name)
            return lambda fm: calls.append(name) or run(fm)

        for name in ("kernel", "cokernel"):
            monkeypatch.setattr(modules, name, counting(name))
        x = np.array([[0, 0], [1, 0]], dtype=np.int64)
        f = complexes.chain_map_from_callable(t_per, t_per, 0, 0, lambda n: x, 1, 1)
        K, incl = complexes.kernel_complex(f)
        C, proj = cokernel_complex(f)
        assert calls == ["kernel", "cokernel"]
        for n in range(-3, 4):
            assert K.term(n).dim == C.term(n).dim == 1
            assert not ((f.component(n) @ incl.component(n)) % 2).any()
            assert not ((proj.component(n) @ f.component(n)) % 2).any()


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


def d2_with_zeros_below(period, zero_at):
    """The complex over D2 with A in every degree and d_n = x, but d_n = 0
    for n < 0 with n % period in zero_at; its negative tail has that
    period."""
    x = fixtures.t_per().diff(0)
    return complexes.complex_from_callable(
        fixtures.D2(), 0, 0, lambda n: fixtures.regular_D2(),
        lambda n: linalg.zeros(2, 2) if n < 0 and n % period in zero_at else x,
        period, 1)


def same_complex_cases():
    """(X, Y, whether they are one complex)."""
    D2, t_per = fixtures.D2(), fixtures.t_per()
    D2_copy = truncated_polynomial(2, 2)  # D2 again, as another algebra object
    D3F2, D3F3 = truncated_polynomial(3, 2), truncated_polynomial(3, 3)
    zero = modules.zero_module(D2)
    return [
        (t_per, t_per_with_period_2_tails(), True),
        (t_per, reindex(t_per, 3), True),
        (t_per, d2_with_zeros_below(3, ()), True),
        # d_n below the windows: x 0 x 0 x 0 ... and x 0 x x 0 x ..., which
        # first differ at n = -4, beyond one period of either tail
        (d2_with_zeros_below(2, (0,)), d2_with_zeros_below(3, (1,)), False),
        (reindex(t_per, -2), reindex(t_per, 1), True),
        (t_per, T_j(D2_copy, 1), False),  # the same matrices over another algebra
        (T_j(D3F3, 1), reindex(T_j(D3F3, 1), 1), False),  # the sign -1 of T[1]
        (T_j(D3F3, 1), reindex(T_j(D3F3, 1), 2), True),
        (T_j(D3F2, 1), reindex(T_j(D3F2, 1), 1), False),  # x and x^2 swap degrees
        (reindex(T_j(D3F2, 1), 1), T_j(D3F2, 2), True),
        (functors.stalk(fixtures.S1()), functors.stalk(fixtures.S2()), False),  # actions
        (functors.stalk(fixtures.regular_D2()), t_per, False),
        (complexes.zero_complex(D2),
         complexes.Complex.build(D2, 3, 5, {3: zero, 4: zero, 5: zero},
                                 {4: linalg.zeros(0, 0), 5: linalg.zeros(0, 0)}), True),
    ]


class TestSameComplex:
    @pytest.mark.parametrize("case", range(len(same_complex_cases())))
    def test_cases_match_the_degree_by_degree_oracle(self, case):
        X, Y, same = same_complex_cases()[case]
        assert equal_by_degrees(X, Y) == same
        assert complexes.same_complex(X, Y) == complexes.same_complex(Y, X) == same

    def test_shipped_complexes_and_their_shifts_match_the_oracle(self):
        cxs = shipped_complexes()
        cxs += [reindex(X, k) for X in cxs[:4] for k in (-1, 1, 2)]
        for X in cxs:
            for Y in cxs:
                assert complexes.same_complex(X, Y) == equal_by_degrees(X, Y)


class TestMaps:
    def test_compose_matches_matrix_product(self, t_per):
        f = identity_chain_map(t_per)
        g = compose(f, f)
        for n in range(-2, 3):
            assert np.array_equal(g.component(n), f.component(n))

    def test_add_maps_cancel(self, t_per):
        f = identity_chain_map(t_per)
        assert add_maps(f, f, sign=-1).is_zero()

    def test_components_from_a_callable_are_reduced(self, t_per):
        # 3 x over F_2: the window and both tails hold x itself
        x = np.array([[0, 0], [3, 0]], dtype=np.int64)
        f = complexes.chain_map_from_callable(t_per, t_per, 0, 0, lambda n: x, 1, 1)
        for n in (-1, 0, 1):
            assert np.array_equal(f.component(n), x % 2)

    def test_direct_sum_inclusions_and_projections(self, t_per, contractible):
        S, iX, iY, pX, pY = direct_sum_complex(t_per, contractible)
        assert compose(pX, iX).is_mono() and compose(pX, iX).is_epi()
        assert compose(pX, iY).is_zero()
        assert iX.is_mono() and pY.is_epi()


# -- sums and composites from block tables ---------------------------------


def callable_sum(f, g, sign=1):
    """add_maps as chain_map_from_callable samples it, degree by degree."""
    p = f.source.algebra.p
    lo, hi, nq, pq = complexes._map_profile(f, g, f.source, f.target)
    return complexes.chain_map_from_callable(
        f.source, f.target, lo, hi,
        lambda n: (f.component(n) + sign * g.component(n)) % p, nq, pq)


def callable_composite(f, g):
    """compose as chain_map_from_callable samples it, degree by degree."""
    p = f.source.algebra.p
    lo, hi, nq, pq = complexes._map_profile(f, g, g.source, f.target)
    return complexes.chain_map_from_callable(
        g.source, f.target, lo, hi,
        lambda n: (f.component(n) @ g.component(n)) % p, nq, pq)


def assert_same_map(f, g):
    """Equal windows, components and tails, bit for bit."""
    assert (f.source, f.target, f.clo, f.chi) == (g.source, g.target, g.clo, g.chi)
    assert f.components.keys() == g.components.keys()
    for n in f.components:
        assert f.components[n].dtype == g.components[n].dtype
        assert np.array_equal(f.components[n], g.components[n])
    for a, b in ((f.neg, g.neg), (f.pos, g.pos)):
        assert (a is None) == (b is None)
        if a is not None:
            assert a[0] == b[0] and len(a[1]) == len(b[1])
            assert all(np.array_equal(x, y) and x.dtype == y.dtype
                       for x, y in zip(a[1], b[1]))


def random_combination_of(rng, basis, X, Y, terms=None):
    """The zero map X -> Y plus each map of basis times a random
    coefficient; with terms, exactly that many sums, cycling through
    basis with nonzero coefficients."""
    f = zero_chain_map(X, Y)
    low = 0 if terms is None else 1
    for b in basis if terms is None else [basis[i % len(basis)] for i in range(terms)]:
        c = rng.randrange(low, X.algebra.p)
        if c:
            f = add_maps(f, b, sign=c)
    return f


def table_arithmetic_cases():
    """(rng, complexes X, Y, Z) over D2, D3/F2 and D3/F3, and the cone
    whose tails have periods 2 and 1."""
    rng = random.Random(4)
    cases = []
    for _ in range(4):
        X, Y, Z = (random_d2_complex(rng) for _ in range(3))
        cases.append((X, Y, Z))
    for p in (2, 3):
        alg = truncated_polynomial(3, p)
        T1, T2 = T_j(alg, 1), T_j(alg, 2)
        cases.append((T1, reindex(T2, 1), T1))
    C = mismatched_cone()
    cases.append((C, C, C))
    return rng, cases


class TestTableArithmetic:
    def test_sums_and_composites_match_the_sampled_maps(self):
        rng, cases = table_arithmetic_cases()
        for X, Y, Z in cases:
            first = solver.chain_map_space_basis(X, Y)[0]
            second = solver.chain_map_space_basis(Y, Z)[0]
            fs = [random_combination_of(rng, first, X, Y) for _ in range(3)]
            gs = [random_combination_of(rng, second, Y, Z) for _ in range(2)]
            if X is Y:
                fs.append(identity_chain_map(X))
            for f in fs:
                for g in fs + first[:4]:
                    for sign in (1, -1):
                        h = add_maps(f, g, sign=sign)
                        h.validate()
                        assert_same_map(h, callable_sum(f, g, sign))
                for g in gs + second[:4]:
                    h = compose(g, f)
                    h.validate()
                    assert_same_map(h, callable_composite(g, f))

    def test_mismatched_tail_periods(self):
        C = mismatched_cone()
        f = identity_chain_map(C)
        assert (f.neg_period, f.pos_period) == (2, 1)
        for g in (add_maps(f, f), add_maps(f, f, sign=-1), compose(f, f)):
            assert g.neg_period in (0, 2) and g.pos_period in (0, 1)
        assert_same_map(add_maps(f, f), callable_sum(f, f))
        assert_same_map(compose(f, f), callable_composite(f, f))


def d3_maps(p):
    """T_1 -> T_2[1] over D3/F_p, with a basis of the chain maps between them."""
    alg = truncated_polynomial(3, p)
    X, Y = T_j(alg, 1), reindex(T_j(alg, 2), 1)
    return X, Y, solver.chain_map_space_basis(X, Y)[0]


class TestCheckedMaps:
    @pytest.mark.parametrize("p", [2, 3])
    def test_combination_of_a_checked_basis_is_not_checked_again(self, p, monkeypatch):
        X, Y, basis = d3_maps(p)
        assert all(b._checked for b in basis)
        calls = count_checks(monkeypatch)
        f = random_combination_of(random.Random(p), basis, X, Y, terms=10)
        g = compose(identity_chain_map(Y), compose(f, identity_chain_map(X)))
        assert f._checked and g._checked and not calls
        assert_same_map(g, f)

    @pytest.mark.parametrize("p", [2, 3])
    def test_unchecked_operand_is_checked(self, p, monkeypatch):
        X, Y, basis = d3_maps(p)
        b = basis[0]
        raw = complexes.ChainMap(X, Y, b.components, b.clo, b.chi, b.neg, b.pos)
        assert not raw._checked and not dataclasses.replace(b)._checked
        calls = count_checks(monkeypatch)
        f = random_combination_of(random.Random(p), [raw, *basis[1:]], X, Y, terms=10)
        assert calls and f._checked
        calls.clear()
        assert_same_map(f, random_combination_of(random.Random(p), basis, X, Y, terms=10))
        assert not calls

    @pytest.mark.parametrize("p", [2, 3])
    def test_operand_on_other_complex_objects_is_checked(self, p, monkeypatch):
        X, Y, basis = d3_maps(p)
        X2, Y2, basis2 = d3_maps(p)  # equal terms and differentials, other objects
        calls = count_checks(monkeypatch)
        f = random_combination_of(random.Random(p), [basis2[0], *basis[1:]], X, Y, terms=10)
        assert calls and f._checked and f.source is X
        calls.clear()
        assert_same_map(f, random_combination_of(random.Random(p), basis, X, Y, terms=10))
        assert not calls

    def test_operands_on_other_complexes_with_other_differentials(self, F2):
        k1 = modules.Module(F2, 1, (linalg.eye(1),))
        X, X0 = (complexes.Complex.build(F2, 0, 1, {0: k1, 1: k1}, {1: np.array([[d]])})
                 for d in (1, 0))
        f, g = zero_chain_map(X, X0), identity_chain_map(X0)
        assert f._checked and g._checked
        # the identity matrices are no chain map k -1-> k => k -0-> k
        with pytest.raises(ValidationError, match="does not commute"):
            add_maps(f, g)
        with pytest.raises(ValidationError, match="does not commute"):
            compose(g, identity_chain_map(X))

    def test_explicit_validate_always_checks(self, monkeypatch):
        X, Y, basis = d3_maps(2)
        f = random_combination_of(random.Random(0), basis, X, Y, terms=10)
        calls = count_checks(monkeypatch)
        for h in (f, basis[0], identity_chain_map(X), zero_chain_map(X, Y)):
            assert h._checked
            calls.clear()
            h.validate()
            assert calls

    def test_zero_map_across_algebras_is_refused(self, F2, k):
        with pytest.raises(DimensionMismatch):
            zero_chain_map(functors.stalk(k), functors.stalk(modules.zero_module(F2)))


class TestInstalledTables:
    """Every map carries the one table its constructor would build from its
    components and tails, however it was made."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_every_partial_sum_and_composite_gets_the_table_blocks_builds(self, p):
        rng = random.Random(p)
        X, Y, basis = d3_maps(p)
        maps = []
        for _ in range(5):
            f = zero_chain_map(X, Y)
            for b in rng.sample(basis, len(basis)):
                f = add_maps(f, b, sign=rng.randrange(p))
                maps.append(f)
        maps += [compose(identity_chain_map(Y), f) for f in maps[::7]]
        for f in maps:
            assert_one_table(f)

    def test_zero_tails_of_another_period_get_the_canonical_table(self, t_per):
        x = t_per.diff(0)
        f = complexes.chain_map_from_callable(
            t_per, t_per, 0, 0, lambda n: x if n % 2 == 0 else 0 * x, 2, 2)
        assert (f.neg_period, f.pos_period) == (2, 2)
        # zero over F_2 (x + x, and x x in D2), on tails of period 2 against 1
        for h in (add_maps(f, f), compose(f, f)):
            assert (h.neg, h.pos) == (None, None) and h.is_zero()
            assert (h._blocks.neg, h._blocks.pos) == (1, 1)
            assert_one_table(h)
        assert_one_table(add_maps(f, identity_chain_map(t_per)))

    def test_cold_and_hit_basis_maps(self):
        _, cases = table_arithmetic_cases()
        maps = 0
        for X, Y, _ in cases:
            X, Y = dataclasses.replace(X), dataclasses.replace(Y)  # a cold solve
            cold, hit = (solver.chain_map_space_basis(X, Y)[0] for _ in range(2))
            assert len(cold) == len(hit)
            for f in cold + hit:
                assert_one_table(f)
            maps += len(cold)
        assert maps

    def test_sampled_maps(self, t_per):
        x, C = t_per.diff(0), mismatched_cone()
        maps = [identity_chain_map(C), identity_chain_map(t_per),
                complexes.chain_map_from_callable(
                    t_per, t_per, 0, 0, lambda n: x if n % 2 == 0 else 0 * x, 2, 2),
                complexes.chain_map_from_callable(t_per, t_per, -1, 1, lambda n: 0 * x, 1, 1)]
        for f in list(maps):
            maps += [complexes.dual_chain_map(f), complexes.kernel_complex(f)[1],
                     cokernel_complex(f)[1]]
        maps += [*direct_sum_complex(C, reindex(C, 1))[1:], *direct_sum_complex(t_per, t_per)[1:]]
        for f in maps:
            assert_one_table(f)

    def test_a_component_outside_the_window_is_refused(self, t_per):
        with pytest.raises(ValidationError, match=r"degree 5 lies outside the window 0\.\.0"):
            complexes.ChainMap(t_per, t_per, {0: I2, 5: I2}, 0, 0)
        with pytest.raises(ValidationError, match=r"degree -1 lies outside the window 0\.\.1"):
            complexes.chain_map(t_per, t_per, {-1: I2, 0: I2, 1: I2}, 0, 1)


def t2_complexes():
    """Complexes over T2 whose terms differ in dimension: P1 -> P2 (the
    inclusion of the simple projective), its shift and its sum with its
    shift."""
    alg = fixtures.T2()
    P1, P2 = (modules.indecomposable_projective(alg, i)[0] for i in alg.idempotents)
    X = complexes.Complex.build(alg, 0, 1, {0: P2, 1: P1}, {1: modules.hom_stack(P1, P2)[0]})
    return [X, reindex(X, 1), direct_sum_complex(X, reindex(X, 1))[0]]


def zero_tail_pair(t_per):
    """x on even degrees, 0 on odd ones, on tails of period 2 over T_per
    (period 1): its sum with itself and its square are zero, tails of
    another period than the lcm of the complexes'."""
    x = t_per.diff(0)
    f = complexes.chain_map_from_callable(
        t_per, t_per, 0, 0, lambda n: x if n % 2 == 0 else 0 * x, 2, 2)
    return f, identity_chain_map(t_per)


def lone_direct_sums(monkeypatch) -> list:
    """The structure maps of direct sums, of checked summands and of
    unchecked copies, with their kernel and cokernel maps."""
    X, Y = fresh_t_per(), random_d2_complex(random.Random(3))
    maps = []
    for S, T in ((X, Y), (dataclasses.replace(X), dataclasses.replace(Y))):
        maps += direct_sum_complex(S, T)[1:]
    return maps + [f._kernel[1] for f in maps] + [f._cokernel[1] for f in maps]


def lone_kernels(monkeypatch) -> list:
    """kernel_complex and cokernel_complex maps of chain maps that are no
    structure maps."""
    X = fresh_t_per()
    f, _ = zero_tail_pair(X)
    rng = random.Random(4)
    g = random_chain_map(rng, random_d2_complex(rng), random_d2_complex(rng))
    return [h for f in (f, g) for h in (complexes.kernel_complex(f)[1],
                                         cokernel_complex(f)[1])]


def lone_constructions(monkeypatch) -> list:
    """Identities, zero maps and duals, on complexes with tails of mixed
    periods."""
    maps = []
    for X in (fresh_t_per(), mismatched_cone(), t_per_with_period_2_tails(), t2_complexes()[2]):
        f = identity_chain_map(X)
        maps += [f, zero_chain_map(X, X), complexes.dual_chain_map(f)]
    return maps + [complexes.dual_chain_map(zero_tail_pair(fresh_t_per())[0])]


def lone_constructor_maps(monkeypatch) -> list:
    """ChainMap(...) and Homotopy(...) with missing components, with tails
    of zero blocks, and with blocks of one shape in two dtypes."""
    X, z = fresh_t_per(), 0 * I2
    return [complexes.ChainMap(X, X, {0: I2, 2: X_D2}, 0, 2),
            complexes.ChainMap(X, X, {0: z}, 0, 0, (0, ()), (1, (z,))),
            complexes.ChainMap(X, X, {1: z}, 0, 1, (1, (z,)), (0, ())),
            complexes.ChainMap(X, X, {0: I2.astype(np.int32), 1: X_D2}, 0, 1, None, (1, (I2,))),
            complexes.Homotopy(X, X, {-1: X_D2}, -1, 1, (2, (I2, X_D2))),
            complexes.Homotopy(X, X, {}, 0, 0)]


def lone_parsed_maps(monkeypatch) -> list:
    """Every shipped map file, parsed afresh."""
    monkeypatch.setattr(formats, "_parsed", lambda alg, build, *args: build(*args))
    fixdir = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    return [formats.load_chain_map(path)
            for path in sorted(glob.glob(os.path.join(fixdir, "*.map")))]


def lone_equivalence_parts(monkeypatch) -> list:
    """The inverse and both homotopies that a YES homotopy equivalence
    samples from its cone's contraction."""
    parts, sample = [], complexes._sample
    monkeypatch.setattr(homotopy, "_sample", lambda *a: parts.append(sample(*a)) or parts[-1])
    X = fresh_t_per()
    u = (linalg.eye(2) + X.diff(0)) % 2
    f = complexes.chain_map_from_callable(X, X, 0, 0, lambda n: u, 1, 1)
    assert homotopy.homotopy_equivalence_certificate(f).verdict == homotopy.YES
    assert [type(h) for h in parts] == [complexes.ChainMap, complexes.Homotopy, complexes.Homotopy]
    return parts


LONE_CASES = {"direct sums": lone_direct_sums, "kernels": lone_kernels,
              "constructions": lone_constructions, "constructor": lone_constructor_maps,
              "parsed": lone_parsed_maps, "equivalence parts": lone_equivalence_parts}


def recorded_from_tables(monkeypatch, run) -> list:
    """((S, T, profile, op, f, g), result, built) of each _from_tables call
    of run(), built telling whether f's and g's family columns are built
    when the call returns."""
    calls, real = [], complexes._from_tables

    def record(S, T, profile, op, f, g, checked=False):
        h = real(S, T, profile, op, f, g, checked)
        calls.append(((S, T, profile, op, f, g), h, tuple("_column" in vars(m) for m in (f, g))))
        return h

    monkeypatch.setattr(complexes, "_from_tables", record)
    run()
    monkeypatch.undo()
    return calls


class TestStackedTables:
    """Sums and composites computed on the operands' stacked families give
    the map made degree by degree, and every map's table is a view of its
    family."""

    def test_sums_and_composites_match_the_per_degree_reference(self, monkeypatch, t_per):
        rng, cases = table_arithmetic_cases()
        cases += [(X, Y, X) for X in t2_complexes() for Y in t2_complexes()]

        def run():
            for X, Y, Z in cases:
                first = solver.chain_map_space_basis(X, Y)[0]
                second = solver.chain_map_space_basis(Y, Z)[0]
                fs = [random_combination_of(rng, first, X, Y) for _ in range(2)] + first[:2]
                gs = [random_combination_of(rng, second, Y, Z) for _ in range(2)] + second[:2]
                # operands on other frames: tails written over twice their periods
                fs += [complexes.ChainMap(X, Y, f.components, f.clo, f.chi,
                                          *[(2 * t[0], t[1] * 2) if t else None
                                            for t in (f.neg, f.pos)]) for f in first[:2]]
                for f in fs:
                    for g in fs[:3]:
                        add_maps(f, g, sign=rng.randrange(1, X.algebra.p + 1))
                    for g in gs:
                        compose(g, f)
            f, one = zero_tail_pair(t_per)
            for g in (f, one):
                add_maps(f, g)
                compose(f, g)
                compose(g, f)

        calls = recorded_from_tables(monkeypatch, run)
        assert len(calls) > 500
        shapes = set()
        for (S, T, profile, op, f, g), h, _ in calls:
            reference = reference_from_tables(S, T, profile, op, f, g)
            assert_same_table(h, reference)
            assert_views_of_stacks(h)
            shapes.add(len({m.shape for m in h._blocks.data}))
            # one array per block shape, so a walk reads each group from one array
            arrays = [a.shape[2:] for a in h._column[0].arrays]
            assert len(set(arrays)) == len(arrays)
        assert max(shapes) > 1
        assert any(f._column[0].slots[:4] != g._column[0].slots[:4]
                   for (*_, f, g), _, _ in calls)
        assert any(h.neg_period != profile[2] and profile[2] for (_, _, profile, *_), h, _ in calls)

    def test_every_family_holds_one_array_per_block_shape(self, monkeypatch):
        # _lone lays out lone maps, solves and sampled results; _members
        # is handed every other family: _from_tables' layout path and _copied
        families, lone, members = [], complexes._lone, complexes._members
        monkeypatch.setattr(complexes, "_lone",
                            lambda *a: families.append(("_lone", lone(*a))) or families[-1][1])
        monkeypatch.setattr(complexes, "_members",
                            lambda *a: families.append(("_members", a[5])) or members(*a))
        rng, results = random.Random(6), []
        for X in t2_complexes():
            for Y in t2_complexes():
                first = solver.chain_map_space_basis(X, Y)[0]
                second = solver.chain_map_space_basis(Y, X)[0]
                fs = first + [random_combination_of(rng, first, X, Y)]
                for f in fs:
                    results += [add_maps(f, g) for g in fs]
                    # composites of T2 maps whose blocks have mixed shapes
                    results += [compose(g, f) for g in second]
        results += [complexes.ChainMap(h.source, h.target, h.components, h.clo, h.chi)
                    for h in results[:20]]
        for h in results:
            h._blocks
            complexes._copied(complexes.ChainMap, h.source, h.target, complexes._kept(h))._blocks
        assert {"_lone", "_members"} <= {name for name, _ in families}
        for _, family in families:
            shapes = [a.shape[2:] for a in family.arrays]
            assert len(set(shapes)) == len(shapes)

    def test_every_family_fits_its_terms_at_every_degree(self, monkeypatch):
        # the families of the test above, each with the complexes and the
        # degree of the maps it was laid out or handed for
        laid_out, lone, members = [], complexes._lone, complexes._members

        def record_lone(S, T, k, *rest):
            laid_out.append((S, T, k, lone(S, T, k, *rest)))
            return laid_out[-1][3]

        def record_members(kind, S, T, clo, chi, family, periods):
            laid_out.append((S, T, kind.shift, family))
            return members(kind, S, T, clo, chi, family, periods)

        monkeypatch.setattr(complexes, "_lone", record_lone)
        monkeypatch.setattr(complexes, "_members", record_members)
        self.test_every_family_holds_one_array_per_block_shape(monkeypatch)
        assert {k for *_, k, _ in laid_out} == {0}
        for S, T, k, (slots, arrays) in laid_out:
            # its frame and one period of the lcm of every tail period past it
            a = slots.lo - math.lcm(slots.neg, S._blocks.neg, T._blocks.neg)
            b = slots.hi + math.lcm(slots.pos, S._blocks.pos, T._blocks.pos)
            for n, (s, _) in zip(range(a, b + 1), slots.on(range(a, b + 1))):
                assert arrays[s].shape[2:] == (T.term(n + k).dim, S.term(n).dim)

    def test_a_walk_reads_each_degree_from_its_own_block(self, t_per):
        # T_per + D2 in degree 0: its inclusion i and projection p of T_per
        # have 4x2 and 2x4 blocks in degree 0 and 2x2 ones elsewhere, so both
        # pairs of their arrays give 2x2 blocks of p i, and a walk over T_per
        # checks all its degrees in one group
        D2 = functors.stalk(modules.regular_module(t_per.algebra))
        Y, i, _, p, _ = direct_sum_complex(t_per, D2)
        x = t_per.diff(0)
        k = complexes.chain_map_from_callable(  # x in degree 0 alone
            t_per, t_per, 0, 0, lambda n: x if n == 0 else 0 * x, 0, 0)
        one, zero = identity_chain_map(t_per), complexes.Homotopy(t_per, t_per, {}, 0, 0)
        # p on a copy of Y, so that compose checks p i
        q = complexes.ChainMap(dataclasses.replace(Y), t_per, p.components, p.clo, p.chi,
                               p.neg, p.pos)
        for pi in (compose(p, i), compose(q, i)):
            pi.validate()
            z = add_maps(add_maps(pi, k), one, sign=-1)
            assert np.array_equal(z.component(0), x) and not z.component(1).any()
            assert not homotopy.verify_null_homotopy(z, zero)
            assert homotopy.verify_null_homotopy(add_maps(z, k, sign=-1), zero)

    def test_basis_maps_are_views_of_one_family(self):
        _, cases = table_arithmetic_cases()
        for X, Y, _ in cases + [(X, X, X) for X in t2_complexes()]:
            X, Y = dataclasses.replace(X), dataclasses.replace(Y)  # a cold solve
            cold, hit = (solver.chain_map_space_basis(X, Y)[0] for _ in range(2))
            for basis in (cold, hit):
                if not basis:
                    continue
                family = basis[0]._column[0]
                assert all(f._column[0] is family for f in basis)
                assert [f._column[1] for f in basis] == list(range(len(basis)))
                for f in basis:
                    assert_views_of_stacks(f)
            assert not cold or hit[0]._column[0] is not cold[0]._column[0]
            for f, g in zip(cold, hit, strict=True):
                assert_same_table(g, f)

    @pytest.mark.parametrize("pair", ["T_per over D2", "T_1 -> T_3 over D4/F2"])
    def test_a_folded_basis_reads_its_tails_from_its_window_rows(self, t_per, pair):
        X, Y = (t_per, t_per) if pair == "T_per over D2" else periodic_complex_pair()
        X, Y = dataclasses.replace(X), dataclasses.replace(Y)  # a cold solve
        for basis in (solver.chain_map_space_basis(X, Y)[0] for _ in range(2)):
            lo, hi = basis[0].clo, basis[0].chi
            family = basis[0]._column[0]
            window = len(basis) * sum(basis[0]._blocks.at(n).nbytes for n in range(lo, hi + 1))
            assert sum(a.nbytes for a in family.arrays) <= window
            folded = 0
            for f in basis:
                table = f._blocks
                for n in range(table.lo - table.neg, table.hi + table.pos + 1):
                    q = f.neg_period if n < lo else f.pos_period if n > hi else 0
                    if q:
                        m = table.at(n)
                        w = table.at(lo + (n - lo) % q if n < lo else hi - (hi - n) % q)
                        assert m is w and m.size and np.shares_memory(m, w)
                        folded += 1
            assert folded

    def test_sampled_and_constructed_maps_are_views(self, t_per):
        C = mismatched_cone()
        f, one = zero_tail_pair(t_per)
        for h in (identity_chain_map(C), f, one, zero_chain_map(C, C),
                  complexes.dual_chain_map(f), complexes.kernel_complex(f)[1],
                  complexes.ChainMap(t_per, t_per, {0: I2, 2: X_D2}, 0, 2)):
            assert_views_of_stacks(h)
            assert_one_table(h)

    def test_kept_stacks_are_read_only(self):
        X, Y = periodic_complex_pair()
        f = solver.chain_map_space_basis(X, Y)[0][0]
        res = homotopy.homotopy_equivalence_certificate(identity_chain_map(X))
        assert res.verdict == homotopy.YES
        [(_, (_, parts))] = [v for k, v in X._solved[X].items()
                             if isinstance(k, tuple) and k[0] == "equivalence"]
        kept = [parts[name][2] for name in ("inverse", "homotopy_source", "homotopy_target")]
        through = complexes.compose(identity_chain_map(Y), f)
        assert solver.factor_chain_map(through, identity_chain_map(Y), "lift") is not None
        [(_, factor)] = [v for k, v in X._solved[Y].items()
                         if isinstance(k, tuple) and k[0] == "lift"]
        kept.append(factor[2])
        C = complexes.dual(cone(identity_chain_map(fixtures.t_per())))
        fam = modelcat.GeneratorFamily((fixtures.t_per(),)).opposite
        assert modelcat.orthogonal_certificate(C, fam).verdict == modelcat.CERTIFIED
        [(_, pairs)] = C._solved[fam].values()
        kept += [k[2] for _, f, s in pairs for k in (f, s)]
        for family, j in kept:
            for a in family.arrays:
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0
                assert not a[:, j].flags.writeable


class TestLoneTables:
    """A lone map made from blocks builds its table on the first read, and
    that table is the one its constructor's blocks give; its input is
    checked when it is made."""

    @pytest.mark.parametrize("case", list(LONE_CASES))
    def test_a_lone_table_equals_the_one_its_blocks_give(self, monkeypatch, case):
        # each lone map's table is read from its family of one; the
        # reference is assembled from the blocks it keeps until its column
        # is first read
        made, column = [], vars(complexes.GradedMap)["_column"]

        def first_read(h):
            if "_given" in vars(h):
                made.append((h, reference_lone_table(h)))
            return column.__get__(h, type(h))

        monkeypatch.setattr(complexes.GradedMap, "_column", property(first_read))
        maps = LONE_CASES[case](monkeypatch)
        for h in maps:
            h._blocks
        assert all(any(h is g for g, _ in made) for h in maps)
        for h, (frame, blocks) in made:
            table = h._blocks
            assert table[:4] == frame and len(table.data) == len(blocks)
            assert all(a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
                       for a, b in zip(table.data, blocks))
            assert complexes._value(h) == (*complexes._map_profile(h),
                                           tuple((b.shape, b.tobytes()) for b in blocks))

    def test_a_checked_direct_sum_and_a_zero_map_build_no_table_until_read(self, monkeypatch):
        rng = random.Random(5)
        X, Y = random_d2_complex(rng), random_d2_complex(rng)
        lone = count_calls(monkeypatch, complexes, "_lone")
        _, *maps = direct_sum_complex(X, Y)
        maps += [f._kernel[1] for f in maps[:2]] + [f._cokernel[1] for f in maps[2:]]
        maps.append(zero_chain_map(X, Y))
        assert all(f._checked for f in maps) and not lone
        tables = [f._blocks for f in maps]
        assert len(lone) == len(maps)
        assert all(f._blocks is t for f, t in zip(maps, tables)) and len(lone) == len(maps)
        for f in maps:
            assert_one_table(f)
            assert_views_of_stacks(f)

    @pytest.mark.parametrize("make", [complexes.ChainMap, complexes.chain_map])
    def test_constructor_errors_are_raised_at_construction(self, monkeypatch, t_per, make):
        lone = count_calls(monkeypatch, complexes, "_lone")
        with pytest.raises(ValidationError, match=r"degree 2 lies outside the window 0\.\.1"):
            make(t_per, t_per, {0: I2, 2: I2}, 0, 1)
        with pytest.raises(ValueError, match="inhomogeneous"):
            make(t_per, t_per, {0: [[0, 0], [1]]}, 0, 0)
        z = 0 * I2
        for tail in [(1, (I2, z)), (2, (I2,)), (1, ()), (-1, (I2,)), (0, (I2,)), (1.0, (I2,))]:
            for side in ({"neg": tail}, {"pos": tail}):
                with pytest.raises(ValidationError, match="tail period does not match block count"):
                    make(t_per, t_per, {0: I2}, 0, 0, **side)
        assert not lone
        f = make(t_per, t_per, {0: z}, 0, 0, (0, ()), (1, (z,)))
        assert (f.neg, f.neg_period, f.pos_period) == (None, 0, 1)
        assert_one_table(f)

    def test_the_homotopies_of_one_solve_are_one_family(self):
        rng = random.Random(0)
        cases = [solver.chain_map_space_basis(random_d2_complex(rng), random_d2_complex(rng))[0]
                 for _ in range(6)]
        cases.append(solver.chain_map_space_basis(*periodic_complex_pair())[0])
        shared = 0
        for basis in filter(None, cases):
            X, Y = basis[0].source, basis[0].target
            for m in (1, 2):
                found = homotopy._homotopies(basis, m)
                sys_ = solver.graded_system(X, Y, 1, *solver.window(X, Y, basis, m, 2), basis)
                # each solution as a family of its own
                ref = [None if c is None else sys_.graded_each(
                    complexes.Homotopy, X, Y, {n: m[None] for n, m in c.items()})[0]
                    for c in sys_.solve_each()]
                assert [h is None for h in found] == [h is None for h in ref]
                found = [h for h in found if h is not None]
                assert len({id(h._column[0]) for h in found}) <= 1
                assert [h._column[1] for h in found] == list(range(len(found)))
                for h, r in zip(found, filter(None, ref)):
                    assert_same_table(h, r)
                    assert_views_of_stacks(h)
                shared += len(found) > 1 and bool(X.neg_period)
        assert shared


class TestFamilyTables:
    """A map of a family builds its table on its first read, as a lone map
    does: checks, sums and null-homotopy checks read its family column."""

    def test_a_basis_builds_its_tables_on_the_first_read(self, monkeypatch):
        X, Y = (dataclasses.replace(Z) for Z in periodic_complex_pair())  # a cold solve
        zero = complexes.Homotopy(X, Y, {}, 0, 0)
        for basis in (solver.chain_map_space_basis(X, Y)[0] for _ in range(2)):  # cold, hit
            assert len(basis) > 1
            basis[0].validate(*basis[1:])
            f = zero_chain_map(X, Y)
            for i, b in enumerate(basis):
                f = add_maps(f, b, sign=i + 1)
                assert "_blocks" not in vars(f)
                assert not any("_blocks" in vars(m) for m in basis)
            pairs = [(b, zero) for b in basis]
            assert not homotopy.verify_null_homotopy(*pairs[0], *pairs[1:])
            assert homotopy.verify_null_homotopy(add_maps(f, f, sign=-1), zero)
            assert not any("_blocks" in vars(b) for b in basis)
            tables = count_calls(monkeypatch, complexes, "_table")
            for b in basis:
                degrees = range(b.clo - 9, b.chi + 10)
                blocks = [b.component(n) for n in degrees]
                assert all(b.component(n) is m for n, m in zip(degrees, blocks))
                assert_same_table(b, complexes.ChainMap(X, Y, b.components, b.clo, b.chi,
                                                        b.neg, b.pos))
            # one table per basis map; each reference builds its own as well
            assert [g for (g,) in tables if any(g is b for b in basis)] == basis
            monkeypatch.undo()


def periodic_complex_pair():
    """T_1 -> T_3 over D4/F2, a fresh pair: period-4 chain maps between
    period-2 complexes."""
    alg = truncated_polynomial(4, 2)
    return T_j(alg, 1), T_j(alg, 3)


class TestMismatchedOperands:
    def test_sum_across_algebras(self):
        # D2 over F2 and over F3: equal dimensions, and the identities over
        # F2 summed to zero, which passed its check
        X, Y = (functors.stalk(modules.regular_module(
            fixtures.truncated_polynomial(2, p, f"D2/F{p}"))) for p in (2, 3))
        f, g = identity_chain_map(X), identity_chain_map(Y)
        for a, b in ((f, g), (g, f)):
            for combine in (add_maps, compose):
                with pytest.raises(DimensionMismatch, match="chain map across different algebras"):
                    combine(a, b)

    def test_sum_over_f2(self, F2):
        k2 = modules.Module(F2, 2, (linalg.eye(2),))
        k1 = modules.Module(F2, 1, (linalg.eye(1),))
        S2, S1 = functors.stalk(k2), functors.stalk(k1)
        f = zero_chain_map(S2, S2)
        g = complexes.chain_map(S2, S1, {0: np.array([[1, 1]])})
        with pytest.raises(DimensionMismatch):
            add_maps(f, g)
        with pytest.raises(DimensionMismatch):
            add_maps(g, f)

    def test_sum_over_d2(self, A, k):
        # [[1, 1]] is no D2-map A -> k; the sum used to fail on intertwining
        SA, Sk = functors.stalk(A), functors.stalk(k)
        f = zero_chain_map(SA, SA)
        g = complexes.ChainMap(SA, Sk, {0: np.array([[1, 1]])}, 0, 0)
        with pytest.raises(DimensionMismatch):
            add_maps(f, g)

    def test_composite(self, F2):
        k2 = modules.Module(F2, 2, (linalg.eye(2),))
        k1 = modules.Module(F2, 1, (linalg.eye(1),))
        S2, S1 = functors.stalk(k2), functors.stalk(k1)
        g = complexes.chain_map(S2, S1, {0: np.array([[1, 1]])})
        h = complexes.chain_map(S2, S2, {0: linalg.eye(2)})
        assert np.array_equal(compose(g, h).component(0), np.array([[1, 1]]))
        with pytest.raises(DimensionMismatch):
            compose(h, g)  # h starts at S2, g ends at S1
        # equal dimensions everywhere, other objects: composable
        S2b = functors.stalk(modules.Module(F2, 2, (linalg.eye(2),)))
        g2 = complexes.chain_map(S2b, S2b, {0: linalg.eye(2)})
        assert np.array_equal(compose(h, g2).component(0), linalg.eye(2))

    @pytest.mark.parametrize("order", [1, -1])
    def test_direct_sum_across_algebras(self, monkeypatch, T2, order):
        # raised by the first sum of two terms: no complex or map is built
        X, Y = [fixtures.t_per(), functors.stalk(modules.regular_module(T2))][::order]
        built = count_calls(monkeypatch, complexes.Complex, "build")
        with pytest.raises(DimensionMismatch, match="direct sum across different algebras"):
            direct_sum_complex(X, Y)
        assert not built and Y not in X._built


class TestTailPeriods:
    """One rule for a tail period, in Tail and in the graded-map
    constructor: an integer, not a bool, equal to the block count, kept
    as an int."""

    def numpy_periods(self, t_per):
        """T_per with tails whose periods are numpy integers."""
        X = t_per
        return complexes.Complex.build(
            X.algebra, X.lo, X.hi, X.terms, X.diffs,
            complexes.Tail(np.int64(1), X.neg_tail.terms, X.neg_tail.diffs),
            complexes.Tail(np.int32(1), X.pos_tail.terms, X.pos_tail.diffs),
            X.neg_seam, X.pos_seam)

    def test_a_numpy_integer_period_is_kept_as_an_int(self, t_per):
        Y = self.numpy_periods(t_per)
        assert [type(q) for q in (Y.neg_period, Y.pos_period)] == [int, int]
        f = identity_chain_map(Y)
        g = dataclasses.replace(f)
        g.validate()
        assert (g.neg_period, g.pos_period) == (f.neg_period, f.pos_period) == (1, 1)
        assert_same_map(g, f)
        h = complexes.ChainMap(Y, Y, {0: I2}, 0, 0, (np.int64(1), (I2,)), (np.uint8(1), (I2,)))
        assert [type(q) for q in (h.neg_period, h.pos_period, h.neg[0], h.pos[0])] == [int] * 4
        assert_same_map(h, f)

    def test_a_bool_period_is_refused(self, t_per):
        X = t_per
        for q in (True, np.bool_(True), 1.0):
            with pytest.raises(ValidationError, match="tail period does not match block count"):
                complexes.Tail(q, X.neg_tail.terms, X.neg_tail.diffs)
            with pytest.raises(ValidationError, match="tail period does not match block count"):
                complexes.ChainMap(X, X, {0: I2}, 0, 0, (q, (I2,)))
        with pytest.raises(ValidationError, match="tail period does not match block count"):
            complexes.Tail(1, X.neg_tail.terms, X.neg_tail.diffs * 2)


# -- family-level sums and tail tests ----------------------------------------


def one_layout_pairs():
    """(X, Y) with a basis of chain maps X -> Y: D4/F2 and D3/F3 periodic
    pairs, endomorphisms of a D3/F2 periodic complex, and T2 complexes
    with terms of two dimensions."""
    D4, D3, D32 = truncated_polynomial(4, 2), truncated_polynomial(3, 3), truncated_polynomial(3, 2)
    pairs = [(T_j(D4, 1), reindex(T_j(D4, 3), 1)), (T_j(D3, 1), T_j(D3, 2)),
             (T_j(D32, 2), T_j(D32, 2))]
    return pairs + [(X, X) for X in t2_complexes()]


class TestFamilySums:
    """Operands on one layout of slots that covers the profile meet array
    by array, and the result keeps that slots object; a blockless operand
    between the same complexes reads as zero on the other's layout, with
    no family of its own built.  Every result equals the map made degree
    by degree (reference_from_tables), bit for bit."""

    def assert_reference(self, calls):
        for (S, T, profile, op, f, g), h, _ in calls:
            reference = reference_from_tables(S, T, profile, op, f, g)
            assert_same_table(h, reference)
            assert_views_of_stacks(h)

    def test_sums_on_one_layout_and_sums_of_sums(self, monkeypatch):
        rng = random.Random(11)
        shared = []

        def run():
            for X, Y in one_layout_pairs():
                basis = solver.chain_map_space_basis(X, Y)[0]
                p = X.algebra.p
                sums = []
                for _ in range(4):
                    f, g = rng.choices(basis, k=2)
                    sums.append(add_maps(f, g, sign=rng.randrange(1, p + 1)))
                sums.append(add_maps(sums[0], sums[1]))  # sums of sums
                sums.append(add_maps(sums[-1], sums[2], sign=-1))
                sums.append(add_maps(sums[-1], sums[-1], sign=-1))  # cancels to zero
                sums.append(add_maps(basis[0], sums[-2]))
                shared.append((basis[0]._column[0].slots, sums))

        calls = recorded_from_tables(monkeypatch, run)
        assert len(calls) == 8 * len(one_layout_pairs())
        self.assert_reference(calls)
        for slots, sums in shared:
            assert all(h._column[0].slots is slots for h in sums)
        assert any(h.is_zero() for _, sums in shared for h in sums)

    def test_a_blockless_operand_reads_as_zero_on_the_other_layout(self, monkeypatch):
        rng = random.Random(12)
        zeros = []

        def run():
            for X, Y in one_layout_pairs():
                basis = solver.chain_map_space_basis(X, Y)[0]
                for b in rng.sample(basis, min(3, len(basis))):
                    for first in (True, False):
                        zero = zero_chain_map(X, Y)
                        c = rng.randrange(1, X.algebra.p + 1)
                        h = add_maps(zero, b, sign=c) if first else add_maps(b, zero, sign=c)
                        zeros.append((zero, b, h))

        calls = recorded_from_tables(monkeypatch, run)
        assert len(calls) == len(zeros)
        for ((*_, f, g), _, built), (zero, b, h) in zip(calls, zeros):
            assert built == (zero is not f, zero is not g)
            assert h._column[0].slots is b._column[0].slots
        self.assert_reference(calls)

    def test_compose_on_equal_slots_and_with_a_blockless_operand(self, monkeypatch):
        rng = random.Random(13)
        kept, zeros = [], []

        def run():
            for X, Y in one_layout_pairs():
                if X is not Y:
                    continue
                basis = solver.chain_map_space_basis(X, X)[0]
                for f, g in [rng.choices(basis, k=2) for _ in range(3)] + [(basis[0], basis[0])]:
                    kept.append((compose(f, g), f))
                for b in basis[:2]:
                    zeros.extend([zero_chain_map(X, X), zero_chain_map(X, X)])
                    kept.extend([(compose(zeros[-2], b), b), (compose(b, zeros[-1]), b)])

        calls = recorded_from_tables(monkeypatch, run)
        assert len(calls) == len(kept) > 12
        assert all(h._column[0].slots is f._column[0].slots for h, f in kept)
        assert sum(built.count(False) for *_, built in calls) == len(zeros)
        self.assert_reference(calls)

    def test_a_blockless_operand_elsewhere_is_read_from_its_own_family(self, monkeypatch):
        # a zero map X -> Y composed with a map of other complexes, and a
        # zero map summed where the other operand's layout does not cover
        # the profile (complexes far from the zero map's window 0..0), meet
        # by a gather, reading the zero map's own family of one
        D4 = truncated_polynomial(4, 2)
        X, Y = T_j(D4, 1), reindex(T_j(D4, 3), 1)
        far = [reindex(T_j(D4, j), 40) for j in (1, 3)]
        zeros = []

        def run():
            basis = solver.chain_map_space_basis(X, Y)[0]
            for e in solver.chain_map_space_basis(Y, Y)[0][:2]:
                zeros.append(zero_chain_map(X, Y))
                compose(e, zeros[-1])
                zeros.append(zero_chain_map(Y, Y))
                compose(zeros[-1], basis[0])
            for b in solver.chain_map_space_basis(*far)[0][:2]:
                zeros.append(zero_chain_map(*far))
                add_maps(zeros[-1], b)
                zeros.append(zero_chain_map(*far))
                add_maps(b, zeros[-1], sign=-1)

        calls = recorded_from_tables(monkeypatch, run)
        assert len(calls) == len(zeros) == 8
        assert all(built == (True, True) for *_, built in calls)
        self.assert_reference(calls)


def test_a_combination_of_a_basis_stays_on_its_layout():
    # as the htpy-dn benchmark builds a combination: from zero_chain_map,
    # one add_maps per nonzero coefficient of a D4/F2 chain-map basis
    D4 = truncated_polynomial(4, 2)
    X, Y = T_j(D4, 1), reindex(T_j(D4, 3), 1)
    basis = solver.chain_map_space_basis(X, Y)[0]
    assert len(basis) >= 9
    slots = basis[0]._column[0].slots
    zero = f = zero_chain_map(X, Y)
    partial = []
    for b in basis[:9]:
        f = add_maps(f, b)
        partial.append(f)
    assert "_column" not in vars(zero)
    for h in partial:
        assert h._column[0].slots is slots
        assert "_blocks" not in vars(h)
    assert_same_map(f, callable_sum(partial[-2], basis[8]))


def reference_own_periods(family, lo, hi, nq, pq) -> list:
    """complexes._own_periods map by map and slot by slot: per map, nq
    (resp. pq) where one of its blocks at lo - nq .. lo - 1 (resp.
    hi + 1 .. hi + pq) is nonzero, else 0."""
    def live(j, degrees):
        return any(family.arrays[s][r, j].any() for s, r in map(family.slots.at, degrees))

    return [(nq if live(j, range(lo - nq, lo)) else 0, pq if live(j, range(hi + 1, hi + pq + 1)) else 0)
            for j in range(family.arrays[0].shape[1])]


def random_stack(rng, k: int, shape: tuple) -> np.ndarray:
    return np.asarray([rng.randrange(3) for _ in range(k * shape[0] * shape[1])],
                      dtype=np.int64).reshape(k, *shape)


def random_family(rng, k: int, folded: bool) -> tuple:
    """(family, frame) of k maps on a random frame: blocks of three shapes,
    one of them empty, random entries mod 3, and a window block sometimes
    repeated (one row); then each distinct block is zero for a random
    set of maps.  Folded, a tail position holds a window block, as in a
    solve's family; else a block of its own."""
    lo, q, qp = rng.randrange(-3, 2), rng.choice([1, 2, 4]), rng.choice([1, 2, 3])
    hi = lo + rng.randrange(0, 5)
    shapes = [(2, 3), (3, 3), (0, 2)]
    window = []
    for _ in range(lo, hi + 1):
        repeat = window and rng.random() < 0.3
        window.append(window[-1] if repeat else random_stack(rng, k, rng.choice(shapes)))
    blocks = [window[n - lo] if lo <= n <= hi
              else window[(n - lo) % len(window)] if folded
              else random_stack(rng, k, rng.choice(shapes)) for n in range(lo - q, hi + qp + 1)]
    for b in {id(b): b for b in blocks}.values():
        b[[j for j in range(k) if rng.random() < 0.5]] = 0
    return complexes._family((lo, hi, q, qp), blocks), (lo, hi, q, qp)


def own_period_args(rng, frame: tuple) -> tuple:
    """(lo, hi, nq, pq) of a map the family frame holds (complexes._covers):
    a window inside the frame's, tail periods dividing its own or 0."""
    flo, fhi, q, qp = frame
    lo = rng.randrange(flo, fhi + 1)
    hi = rng.randrange(lo, fhi + 1)
    return (lo, hi, rng.choice([0] + [d for d in range(1, q + 1) if q % d == 0]),
            rng.choice([0] + [d for d in range(1, qp + 1) if qp % d == 0]))


@pytest.mark.parametrize("folded", [True, False], ids=["folded", "unfolded"])
@pytest.mark.parametrize("k", [1, 22, 30])
def test_own_periods_match_the_per_map_reference(k, folded):
    rng = random.Random(100 * k + folded)
    seen = set()
    for _ in range(120):
        family, frame = random_family(rng, k, folded)
        for args in [frame, own_period_args(rng, frame), own_period_args(rng, frame)]:
            periods = complexes._own_periods(family, *args)
            assert periods == reference_own_periods(family, *args)
            assert all(type(q) is int for qs in periods for q in qs)
            if args[2] and args[3]:
                seen.update((bool(a), bool(b)) for a, b in periods)
    # zero tails on neither side, on one side and on both
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
