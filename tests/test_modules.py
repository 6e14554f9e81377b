"""Module arithmetic over the built-in algebras."""

import dataclasses
import itertools
import random
import sys

import numpy as np
import pytest

from conftest import (random_d2_module, random_invertible, random_module, triangular_d2,
                      truncated_polynomial)
from singeq import fixtures, linalg, modules
from singeq.config import Options
from singeq.errors import DimensionMismatch, IsomorphismUndecided, ValidationError


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
        (K, _), (I, _), (C, _) = modules.kernel(f), modules.image(f), modules.cokernel(f)
        assert K.dim == I.dim == C.dim == 1
        for M in (K, I, C):
            assert modules.find_isomorphism(M, k) is not None

    def test_identity(self, A):
        f = modules.identity_map(A)
        (K, _), (I, _), (C, _) = modules.kernel(f), modules.image(f), modules.cokernel(f)
        assert (K.dim, I.dim, C.dim) == (0, 2, 0)

    def test_zero_map(self, A, k):
        f = modules.zero_map(A, k)
        (K, _), (I, _), (C, _) = modules.kernel(f), modules.image(f), modules.cokernel(f)
        assert (K.dim, I.dim, C.dim) == (2, 0, 1)

    def test_rank_nullity(self, A, k):
        for M, N in [(A, A), (A, k), (k, A)]:
            for f in modules.hom_basis(M, N):
                (K, _), (I, _) = modules.kernel(f), modules.image(f)
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
        for M, projective in ((k, False), (A, True)):
            _, epi = modules.projective_cover(M)
            assert (full_row_inverse(epi, "section") is not None) == projective
            assert M.is_projective == projective


class TestSplitClass:
    """A module is projective exactly when its cover splits, and injective
    exactly when its envelope splits; the flags compare dimensions."""

    def test_regular_d2(self, A):
        assert A.is_projective and A.is_injective

    def test_simple_d2(self, k):
        assert not k.is_projective and not k.is_injective

    def test_s1_over_t2(self):
        S1 = fixtures.S1()
        assert S1.is_projective and not S1.is_injective


def full_row_inverse(f, side):
    """Matrix of a module-map section (f s = id) or retraction (r f = id)
    of f, or None: solved in Hom(f.target, f.source) on every entry of
    the identity.  A nonzero module is projective exactly when its cover
    has a section, and injective exactly when its envelope has a
    retraction."""
    p = f.source.algebra.p
    section = side == "section"
    H = modules.hom_stack(f.target, f.source)
    if not len(H):
        return None
    mats = f.matrix @ H if section else H @ f.matrix
    dim = f.target.dim if section else f.source.dim
    lam = linalg.solve(mats.reshape(len(H), -1).T % p, linalg.eye(dim).reshape(-1), p)
    h, t, s = H.shape
    return None if lam is None else (lam @ H.reshape(h, t * s)).reshape(t, s) % p


def splits(M):
    """(projective, injective) by the splitting criterion, the reference
    for Module.is_projective and is_injective; the zero module is both."""
    if M.dim == 0:
        return True, True
    return (full_row_inverse(modules.projective_cover(M)[1], "section") is not None,
            full_row_inverse(modules.injective_envelope(M)[1], "retraction") is not None)


def test_one_sided_inverse_matches_the_full_row_solve(duality_algebra):
    # the cover has a section exactly when M is projective, the envelope a
    # retraction exactly when M is injective; both outcomes occur
    rng = random.Random(9)
    outcomes = set()
    for _ in range(16):
        M = random_module(rng, duality_algebra)
        for f, side, flag in ((modules.projective_cover(M)[1], "section", M.is_projective),
                              (modules.injective_envelope(M)[1], "retraction",
                               M.is_injective)):
            full = full_row_inverse(f, side)
            assert (full is not None) == flag
            outcomes.add(flag)
    assert outcomes == {True, False}


def test_flags_match_the_splitting_solve():
    # random modules over each algebra and its opposite, with their first
    # syzygies and cosyzygies: 6 algebras x 2 sides x 30 draws x 3 modules
    algebras = [fixtures.D2(), fixtures.T2(), truncated_polynomial(3, 2),
                truncated_polynomial(3, 3), truncated_polynomial(4, 2), triangular_d2()]
    rng = random.Random(20)
    seen = {}
    for alg in algebras:
        for side in (alg, modules._opposite_of(alg)):
            for _ in range(30):
                M = random_module(rng, side)
                for X in (M, modules.syzygy(M, 1), modules.syzygy(M, -1)):
                    flags = (X.is_projective, X.is_injective)
                    assert flags == splits(X)
                    seen[flags] = seen.get(flags, 0) + 1
    assert sum(seen.values()) == 1080
    assert len(seen) == 4


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

    def test_distinct_simples_of_one_dimension_are_not_isomorphic(self):
        # S1 and S2 over T2 are distinct simple modules, so Hom(S1, S2) = 0:
        # NO with no search, so also with both searches switched off
        S1, S2 = fixtures.S1(), fixtures.S2()
        assert S1.dim == S2.dim == 1 and not modules.hom_basis(S1, S2)
        for bounds in (Options(), Options(iso_exhaustive_dim=-1, iso_random_tries=0)):
            assert modules.find_isomorphism(S1, S2, bounds) is None

    def test_no_map_from_k_plus_k_onto_the_regular_module(self, k, A):
        # every map k + k -> A lands in the socle x.A, the second coordinate,
        # so none of the 2^2 - 1 nonzero maps of the exhaustive search is onto
        kk, _, _ = modules.direct_sum([k, k])
        basis = modules.hom_basis(kk, A)
        assert kk.dim == A.dim == 2 and len(basis) == 2
        assert not any(b.matrix[0].any() for b in basis)
        assert modules.find_isomorphism(kk, A) is None

    def test_undecided_names_its_bounds(self, A):
        bounds = Options(iso_exhaustive_dim=0, iso_random_tries=0)
        with pytest.raises(IsomorphismUndecided,
                           match="iso_exhaustive_dim=0.*iso_random_tries=0"):
            modules.find_isomorphism(A, A, bounds)


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

    @pytest.mark.parametrize("order", [1, -1])
    def test_direct_sum_across_algebras(self, D2, T2, order):
        # D2 has 2 action matrices and T2 3: neither order builds a sum
        mods = [modules.regular_module(D2), modules.regular_module(T2)][::order]
        with pytest.raises(DimensionMismatch, match="direct sum across different algebras"):
            modules.direct_sum(mods)


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


# -- classification memoized by action value ---------------------------


def fresh(alg):
    """A copy of alg with empty memos, as a newly loaded algebra has."""
    return dataclasses.replace(alg, _modules={}, _left_mul={})


def in_basis(M, g):
    """M in the basis given by the columns of g: actions g^-1 a g."""
    p = M.algebra.p
    gi = linalg.invert(g, p)
    return modules.Module(M.algebra, M.dim,
                          tuple((gi @ a) % p @ g % p for a in M.action))


def sample_modules(alg):
    """Over a local self-injective alg: A (projective and injective) and
    k + A (neither), k being the simple module on which the radical acts by 0."""
    A = modules.regular_module(alg)
    k = modules.Module(alg, 1, tuple(linalg.eye(1) * int(alg.unit[i])
                                     for i in range(alg.dim)))
    return [A, modules.direct_sum([k, A])[0]]


def assert_flags_hold(M):
    """The flags agree with the splitting solve, and the memoized cover
    and envelope they read are attached to M itself."""
    assert (M.is_projective, M.is_injective) == splits(M)
    assert modules.projective_cover(M)[1].target is M
    assert modules.injective_envelope(M)[1].source is M


def entries(M):
    """M's flags and the memoized cover and envelope they are read from."""
    (P, epi), (I, mono) = modules.projective_cover(M), modules.injective_envelope(M)
    return (M.is_projective, M.is_injective), P, epi.matrix, I, mono.matrix


def same_entries(c, d):
    """Equal flags, and covers and envelopes with equal dimensions and arrays."""
    return c[0] == d[0] and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else
        x.dim == y.dim and all(np.array_equal(a, b) for a, b in zip(x.action, y.action))
        for x, y in zip(c[1:], d[1:]))


class TestValueMemo:
    def test_a_second_lookup_serializes_nothing(self):
        # the by-value key is made once per module; a lookup after it reads
        # no action bytes
        alg = fresh(truncated_polynomial(3, 2))
        for M in sample_modules(alg):
            H, pivots = modules.hom_stack(M, M), modules.hom_pivots(M, M)
            key = M._value
            assert key == (M.dim, M.stacked_action.dtype.str, M.stacked_action.tobytes())

            class Unread(np.ndarray):
                def tobytes(self, *args, **kwargs):
                    raise AssertionError("serialized again")

            vars(M)["stacked_action"] = M.stacked_action.view(Unread)
            assert modules.hom_stack(M, M) is H and modules.hom_pivots(M, M) is pivots
            assert modules.projective_cover(M)[0] is modules.projective_cover(M)[0]
            assert M._value is key

    def test_equal_actions_share_flags_and_witnesses(self):
        alg = fresh(truncated_polynomial(3, 3))
        for M in sample_modules(alg):
            N = modules.Module(alg, M.dim, tuple(a.copy() for a in M.action))
            assert modules.projective_cover(N)[0] is modules.projective_cover(M)[0]
            assert modules.projective_cover(N)[1].matrix is modules.projective_cover(M)[1].matrix
            assert modules.injective_envelope(N)[0] is modules.injective_envelope(M)[0]
            assert modules.injective_envelope(N)[1].matrix is \
                modules.injective_envelope(M)[1].matrix
            assert (N.is_projective, N.is_injective) == (M.is_projective, M.is_injective)
            assert_flags_hold(N)
        A, kA = sample_modules(alg)
        assert A.is_projective and A.is_injective
        assert not kA.is_projective and not kA.is_injective
        # one cover entry and one envelope entry per distinct action
        kinds = [key[0] for key in alg._modules if isinstance(key, tuple)
                 and key[0] in ("cover", "envelope")]
        assert sorted(kinds) == ["cover", "cover", "envelope", "envelope"]

    @pytest.mark.parametrize("p", [2, 3])
    def test_change_of_basis_gets_its_own_entry(self, p):
        alg = fresh(truncated_polynomial(3, p))
        rng = random.Random(p)
        for M in sample_modules(alg):
            g = random_invertible(rng, M.dim, p)
            N = in_basis(M, g)
            N.validate()
            assert not all(np.array_equal(a, b) for a, b in zip(M.action, N.action))
            assert modules.projective_cover(N)[1].matrix is not \
                modules.projective_cover(M)[1].matrix
            assert modules.injective_envelope(N)[1].matrix is not \
                modules.injective_envelope(M)[1].matrix
            assert (N.is_projective, N.is_injective) == (M.is_projective, M.is_injective)
            assert_flags_hold(M)
            assert_flags_hold(N)

    def test_classification_does_not_depend_on_call_order(self):
        rng = random.Random(7)
        base = truncated_polynomial(3, 3)
        gs = [random_invertible(rng, M.dim, 3) for M in sample_modules(base)]
        results = []
        for order in (1, -1):
            alg = fresh(base)
            pairs = [(M, in_basis(M, g)) for M, g in zip(sample_modules(alg), gs)]
            for pair in pairs:
                for X in pair[::order]:
                    X.is_projective, X.is_injective
            results.append([[entries(X) for X in pair] for pair in pairs])
        for first, second in zip(*results):
            assert all(same_entries(c, d) for c, d in zip(first, second))

    def test_unreduced_entries_get_their_own_entry(self):
        alg = fresh(truncated_polynomial(3, 3))
        for M in sample_modules(alg):
            U = modules.Module(alg, M.dim, tuple(a + 3 for a in M.action))
            U.validate()
            assert modules.projective_cover(U)[1].matrix is not \
                modules.projective_cover(M)[1].matrix
            assert modules.injective_envelope(U)[1].matrix is not \
                modules.injective_envelope(M)[1].matrix
            assert (U.is_projective, U.is_injective) == (M.is_projective, M.is_injective)
            assert_flags_hold(U)

    def test_memoized_arrays_are_read_only(self):
        alg = fresh(truncated_polynomial(3, 2))
        M = sample_modules(alg)[0]
        P, epi = modules.projective_cover(M)
        I, mono = modules.injective_envelope(M)
        Q, incl, gen = modules.indecomposable_projective(alg, 0)
        for arr in (epi.matrix, P.action[1], mono.matrix, I.action[1], Q.action[1],
                    incl.matrix, gen):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1

    def test_indecomposable_projective_is_built_once(self):
        alg = fresh(fixtures.T2())
        assert modules.indecomposable_projective(alg, 1) is \
            modules.indecomposable_projective(alg, 1)

    def test_opposite_of_opposite_is_the_algebra(self):
        alg = fresh(fixtures.T2())
        op = modules._opposite_of(alg)
        assert op is not alg
        assert modules._opposite_of(op) is alg
        assert modules._opposite_of(alg) is op


# -- hom bases and zero blocks memoized by value ------------------------


def hom_by_kernel(M, N):
    """Hom(M, N) computed afresh, as the kernel of the np.kron intertwining system."""
    p = M.algebra.p
    s, t = M.dim, N.dim
    if s == 0 or t == 0:
        return linalg.zeros(0, t * s).reshape(0, t, s)
    system = np.vstack([
        np.kron(np.eye(t, dtype=np.int64), a.T) - np.kron(b, np.eye(s, dtype=np.int64))
        for a, b in zip(M.action, N.action)]) % p
    return linalg.kernel_basis(system, p).T.reshape(-1, t, s)


def brute_hom_count(M, N):
    """Number of matrices over F_p that intertwine M -> N, by enumeration."""
    p = M.algebra.p
    count = 0
    for entries in itertools.product(range(p), repeat=N.dim * M.dim):
        F = np.array(entries, dtype=np.int64).reshape(N.dim, M.dim)
        count += all(np.array_equal((F @ a) % p, (b @ F) % p)
                     for a, b in zip(M.action, N.action))
    return count


def copy_of(M):
    return modules.Module(M.algebra, M.dim, tuple(a.copy() for a in M.action))


def assert_intertwines(M, N, H):
    assert H.shape[1:] == (N.dim, M.dim)
    assert not modules.intertwining_failures(M, N, list(H)).any()


class TestHomMemo:
    def test_equal_pairs_share_one_array(self):
        alg = fresh(truncated_polynomial(3, 3))
        for M, N in itertools.product(sample_modules(alg), repeat=2):
            H = modules.hom_stack(M, N)
            assert modules.hom_stack(copy_of(M), copy_of(N)) is H
            assert_intertwines(M, N, H)

    def test_each_direction_gets_its_own_entry(self):
        alg = fresh(truncated_polynomial(3, 2))
        A, kA = sample_modules(alg)
        k = modules.Module(alg, 1, tuple(linalg.eye(1) * int(alg.unit[i])
                                         for i in range(alg.dim)))
        Ak = modules.direct_sum([A, k])[0]  # same dimension as kA, other action
        for M, N in [(kA, Ak), (A, kA)]:
            there, back = modules.hom_stack(M, N), modules.hom_stack(N, M)
            assert there is not back
            assert_intertwines(M, N, there)
            assert_intertwines(N, M, back)
            assert np.array_equal(there, hom_by_kernel(M, N))
            assert np.array_equal(back, hom_by_kernel(N, M))

    @pytest.mark.parametrize("p", [2, 3])
    def test_change_of_basis_gets_its_own_basis(self, p):
        alg = fresh(truncated_polynomial(3, p))
        rng = random.Random(10 + p)
        for M in sample_modules(alg):
            N = in_basis(M, random_invertible(rng, M.dim, p))
            H, G = modules.hom_stack(M, M), modules.hom_stack(N, N)
            assert G is not H and len(G) == len(H)
            assert_intertwines(N, N, G)
            assert np.array_equal(G, hom_by_kernel(N, N))
            mixed = modules.hom_stack(M, N)
            assert mixed is not G and mixed is not H
            assert_intertwines(M, N, mixed)

    def test_memoized_bases_match_a_fresh_kernel_and_a_brute_count(self):
        rng = random.Random(5)
        pool = [random_d2_module(rng) for _ in range(8)]
        pool += [fixtures.simple_k(), fixtures.regular_D2()]
        t2 = [fixtures.S1(), fixtures.S2(), modules.regular_module(fixtures.T2())]
        pairs = list(itertools.product(pool, repeat=2)) + list(itertools.product(t2, repeat=2))
        for M, N in pairs:
            H = modules.hom_stack(M, N)
            assert np.array_equal(H, hom_by_kernel(M, N))
            assert M.algebra.p ** len(H) == brute_hom_count(M, N)
            assert modules.hom_stack(copy_of(M), N) is H

    def test_memoized_arrays_are_read_only(self):
        alg = fresh(truncated_polynomial(2, 3))
        A = modules.regular_module(alg)
        for arr in (modules.hom_stack(A, A), modules.hom_basis(A, A)[0].matrix,
                    modules.zero_block(alg, 2, 3)):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1

    def test_one_zero_block_per_shape(self):
        alg = fresh(fixtures.T2())
        Z = modules.zero_block(alg, 2, 3)
        assert Z.shape == (2, 3) and Z.dtype == np.int64 and not Z.any()
        assert modules.zero_block(alg, 2, 3) is Z
        assert modules.zero_block(alg, 3, 2).shape == (3, 2)
        assert modules.zero_block(alg, 0, 0) is not modules.zero_module(alg)

    def test_second_demo_computes_no_hom_basis(self, monkeypatch, capsys):
        from singeq.cli import main

        assert main(["--format", "json", "demo", "D2-Tper"]) == 0
        calls = []
        kernel_basis = linalg.kernel_basis
        # the code of the computation that modules._hom memoizes
        compute = next(c for c in modules._hom.__code__.co_consts
                       if getattr(c, "co_name", None) == "compute")

        def counting(A, p):
            if sys._getframe(1).f_code is compute:
                calls.append(A.shape)
            return kernel_basis(A, p)

        monkeypatch.setattr(linalg, "kernel_basis", counting)
        assert main(["--format", "json", "demo", "D2-Tper"]) == 0
        capsys.readouterr()
        assert calls == []
        # the counter sees a basis that is not memoized yet
        A = modules.regular_module(fresh(fixtures.D2()))
        modules.hom_stack(A, A)
        assert len(calls) == 1


def _cosyzygy(M):
    """Cokernel of the injective envelope: the reference the duality replaced."""
    return modules.cokernel(modules.injective_envelope(M)[1])[0]


class TestDerivedInjectiveSide:
    """The injective side, derived through D = Hom_k(-, k), against the
    cokernel loops along injective envelopes written out directly."""

    def sample(self, alg, count=12, seed=5):
        rng = random.Random(seed)
        return [random_module(rng, alg) for _ in range(count)]

    def test_dual_module_is_an_involution(self, duality_algebra):
        for M in self.sample(duality_algebra):
            DD = modules.dual_module(modules.dual_module(M))
            assert DD.algebra is M.algebra and DD.dim == M.dim
            assert all(np.array_equal(a, b) for a, b in zip(DD.action, M.action))

    def test_injective_dimension_matches_the_cokernel_loop(self, duality_algebra):
        bound = 3
        seen = set()
        for M in self.sample(duality_algebra):
            cur, expected = M, None
            for n in range(bound + 1):
                if cur.is_injective:
                    expected = n
                    break
                cur = _cosyzygy(cur)
            assert modules.injective_dimension(M, bound) == expected
            seen.add(expected)
        assert len(seen) > 1

    def test_cosyzygy_matches_the_cokernel_loop(self, duality_algebra):
        for M in self.sample(duality_algebra, count=8):
            cur = M
            for n in (1, 2):
                cur = _cosyzygy(cur)
                C = modules.syzygy(M, -n)
                assert C.algebra is M.algebra
                assert modules.find_isomorphism(C, cur) is not None


class TestLeftProjectiveApproximation:
    """The minimal left add(A)-approximation M -> P: built from Hom_A(M, A)
    over T_2(D_2), the injective envelope over the self-injective D_n."""

    @pytest.fixture(scope="class", params=["T2(D2)", "D3/F3", "D4/F2"])
    def sample(self, request):
        rng = random.Random(3)
        if request.param == "T2(D2)":
            alg = triangular_d2()
        else:
            n, p = request.param[1:].split("/F")
            alg = truncated_polynomial(int(n), int(p))
        simples = modules.simple_modules(alg)
        return ([*simples, *(modules.syzygy(S, 1) for S in simples)]
                + [random_module(rng, alg) for _ in range(6)])

    def test_every_map_to_a_projective_factors_through_it(self, sample):
        for M in sample:
            p = M.algebra.p
            A = modules.regular_module(M.algebra)
            P, f = modules.left_projective_approximation(M)
            f.validate()
            through = np.array([(h @ f.matrix) % p for h in modules.hom_stack(P, A)])
            for g in modules.hom_stack(M, A):
                assert linalg.solve(through.reshape(len(through), -1).T, g.reshape(-1), p) is not None

    def test_is_left_minimal(self, sample):
        # h f = f forces h invertible: sampled over End(P) on the kernel of - @ f
        rng = random.Random(4)
        for M in sample:
            p = M.algebra.p
            P, f = modules.left_projective_approximation(M)
            E = modules.hom_stack(P, P)
            if not len(E):
                continue
            K = linalg.kernel_basis(np.array([(e @ f.matrix) % p for e in E])
                                    .reshape(len(E), -1).T, p)
            for _ in range(20 if K.shape[1] else 0):
                c = sum(rng.randrange(p) * K[:, j] for j in range(K.shape[1])) % p
                h = (linalg.eye(P.dim) + np.tensordot(c, E, axes=1)) % p
                assert linalg.rank(h, p) == P.dim

    def test_injective_exactly_on_the_gorenstein_projective_simple(self):
        # over the 1-Gorenstein T_2(D_2) a module embeds in a projective when
        # it is GP; the second simple has no nonzero map to A at all, and
        # the first syzygies of both simples are GP
        S1, S2 = modules.simple_modules(triangular_d2())
        assert modules.left_projective_approximation(S1)[1].is_injective()
        assert not modules.left_projective_approximation(S2)[1].is_injective()
        for S in (S1, S2):
            assert modules.left_projective_approximation(modules.syzygy(S, 1))[1].is_injective()
