"""Chain-map space solver and factorization."""

import dataclasses
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import weakref

import numpy as np
import pytest

from conftest import (kernel_solutions, module_map_equations, periodic_complex,
                      random_combination, random_d2_complex, random_d2_module,
                      random_invertible, truncated_polynomial)
from singeq import complexes, fixtures, functors, homotopy, linalg, modules, solver
from singeq.complexes import ChainMap, add_maps, compose, identity_chain_map
from singeq.config import Options
from singeq.errors import ValidationError
from singeq.modules import Module, ModuleMap


class TestChainMapSpaces:
    def test_maps_to_bounded_target_are_complete(self, t_per, contractible):
        basis, complete = solver.chain_map_space_basis(t_per, contractible)
        assert complete
        for f in basis:
            f.validate()

    def test_dimension_matches_commuting_system(self, t_per, k):
        # maps from T_per into a stalk: one degree-0 component g with
        # g . d_1 = 0, i.e. an A-linear map killing (x); dim Hom(A,k)=1
        dim = len(solver.chain_map_space_basis(t_per, functors.stalk(k))[0])
        assert dim == 1

    def test_surrogate_basis_on_periodic_pair(self, t_per):
        basis, complete = solver.chain_map_space_basis(t_per, t_per)
        assert not complete  # both unbounded: periodic-ansatz surrogate
        assert len(basis) >= 2  # contains id and x.id at least
        for f in basis:
            f.validate()

    def test_zero_spaces(self, D2, t_per):
        Z = complexes.zero_complex(D2)
        assert len(solver.chain_map_space_basis(Z, t_per)[0]) == 0


class TestFactorization:
    def test_lift_through_identity(self, t_per):
        f = identity_chain_map(t_per)
        g = solver.factor_chain_map(f, f, "lift")
        assert g is not None
        assert add_maps(compose(f, g), f, sign=-1).is_zero()

    def test_extend_through_identity(self, t_per):
        f = identity_chain_map(t_per)
        h = solver.factor_chain_map(f, f, "extend")
        assert h is not None

    def test_unliftable_map_returns_none(self, t_per, k):
        # the cycle inclusion stalk(k) -> T_per does not lift through the
        # zero map
        eps = functors.counit(t_per)
        z = complexes.zero_chain_map(functors.stalk(k), t_per)
        assert solver.factor_chain_map(eps, z, "lift") is None

    def test_lift_along_counit(self, t_per):
        # a map into T_per landing in degree-0 cycles lifts through counit
        eps = functors.counit(t_per)
        g = solver.factor_chain_map(eps, eps, "lift")
        assert g is not None
        assert np.array_equal(g.component(0) % 2, np.eye(1, dtype=np.int64))


# -- hom-coordinate systems against the raw-entry reference ---------------


def random_dn_module(rng: random.Random, alg, max_dim: int = 4) -> Module:
    """x acts by Jordan blocks of size <= n in a random basis; the blocks
    are drawn until their sizes reach a random bound of at most max_dim."""
    n, p = alg.dim, alg.p
    bound = rng.randint(0, max_dim)
    sizes = []
    while sum(sizes) < bound:
        sizes.append(rng.randint(1, n))
    d = sum(sizes)
    N = linalg.zeros(d, d)
    off = 0
    for size in sizes:
        for i in range(size - 1):
            N[off + i + 1, off + i] = 1
        off += size
    g = random_invertible(rng, d, p)
    N = (g @ N @ linalg.invert(g, p)) % p
    powers = [linalg.eye(d)]
    for _ in range(n - 1):
        powers.append((powers[-1] @ N) % p)
    M = Module(alg, d, tuple(powers))
    M.validate()
    return M


def reference_system(p: int, pairs: list, equations: list):
    """(unknowns, rank, consistent) of the raw-entry system.

    Each unknown is a full target.dim x source.dim matrix, and the module
    map condition F a_i = b_i F enters as intertwining rows, one block per
    action matrix; equations are (rhs, [(M, k, N)]) for sum M u_k N = rhs.
    """
    offsets, total = [], 0
    for S, T in pairs:
        offsets.append(total)
        total += T.dim * S.dim
    rows, rhs = [], []
    for (S, T), off in zip(pairs, offsets):
        t, s = T.dim, S.dim
        for a, b in zip(S.action, T.action):
            block = linalg.zeros(t * s, total)
            block[:, off : off + t * s] = (
                np.kron(linalg.eye(t), a.T) - np.kron(b, linalg.eye(s)))
            rows.append(block)
            rhs.append(linalg.zeros(t * s, 1).reshape(-1))
    for b, terms in equations:
        block = linalg.zeros(b.size, total)
        for M, k, N in terms:
            t, s = pairs[k][1].dim, pairs[k][0].dim
            block[:, offsets[k] : offsets[k] + t * s] += np.kron(M, N.T)
        rows.append(block)
        rhs.append(b.reshape(-1))
    A = np.vstack(rows) % p if rows else linalg.zeros(0, total)
    b = np.concatenate(rhs) % p if rhs else linalg.zeros(0, 1).reshape(-1)
    return total, linalg.rank(A, p), linalg.solve(A, b, p) is not None


def random_matrix(rng, r, c, p):
    return np.array([[rng.randrange(p) for _ in range(c)] for _ in range(r)],
                    dtype=np.int64).reshape(r, c)


def shipped_modules():
    return {"D2": [fixtures.simple_k(), fixtures.regular_D2(),
                   modules.regular_module(fixtures.D2())],
            "T2": [fixtures.S1(), fixtures.S2(), modules.regular_module(fixtures.T2())],
            "F2": [fixtures.simple_k_F2(), modules.regular_module(fixtures.F2())]}


def module_pools():
    rng = random.Random(20261018)
    pools = dict(shipped_modules())
    pools["D2 random"] = [random_d2_module(rng) for _ in range(6)]
    for p in (2, 3):
        D3 = truncated_polynomial(3, p)
        pools[f"D3/F{p} random"] = [random_dn_module(rng, D3) for _ in range(6)]
    return pools


POOLS = module_pools()


class TestHomCoordinateSystems:
    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_agrees_with_raw_entry_reference(self, pool):
        mods = POOLS[pool]
        p = mods[0].algebra.p
        rng = random.Random(pool)
        for trial in range(40):
            pairs = [(rng.choice(mods), rng.choice(mods)) for _ in range(rng.randint(1, 2))]
            equations = [(rhs[0], terms, pair) for rhs, terms, pair in
                         module_map_equations(rng, mods, pairs, p, rng.randint(0, 2))]
            sys_ = solver.FoldedSystem(p, dict(enumerate(pairs)), 0, len(pairs) - 1)
            for rhs, terms, pair in equations:
                sys_.add_equation(rhs, terms, pair)
            total, rank, consistent = reference_system(
                p, pairs, [(rhs, terms) for rhs, terms, _ in equations])

            kernel = kernel_solutions(sys_)
            assert len(kernel) == total - rank
            solution = sys_.solve()
            assert (solution is not None) == consistent
            for comps in kernel + ([solution] if consistent else []):
                for k, (S, T) in enumerate(pairs):
                    ModuleMap(S, T, comps[k]).validate()
            if consistent:
                for rhs, terms, _ in equations:
                    lhs = sum(((M @ solution[k] @ N) % p for M, k, N in terms),
                              linalg.zeros(*rhs.shape))
                    assert np.array_equal(lhs % p, rhs % p)

    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_identity_factors_may_be_left_out(self, pool):
        # u: S -> T; u N = rhs over (U, T), M u = rhs over (S, U)
        mods = POOLS[pool]
        p = mods[0].algebra.p
        rng = random.Random(f"identity {pool}")
        for _ in range(20):
            S, T, U = (rng.choice(mods) for _ in range(3))
            N = random_combination(rng, modules.hom_stack(U, S), p)
            M = random_combination(rng, modules.hom_stack(T, U), p)
            eqs = [(random_combination(rng, modules.hom_stack(U, T), p), (U, T)),
                   (random_combination(rng, modules.hom_stack(S, U), p), (S, U))]
            systems = []
            for eye_T, eye_S in ((linalg.eye(T.dim), linalg.eye(S.dim)), (None, None)):
                sys_ = solver.FoldedSystem(p, {0: (S, T)}, 0, 0)
                for (rhs, pair), term in zip(eqs, [(eye_T, 0, N), (M, 0, eye_S)]):
                    sys_.add_equation(rhs, [term], pair)
                systems.append(sys_._stack())
            (A, b), (A1, b1) = systems
            assert np.array_equal(A, A1) and np.array_equal(b, b1)

    def test_an_identity_factor_must_fit(self):
        sys_ = solver.FoldedSystem(3, {0: (2, 1)}, 0, 0)
        sys_.add_equation(np.array([[1], [2]]), [(None, 0, None)])
        assert np.array_equal(sys_.solve()[0], np.array([[1], [2]]))
        with pytest.raises(ValidationError, match="inconsistent shape"):
            sys_.add_equation(linalg.zeros(3, 1), [(None, 0, None)])

    def test_plain_shape_blocks_range_over_all_matrices(self):
        sys_ = solver.FoldedSystem(3, {0: (2, 1)}, 0, 0)
        assert sys_.total == 2
        sys_.add_equation(np.array([[1], [2]]), [(linalg.eye(2), 0, linalg.eye(1))])
        assert np.array_equal(sys_.solve()[0], np.array([[1], [2]]))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_solve_columns_decides_each_column_alone(self, p):
        rng = random.Random(p)
        seen = set()
        for trial in range(60):
            rows, cols, rank = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 3)
            A = (random_matrix(rng, rows, rank, p) @ random_matrix(rng, rank, cols, p)) % p
            B = np.hstack([(A @ random_matrix(rng, cols, 2, p)) % p,
                           random_matrix(rng, rows, 2, p)])
            X, ok = linalg.solve_columns(A, B, p)
            for k in range(B.shape[1]):
                alone = linalg.solve_matrix(A, B[:, k:k + 1], p)
                assert ok[k] == (alone is not None)
                if ok[k]:
                    assert np.array_equal(X[:, k:k + 1], alone)
                seen.add(bool(ok[k]))
            solution = linalg.solve_matrix(A, B, p)
            assert (solution is not None) == ok.all()
        assert seen == {True, False}

    def test_stacked_right_hand_sides_are_solved_alone(self):
        def system(width):
            return solver.FoldedSystem(3, {0: (2, 1)}, 0, 0, width=width)

        M = np.array([[1, 0], [0, 0]])
        stack = np.array([[[1], [0]], [[0], [1]], [[2], [0]]])
        sys_ = system(3)
        sys_.add_equation(stack, [(M, 0, linalg.eye(1))])
        joint = sys_.solve_each()
        for rhs, sol in zip(stack, joint, strict=True):
            one = system(1)
            one.add_equation(rhs, [(M, 0, linalg.eye(1))])
            alone = one.solve()
            assert (sol is None) == (alone is None)
            if sol is not None:
                assert np.array_equal(sol[0], alone[0])
        assert joint[1] is None and joint[0] is not None
        with pytest.raises(ValueError, match="solve_each"):
            sys_.solve()
        with pytest.raises(ValidationError, match="right-hand sides"):
            sys_.add_equation(stack[0], [(M, 0, linalg.eye(1))])


# len(chain_map_space_basis(T_i, T_j[s])) over F_2[x]/(x^n), keyed (n, i, j, s);
# the same counts came out of the raw-entry solver with intertwining rows
SPACE_DIMENSIONS = {
    (3, 1, 1, 0): 15, (3, 1, 1, 1): 18, (3, 1, 2, 0): 16, (3, 1, 2, 1): 17,
    (3, 2, 1, 0): 16, (3, 2, 1, 1): 17, (3, 2, 2, 0): 16, (3, 2, 2, 1): 17,
    (4, 1, 1, 0): 19, (4, 1, 1, 1): 24, (4, 1, 2, 0): 20, (4, 1, 2, 1): 23,
    (4, 1, 3, 0): 21, (4, 1, 3, 1): 22, (4, 2, 1, 0): 20, (4, 2, 1, 1): 23,
    (4, 2, 2, 0): 22, (4, 2, 2, 1): 24, (4, 2, 3, 0): 21, (4, 2, 3, 1): 22,
    (4, 3, 1, 0): 21, (4, 3, 1, 1): 22, (4, 3, 2, 0): 21, (4, 3, 2, 1): 22,
    (4, 3, 3, 0): 21, (4, 3, 3, 1): 22,
}


@pytest.mark.parametrize("n", [3, 4])
def test_chain_map_space_dimensions_over_truncated_polynomials(n):
    alg = truncated_polynomial(n, 2)
    T = {j: periodic_complex(alg, j) for j in range(1, n)}
    for (m, i, j, s), dim in SPACE_DIMENSIONS.items():
        if m == n:
            basis, complete = solver.chain_map_space_basis(T[i], complexes.reindex(T[j], s))
            assert not complete
            assert len(basis) == dim, (i, j, s)


def basis_digest(n: int, p: int) -> str:
    """Digest of chain_map_space_basis(T_i, T_j[s]) over F_p[x]/(x^n) for
    every i, j and s = 0, 1: the length and complete flag of each basis,
    every component of every basis map over its check range, and the
    verdict and homotopy (over its check range) of null_homotopy on the
    middle basis map and on the sum of the first, middle and last."""
    alg = truncated_polynomial(n, p)
    T = {j: periodic_complex(alg, j) for j in range(1, n)}
    h = hashlib.sha256()

    def feed(f):
        a, b = f.check_range()
        for m in range(a, b + 1):
            c = f.component(m)
            h.update(repr((m, c.shape)).encode() + c.astype(np.int64).tobytes())

    for i in T:
        for j in T:
            for s in (0, 1):
                basis, complete = solver.chain_map_space_basis(T[i], complexes.reindex(T[j], s))
                h.update(repr((i, j, s, len(basis), complete)).encode())
                for f in basis:
                    feed(f)
                mid = basis[len(basis) // 2]
                # YES and NO respectively on every pair here
                for f in (mid, add_maps(add_maps(basis[0], mid), basis[-1])):
                    res = homotopy.null_homotopy(f)
                    h.update(res.verdict.encode())
                    if res.homotopy is not None:
                        feed(res.homotopy)
    return h.hexdigest()[:12]


# basis_digest keyed (n, p), recorded before the stacked basis check
BASIS_DIGESTS = {(3, 2): "b9821c4eefe3", (3, 3): "91d64646d8de",
                 (4, 2): "3556e5131d88", (4, 3): "13a9c8bc8b8d"}


@pytest.mark.parametrize("n, p", sorted(BASIS_DIGESTS))
def test_chain_map_space_bases_are_pinned(n, p):
    assert basis_digest(n, p) == BASIS_DIGESTS[n, p]


# -- the stacked basis check against the per-map check ----------------------


def parity_pairs():
    """A periodic pair over D4/F2 and a bounded pair over D2, each with a
    basis of at least three chain maps; the bounded complexes have nonzero
    differentials, so that a chain map can fail to commute with them."""
    D4 = truncated_polynomial(4, 2)
    yield periodic_complex(D4, 1), complexes.reindex(periodic_complex(D4, 3), 1)
    rng = random.Random(5)
    while True:
        X, Y = random_d2_complex(rng), random_d2_complex(rng)
        if all(any(Z.diff(n).any() for n in range(Z.lo, Z.hi + 1)) for Z in (X, Y)) \
                and len(solver.chain_map_space_basis(X, Y)[0]) >= 3:
            yield X, Y
            return


def changes(sys_, stacks):
    """(kind, stacks with one component of one map changed) per window
    degree: by a unit entry ("entry"), which leaves Hom, and by each hom
    basis matrix of the degree ("hom"), which stays a module map."""
    for n, m in stacks.items():
        H = sys_.bases[n][1]
        j = len(m) // 2
        unit = np.zeros(m.shape[1:], dtype=np.int64)
        if unit.size:
            unit[0, 0] = 1
            for kind, delta in [("entry", unit), *(("hom", h) for h in H)]:
                bad = m.copy()
                bad[j] = (bad[j] + delta) % sys_.p
                yield kind, {**stacks, n: bad}


@pytest.mark.parametrize("pair", ["periodic D4/F2", "bounded D2"])
def test_stacked_basis_check_raises_the_per_map_error(monkeypatch, pair):
    X, Y = dict(zip(["periodic D4/F2", "bounded D2"], parity_pairs()))[pair]
    kernel = solver.FoldedSystem.kernel
    seen = []

    def record(sys_):
        seen.append((sys_, kernel(sys_)))
        return seen[-1][1]

    monkeypatch.setattr(solver.FoldedSystem, "kernel", record)
    solver.chain_map_space_basis(X, dataclasses.replace(Y))  # a fresh target: a cold solve
    sys_, stacks = seen[-1]
    messages = set()
    for kind, wrong in changes(sys_, stacks):
        monkeypatch.setattr(solver.FoldedSystem, "kernel", lambda _, wrong=wrong: wrong)
        # a fresh target per call, so the basis memo misses and the
        # corrupted kernel meets the stacked check
        Z = dataclasses.replace(Y)
        maps = [ChainMap(X, Z, *args) for args in sys_.graded_each(wrong)]
        try:
            maps[0].validate(*maps[1:])
        except ValidationError as err:
            alone = str(err)
        else:
            alone = None
        try:
            solver.chain_map_space_basis(X, Z)
        except ValidationError as err:
            assert str(err) == alone, kind
        else:
            assert alone is None, kind
        if alone is not None:
            messages.add(alone.split(" at ")[0])
    # the module-map check and the commutation check each failed
    assert messages == {"component", "does not commute with d"}


# -- the basis memo -----------------------------------------------------------


MEMO_PAIRS = ["periodic D3/F3", "periodic D4/F2", "bounded D2"]


def memo_pair(name: str) -> tuple:
    """A new (X, Y) pair of MEMO_PAIRS, built the same way in every process."""
    if name == "bounded D2":
        # new objects: the search of parity_pairs filled the memo of its own
        X, Y = list(parity_pairs())[1]
        return dataclasses.replace(X), dataclasses.replace(Y)
    n, p = {"periodic D3/F3": (3, 3), "periodic D4/F2": (4, 2)}[name]
    alg = truncated_polynomial(n, p)
    return periodic_complex(alg, 1), complexes.reindex(periodic_complex(alg, n - 1), 1)


def memo_digest(basis, complete) -> str:
    """Digest of a chain_map_space_basis result: the flag, and per map in
    order its window, its window components and its tails' blocks."""
    h = hashlib.sha256(repr((complete, len(basis))).encode())
    for f in basis:
        tails = [t and (t[0], len(t[1])) for t in (f.neg, f.pos)]
        h.update(repr((f.clo, f.chi, sorted(f.components), tails)).encode())
        for m in [*f.components.values(), *(f.neg or (0, ()))[1], *(f.pos or (0, ()))[1]]:
            h.update(repr(m.shape).encode() + m.astype(np.int64).tobytes())
    return h.hexdigest()


def cold_memo_digests(name: str, bounds=(2,)) -> list:
    """memo_digest of a cold chain_map_space_basis on memo_pair(name), per
    map_period_bound, in a new process, whose memos start empty."""
    paths = [os.path.dirname(os.path.dirname(solver.__file__)), os.path.dirname(__file__)]
    code = ("import json, sys; sys.path[:0] = %r; from test_solver import cold_digests; "
            "print(json.dumps(cold_digests(%r, %r)))" % (paths, name, list(bounds)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout)


def cold_digests(name: str, bounds: list) -> list:
    """memo_digest per map_period_bound, each on a new memo_pair(name)."""
    return [memo_digest(*solver.chain_map_space_basis(
        *memo_pair(name), Options(map_period_bound=m))) for m in bounds]


def count_basis_solves(monkeypatch) -> list:
    """The (X, Y) of each system chain_map_space_basis builds from now on,
    its memo missed."""
    calls = []
    build = solver.graded_system
    monkeypatch.setattr(solver, "graded_system",
                        lambda X, Y, *a, **k: calls.append((X, Y)) or build(X, Y, *a, **k))
    return calls


class TestBasisMemo:
    def test_three_calls_on_one_pair_run_one_solve(self, monkeypatch):
        X, Y = memo_pair("periodic D4/F2")
        solves = count_basis_solves(monkeypatch)
        digests = {memo_digest(*solver.chain_map_space_basis(X, Y)) for _ in range(3)}
        assert len(solves) == 1 and len(digests) == 1

    @pytest.mark.parametrize("name", MEMO_PAIRS)
    def test_a_hit_equals_a_cold_call_in_a_new_process(self, name, monkeypatch):
        X, Y = memo_pair(name)
        solves = count_basis_solves(monkeypatch)
        cold = solver.chain_map_space_basis(X, Y)
        hit = solver.chain_map_space_basis(X, Y)
        assert len(solves) == 1 and len(hit[0]) >= 3
        assert all(f._checked for f in hit[0])
        assert memo_digest(*hit) == memo_digest(*cold) == cold_memo_digests(name)[0]

    def test_each_map_period_bound_has_its_own_entry(self, monkeypatch):
        X, Y = memo_pair("periodic D3/F3")
        solves = count_basis_solves(monkeypatch)
        warm = [memo_digest(*solver.chain_map_space_basis(X, Y, Options(map_period_bound=m)))
                for m in (2, 1, 2)]
        assert len(solves) == 2
        assert warm[0] != warm[1]
        assert warm == cold_memo_digests("periodic D3/F3", (2, 1, 2))

    def test_an_entry_goes_with_its_target_and_keeps_no_source_alive(self):
        X, Y = memo_pair("periodic D4/F2")
        basis, _ = solver.chain_map_space_basis(X, Y)
        assert len(X._bases) == 1
        target, source, bases = weakref.ref(Y), weakref.ref(X), X._bases
        del basis, Y
        gc.collect()
        assert target() is None and len(bases) == 0
        del X
        gc.collect()
        assert source() is None

    def test_writing_into_a_returned_map_leaves_the_next_hit(self):
        X, Y = memo_pair("periodic D4/F2")
        for _ in range(2):  # the cold call's maps, then a hit's
            basis, complete = solver.chain_map_space_basis(X, Y)
            before = memo_digest(basis, complete)
            for f in basis:
                for m in [*f.components.values(), *(f.neg or (0, ()))[1]]:
                    m += 1
            assert memo_digest(*solver.chain_map_space_basis(X, Y)) == before

    def test_the_stored_coefficients_are_read_only(self):
        X, Y = memo_pair("periodic D4/F2")
        solver.chain_map_space_basis(X, Y)
        coeffs = X._bases[Y][Options()].kernel_coeffs
        assert coeffs.size
        with pytest.raises(ValueError, match="read-only"):
            coeffs[0, 0] = 1

    def test_a_cold_call_that_raises_leaves_no_entry(self, monkeypatch):
        X, Y = memo_pair("bounded D2")

        def refuse(*maps, table=None):
            raise ValidationError("refused")

        monkeypatch.setattr(ChainMap, "validate", refuse)
        with pytest.raises(ValidationError, match="refused"):
            solver.chain_map_space_basis(X, Y)
        assert Y not in X._bases
        monkeypatch.undo()
        solves = count_basis_solves(monkeypatch)
        assert memo_digest(*solver.chain_map_space_basis(X, Y)) == cold_memo_digests("bounded D2")[0]
        assert len(solves) == 1


class TestWindow:
    """solver.window reproduces the window each system was built on
    before it decided them all."""

    @staticmethod
    def periods(*objects):
        return complexes._lcm([q for Z in objects for q in (Z.neg_period, Z.pos_period)])

    def chain_maps(self, X, Y, m):  # chain_map_space_basis
        if X.bounded() or Y.bounded():
            B = X if X.bounded() else Y
            return B.lo - 1, B.hi + 1, 0
        P = max(1, m) * self.periods(X, Y)
        return min(X.lo, Y.lo) - P, max(X.hi, Y.hi) + P, P

    def factor(self, S, T, f, through, m):  # factor_chain_map
        if S.bounded() or T.bounded():
            B = S if S.bounded() else T
            return B.lo - 1, B.hi + 1, 0
        P = max(1, m) * self.periods(S, T, f, through)
        return (min(S.lo, T.lo, f.clo, through.clo) - P,
                max(S.hi, T.hi, f.chi, through.chi) + P, P)

    def homotopies(self, f, m):  # the bounded solve (m = 0) and the periodic search
        X, Y = f.source, f.target
        if X.bounded() or Y.bounded():
            B = X if X.bounded() else Y
            return B.lo - 2, B.hi + 2, 0
        P = max(1, m) * self.periods(X, Y, f)
        return min(X.lo, Y.lo, f.clo) - P, max(X.hi, Y.hi, f.chi) + P, P

    def stable_lift(self, X, Y, m):  # equiv.lift_stable_map
        if X.bounded() or Y.bounded():
            B = X if X.bounded() else Y
            return min(B.lo - 1, 0), max(B.hi + 1, 0), 0
        P = m * self.periods(X, Y)
        return min(X.lo, Y.lo, 0) - P, max(X.hi, Y.hi, 0) + P, P

    def cases(self, t_per, k, contractible):
        D4 = periodic_complex(truncated_polynomial(4, 2), 1)
        return [t_per, complexes.reindex(t_per, 3), complexes.reindex(t_per, -4),
                functors.stalk(k), complexes.reindex(functors.stalk(k), 3),
                complexes.reindex(contractible, -5), D4, complexes.reindex(D4, 5)]

    def test_every_caller_keeps_its_window(self, t_per, k, contractible):
        cxs = self.cases(t_per, k, contractible)
        seen = set()
        for X in cxs:
            for Y in cxs:
                if X.algebra is not Y.algebra:
                    continue
                # maps with a window and tail period of their own
                f = complexes.chain_map_from_callable(
                    X, Y, min(X.lo, Y.lo) - 3, max(X.hi, Y.hi) + 2,
                    lambda n: linalg.zeros(Y.term(n).dim, X.term(n).dim), 3, 3)
                g = complexes.zero_chain_map(X, Y)
                for m in (0, 1, 2):
                    w = solver.window(X, Y, (), m, 1)
                    assert w == self.chain_maps(X, Y, m)
                    assert solver.window(X, Y, (f, g), m, 1) == self.factor(X, Y, f, g, m)
                    assert solver.window(X, Y, (f,), m, 2) == self.homotopies(f, m)
                    if m:
                        around = solver.window(X, Y, (), m, 1, around=(0,))
                        assert around == self.stable_lift(X, Y, m)
                        seen.add((bool(w[2]), not w[0] <= 0 <= w[1]))
        # bounded and unbounded, each also with degree 0 outside the window
        assert seen == {(False, False), (False, True), (True, False), (True, True)}
