"""Chain-map space solver and factorization."""

import dataclasses
import gc
import hashlib
import random
import weakref

import numpy as np
import pytest

from conftest import (count_solves, in_new_process, kernel_solutions, memo_digest,
                      module_map_equations, periodic_complex, random_combination,
                      random_d2_complex, random_d2_module, random_invertible,
                      reference_factor_check, truncated_polynomial, with_entry)
from singeq import approx, complexes, fixtures, functors, homotopy, linalg, modules, solver
from singeq.complexes import ChainMap, add_maps, compose, identity_chain_map
from singeq.config import Options
from singeq.errors import DimensionMismatch, ValidationError
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
def test_a_block_of_the_wrong_shape_in_a_basis_family_is_reported_as_alone(pair):
    # every map of the family has the wrong shape at that degree; the joint
    # check reports the smallest degree any map alone reports
    X, Y = dict(zip(["periodic D4/F2", "bounded D2"], parity_pairs()))[pair]
    solver.chain_map_space_basis(X, Y)
    sys_ = X._solved[Y][Options()]
    stacks = sys_._stacks(sys_.kernel_coeffs)
    for n, m in stacks.items():
        if not m.shape[2]:
            continue
        wide = {**stacks, n: np.concatenate([m, m[:, :, :1]], axis=2)}
        maps = sys_.graded_each(ChainMap, X, Y, wide)
        alone = []
        for f in maps:
            with pytest.raises(ValidationError) as err:
                f.validate()
            alone.append(str(err.value))
        with pytest.raises(ValidationError) as err:
            maps[0].validate(*maps[1:])
        assert str(err.value) == min(alone, key=lambda e: int(e.split()[3]))
        assert all(e.endswith("has wrong shape") for e in alone)


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
        maps = sys_.graded_each(ChainMap, X, Z, wrong)
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


def cold_memo_digests(name: str, bounds=(2,)) -> list:
    """memo_digest of a cold chain_map_space_basis on memo_pair(name), per
    map_period_bound, in a new process, whose memos start empty."""
    return in_new_process("test_solver", f"cold_digests({name!r}, {list(bounds)!r})")


def cold_digests(name: str, bounds: list) -> list:
    """memo_digest per map_period_bound, each on a new memo_pair(name)."""
    return [memo_digest(*solver.chain_map_space_basis(
        *memo_pair(name), Options(map_period_bound=m))) for m in bounds]


class TestBasisMemo:
    def test_three_calls_on_one_pair_run_one_solve(self, monkeypatch):
        X, Y = memo_pair("periodic D4/F2")
        solves = count_solves(monkeypatch)
        digests = {memo_digest(*solver.chain_map_space_basis(X, Y)) for _ in range(3)}
        assert len(solves) == 1 and len(digests) == 1

    @pytest.mark.parametrize("name", MEMO_PAIRS)
    def test_a_hit_equals_a_cold_call_in_a_new_process(self, name, monkeypatch):
        X, Y = memo_pair(name)
        solves = count_solves(monkeypatch)
        cold = solver.chain_map_space_basis(X, Y)
        hit = solver.chain_map_space_basis(X, Y)
        assert len(solves) == 1 and len(hit[0]) >= 3
        assert all(f._checked for f in hit[0])
        assert memo_digest(*hit) == memo_digest(*cold) == cold_memo_digests(name)[0]

    def test_each_map_period_bound_has_its_own_entry(self, monkeypatch):
        X, Y = memo_pair("periodic D3/F3")
        solves = count_solves(monkeypatch)
        warm = [memo_digest(*solver.chain_map_space_basis(X, Y, Options(map_period_bound=m)))
                for m in (2, 1, 2)]
        assert len(solves) == 2
        assert warm[0] != warm[1]
        assert warm == cold_memo_digests("periodic D3/F3", (2, 1, 2))

    def test_an_entry_goes_with_its_target_and_keeps_no_source_alive(self):
        X, Y = memo_pair("periodic D4/F2")
        basis, _ = solver.chain_map_space_basis(X, Y)
        assert len(X._solved) == 1
        target, source, bases = weakref.ref(Y), weakref.ref(X), X._solved
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
        coeffs = X._solved[Y][Options()].kernel_coeffs
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
        assert Y not in X._solved
        monkeypatch.undo()
        solves = count_solves(monkeypatch)
        assert memo_digest(*solver.chain_map_space_basis(X, Y)) == cold_memo_digests("bounded D2")[0]
        assert len(solves) == 1


# -- the factorization memo ---------------------------------------------------


FACTOR_CASES = ["T_per over D2", "D3/F3"]


def factor_case(name: str, mode: str) -> tuple:
    """(f, through) of a new factorization of FACTOR_CASES, as
    modelcat.is_weak_equivalence meets it, built the same way in every
    process: the unit of a 1-periodic complex X lifted along the cofibrant
    replacement of its stalk target ("lift"), or its counit extended along
    the fibrant replacement of its stalk source ("extend")."""
    alg = fixtures.D2() if name == "T_per over D2" else truncated_polynomial(3, 3)
    X = periodic_complex(alg, 1)
    if mode == "lift":
        f = functors.unit(X)
        return f, approx.stalk_replacement(f.target, "cofibrant_ctr").map
    f = functors.counit(X)
    return f, approx.stalk_replacement(f.source, "fibrant_co").map


def factor_ends(f, through, mode) -> tuple:
    """The (source, target) of the factor, whose memo holds its entry."""
    return (f.source, through.source) if mode == "lift" else (through.target, f.target)


def factor_entries(f, through, mode) -> dict:
    S, T = factor_ends(f, through, mode)
    return {key: e for key, e in S._solved.get(T, {}).items()
            if isinstance(key, tuple) and key[0] == mode}


def cold_factor_digests(name: str, mode: str, bounds=(2,)) -> list:
    """memo_digest of a cold factor_chain_map on factor_case(name, mode),
    per map_period_bound, in a new process."""
    return in_new_process("test_solver", f"cold_factors({name!r}, {mode!r}, {list(bounds)!r})")


def cold_factors(name: str, mode: str, bounds: list) -> list:
    return [memo_digest([solver.factor_chain_map(*factor_case(name, mode), mode,
                                                 Options(map_period_bound=m))])
            for m in bounds]


class TestFactorMemo:
    @pytest.mark.parametrize("mode", ["lift", "extend"])
    def test_three_equal_calls_run_one_solve(self, mode, monkeypatch):
        f, through = factor_case("D3/F3", mode)
        solves = count_solves(monkeypatch)
        # equal maps that are other objects hit too
        digests = {memo_digest([solver.factor_chain_map(g, through, mode)])
                   for g in (f, dataclasses.replace(f), dataclasses.replace(f))}
        assert len(solves) == 1 and len(digests) == 1

    @pytest.mark.parametrize("mode", ["lift", "extend"])
    @pytest.mark.parametrize("name", FACTOR_CASES)
    def test_a_hit_equals_a_cold_call_in_a_new_process(self, name, mode, monkeypatch):
        f, through = factor_case(name, mode)
        solves = count_solves(monkeypatch)
        cold = solver.factor_chain_map(f, through, mode)
        hit = solver.factor_chain_map(f, through, mode)
        assert len(solves) == 1 and hit is not cold and hit._checked
        assert (hit.source, hit.target) == factor_ends(f, through, mode)
        assert memo_digest([hit]) == memo_digest([cold]) == cold_factor_digests(name, mode)[0]
        composite = compose(through, hit) if mode == "lift" else compose(hit, through)
        assert add_maps(composite, f, sign=-1).is_zero()

    @pytest.mark.parametrize("mode", ["lift", "extend"])
    def test_a_corrupted_entry_is_solved_again(self, mode, monkeypatch):
        f, through = factor_case("T_per over D2", mode)
        solver.factor_chain_map(f, through, mode)
        [(_, (_, _, table, *_))] = factor_entries(f, through, mode).values()
        block = table.at(0)
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 1
        block.flags.writeable = True
        block[0, 0] += 1
        solves = count_solves(monkeypatch)
        g = solver.factor_chain_map(f, through, mode)
        assert len(solves) == 1
        assert memo_digest([g]) == cold_factor_digests("T_per over D2", mode)[0]
        # the entry was overwritten, and hits again
        assert memo_digest([solver.factor_chain_map(f, through, mode)]) == memo_digest([g])
        assert len(solves) == 1

    def test_an_entry_made_for_other_complex_objects_misses(self, monkeypatch):
        # as after a recycled id: the key's ids match, the held complexes not
        f, through = factor_case("T_per over D2", "extend")
        solver.factor_chain_map(f, through, "extend")
        [(key, (refs, args))] = factor_entries(f, through, "extend").items()
        others = [dataclasses.replace(r()) for r in refs]
        S, T = factor_ends(f, through, "extend")
        S._solved[T][key] = (tuple(map(weakref.ref, others)), args)
        solves = count_solves(monkeypatch)
        g = solver.factor_chain_map(f, through, "extend")
        assert len(solves) == 1
        assert memo_digest([g]) == cold_factor_digests("T_per over D2", "extend")[0]

    def test_each_options_has_its_own_entry(self, monkeypatch):
        f, through = factor_case("D3/F3", "lift")
        solves = count_solves(monkeypatch)
        warm = [memo_digest([solver.factor_chain_map(f, through, "lift",
                                                     Options(map_period_bound=m))])
                for m in (2, 1, 2)]
        assert len(solves) == 2 and len(factor_entries(f, through, "lift")) == 2
        assert warm[0] != warm[1]
        assert warm == cold_factor_digests("D3/F3", "lift", (2, 1, 2))

    def test_an_entry_goes_with_its_target_and_keeps_no_source_alive(self):
        X, Y = memo_pair("periodic D4/F2")
        f = solver.chain_map_space_basis(X, Y)[0][0]
        g = solver.factor_chain_map(f, identity_chain_map(Y), "lift")
        assert add_maps(g, f, sign=-1).is_zero()
        target, source, store = weakref.ref(Y), weakref.ref(X), X._solved
        assert any(isinstance(key, tuple) for key in store[Y])
        del f, g, Y
        gc.collect()
        assert target() is None and len(store) == 0
        del X
        gc.collect()
        assert source() is None

    def test_writing_into_a_returned_map_leaves_the_next_hit(self):
        f, through = factor_case("D3/F3", "extend")
        for _ in range(2):  # the cold call's map, then a hit's
            g = solver.factor_chain_map(f, through, "extend")
            before = memo_digest([g])
            for m in [*g.components.values(), *(g.neg or (0, ()))[1], *(g.pos or (0, ()))[1]]:
                m += 1
            assert memo_digest([solver.factor_chain_map(f, through, "extend")]) == before

    def test_a_cold_call_that_finds_nothing_or_raises_stores_nothing(self, t_per, k,
                                                                      monkeypatch):
        # the cycle inclusion stalk(k) -> T_per does not lift through zero
        eps = functors.counit(t_per)
        z = complexes.zero_chain_map(functors.stalk(k), t_per)
        solves = count_solves(monkeypatch)
        assert solver.factor_chain_map(eps, z, "lift") is None
        assert solver.factor_chain_map(eps, z, "lift") is None
        assert len(solves) == 2 and not factor_entries(eps, z, "lift")

        f, through = factor_case("T_per over D2", "lift")

        def refuse(*maps, table=None):
            raise ValidationError("refused")

        monkeypatch.setattr(ChainMap, "validate", refuse)
        with pytest.raises(ValidationError, match="refused"):
            solver.factor_chain_map(f, through, "lift")
        assert not factor_entries(f, through, "lift")
        monkeypatch.undo()
        solves = count_solves(monkeypatch)
        g = solver.factor_chain_map(f, through, "lift")
        assert memo_digest([g]) == cold_factor_digests("T_per over D2", "lift")[0]
        assert len(solves) == 1


class TestFactorRecheck:
    """A remembered factorization is checked again on the three maps'
    tables (complexes._factors); it gives the verdicts of the check that
    built the composite and the difference as maps (reference_factor_check)."""

    @staticmethod
    def holds(f, through, g, mode):
        return complexes._factors(f, through, g) if mode == "lift" else \
            complexes._factors(f, g, through)

    @staticmethod
    def case(name: str, mode: str) -> tuple:
        """(f, through) of FACTOR_CASES, or for "periodic D4/F2" a basis map
        X -> Y and the identity of its target ("lift") or source ("extend"),
        which reads the tails of the factor."""
        if name in FACTOR_CASES:
            return factor_case(name, mode)
        f = solver.chain_map_space_basis(*memo_pair(name))[0][0]
        return f, identity_chain_map(f.target if mode == "lift" else f.source)

    @pytest.mark.parametrize("mode", ["lift", "extend"])
    @pytest.mark.parametrize("name", [*FACTOR_CASES, "periodic D4/F2"])
    def test_cold_and_hit_factors_and_their_corruptions(self, name, mode):
        f, through = self.case(name, mode)
        changed, rejected = set(), set()
        for _ in range(2):  # cold, then a hit
            g = solver.factor_chain_map(f, through, mode)
            assert self.holds(f, through, g, mode) and reference_factor_check(f, through, g, mode)
            # one entry of g, f or through changed, at each window degree and
            # each tail block
            for which in ("g", "f", "through"):
                h = {"g": g, "f": f, "through": through}[which]
                for place, degrees in (("window", range(h.clo, h.chi + 1)),
                                       ("tail", range(h.clo - h._blocks.neg, h.clo))):
                    for n in degrees:
                        if not h.component(n).size:
                            continue
                        # marked, as a rebuilt entry is, so no map is validated
                        bad = complexes._proven(with_entry(h, n))
                        args = {"g": g, "f": f, "through": through, which: bad}
                        verdict = self.holds(args["f"], args["through"], args["g"], mode)
                        assert verdict is reference_factor_check(
                            args["f"], args["through"], args["g"], mode)
                        changed.add((which, place))
                        if not verdict:
                            rejected.add((which, place))
        # a change that the other factor kills leaves a factorization: the
        # stalk end of FACTOR_CASES is zero below its window, and a basis
        # map has rows of zeros
        assert rejected >= ({(which, "window") for which in ("g", "f", "through")}
                            if name in FACTOR_CASES else
                            {(which, place) for which in ("g", "f") for place in ("window", "tail")})

    def test_ends_of_other_dimensions_raise_as_the_sum_did(self, t_per, k):
        f = identity_chain_map(t_per)
        other = complexes.zero_chain_map(t_per, functors.stalk(k))
        with pytest.raises(DimensionMismatch, match="summands have terms of different"):
            reference_factor_check(f, other, f, "lift")
        with pytest.raises(DimensionMismatch, match="summands have terms of different"):
            complexes._factors(f, other, f)


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

    def test_a_homotopy_window_leaves_a_window_term_out_of_its_fold(self, t_per):
        # the cone of the inclusion T_per -> T_per + C: its terms have
        # dimension 4 in the tails and 7 at degree 0, where the fold's
        # first unknown s_lo: C_lo -> C_{lo+1} stood for s_{lo-1} into C_lo
        from test_metamorphic import split_sum

        C = complexes.cone(split_sum(t_per, 0)[0])
        one = identity_chain_map(C)
        lo, hi, P = solver.window(C, C, [one], 1, 2)
        assert (lo, hi, P) == (-1, 4, 1) and C.term(lo + 1).dim != C.term(lo).dim
        with pytest.raises(ValidationError, match="inconsistent shape"):
            solver.graded_system(C, C, 1, lo, hi, P, [one])
        assert solver.window(C, C, [one], 1, 2, shift=1) == (lo - P, hi, P)
        sys = solver.graded_system(C, C, 1, lo - P, hi, P, [one])
        assert sys.solve() is not None
        for m in (1, 2):  # a term P below the edge equal by value keeps the window
            D = fixtures.t_per()
            assert solver.window(D, D, [identity_chain_map(D)], m, 2, shift=1) == \
                solver.window(D, D, [identity_chain_map(D)], m, 2)
