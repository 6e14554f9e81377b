"""Module-map systems on pivot entries, and hom bases from the generators.

A FoldedSystem equation between modules (S, T) writes one row per pivot
entry of Hom(S, T), not one per matrix entry, and hom_stack intertwines
only with modules.action_generators.  Both shortcuts must leave every
answer unchanged, bit for bit: the references here build the full-row
systems and the all-index intertwining systems themselves.
"""

import itertools
import random

import numpy as np
import pytest

from conftest import (kernel_solutions, module_map_equations, periodic_complex,
                      random_combination, random_d2_complex, random_invertible,
                      truncated_polynomial)
from singeq import algebra, complexes, fixtures, homotopy, linalg, modules, solver
from singeq.complexes import Homotopy, identity_chain_map
from singeq.errors import ValidationError
from singeq.homotopy import UNKNOWN, YES, Certificate
from singeq.modules import Module


def nakayama(e: int, l: int, p: int = 2) -> algebra.Algebra:
    """Self-injective Nakayama algebra N(e, l): the cyclic quiver on e
    vertices with the paths of length >= l set to zero.  The basis is the
    paths (i, m) from vertex i of length m < l, and b * a is a then b."""
    paths = [(i, m) for i in range(e) for m in range(l)]
    index = {path: j for j, path in enumerate(paths)}
    n = len(paths)
    mul = np.zeros((n, n, n), dtype=np.int64)
    for (i, m), (j, r) in itertools.product(paths, repeat=2):
        if (j + r) % e == i and m + r < l:
            mul[index[i, m], index[j, r], index[j, m + r]] = 1
    unit = sum(linalg.eye(n)[index[i, 0]] for i in range(e))
    alg = algebra.Algebra(algebra.Field(p), n, tuple(f"p{i}_{m}" for i, m in paths),
                          mul, unit, tuple(index[i, 0] for i in range(e)),
                          tuple(index[i, m] for i in range(e) for m in range(1, l)),
                          name=f"N({e},{l})")
    alg.validate()
    return alg


ALGEBRAS = {
    "F2": fixtures.F2(),
    "D2": fixtures.D2(),
    "D3/F2": truncated_polynomial(3, 2),
    "D3/F3": truncated_polynomial(3, 3),
    "T2": fixtures.T2(),
    "N(2,3)": nakayama(2, 3),
}


def random_module(rng, alg) -> Module:
    """Kernel or cokernel of a random endomorphism of A or A + A, in a
    random basis."""
    p = alg.p
    A = modules.regular_module(alg)
    F = modules.direct_sum([A] * rng.randint(1, 2))[0]
    f = modules.ModuleMap(F, F, random_combination(rng, modules.hom_stack(F, F), p))
    M = (modules.kernel if rng.randint(0, 1) else modules.cokernel)(f)[0]
    g = random_invertible(rng, M.dim, p)
    gi = linalg.invert(g, p)
    M = Module(alg, M.dim, tuple((gi @ a) % p @ g % p for a in M.action))
    M.validate()
    return M


def module_pool(name: str) -> list:
    alg = ALGEBRAS[name]
    rng = random.Random(name)
    pool = [modules.regular_module(alg)] + [random_module(rng, alg) for _ in range(6)]
    return [M for M in pool if M.dim]


def all_index_hom(M: Module, N: Module) -> np.ndarray:
    """Reduced basis of Hom(M, N) from F a_i = b_i F over every action index."""
    p = M.algebra.p
    s, t = M.dim, N.dim
    if not s * t:
        return linalg.zeros(0, t * s).reshape(0, t, s)
    It, Is = np.eye(t, dtype=np.int64), np.eye(s, dtype=np.int64)
    system = np.vstack([np.kron(It, a.T) - np.kron(b, Is)
                        for a, b in zip(M.action, N.action)]) % p
    return linalg.kernel_basis(system, p).T.reshape(-1, t, s)


# -- generator-only intertwining ------------------------------------------


def test_action_generators_of_the_test_algebras():
    gens = {name: modules.action_generators(alg) for name, alg in ALGEBRAS.items()}
    assert gens["F2"] == ()
    assert gens["D2"] == gens["D3/F2"] == gens["D3/F3"] == (1,)  # x alone
    assert gens["T2"] == (0, 2)  # e11 and e12
    assert gens["N(2,3)"] == (0, 1, 4)  # e_0 and the two arrows
    assert modules.action_generators(fixtures.T2()) is modules.action_generators(fixtures.T2())


def shipped_pairs():
    shipped = [[fixtures.simple_k(), fixtures.regular_D2()],
               [fixtures.S1(), fixtures.S2(), modules.regular_module(fixtures.T2())],
               [fixtures.simple_k_F2(), modules.regular_module(fixtures.F2())]]
    return [pair for mods in shipped for pair in itertools.product(mods, repeat=2)]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_generator_hom_equals_all_index_hom(name):
    pairs = list(itertools.product(module_pool(name), repeat=2))
    if name == "D2":
        pairs += shipped_pairs()
    for M, N in pairs:
        H = modules.hom_stack(M, N)
        assert H.dtype == np.int64
        assert np.array_equal(H, all_index_hom(M, N))
        assert not len(H) or not modules.intertwining_failures(M, N, list(H)).any()
        # the basis is the identity at its pivot entries
        pivots = modules.hom_pivots(M, N)
        flat = H.reshape(len(H), M.dim * N.dim)
        assert np.array_equal(flat[:, pivots], linalg.eye(len(H)))


# -- pivot-entry equations against the full-row systems --------------------


def full_row_answers(p, pairs, equations, width):
    """(kernel, solutions) of the system with a row per matrix entry."""
    bases = [modules.hom_stack(*pair) for pair in pairs]
    offsets = np.cumsum([0] + [len(H) for H in bases])
    A_rows, B_rows = [], []
    for rhs, terms, (S, T) in equations:
        block = linalg.zeros(T.dim * S.dim, offsets[-1])
        for M, k, N in terms:
            for j, H in enumerate(bases[k]):
                c = offsets[k] + j
                block[:, c] = (block[:, c] + ((M @ H) % p @ N).reshape(-1)) % p
        A_rows.append(block)
        B_rows.append(rhs.reshape(width, -1).T % p)
    A = np.vstack(A_rows)
    B = np.vstack(B_rows)

    def unpack(c):
        return {k: np.tensordot(c[offsets[k]:offsets[k + 1]], H, 1) % p
                for k, H in enumerate(bases)}

    K = linalg.kernel_basis(A, p)
    X, ok = linalg.solve_columns(A, B, p)
    return ([unpack(K[:, j]) for j in range(K.shape[1])],
            [unpack(X[:, j]) if ok[j] else None for j in range(width)])


def same_solution(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


@pytest.mark.parametrize("name", ["D2", "D3/F2", "D3/F3", "T2", "N(2,3)"])
def test_pivot_rows_give_the_full_row_answers(name):
    mods = module_pool(name)
    p = mods[0].algebra.p
    rng = random.Random(f"rows {name}")
    seen = set()
    for _ in range(30):
        pairs = [(rng.choice(mods), rng.choice(mods)) for _ in range(rng.randint(1, 2))]
        width = rng.randint(1, 3)
        equations = module_map_equations(rng, mods, pairs, p, rng.randint(1, 3), width)
        sys_ = solver.FoldedSystem(p, dict(enumerate(pairs)), 0, len(pairs) - 1, width=width)
        for rhs, terms, pair in equations:
            sys_.add_equation(rhs if width > 1 else rhs[0], terms, pair)
        assert sum(len(b) for b in sys_.rows) == sum(
            len(modules.hom_pivots(*pair)) for _, _, pair in equations)
        kernel, solutions = full_row_answers(p, pairs, equations, width)
        got = kernel_solutions(sys_)
        assert len(got) == len(kernel)
        assert all(same_solution(a, b) for a, b in zip(got, kernel))
        each = sys_.solve_each()
        assert all(same_solution(a, b) for a, b in zip(each, solutions, strict=True))
        seen.update(s is None for s in each)
    assert seen == {True, False}


def test_module_equations_need_their_pair():
    k, A = fixtures.simple_k(), fixtures.regular_D2()
    sys_ = solver.FoldedSystem(2, {0: (A, k)}, 0, 0)
    rhs, terms = linalg.zeros(1, 2), [(linalg.eye(1), 0, linalg.eye(2))]
    with pytest.raises(ValidationError, match="module pair"):
        sys_.add_equation(rhs, terms)
    with pytest.raises(ValidationError, match="shape of its module pair"):
        sys_.add_equation(rhs, terms, (k, A))
    sys_.add_equation(rhs, terms, (A, k))
    assert [len(block) for block in sys_.rows] == [1]  # Hom(A, k) is 1-dimensional


def every_entry(M, N):
    return np.arange(N.dim * M.dim)


def periodic_pairs():
    for n, p in [(3, 2), (3, 3), (4, 2)]:
        alg = truncated_polynomial(n, p)
        T = [periodic_complex(alg, j) for j in range(1, n)]
        for X, Y in itertools.product(T, repeat=2):
            yield X, complexes.reindex(Y, 1)


def bounded_pairs():
    rng = random.Random(12)
    for _ in range(6):
        yield random_d2_complex(rng), random_d2_complex(rng)


def system_window(X, Y):
    """(lo, hi, fold) of the systems of (X, Y) below."""
    if X.bounded() or Y.bounded():
        B = X if X.bounded() else Y
        return B.lo - 2, B.hi + 2, 0
    return min(X.lo, Y.lo) - 2, max(X.hi, Y.hi) + 2, 2


def systems(X, Y, build=solver.graded_system):
    """The chain-map system of (X, Y) and the homotopy system of its basis."""
    window = system_window(X, Y)
    basis, _ = solver.chain_map_space_basis(X, Y)
    out = [build(X, Y, 0, *window)]
    if basis:
        out.append(build(X, Y, 1, *window, basis))
    return out


def test_chain_map_and_homotopy_systems_match_their_full_row_versions(monkeypatch):
    cases = list(periodic_pairs()) + list(bounded_pairs())
    restricted = [systems(X, Y) for X, Y in cases]
    monkeypatch.setattr(modules, "hom_pivots", every_entry)
    full = [systems(X, Y) for X, Y in cases]
    smaller = 0
    for ours, theirs in zip(restricted, full, strict=True):
        for a, b in zip(ours, theirs, strict=True):
            smaller += sum(map(len, a.rows)) < sum(map(len, b.rows))
            ka, kb = kernel_solutions(a), kernel_solutions(b)
            assert len(ka) == len(kb) and all(map(same_solution, ka, kb))
            assert all(map(same_solution, a.solve_each(), b.solve_each()))
    assert smaller


def every_equation(X, Y, shift, lo, hi, fold, maps=()):
    """solver.graded_system writing every equation, one per degree of
    lo - fold .. hi + fold, read through the accessors."""
    p = X.algebra.p
    sys_ = solver.FoldedSystem(p, {n: (X.term(n), Y.term(n + shift)) for n in range(lo, hi + 1)},
                               lo, hi, fold, width=max(1, len(maps)))
    for n in range(lo - fold, hi + fold + 1):
        x, y, dX = X.term(n), Y.term(n + shift - 1), X.diff(n)
        rhs = (np.stack([f.component(n) for f in maps]) if maps
               else linalg.zeros(y.dim, x.dim))
        sys_.add_equation(rhs, [(Y.diff(n + shift), n, None),
                                (None, n - 1, dX if shift else (-dX) % p)], (x, y))
    return sys_


def test_each_distinct_equation_is_written_once():
    fewer = 0
    for X, Y in [*periodic_pairs(), *bounded_pairs()]:
        for ours, theirs in zip(systems(X, Y), systems(X, Y, every_equation), strict=True):
            fewer += sum(map(len, ours.rows)) < sum(map(len, theirs.rows))
            ka, kb = ours.kernel(), theirs.kernel()
            assert ka.keys() == kb.keys()
            assert all(np.array_equal(ka[n], kb[n]) for n in ka)
            assert all(map(same_solution, ours.solve_each(), theirs.solve_each()))
    assert fewer


def test_d4_homotopy_system_writes_four_rows_per_equation():
    alg = truncated_polynomial(4, 2)
    X = periodic_complex(alg, 1)
    f = identity_chain_map(X)
    sys_ = solver.graded_system(X, X, 1, -2, 3, 2, [f])
    # 10 equations, at -4..5; those at -2, -1 and 5 repeat the ones at -4,
    # -3 and 3 (the same folded unknowns and block objects) and are written
    # once; -1 repeats -3 because X's negative seam is the tail's block
    assert len(sys_.rows) == 7
    # Hom(A, A) over D4 has dimension 4; the matrices have 16 entries
    assert {block.shape for block in sys_.rows} == {(4, sys_.total)}
    assert sys_.total == 4 * 6


# -- checks stay independent of the shortcuts -------------------------------


def x_id(t_per):
    x = np.array([[0, 0], [1, 0]], dtype=np.int64)
    return complexes.chain_map_from_callable(t_per, t_per, 0, 0, lambda n: x, 1, 1)


def corrupted(solve_each, kind):
    """FoldedSystem.solve_each with the first component of each solution
    that can change changed, in the stack the solutions are rows of
    (sys_.solutions): by one entry ("entry"), which leaves Hom, or by its
    last hom basis matrix ("hom"), which stays a module map."""

    def wrong(sys_):
        out = solve_each(sys_)
        if any(comps is not None for comps in out):
            n = next(n for n in sys_.solutions if len(sys_.bases[n][1]))
            m = sys_.solutions[n]
            if kind == "entry":
                m[:, 0, 0] += 1
            else:
                m += sys_.bases[n][1][-1]
            m %= sys_.p
        return out

    return wrong


@pytest.mark.parametrize("kind", ["entry", "hom"])
def test_corrupted_homotopy_gives_unknown(monkeypatch, t_per, contractible, kind):
    maps = [x_id(t_per), identity_chain_map(contractible)]
    assert [homotopy.null_homotopy(f).verdict for f in maps] == [YES, YES]
    monkeypatch.setattr(solver.FoldedSystem, "solve_each",
                        corrupted(solver.FoldedSystem.solve_each, kind))
    for f in maps:
        res = homotopy.null_homotopy(f)
        assert res.verdict == UNKNOWN
        assert res.homotopy is None and res.certificate is None


@pytest.mark.parametrize("change", [np.array([[1, 0], [0, 0]]), linalg.eye(2)])
def test_wrong_certificate_fails(t_per, change):
    # the first change leaves Hom(A, A), the second is a module map
    f = x_id(t_per)
    res = homotopy.null_homotopy(f)
    assert homotopy.verify_certificate(res.certificate)
    s = res.homotopy
    m = (s.component(s.clo) + change) % 2
    bad = Homotopy(s.source, s.target, {**s.components, s.clo: m}, s.clo, s.chi, s.neg, s.pos)
    cert = Certificate("null-homotopy", {"map": f, "homotopy": bad})
    assert not homotopy.verify_certificate(cert)
    assert not cert.checked
