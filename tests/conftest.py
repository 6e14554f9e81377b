"""Shared fixtures and seeded random generators for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from singeq import algebra, complexes, fixtures, linalg, modules
from singeq.complexes import Complex, chain_map
from singeq.modules import Module


@pytest.fixture(scope="session")
def D2():
    return fixtures.D2()


@pytest.fixture(scope="session")
def F2():
    return fixtures.F2()


@pytest.fixture(scope="session")
def T2():
    return fixtures.T2()


@pytest.fixture(scope="session")
def k():
    return fixtures.simple_k()


@pytest.fixture(scope="session")
def A():
    return fixtures.regular_D2()


@pytest.fixture(scope="session")
def t_per():
    return fixtures.t_per()


@pytest.fixture(scope="session")
def contractible():
    return fixtures.contractible_AA()


# -- truncated polynomial algebras D_n = F_p[x]/(x^n) ------------------


def truncated_polynomial(n: int, p: int) -> algebra.Algebra:
    """F_p[x]/(x^n) in the basis 1, x, ..., x^(n-1)."""
    mul = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n - i):
            mul[i, j, i + j] = 1
    alg = algebra.Algebra(algebra.Field(p), n, tuple(f"x^{i}" for i in range(n)),
                          mul, linalg.eye(n)[0], (0,), tuple(range(1, n)),
                          name=f"D{n}/F{p}")
    alg.validate()
    return alg


def periodic_complex(alg, j):
    """T_j = (... -> A -x^j-> A -x^(n-j)-> A -> ...), d_even = x^j."""
    n = alg.dim
    A = modules.regular_module(alg)
    xj, xnj = alg.left_multiplication(j), alg.left_multiplication(n - j)
    return complexes.complex_from_callable(
        alg, 0, 1, lambda d: A, lambda d: xj if d % 2 == 0 else xnj, 2, 2)


def mismatched_cone():
    """Cone of the identity of a complex over D4 whose negative tail has
    period 2 (x, x^3) and whose positive tail has period 1 (x^2)."""
    alg = truncated_polynomial(4, 2)
    A = modules.regular_module(alg)
    x = alg.left_multiplication

    def diff(n):
        if n >= 1:
            return (x(1) @ x(1)) % 2
        return x(1) if n % 2 else (x(1) @ x(1) @ x(1)) % 2

    X = complexes.complex_from_callable(alg, 0, 1, lambda n: A, diff, 2, 1)
    return complexes.cone(complexes.identity_chain_map(X))


# -- seeded generators over any algebra --------------------------------


def random_invertible(rng: random.Random, d: int, p: int) -> np.ndarray:
    while True:
        g = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(d)],
                     dtype=np.int64).reshape(d, d)
        if linalg.rank(g, p) == d:
            return g


def random_combination(rng: random.Random, H: np.ndarray, p: int) -> np.ndarray:
    """A random element of the span of the stacked basis H."""
    return sum((rng.randrange(p) * h for h in H), linalg.zeros(*H.shape[1:])) % p


def module_map_equations(rng: random.Random, mods: list, pairs: list, p: int,
                         count: int, width: int = 1) -> list:
    """count equations (stacked rhs, terms, pair) sum M u_k N = rhs over
    unknowns u_k in Hom(pairs[k]).  M and N are random module maps, so the
    terms and the width right-hand sides are module maps between the
    modules of pair, drawn from mods; each right-hand side is the image
    of random module maps or a random module map."""
    equations = []
    for _ in range(count):
        pair = (rng.choice(mods), rng.choice(mods))
        terms = []
        for k in rng.sample(range(len(pairs)), rng.randint(1, len(pairs))):
            S, T = pairs[k]
            terms.append((random_combination(rng, modules.hom_stack(T, pair[1]), p), k,
                          random_combination(rng, modules.hom_stack(pair[0], S), p)))
        rhs = []
        for _ in range(width):
            if rng.randint(0, 1):
                r = linalg.zeros(pair[1].dim, pair[0].dim)
                for M, k, N in terms:
                    u = random_combination(rng, modules.hom_stack(*pairs[k]), p)
                    r = (r + M @ u @ N) % p
            else:
                r = random_combination(rng, modules.hom_stack(*pair), p)
            rhs.append(r)
        equations.append((np.stack(rhs), terms, pair))
    return equations


# -- seeded generators over D2 ----------------------------------------


def random_d2_module(rng: random.Random, max_dim: int = 3) -> Module:
    """Random D2-module: a square-zero matrix gives the x-action."""
    alg = fixtures.D2()
    d = rng.randint(0, max_dim)
    if d == 0:
        return modules.zero_module(alg)
    while True:
        N = np.array([[rng.randint(0, 1) for _ in range(d)] for _ in range(d)],
                     dtype=np.int64)
        if not ((N @ N) % 2).any():
            break
    M = Module(alg, d, (linalg.eye(d), N))
    M.validate()
    return M


def random_hom_element(rng: random.Random, M: Module, N: Module):
    """Random A-linear map M -> N as a matrix (possibly zero)."""
    basis = modules.hom_basis(M, N)
    out = linalg.zeros(N.dim, M.dim)
    for f in basis:
        if rng.randint(0, 1):
            out = (out + f.matrix) % 2
    return out


def random_d2_complex(rng: random.Random, max_len: int = 4,
                      max_dim: int = 3) -> Complex:
    """Random bounded complex over D2 with A-linear differentials.

    Differentials are drawn degree by degree from the subspace of hom
    elements whose composite with the previous differential vanishes.
    """
    alg = fixtures.D2()
    length = rng.randint(1, max_len)
    terms = {n: random_d2_module(rng, max_dim) for n in range(length)}
    diffs = {}
    prev = None
    for n in range(1, length):
        basis = modules.hom_basis(terms[n], terms[n - 1])
        if prev is not None:
            basis = [f for f in basis if not ((prev @ f.matrix) % 2).any()]
            # the compatible maps form a subspace; restricting the basis by
            # membership is only sound after re-extracting a spanning set
            basis = _subspace_basis(basis, prev)
        d = linalg.zeros(terms[n - 1].dim, terms[n].dim)
        for f in basis:
            if rng.randint(0, 1):
                d = (d + f.matrix) % 2
        diffs[n] = d
        prev = d
    return Complex.build(alg, 0, length - 1, terms, diffs)


def _subspace_basis(basis, prev):
    """Hom-basis of the maps killed by composition with ``prev``."""
    if not basis:
        return []
    vecs = np.column_stack([((prev @ f.matrix) % 2).flatten() for f in basis])
    K = linalg.kernel_basis(vecs % 2, 2)
    out = []
    for j in range(K.shape[1]):
        m = sum(int(K[i, j]) * basis[i].matrix for i in range(len(basis))) % 2
        out.append(modules.ModuleMap(basis[0].source, basis[0].target, m))
    return out


def random_contractible(rng: random.Random, max_dim: int = 3) -> Complex:
    """Cone of the identity on a random complex; exact by construction."""
    W = random_d2_complex(rng, 2, max_dim)
    return complexes.cone(complexes.identity_chain_map(W))


def mono_quasi_iso(rng: random.Random):
    """The inclusion X -> X + C with C contractible: mono quasi-iso."""
    X = random_d2_complex(rng)
    C = random_contractible(rng)
    _, iX, _, _, _ = complexes.direct_sum_complex(X, C)
    return iX


def random_chain_map(rng: random.Random, X: Complex, Y: Complex):
    """Random element of the (periodic-tailed) chain-map space X -> Y."""
    from singeq import solver

    basis, _ = solver.chain_map_space_basis(X, Y)
    if not basis:
        return complexes.zero_chain_map(X, Y)
    out = complexes.zero_chain_map(X, Y)
    for f in basis:
        if rng.randint(0, 1):
            out = complexes.add_maps(out, f)
    return out
