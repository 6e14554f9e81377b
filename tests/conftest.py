"""Shared fixtures and seeded random generators for the test suite."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from singeq import algebra, check, complexes, fixtures, linalg, modules
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
    """F_p[x]/(x^n) in the basis 1, x, ..., x^(n-1), named Dn/Fp."""
    return fixtures.truncated_polynomial(n, p, f"D{n}/F{p}")


def triangular_d2() -> algebra.Algebra:
    """T_2(D_2): upper triangular 2x2 matrices over F_2[x]/(x^2), in the
    basis x^a e for a = 0, 1 and e = e11, e22, e12.  It is 1-Gorenstein,
    not self-injective, and of infinite global dimension."""
    return fixtures.upper_triangular(fixtures.D2(), "T2(D2)")


def named_algebra(name: str) -> algebra.Algebra:
    """A built-in algebra (D2, T2, F2), or D_n = F_p[x]/(x^n) written as
    Dn/Fp."""
    builtin = fixtures.BUILTIN_ALGEBRAS.get(name)
    if builtin:
        return builtin()
    n, p = name[1:].split("/F")
    return truncated_polynomial(int(n), int(p))


@pytest.fixture(scope="module", params=["D2", "T2", "D3/F2", "D3/F3", "D4/F2"])
def duality_algebra(request):
    """The algebras the derived injective side is tested over."""
    return named_algebra(request.param)


def periodic_complex(alg, j):
    """T_j = (... -> A -x^j-> A -x^(n-j)-> A -> ...), d_even = x^j."""
    n = alg.dim
    A = modules.regular_module(alg)
    xj, xnj = alg.left_multiplication(j), alg.left_multiplication(n - j)
    return complexes.complex_from_callable(
        alg, 0, 1, lambda d: A, lambda d: xj if d % 2 == 0 else xnj, 2, 2)


def equal_by_degrees(X, Y, periods=4):
    """Oracle for complexes.same_complex: one algebra, and equal term dimensions,
    actions and differentials at every degree from `periods` lcms of all
    tail periods below both windows to as many above them."""
    q = np.lcm.reduce([X.neg_period or 1, X.pos_period or 1,
                       Y.neg_period or 1, Y.pos_period or 1])
    degrees = range(min(X.lo, Y.lo) - periods * q, max(X.hi, Y.hi) + periods * q + 1)
    return X.algebra is Y.algebra and all(
        X.term(n).dim == Y.term(n).dim
        and all(np.array_equal(a, b) for a, b in zip(X.term(n).action, Y.term(n).action))
        and np.array_equal(X.diff(n), Y.diff(n)) for n in degrees)


def fresh_t_per():
    """A checked copy of T_per, whose memos start empty."""
    X = dataclasses.replace(fixtures.t_per())
    X.validate()
    return X


def t_per_with_period_2_tails():
    """T_per over the built-in D2, its tails declared with period 2."""
    A, x = fixtures.regular_D2(), fixtures.t_per().diff(0)
    tail = complexes.Tail(2, (A, A), (x, x))
    return complexes.Complex.build(fixtures.D2(), 0, 0, {0: A}, {}, tail, tail, x, x)


def alternating_tail_complex():
    """A in degree 0 over the built-in D2, and below it a negative tail of
    period 2 that alternates 0 (at -1, -3, ...) and A (at -2, -4, ...),
    with zero differentials: the terms of a map's own tail of period 1
    repeat only with period 2."""
    A, zero = fixtures.regular_D2(), modules.zero_module(fixtures.D2())
    tail = complexes.Tail(2, (zero, A), (linalg.zeros(2, 0), linalg.zeros(0, 2)))
    return complexes.Complex.build(fixtures.D2(), 0, 0, {0: A}, {}, tail, None,
                                   linalg.zeros(0, 2))


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


def kernel_solutions(sys_) -> list:
    """FoldedSystem.kernel split into one {degree: matrix} per basis
    solution."""
    stacks = sys_.kernel()
    return [{n: m[j] for n, m in stacks.items()} for j in range(len(stacks[sys_.lo]))]


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


def random_module(rng: random.Random, alg: algebra.Algebra, max_rank: int = 2) -> Module:
    """A random quotient of A^r by the submodule that random elements of
    its radical generate, in a random basis; half the time the dual of one
    over the opposite algebra instead, a submodule of an injective."""
    if rng.randint(0, 1):
        return modules.dual_module(random_module(rng, modules._opposite_of(alg), max_rank))
    p = alg.p
    F, _, _ = modules.direct_sum([modules.regular_module(alg)] * rng.randint(1, max_rank))
    rad = modules.radical_submodule_basis(F)
    count = rng.randint(0, 2)
    coeffs = np.array([[rng.randrange(p) for _ in range(count)] for _ in range(rad.shape[1])],
                      dtype=np.int64).reshape(rad.shape[1], count)
    gens = (rad @ coeffs) % p
    M, _ = modules.quotient_module(F, np.hstack([(a @ gens) % p for a in F.action]))
    g = random_invertible(rng, M.dim, p)
    g_inv = linalg.invert(g, p)
    return Module(alg, M.dim, tuple((g_inv @ a @ g) % p for a in M.action))


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


def count_checks(monkeypatch) -> list:
    """The calls of the check engine (check._first_failure) from now
    on, recorded."""
    calls = []
    engine = check._first_failure

    def counting(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(check, "_first_failure", counting)
    return calls


def count_calls(monkeypatch, owner, name: str) -> list:
    """The arguments of each call of owner.name from now on, recorded."""
    calls = []
    run = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(a) or run(*a, **k))
    return calls


def count_solves(monkeypatch) -> list:
    """The (X, Y, ...) of each graded system built from now on: one per
    chain-map solve whose memo missed."""
    from singeq import solver

    return count_calls(monkeypatch, solver, "graded_system")


def memo_digest(maps, complete=True) -> str:
    """Digest of a list of chain maps and a flag: per map in order its
    window, its window components and its tails' blocks."""
    h = hashlib.sha256(repr((complete, len(maps))).encode())
    for f in maps:
        tails = [t and (t[0], len(t[1])) for t in (f.neg, f.pos)]
        h.update(repr((f.clo, f.chi, sorted(f.components), tails)).encode())
        for m in [*f.components.values(), *(f.neg or (0, ()))[1], *(f.pos or (0, ()))[1]]:
            h.update(repr(m.shape).encode() + m.astype(np.int64).tobytes())
    return h.hexdigest()


def assert_one_table(h):
    """h carries the block table that its class's constructor builds from
    its components, neg and pos: the same frame and the same blocks, bit
    for bit (shape, dtype and entries)."""
    table = h._blocks
    fresh = type(h)(h.source, h.target, h.components, h.clo, h.chi, h.neg, h.pos)._blocks
    assert table[:4] == fresh[:4] and len(table.data) == len(fresh.data)
    assert all(a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
               for a, b in zip(table.data, fresh.data))


def reference_from_tables(S, T, profile, op, f, g):
    """The chain map complexes._from_tables(S, T, profile, op, f, g) is,
    made degree by degree: component n is op(f_n, g_n), on the window
    lo..hi of profile and one period of each of its tails, sampled block
    by block, and a tail whose blocks are all zero is no tail."""
    lo, hi, nq, pq = profile

    def at(n):
        return op(f.component(n)[None], g.component(n)[None])[0]

    def tail(q, degrees):
        blocks = tuple(at(n) for n in degrees)
        return (q, blocks) if any(b.any() for b in blocks) else None

    return complexes.ChainMap(S, T, {n: at(n) for n in range(lo, hi + 1)}, lo, hi,
                              tail(nq, range(lo - 1, lo - 1 - nq, -1)),
                              tail(pq, range(hi + 1, hi + pq + 1)))


def reference_inverse_check(payload: dict) -> bool:
    """The homotopy-inverse check as it was made with maps: f and g chain
    maps (one stacked check), then g f - 1 and f g - 1 built as chain
    maps and checked null-homotopic through hX and hY."""
    from singeq import homotopy
    from singeq.errors import ValidationError

    f, g = payload["map"], payload["inverse"]
    hX, hY = payload["homotopy_source"], payload["homotopy_target"]
    X, Y = f.source, f.target
    if g.source is not Y or g.target is not X:
        return False
    try:
        f.validate(g)
    except ValidationError:
        return False
    p = X.algebra.p
    profile = complexes._map_profile(f, g, X, Y)

    def minus_id(first, second, Z):
        return complexes._from_tables(
            Z, Z, profile, lambda a, b: (b @ a - linalg.eye(b.shape[1])) % p,
            first, second, checked=True)

    return homotopy.verify_null_homotopy(minus_id(f, g, X), hX, (minus_id(g, f, Y), hY))


def reference_factor_check(f, through, g, mode: str) -> bool:
    """The factorization check as it was made with maps: through . g
    ("lift") or g . through ("extend") built as a chain map, and its
    difference with f zero."""
    composite = complexes.compose(through, g) if mode == "lift" else complexes.compose(g, through)
    return complexes.add_maps(composite, f, sign=-1).is_zero()


def with_entry(h, n: int):
    """h (a chain map or homotopy) with 1 added to the first entry of its
    block at degree n: a window component, or the block of its negative
    tail that n reads, a tail of its table's period where h has none."""
    p = h.source.algebra.p
    comps, neg = dict(h.components), h.neg
    if n >= h.clo:
        unit = linalg.zeros(*comps[n].shape)
        unit[0, 0] = 1
        comps[n] = (comps[n] + unit) % p
    else:
        q = h._blocks.neg
        blocks = list(neg[1] if neg else [h.component(h.clo - 1 - i) for i in range(q)])
        i = (h.clo - 1 - n) % q
        unit = linalg.zeros(*blocks[i].shape)
        unit[0, 0] = 1
        blocks[i] = (blocks[i] + unit) % p
        neg = (q, tuple(blocks))
    return type(h)(h.source, h.target, comps, h.clo, h.chi, neg, h.pos)


def reference_lone_table(h) -> tuple:
    """(frame, blocks) of a lone graded map h not yet read, assembled
    straight from the blocks it keeps, with no family: at each degree of
    its frame (complexes._frame) the block given there, or the shared
    zero block where it has none; distinct given blocks of one shape read
    as rows of their concatenation."""
    window, neg, pos = vars(h)["_given"]
    S, T, k, clo, chi = h.source, h.target, h.shift, h.clo, h.chi
    nq, pq = neg[0] if neg else 0, pos[0] if pos else 0
    lo, hi, q, qp = frame = complexes._frame(S, T, k, clo, chi, nq, pq)
    blocks, zeros = [], {}
    for n in range(lo - q, hi + qp + 1):
        m = ((neg[1][(clo - 1 - n) % nq] if nq else None) if n < clo
             else (pos[1][(n - chi - 1) % pq] if pq else None) if n > chi else window[n - clo])
        if m is None:
            m = zeros[len(blocks)] = modules.zero_block(S.algebra, T.term(n + k).dim,
                                                        S.term(n).dim)
        blocks.append(m)
    groups, rows = {}, {}
    for b in {id(b): b for b in blocks}.values():
        groups.setdefault(b.shape, []).append(b)
    for g in groups.values():
        rows.update(zip(map(id, g), np.concatenate([b[None] for b in g]) if len(g) > 1 else g))
    return frame, [zeros[i] if i in zeros else rows[id(b)] for i, b in enumerate(blocks)]


def reference_from_stacks(kind, S, T, lo: int, hi: int, fold: int, stacks: dict) -> list:
    """The maps complexes._from_stacks makes of the solutions of a system
    on lo..hi folded with period fold, whose components at window degree
    n are stacks[n], laid out position by position of the frame: a window
    degree's stack, a folded tail degree's the stack of the window degree
    it folds to, past an unfolded window one zero stack (count, rows,
    cols) per shape; the family is complexes._family of these blocks, and
    each map's own tail periods are complexes._own_periods'."""
    k = len(stacks[lo])
    if not k:
        return []
    flo, fhi, nq, pq = frame = complexes._frame(S, T, kind.shift, lo, hi, fold, fold)
    blocks, zeros = [], {}
    for n in range(flo - nq, fhi + pq + 1):
        if lo <= n <= hi:
            blocks.append(stacks[n])
        elif fold:
            blocks.append(stacks[lo + (n - lo) % fold if n < lo else hi - (hi - n) % fold])
        else:
            shape = (k, T.term(n + kind.shift).dim, S.term(n).dim)
            if shape not in zeros:
                zeros[shape] = np.zeros(shape, dtype=np.int64)
            blocks.append(zeros[shape])
    family = complexes._family(frame, blocks)
    return complexes._members(kind, S, T, lo, hi, family,
                              complexes._own_periods(family, lo, hi, fold, fold))


def kept_block(kept: tuple, n: int) -> np.ndarray:
    """The block at degree n of the map a memo keeps (complexes._kept), as
    a view of its family column."""
    family, j = kept[2]
    s, r = family.slots.at(n)
    return family.arrays[s][r, j]


def assert_same_table(h, ref):
    """h and ref have one frame, own tail periods, blocks bit for bit
    (shape, dtype and entries) and value (complexes._value)."""
    assert h._blocks[:4] == ref._blocks[:4]
    assert (h.clo, h.chi, h.neg_period, h.pos_period) == \
        (ref.clo, ref.chi, ref.neg_period, ref.pos_period)
    assert len(h._blocks.data) == len(ref._blocks.data)
    assert all(a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
               for a, b in zip(h._blocks.data, ref._blocks.data))
    assert complexes._value(h) == complexes._value(ref)


def assert_views_of_stacks(h):
    """Every block of h's table is a view of its family's array at its
    slot, except where h has no block (outside its window and tails, or
    a component left out), which holds a zero block; and asking for a
    component twice gives the same object."""
    table = h._blocks
    family, member = h._column
    degrees = range(table.lo - table.neg, table.hi + table.pos + 1)
    for n, m, (s, r) in zip(degrees, table.data, family.slots.on(degrees)):
        if not m.size:
            continue  # no entries to share
        if m is modules.zero_block(h.source.algebra, *m.shape) or not np.shares_memory(
                m, family.arrays[s]):
            assert not m.any() and (m is modules.zero_block(h.source.algebra, *m.shape) or (
                not h.neg_period if n < h.clo else not h.pos_period if n > h.chi else False))
        else:
            assert np.array_equal(m, family.arrays[s][r, member])
    for n in range(h.clo - 2 * table.neg - 1, h.chi + 2 * table.pos + 2):
        assert h.component(n) is h.component(n)
    assert all(h.component(n) is m for n, m in h.components.items())


def in_new_process(module: str, call: str):
    """The JSON value of call, evaluated after `from module import *` in a
    new process, whose memos start empty."""
    here = os.path.dirname(os.path.abspath(__file__))
    paths = [os.path.join(os.path.dirname(here), "src"), here]
    code = ("import json, sys; sys.path[:0] = %r; from %s import *; print(json.dumps(%s))"
            % (paths, module, call))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout)


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
