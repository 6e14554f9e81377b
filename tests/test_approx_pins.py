"""Pinned bits of the approximation machinery.

sha256 digests of every GP and GI approximation triple, every stalk
replacement and the default generator family over five Gorenstein
algebras, on the simple modules, their first syzygies, the regular
module, and over T2 and T_2(D_2) the same modules in seeded random bases.
A change to how approx resolves its modules must leave every bit here
unchanged: actions, matrices, complexes, maps, witnesses and verdicts,
piece verdicts too.  The orthogonality certificate pairs of the pieces
have a digest of their own, the last: a change of the route that asks a
piece's orthogonality (the fibrant pieces are asked over A^op) moves it
and nothing else.
"""

import hashlib
import random

import pytest

from conftest import random_invertible, triangular_d2, truncated_polynomial
from singeq import approx, fixtures, functors, linalg, modelcat, modules
from singeq.complexes import Complex
from test_duality import block_bits, map_bits


def module_bits(M):
    return M.dim, M.stacked_action.shape, M.stacked_action.tobytes()


def module_map_bits(f):
    return module_bits(f.source), module_bits(f.target), f.matrix.shape, f.matrix.tobytes()


def triple_bits(t):
    out = [t.side, t.finite_dim, *map(module_bits, (t.left, t.mid, t.right)),
           module_map_bits(t.mono), module_map_bits(t.epi)]
    if t.side == "GP-precover":  # the complete resolution of its middle term
        res = t.resolution
        out.append(block_bits(res if isinstance(res, Complex) else res[0]))
    return out


def piece_bits(r):
    pairs = r.certificate.payload["pairs"] if r.certificate else []
    return [(map_bits(f), map_bits(s)) for f, s in pairs]


def replacement_bits(r):
    return (r.which, r.verdict, block_bits(r.object), map_bits(r.map),
            module_map_bits(r.witness), triple_bits(r.triple),
            r.upper.verdict, r.lower.verdict)


def family_bits(fam):
    return ([block_bits(T) for T in fam.generators], fam.shift_range,
            fam.injective and [block_bits(T) for T in fam.injective.generators])


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def probes(alg, rebases: int):
    """The simple modules, their first syzygies and the regular module,
    then rebases rounds of each nonzero one in a random basis.  Seed 15
    puts two regular modules of T_2(D_2) in bases where the GI triple
    depends on which mono a projective module gets in the pushout."""
    simples = modules.simple_modules(alg)
    mods = [*simples, *(modules.syzygy(S, 1) for S in simples), modules.regular_module(alg)]
    rng, p, out = random.Random(15), alg.p, list(mods)
    for _ in range(rebases):
        for M in mods:
            if M.dim:
                g = random_invertible(rng, M.dim, p)
                g_inv = linalg.invert(g, p)
                out.append(modules.Module(alg, M.dim, tuple((g_inv @ a @ g) % p
                                                            for a in M.action)))
    return out


def t2_t2_d2():
    return fixtures.upper_triangular(triangular_d2(), "T2(T2(D2))")


# (builder, rounds of random bases, probes whose replacements are left
# out: over T_2(T_2(D_2)) the two simples whose replacements take longest)
ALGEBRAS = {
    "D2": (fixtures.D2, 0, ()),
    "D3/F3": (lambda: truncated_polynomial(3, 3), 0, ()),
    "T2": (fixtures.T2, 2, ()),
    "T2(D2)": (triangular_d2, 2, ()),
    "T2(T2(D2))": (t2_t2_d2, 0, (0, 3)),
}

PINNED = {
    "D2": ("54b8137d2b8e075f", "ee87f08fd5c8ae90", "5d2f5c3d0f7e0605", "00143f80abba1419"),
    "D3/F3": ("1688ade74f1ac1c2", "c8fce511fed54023", "f70ad262ec8ef3b3", "d9c6367ee0c7c61f"),
    "T2": ("a8a19be9486aec49", "f013873b334215e7", "e016a8cf0fadaa4c", "5e7b6b939b89b333"),
    "T2(D2)": ("a67c08c47ddbc98d", "879d3faf76b018c3", "534a7efb0df4e098", "96be674dec603241"),
    "T2(T2(D2))": ("c6c870b9a8359248", "7e080d0f63830436", "b3d726a12c470007", "a3bdbcb4a513f6f8"),
}


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_approximation_bits_are_pinned(name):
    build, rebases, skipped = ALGEBRAS[name]
    alg = build()
    family = family_bits(modelcat.default_family(alg))
    triples, replacements, pieces = [], [], []
    for i, M in enumerate(probes(alg, rebases)):
        gi = approx._dual_triple(approx.gp_approximation(modules.dual_module(M)))
        triples += [triple_bits(approx.gp_approximation(M)), triple_bits(gi)]
        if i not in skipped:
            for which in ("cofibrant_ctr", "fibrant_co"):
                r = approx.stalk_replacement(functors.stalk(M), which)
                replacements.append(replacement_bits(r))
                pieces += [piece_bits(r.upper), piece_bits(r.lower)]
    assert tuple(map(digest, (family, triples, replacements, pieces))) == PINNED[name]
