"""Metamorphic relations: verdicts that must not change when the input
changes in a way that keeps them.

Split sum.  For a contractible C, the inclusion X -> X + C and the
projection X + C -> X are homotopy equivalences: each is certified YES,
its certificate passes a fresh check, and asking again (a hit of the
remembered equivalence) gives YES with the same certificate digest.

Identity against value.  A dataclasses.replace copy of a complex X is a
new, unmarked object with X's value, so it gives X's answers whichever
of the two is asked first: the size and completeness flag of the basis
of chain maps out of it, the null-homotopy verdict of each basis map,
and the verdict on its identity as a homotopy equivalence.
"""

import dataclasses
import random

import pytest

from conftest import periodic_complex, random_contractible, random_d2_complex, truncated_polynomial
from singeq import cli, complexes, fixtures, homotopy, solver
from singeq.homotopy import YES

SEEDS = range(40)


def split_sum(X, seed: int):
    """(inclusion of X, projection to X) of X + C, C = random_contractible
    drawn from seed."""
    _, iX, _, pX, _ = complexes.direct_sum_complex(X, random_contractible(random.Random(seed)))
    return iX, pX


def certified_twice(f) -> list:
    """[verdict, digest] of f's equivalence certificate, asked twice (the
    second a hit), after a fresh check of the first certificate."""
    out = []
    for _ in range(2):
        res = homotopy.homotopy_equivalence_certificate(f)
        assert res.verdict == YES
        fresh = homotopy.Certificate(res.certificate.kind, dict(res.certificate.payload))
        assert homotopy.verify_certificate(fresh)
        out.append([res.verdict, cli.digest(res.certificate)])
    return out


class TestSplitSum:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_over_t_per(self, seed):
        for f in split_sum(fixtures.t_per(), seed):
            first, hit = certified_twice(f)
            assert first == hit

    @pytest.mark.parametrize("seed", SEEDS)
    def test_over_a_random_d2_complex(self, seed):
        X = random_d2_complex(random.Random(1000 + seed))
        for f in split_sum(X, seed):
            first, hit = certified_twice(f)
            assert first == hit


def fresh_pair(case: str) -> tuple:
    """A new pair (X, Y) of complexes, on each call: random D2 complexes
    ("D2 <seed>"), T_per to itself, or T_1 -> T_2 over D3/F2."""
    if case == "T_per":
        X = dataclasses.replace(fixtures.t_per())
        return X, X
    if case == "T_1 -> T_2":
        D3 = truncated_polynomial(3, 2)
        return periodic_complex(D3, 1), periodic_complex(D3, 2)
    rng = random.Random(int(case.split()[1]))
    return random_d2_complex(rng), random_d2_complex(rng)


def answers(X, Y) -> tuple:
    """(basis size, complete flag, null-homotopy verdict per basis map,
    identity-equivalence verdict) of X, with maps into Y."""
    basis, complete = solver.chain_map_space_basis(X, Y)
    equivalence = homotopy.homotopy_equivalence_certificate(complexes.identity_chain_map(X))
    return (len(basis), complete, [r.verdict for r in homotopy.null_homotopies(basis)],
            equivalence.verdict)


class TestIdentityAgainstValue:
    @pytest.mark.parametrize("copy_first", [False, True])
    @pytest.mark.parametrize("case", [f"D2 {seed}" for seed in range(12)]
                             + ["T_per", "T_1 -> T_2"])
    def test_a_replace_copy_gives_the_answers_of_the_original(self, case, copy_first):
        X, Y = fresh_pair(case)
        copy = dataclasses.replace(X)
        assert copy is not X and not copy._checked
        first, second = (copy, X) if copy_first else (X, copy)
        asked = [answers(first, Y), answers(second, Y)]
        assert asked[0] == asked[1]
