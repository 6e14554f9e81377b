"""Metamorphic relations: verdicts that must not change when the input
changes in a way that keeps them.

Split sum.  For a contractible C, the inclusion X -> X + C and the
projection X + C -> X are homotopy equivalences: each is certified YES,
its certificate passes a fresh check, and asking again (a hit of the
remembered equivalence) gives YES with the same certificate digest.
"""

import random

import pytest

from conftest import random_contractible, random_d2_complex
from singeq import cli, complexes, fixtures, homotopy
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
