"""Complexes and structure maps built from checked inputs are checked by
construction: they carry the mark, pass an explicit validate, and cost
no run of the check engine; an unmarked input is checked as before."""

import dataclasses
import random

import numpy as np
import pytest

from conftest import (count_checks, mismatched_cone, named_algebra, random_chain_map,
                      random_combination, random_d2_complex, random_module)
from singeq import approx, complexes, fixtures, functors, linalg, modelcat, modules
from singeq.complexes import (ChainMap, Complex, Tail, cokernel_complex, cone,
                              direct_sum_complex, dual, dual_chain_map, identity_chain_map,
                              kernel_complex, reindex, two_sided_split, zero_chain_map)
from singeq.errors import ValidationError
from singeq.modules import ModuleMap


def random_complex(rng, alg) -> Complex:
    """K -> M -> N in degrees 2..0: g: M -> N a random module map and K
    its kernel."""
    M, N = random_module(rng, alg), random_module(rng, alg)
    g = random_combination(rng, modules.hom_stack(M, N), alg.p)
    K, incl = modules.kernel(ModuleMap(M, N, g))
    return Complex.build(alg, 0, 2, {0: N, 1: M, 2: K}, {1: g, 2: incl.matrix})


def checked_complexes(name: str, rng) -> list:
    """Checked complexes over one algebra, bounded and periodic; or the
    cone whose tails have periods 2 and 1 and a shift of it."""
    if name == "mismatched periods":
        C = mismatched_cone()
        return [C, reindex(C, 1)]
    alg = named_algebra(name)
    Xs = [random_complex(rng, alg), random_complex(rng, alg),
          *modelcat.default_family(alg).generators[:1]]
    if alg is fixtures.D2():
        Xs.append(random_d2_complex(rng))
    return Xs


def checked_inputs(name: str):
    """checked_complexes and their duals over the opposite algebra, each
    list with a random chain map between each pair of it."""
    rng = random.Random(name)
    Xs = checked_complexes(name, rng)
    sides = []
    for side in (Xs, [dual(X) for X in Xs]):
        maps = [random_chain_map(rng, X, Y) for X in side for Y in side]
        sides.append((side, maps))
    return sides


def construct(Xs, maps) -> list:
    """Every construction on the complexes Xs and the maps between them,
    flattened to the complexes and chain maps they return."""
    out = []
    for X in Xs:
        out += [reindex(X, 1), reindex(X, -1), dual(X),
                *two_sided_split(X, X.lo), *two_sided_split(X, X.lo + 1)]
        for Y in Xs:
            out += direct_sum_complex(X, Y)
    for f in maps:
        out += [cone(f), *kernel_complex(f), *cokernel_complex(f), dual_chain_map(f)]
    return out


class TestSoundness:
    @pytest.mark.parametrize("name", ["D2", "T2", "D3/F2", "D3/F3", "mismatched periods"])
    def test_every_marked_object_passes_validate(self, name, monkeypatch):
        sides = checked_inputs(name)
        marked = []
        proven = complexes._proven
        monkeypatch.setattr(complexes, "_proven", lambda x: marked.append(x) or proven(x))
        calls = count_checks(monkeypatch)
        outputs = [x for Xs, maps in sides for x in construct(Xs, maps)]
        assert not calls and marked
        assert all(x._checked for x in outputs)
        monkeypatch.undo()
        for x in {id(x): x for x in outputs + marked}.values():
            x.validate()

    def test_replace_of_a_marked_complex_is_unmarked(self):
        X = random_d2_complex(random.Random(1))
        assert X._checked and reindex(X, 1)._checked
        assert not dataclasses.replace(X)._checked
        assert not dataclasses.replace(reindex(X, 1))._checked
        unbuilt = Complex.build(X.algebra, X.lo, X.hi, X.terms, X.diffs, validate=False)
        assert not unbuilt._checked


def tail_with_nonzero_d_squared() -> Complex:
    """An unmarked complex A over D2 at 0 whose positive tail A -1-> A
    has d*d = 1."""
    A, one = fixtures.regular_D2(), linalg.eye(2)
    return Complex(fixtures.D2(), 0, 0, {0: A}, {}, None, Tail(1, (A,), (one,)), None, one)


def not_commuting() -> ChainMap:
    """An unmarked map T_per -> T_per that is 1 at degree 0 only."""
    t_per = fixtures.t_per()
    return ChainMap(t_per, t_per, {0: linalg.eye(2)}, 0, 0)


def not_intertwining() -> ChainMap:
    """An unmarked map A -> k of stalks over D2 that is no module map."""
    SA, Sk = functors.stalk(fixtures.regular_D2()), functors.stalk(fixtures.simple_k())
    return ChainMap(SA, Sk, {0: np.array([[1, 1]])}, 0, 0)


# each construction on an unmarked invalid input, with the error it raises
INVALID = {
    "reindex": (lambda: reindex(tail_with_nonzero_d_squared(), 1),
                r"^d\*d != 0 at degree 3$"),
    "dual": (lambda: dual(tail_with_nonzero_d_squared()), r"^d\*d != 0 at degree -2$"),
    "direct_sum_left": (lambda: direct_sum_complex(tail_with_nonzero_d_squared(),
                                                   fixtures.t_per()),
                        r"^d\*d != 0 at degree 2$"),
    "direct_sum_right": (lambda: direct_sum_complex(fixtures.t_per(),
                                                    tail_with_nonzero_d_squared()),
                         r"^d\*d != 0 at degree 2$"),
    "cone_of_identity": (lambda: cone(identity_chain_map(tail_with_nonzero_d_squared())),
                         r"^d\*d != 0 at degree 2$"),
    "cone": (lambda: cone(not_commuting()), r"^d\*d != 0 at degree 1$"),
    "cone_not_intertwining": (lambda: cone(not_intertwining()),
                              r"^differential at degree 1 does not intertwine action 1$"),
    "kernel": (lambda: kernel_complex(not_commuting()),
               r"^differential does not restrict to the kernel$"),
    "cokernel": (lambda: cokernel_complex(not_commuting()),
                 r"^differential does not descend to the cokernel$"),
    "kernel_of_zero": (lambda: kernel_complex(zero_chain_map(tail_with_nonzero_d_squared(),
                                                             fixtures.t_per())),
                       r"^d\*d != 0 at degree 2$"),
    "cokernel_of_zero": (lambda: cokernel_complex(zero_chain_map(
        fixtures.t_per(), tail_with_nonzero_d_squared())), r"^d\*d != 0 at degree 2$"),
    "two_sided_split": (lambda: two_sided_split(tail_with_nonzero_d_squared(), 0),
                        r"^d\*d != 0 at degree 2$"),
}


class TestUnmarkedInputs:
    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_an_invalid_input_raises_as_before(self, case):
        build, message = INVALID[case]
        with pytest.raises(ValidationError, match=message):
            build()

    def test_an_unmarked_valid_input_is_checked(self, monkeypatch):
        X = random_d2_complex(random.Random(2))
        raw = Complex.build(X.algebra, X.lo, X.hi, X.terms, X.diffs, validate=False)
        calls = count_checks(monkeypatch)
        for build in (lambda: reindex(raw, 1), lambda: direct_sum_complex(raw, X),
                      lambda: cone(identity_chain_map(raw)),
                      lambda: kernel_complex(zero_chain_map(raw, X)),
                      lambda: two_sided_split(raw, 0)):
            calls.clear()
            out = build()
            first = out[0] if isinstance(out, tuple) else out
            assert calls and first._checked


def d2_cofibration(seed: int) -> ChainMap:
    """X -> X + C over D2, C contractible, as the pipeline builds it."""
    X = random_d2_complex(random.Random(seed), 3, 2)
    C = direct_sum_complex(reindex(fixtures.contractible_AA(), 1),
                           reindex(fixtures.contractible_AA(), 0))[0]
    return direct_sum_complex(X, C)[1]


class TestEngineRuns:
    def test_constructions_on_checked_inputs_run_no_check(self, monkeypatch):
        rng = random.Random(3)
        X, Y = random_d2_complex(rng), random_d2_complex(rng)
        f = random_chain_map(rng, X, Y)
        calls = count_checks(monkeypatch)
        direct_sum_complex(X, Y)
        cone(f)
        kernel_complex(f)
        cokernel_complex(f)
        assert not calls

    def test_a_stalk_is_checked_by_construction(self, monkeypatch):
        calls = count_checks(monkeypatch)
        S = functors.stalk(random_module(random.Random(6), fixtures.D2()))
        assert not calls and S._checked
        S.validate()

    def test_is_exact_on_a_checked_complex_runs_no_check(self, monkeypatch):
        X = random_d2_complex(random.Random(5))
        calls = count_checks(monkeypatch)
        exact = complexes.is_exact(X)
        assert not calls
        assert complexes.is_exact(dataclasses.replace(X)) == exact and calls

    # what is left: on the co side the two checks of the chain-map basis
    # that orthogonal_certificate solves for; is_exact takes d*d = 0 on
    # the marked cokernel as known
    @pytest.mark.parametrize("tag, runs", [("ctr", 0), ("co", 2)])
    def test_classify_map_checks_no_derived_object(self, tag, runs, monkeypatch):
        fam = modelcat.default_family(fixtures.D2())
        modelcat.classify_map(d2_cofibration(4), tag, fam)  # fills the family's memos
        iX = d2_cofibration(4)
        calls = count_checks(monkeypatch)
        modelcat.classify_map(iX, tag, fam)
        assert len(calls) == runs


class TestReplacementCache:
    def test_a_hit_on_a_checked_stalk_runs_no_check(self, monkeypatch):
        k = fixtures.simple_k()
        first = approx.stalk_replacement(functors.stalk(k), "cofibrant_ctr")
        S = functors.stalk(modules.Module(k.algebra, k.dim, k.action))
        calls = count_checks(monkeypatch)
        hit = approx.stalk_replacement(S, "cofibrant_ctr")
        assert not calls and hit.map._checked and hit.map.target is S
        assert np.array_equal(hit.map.component(0), first.map.component(0))
        hit.map.validate()

    def test_a_hit_on_an_unmarked_stalk_is_checked(self, monkeypatch):
        k = fixtures.simple_k()
        approx.stalk_replacement(functors.stalk(k), "fibrant_co")
        S = Complex.build(k.algebra, 0, 0, {0: k}, {}, validate=False)
        calls = count_checks(monkeypatch)
        hit = approx.stalk_replacement(S, "fibrant_co")
        assert calls and hit.map._checked and hit.map.source is S
