"""One object per input: reindex, direct_sum_complex and zero_complex
return the object built the first time, kept on their source and gone
with it, and the structure maps of a sum of checked summands carry their
kernels and cokernels, the summands or the zero complex, which equal the
ones computed degree by degree."""

import dataclasses
import gc
import random
import weakref

import numpy as np
import pytest

from conftest import periodic_complex as T_j
from conftest import (count_checks, in_new_process, random_contractible, random_d2_complex,
                      random_module, truncated_polynomial)
from singeq import complexes, equiv, fixtures, functors, homotopy, modelcat, modules
from singeq.complexes import (cokernel_complex, cone, direct_sum_complex, identity_chain_map,
                              kernel_complex, reindex)
from singeq.config import Options


def d2_inclusion(seed: int):
    """X -> X + C over D2, C contractible, as the pipeline builds it."""
    X = random_d2_complex(random.Random(seed), 3, 2)
    return direct_sum_complex(X, reindex(fixtures.contractible_AA(), 1))[1]


def summands(name: str) -> list:
    """Checked complexes over one algebra, each a new object."""
    rng = random.Random(5)
    if name == "D2":
        return [random_d2_complex(rng, 3, 2), random_d2_complex(rng),
                random_contractible(rng), fixtures.t_per()]
    if name == "T2":
        A = modules.regular_module(fixtures.T2())
        return [functors.stalk(random_module(rng, fixtures.T2())),
                cone(identity_chain_map(functors.stalk(A))), functors.stalk(A)]
    D3 = truncated_polynomial(3, 2)
    return [T_j(D3, 1), T_j(D3, 2), reindex(T_j(D3, 1), 1)]


def flags(c: modelcat.MapClassification) -> tuple:
    return c.cofibration, c.trivial_cofibration, c.fibration, c.trivial_fibration


def assert_equal_pairs(short: tuple, computed: tuple, f) -> None:
    """(complex, map) pairs equal in terms, differentials and maps at every
    degree of the check ranges of f and of both maps."""
    (K, k), (L, l) = short, computed
    ranges = [g.check_range() for g in (f, k, l)]
    for n in range(min(a for a, _ in ranges), max(b for _, b in ranges) + 1):
        s, t = K.term(n), L.term(n)
        assert s.dim == t.dim and np.array_equal(s.stacked_action, t.stacked_action), n
        assert np.array_equal(K.diff(n), L.diff(n)), n
        assert np.array_equal(k.component(n), l.component(n)), n


class TestIdentity:
    def test_a_shift_is_built_once(self):
        X = random_d2_complex(random.Random(1))
        for k in (-2, 1, 3):
            assert reindex(X, k) is reindex(X, k) is not X
        assert reindex(X, 0) is X

    def test_a_sum_is_built_once(self):
        rng = random.Random(2)
        X, Y = random_d2_complex(rng), random_d2_complex(rng)
        first = direct_sum_complex(X, Y)
        again = direct_sum_complex(X, Y)
        assert len(first) == 5 and all(a is b for a, b in zip(first, again))
        assert direct_sum_complex(Y, X)[0] is not first[0]

    def test_one_zero_complex_per_algebra_and_no_check(self, monkeypatch):
        calls = count_checks(monkeypatch)
        A = truncated_polynomial(4, 3)  # a new algebra, whose memo is empty
        Z = complexes.zero_complex(A)
        assert Z is complexes.zero_complex(A) and Z._checked
        assert not calls
        Z.validate()


class TestLifetime:
    def test_shifts_and_sums_go_with_their_source(self):
        rng = random.Random(3)
        X, Y = random_d2_complex(rng), random_d2_complex(rng)
        shift, (S, *maps) = reindex(X, 1), direct_sum_complex(X, Y)
        refs = [weakref.ref(o) for o in (X, Y, shift, S, *maps)]
        # the entry on X holds Y through its maps
        del Y, maps
        gc.collect()
        assert refs[1]() is not None and direct_sum_complex(X, refs[1]())[0] is S
        # what is built from X does not hold X
        del X
        gc.collect()
        assert refs[0]() is None and refs[1]() is None
        assert [r() for r in refs[2:4]] == [shift, S]
        del shift, S
        gc.collect()
        assert all(r() is None for r in refs)

    def test_a_kept_summand_keeps_no_sum(self):
        rng = random.Random(4)
        X, Y = random_d2_complex(rng), random_d2_complex(rng)
        entry = direct_sum_complex(X, Y)
        refs = [weakref.ref(o) for o in (X, *entry)]
        del X, entry
        gc.collect()
        assert all(r() is None for r in refs) and not Y._built


class TestSplitKernels:
    @pytest.mark.parametrize("name", ["D2", "T2", "D3"])
    def test_short_cuts_equal_the_computed_ones(self, name):
        Xs = summands(name)
        zero = complexes.zero_complex(Xs[0].algebra)
        for X in Xs:
            for Y in Xs[:3]:
                S, iX, iY, pX, pY = direct_sum_complex(X, Y)
                assert cokernel_complex(iX) == (Y, pY) and kernel_complex(pY) == (X, iX)
                assert cokernel_complex(iY) == (X, pX) and kernel_complex(pX) == (Y, iY)
                for f, short, computed in (
                        (iX, kernel_complex, complexes._kernel_complex),
                        (iX, cokernel_complex, complexes._cokernel_complex),
                        (iY, kernel_complex, complexes._kernel_complex),
                        (iY, cokernel_complex, complexes._cokernel_complex),
                        (pX, kernel_complex, complexes._kernel_complex),
                        (pX, cokernel_complex, complexes._cokernel_complex),
                        (pY, kernel_complex, complexes._kernel_complex),
                        (pY, cokernel_complex, complexes._cokernel_complex)):
                    assert_equal_pairs(short(f), computed(f), f)
                for f, short in ((iX, kernel_complex), (iY, kernel_complex),
                                 (pX, cokernel_complex), (pY, cokernel_complex)):
                    assert short(f)[0] is zero

    def test_unchecked_summands_take_the_computed_path(self):
        rng = random.Random(6)
        X, Y = (dataclasses.replace(random_d2_complex(rng)) for _ in range(2))
        iX = direct_sum_complex(X, Y)[1]
        assert not {"_kernel", "_cokernel"} & set(vars(iX))
        assert cokernel_complex(iX)[0] is not Y

    def test_same_verdicts_on_a_copy_that_computes(self):
        fam = modelcat.default_family(fixtures.D2())
        for f in (d2_inclusion(8), *direct_sum_complex(
                random_contractible(random.Random(9)), fixtures.t_per())[1:]):
            copy = dataclasses.replace(f)
            assert not {"_kernel", "_cokernel"} & set(vars(copy))
            for tag in modelcat.TAGS:
                both = [flags(modelcat.classify_map(g, tag, fam)) for g in (f, copy)]
                assert [flag.verdict for flag in both[0]] == [flag.verdict for flag in both[1]]
                for fs in both:
                    for cert in [flag.certificate for flag in fs]:
                        if isinstance(cert, homotopy.Certificate):
                            fresh = homotopy.Certificate(cert.kind, cert.payload)
                            assert homotopy.verify_certificate(fresh)
                        elif cert is not None:
                            dataclasses.replace(cert).validate()


def verdicts(bounds: list) -> list:
    """Per homotopy_period_bound in bounds (None: the default), the
    classification verdicts of a direct-sum inclusion per tag and the
    verdict of a side-P round trip on a shift of T_per."""
    out = []
    for m in bounds:
        options = Options() if m is None else Options(homotopy_period_bound=m)
        fam = modelcat.default_family(fixtures.D2(), options)
        f = d2_inclusion(10)
        out.append([[flag.verdict for flag in flags(modelcat.classify_map(f, tag, fam, options))]
                    for tag in modelcat.TAGS])
        out.append(equiv.verify_round_trip(reindex(fixtures.t_per(), -1), "P", None,
                                           options).verdict)
    return out


def test_memos_are_keyed_on_the_options():
    cold = in_new_process("test_construction_memo", "verdicts([0])") + \
        in_new_process("test_construction_memo", "verdicts([None])")
    assert verdicts([0, None]) == cold
