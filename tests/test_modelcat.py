"""Membership flags, orthogonality certificates, classification, weak equivalences."""

import gc
import json
import os
import random
import subprocess
import sys
import weakref

import numpy as np
import pytest

from conftest import (count_calls, equal_by_degrees, in_new_process, kept_block,
                      periodic_complex, random_d2_complex, t_per_with_period_2_tails,
                      triangular_d2, truncated_polynomial)
from singeq import approx, cli, complexes, fixtures, functors, homotopy, modelcat, modules, solver
from singeq.config import Options
from singeq.errors import ValidationError
from singeq.complexes import (cone, direct_sum_complex, dual, identity_chain_map, reindex,
                              zero_chain_map)
from singeq.homotopy import NO, UNKNOWN, YES
from singeq.modelcat import CERTIFIED, REFUTED


@pytest.fixture(scope="module")
def fam():
    return modelcat.default_family(fixtures.D2())


class TestMembership:
    def test_t_per_flags(self, t_per):
        flags = modelcat.membership_flags(t_per)
        assert flags.in_exP and flags.in_exI
        assert not flags.in_tildeP and not flags.in_tildeI

    def test_contractible_flags(self, contractible):
        flags = modelcat.membership_flags(contractible)
        assert flags.in_exP and flags.in_exI
        assert flags.in_tildeP and flags.in_tildeI

    def test_stalk_flags(self, k):
        flags = modelcat.membership_flags(functors.stalk(k))
        assert not any((flags.in_exP, flags.in_exI,
                        flags.in_tildeP, flags.in_tildeI))


class TestOrthogonality:
    def test_projective_stalk_left_of_exI(self, A, fam):
        res = modelcat.orthogonal_certificate(dual(functors.stalk(A)), fam.opposite)
        assert res.verdict == CERTIFIED
        assert homotopy.verify_certificate(res.certificate)

    def test_t_per_not_right_of_exP(self, t_per, fam):
        res = modelcat.orthogonal_certificate(t_per, fam)
        assert res.verdict == REFUTED
        assert res.witness is not None
        # the witness is genuinely non-null-homotopic
        assert homotopy.null_homotopy(res.witness).verdict == NO

    def test_bounded_refutation_witness_matches_per_map_loop(self, k, contractible, fam):
        # maps from C[-1] + k into the shifts of T_per: those through the
        # contractible C[-1] are null-homotopic and come first in each
        # basis, those through k are not
        X = dual(complexes.direct_sum_complex(reindex(contractible, -1), functors.stalk(k))[0])
        res = modelcat.orthogonal_certificate(X, fam.opposite)
        assert res.verdict == REFUTED

        def first_refutation():
            for Tk in fam.opposite.shifts:
                for i, f in enumerate(solver.chain_map_space_basis(Tk, X)[0]):
                    if homotopy.null_homotopy(f).verdict == NO:
                        return Tk, i, f

        Tk, i, f = first_refutation()
        assert i > 0  # a null-homotopic map comes first in its basis
        w = res.witness
        assert w.source is Tk and (w.clo, w.chi) == (f.clo, f.chi)
        assert all(np.array_equal(w.component(n), f.component(n))
                   for n in range(f.clo - 2, f.chi + 3))

    def test_each_pair_is_checked_once(self, monkeypatch, A, fam):
        checked = []
        verify = homotopy.verify_null_homotopy

        def recording(f, s, *others):
            checked.extend([(f, s), *others])
            return verify(f, s, *others)

        monkeypatch.setattr(homotopy, "verify_null_homotopy", recording)
        res = modelcat.orthogonal_certificate(dual(functors.stalk(A)), fam.opposite)
        assert res.verdict == CERTIFIED and res.certificate.checked
        pairs = res.certificate.payload["pairs"]
        assert len(pairs) == 1  # the seven shifts of T_per are one complex
        def ids(pairs):
            return sorted((id(f), id(s)) for f, s in pairs)

        assert ids(checked) == ids(pairs)
        monkeypatch.undo()
        assert homotopy.verify_certificate(res.certificate)

    def test_failed_check_gives_unknown(self, monkeypatch, A, fam):
        def zero_homotopies(maps, m):
            return [homotopy.Homotopy(f.source, f.target, {}, 0, 0) for f in maps]

        monkeypatch.setattr(homotopy, "_homotopies", zero_homotopies)
        # a family of its own: an earlier test's certificate for the shared
        # one is remembered, and its pairs check again fine
        own = modelcat.GeneratorFamily(fam.generators, fam.shift_range)
        res = modelcat.orthogonal_certificate(dual(functors.stalk(A)), own.opposite)
        assert res.verdict == UNKNOWN and res.certificate is None

    def test_shifts_are_built_once_per_family(self, monkeypatch, A, fam):
        opp = fam.opposite
        assert len(opp.shifts) == 1  # the seven shifts of D(T_per) are one complex
        assert opp.shifts is opp.shifts

        def no_reindex(*args):
            raise AssertionError("shift rebuilt")

        monkeypatch.setattr(modelcat, "reindex", no_reindex)
        res = modelcat.orthogonal_certificate(dual(functors.stalk(A)), opp)
        assert res.verdict == CERTIFIED

    def test_zero_complex_both_sides(self, D2, fam):
        Z = complexes.zero_complex(D2)
        for X, side_fam in ((Z, fam), (dual(Z), fam.opposite)):
            assert modelcat.orthogonal_certificate(X, side_fam).verdict == CERTIFIED


def all_shift_runs(X, fam):
    """The loop of orthogonal_certificate over all 2r+1 shifts of each
    generator, none left out: (verdict, witness, [(T[k], its pairs)])
    for the shifts run before the verdict."""
    r, runs, unknown = fam.shift_range, [], False
    for T in fam.generators:
        for k in range(-r, r + 1):
            Tk = reindex(T, k)
            basis, _ = solver.chain_map_space_basis(Tk, X)
            pairs = []
            for f, res in zip(basis, homotopy.null_homotopies(basis)):
                if res.verdict == NO:
                    return REFUTED, f, runs
                if res.verdict == UNKNOWN:
                    unknown = True
                else:
                    pairs.append((f, res.homotopy))
            runs.append((Tk, pairs))
    return UNKNOWN if unknown else CERTIFIED, None, runs


def first_occurrences(complexes_):
    """The complexes, each that equals an earlier one left out."""
    out = []
    for X in complexes_:
        if not any(equal_by_degrees(X, Y) for Y in out):
            out.append(X)
    return out


def bits(g):
    """A graded map and its complexes' windows as plain values."""
    return (g.source.lo, g.source.hi, g.target.lo, g.target.hi, g.clo, g.chi, g.shift,
            [(n, m.shape, m.tobytes()) for n, m in sorted(g.components.items())],
            [t and (t[0], [(b.shape, b.tobytes()) for b in t[1]]) for t in (g.neg, g.pos)])


def shift_families():
    """(name, family, the distinct shifts of each side out of 2r+1 per
    generator)."""
    D3F2, D3F3 = truncated_polynomial(3, 2), truncated_polynomial(3, 3)
    return [
        ("D2", modelcat.default_family(fixtures.D2()), (7, 1)),
        ("T_1/D3F2", modelcat.GeneratorFamily((periodic_complex(D3F2, 1),)), (7, 2)),
        ("T_1/D3F3", modelcat.GeneratorFamily((periodic_complex(D3F3, 1),)), (7, 2)),
        ("T2(D2)", modelcat.default_family(triangular_d2()), (14, 2)),
        # complete resolutions whose windows are out of phase with their tails
        ("D3F2", modelcat.default_family(D3F2), (7, 7)),
        ("D4F2", modelcat.default_family(truncated_polynomial(4, 2)), (7, 7)),
    ]


def orthogonality_inputs(alg, T):
    """Complexes to test orthogonality of: stalks of the regular and the
    simple modules, a simple stalk in degree 2, a contractible complex plus
    a simple stalk (null-homotopic maps come first in each basis), and a
    generator T with its shift T[1]."""
    A = functors.stalk(modules.regular_module(alg))
    S = [functors.stalk(M) for M in modules.simple_modules(alg)]
    C = reindex(complexes.cone(identity_chain_map(A)), -1)
    return [A, *S, reindex(S[0], 2), complexes.direct_sum_complex(C, S[-1])[0],
            T, reindex(T, 1)]


class TestDistinctShifts:
    @pytest.mark.parametrize("name, fam, counts", shift_families(),
                             ids=[c[0] for c in shift_families()])
    def test_certificates_match_the_loop_over_every_shift(self, name, fam, counts):
        for side_fam in filter(None, (fam, fam.injective)):
            r = side_fam.shift_range
            every = [reindex(T, k) for T in side_fam.generators for k in range(-r, r + 1)]
            kept = first_occurrences(every)
            assert (len(every), len(kept)) == counts
            assert [(S.lo, S.hi) for S in side_fam.shifts] == [(S.lo, S.hi) for S in kept]
            assert all(equal_by_degrees(S, K) for S, K in zip(side_fam.shifts, kept))
        verdicts = []
        T = fam.generators[0]
        for X in orthogonality_inputs(T.algebra, T):
            for Y, side_fam in ((X, fam), (dual(X), fam.opposite)):
                verdict, witness, runs = all_shift_runs(Y, side_fam)
                res = modelcat.orthogonal_certificate(Y, side_fam)
                assert res.verdict == verdict
                verdicts.append(verdict)
                if verdict == REFUTED:
                    assert bits(res.witness) == bits(witness)
                if verdict == CERTIFIED:
                    # the pairs of each retained shift, bit for bit, each once
                    retained = first_occurrences([Tk for Tk, _ in runs])
                    expected = [(bits(f), bits(s)) for Tk, pairs in runs
                                if any(Tk is K for K in retained) for f, s in pairs]
                    got = [(bits(f), bits(s)) for f, s in res.certificate.payload["pairs"]]
                    assert got == expected
        assert CERTIFIED in verdicts and REFUTED in verdicts

    def test_shifts_stop_at_the_first_repeat(self, monkeypatch, t_per):
        # over F_2 T_per[-r + 1] is T_per[-r], and T_1 over D3 repeats with
        # period 2, so a range of a million builds two and three shifts;
        # what is kept is what the range 3 keeps, moved by 3 - r
        D3F2 = truncated_polynomial(3, 2)
        built = []
        reindex_ = modelcat.reindex
        monkeypatch.setattr(modelcat, "reindex", lambda T, k: built.append(k) or reindex_(T, k))
        r = 10 ** 6
        for T, count in ((t_per, 2), (periodic_complex(D3F2, 1), 3)):
            built.clear()
            far = modelcat.GeneratorFamily((T,), r).shifts
            assert built == list(range(-r, count - r))
            near = modelcat.GeneratorFamily((T,), 3).shifts
            assert len(far) == len(near) == count - 1
            assert all(equal_by_degrees(S, reindex_(K, 3 - r)) for S, K in zip(far, near))

    def test_a_repeated_generator_adds_no_shift(self, t_per):
        fam = modelcat.GeneratorFamily((t_per, reindex(t_per, 1), t_per_with_period_2_tails()))
        assert len(fam.shifts) == 1 and fam.shifts[0].lo == -3


def family_result(shift_range):
    """The default D2 family for shift_range and its orthogonality verdict
    for the stalk of the regular module, as plain values."""
    options = Options(shift_range=shift_range)
    fam = modelcat.default_family(fixtures.D2(), options)
    res = modelcat.orthogonal_certificate(
        dual(functors.stalk(fixtures.regular_D2())), fam.opposite, options)
    return [fam.shift_range, len(fam.generators), res.verdict,
            len(res.certificate.payload["pairs"])]


def cold_family_result(shift_range):
    """family_result in a new process, whose memos start empty."""
    paths = [os.path.dirname(os.path.dirname(modelcat.__file__)),
             os.path.dirname(__file__)]
    code = ("import json, sys; sys.path[:0] = %r; from test_modelcat import "
            "family_result; print(json.dumps(family_result(%d)))" % (paths, shift_range))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout)


class TestDefaultFamily:
    def test_shift_ranges_in_one_process_match_cold_runs(self):
        warm = [family_result(s) for s in (1, 2, 1)]
        cold = [cold_family_result(s) for s in (1, 2)]
        assert warm == [cold[0], cold[1], cold[0]]
        assert warm[0] != warm[1]

    def test_no_vacuous_trivial_fibration_over_the_cubic_algebra(self):
        # T_1 over D3 = F_2[x]/(x^3) is in exP and not contractible, so
        # T_1 -> 0 is no trivial fibration; an empty default family would
        # certify it with no pairs
        D3 = truncated_polynomial(3, 2)
        T = periodic_complex(D3, 1)
        assert homotopy.is_exP(T)
        assert homotopy.null_homotopy(identity_chain_map(T)).verdict == NO
        f = zero_chain_map(T, complexes.zero_complex(D3))
        for fam in (modelcat.default_family(D3), modelcat.GeneratorFamily((T,))):
            assert modelcat.classify_map(f, "ctr", fam).trivial_fibration.verdict == NO

    def test_one_generator_set_per_side_over_a_non_self_injective_algebra(self):
        # over the 1-Gorenstein T_2(D_2) complete resolutions are not
        # complexes of injectives, so the co side gets the dual generators;
        # none is contractible, so neither class is certified vacuously, and
        # on the co side the stable criterion on D(f) refutes it
        alg = triangular_d2()
        fam = modelcat.default_family(alg)
        assert len(fam.generators) == len(fam.injective.generators) == 2
        zero = complexes.zero_complex(alg)
        for T in fam.generators:
            assert homotopy.is_exP(T) and not homotopy.is_exI(T)
            cls = modelcat.classify_map(zero_chain_map(T, zero), "ctr", fam)
            assert cls.trivial_fibration.verdict == NO
        for J in fam.injective.generators:
            assert homotopy.is_exI(J) and not homotopy.is_exP(J)
            cls = modelcat.classify_map(zero_chain_map(zero, J), "co", fam)
            assert cls.trivial_cofibration.verdict == NO

    def test_empty_for_finite_global_dimension(self, F2, T2):
        for alg in (F2, T2):
            assert modelcat.default_family(alg).generators == ()


class TestCoRouteOverTriangularD2:
    """The co side's orthogonality is asked on duals over A^op, against
    GeneratorFamily.opposite; over the 1-Gorenstein T_2(D_2) the co side
    has generators of its own."""

    def test_the_opposite_family_is_what_the_default_family_dualized(self, monkeypatch):
        # a family of its own, whose opposite no other test builds
        fam = modelcat.default_family(triangular_d2(), Options(shift_range=2))
        resolutions = count_calls(monkeypatch, approx, "complete_resolution")
        opp = fam.opposite
        assert not resolutions and fam.opposite is opp
        assert len(opp.generators) == len(fam.injective.generators) == 2
        for O, J in zip(opp.generators, fam.injective.generators):
            assert dual(J) is O and dual(O) is J
            assert O.algebra is modules._opposite_of(J.algebra) and homotopy.is_exP(O)
        assert opp.shift_range == fam.injective.shift_range

    def test_a_generator_outside_exI_fails_its_check_on_the_co_side(self):
        # T is in exP and not in exI, so D(T) over A^op is not in exP
        T = modelcat.default_family(triangular_d2()).generators[0]
        own = modelcat.GeneratorFamily((T,))
        f = identity_chain_map(T)
        assert f.is_mono() and homotopy.is_exP(T) and not homotopy.is_exI(T)
        assert modelcat.classify_map(f, "ctr", own).trivial_fibration.verdict == YES
        with pytest.raises(ValidationError, match="generator fails its own membership check"):
            modelcat.classify_map(f, "co", own)

    def test_a_co_refutation_is_a_map_over_the_opposite_algebra(self):
        alg = triangular_d2()
        fam = modelcat.default_family(alg)
        for J in fam.injective.generators:
            flag = modelcat.classify_map(
                zero_chain_map(complexes.zero_complex(alg), J), "co", fam).trivial_cofibration
            assert (flag.verdict, flag.reason) == (NO, "orthogonality refuted")
            w = flag.certificate
            assert w.source.algebra is w.target.algebra is modules._opposite_of(alg)
            assert any(w.source is S for S in fam.opposite.shifts)
            assert homotopy.null_homotopy(w).verdict == NO


def classified(maps, options=Options()) -> list:
    """classify_map under both tags and the default D2 family for each map
    of maps: per map and tag, each class's verdict, reason and certificate
    digest (cli.digest), as plain values."""
    fam = modelcat.default_family(fixtures.D2(), options)
    return [[[flag.verdict, flag.reason, cli.digest(flag.certificate)]
             for flag in vars(modelcat.classify_map(f, tag, fam, options)).values()]
            for f in maps for tag in modelcat.TAGS]


def cone_sum_maps() -> list:
    """The inclusion of T_per[1] into T_per[1] + C and the projection onto
    it, C the cone of the identity of T_per: unbounded and contractible,
    so both structures decide on C by orthogonality (the inclusion's
    cokernel and the projection's kernel are C), and its certificates
    depend on map_period_bound."""
    C = cone(identity_chain_map(fixtures.t_per()))
    _, iX, _, pX, _ = direct_sum_complex(reindex(fixtures.t_per(), 1), C)
    return [iX, pX]


def classified_per_bound(bounds) -> list:
    """classified on one pair of cone_sum_maps for each map_period_bound of
    bounds in turn."""
    maps = cone_sum_maps()
    return [classified(maps, Options(map_period_bound=b)) for b in bounds]


def d2_cofibrations(seed: int) -> list:
    """Eight maps X -> X + C over D2 as the benchmark pipeline builds them,
    X random and bounded, C a shift of contractible_AA, a sum of two, or
    a shift of T_per (whose orthogonality is refuted)."""
    rng = random.Random(seed)
    AA = fixtures.contractible_AA()
    Cs = [reindex(AA, -1), reindex(AA, 2),
          direct_sum_complex(reindex(AA, 0), reindex(AA, 1))[0], reindex(fixtures.t_per(), 1)]
    return [direct_sum_complex(random_d2_complex(rng, 3, 2), Cs[i % len(Cs)])[1]
            for i in range(8)]


class TestRememberedResults:
    """membership_flags and CERTIFIED orthogonality results are remembered
    on the complex; no verdict depends on what ran before."""

    def test_each_options_classifies_as_a_cold_run(self):
        warm = classified_per_bound([2, 1, 2])
        cold = [in_new_process("test_modelcat", f"classified_per_bound([{b}])")[0]
                for b in (2, 1)]
        assert warm == [cold[0], cold[1], cold[0]]
        assert warm[0] != warm[1]

    def test_cofibrations_classify_alike_forwards_backwards_and_cold(self):
        forwards = classified(d2_cofibrations(5))
        # new maps, whose cokernels are the same complexes, run last first
        backwards = classified(d2_cofibrations(5)[::-1])
        backwards = [backwards[i:i + 2] for i in range(0, len(backwards), 2)][::-1]
        assert [forwards[i:i + 2] for i in range(0, len(forwards), 2)] == backwards
        assert forwards == in_new_process("test_modelcat", "classified(d2_cofibrations(5))")
        # on the co side some cokernels are certified and one is refuted
        assert {row[1][0] for row in forwards[1::2]} == {YES, NO}

    def test_a_hit_is_checked_again_and_solves_nothing(self, monkeypatch):
        C = dual(cone(identity_chain_map(fixtures.t_per())))
        fam = modelcat.GeneratorFamily((fixtures.t_per(),)).opposite
        first = modelcat.orthogonal_certificate(C, fam)
        solves = count_calls(monkeypatch, homotopy, "null_homotopies")
        checks = count_calls(monkeypatch, homotopy, "verify_certificate")
        hit = modelcat.orthogonal_certificate(C, fam)
        assert not solves and len(checks) == 1 and hit.certificate.checked
        assert cli.digest(hit.certificate) == cli.digest(first.certificate)
        hit_pairs, first_pairs = (r.certificate.payload["pairs"] for r in (hit, first))
        assert all(g.source is f.source and g.target is f.target and g is not f
                   for pair, old in zip(hit_pairs, first_pairs) for g, f in zip(pair, old))

    def test_a_corrupted_pair_is_solved_again(self, monkeypatch):
        C = dual(cone(identity_chain_map(fixtures.t_per())))
        fam = modelcat.GeneratorFamily((fixtures.t_per(),)).opposite
        first = cli.digest(modelcat.orthogonal_certificate(C, fam).certificate)
        entry = C._solved[fam][Options()]
        refs, kept_pairs = entry
        _, _, kept = kept_pairs[0]  # the first pair's homotopy
        block = kept_block(kept, kept[0])
        assert refs == () and block.size
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 1
        block.flags.writeable = True
        block[0, 0] = (block[0, 0] + 1) % 2
        solves = count_calls(monkeypatch, homotopy, "null_homotopies")
        res = modelcat.orthogonal_certificate(C, fam)
        assert solves and res.verdict == CERTIFIED and cli.digest(res.certificate) == first
        assert C._solved[fam][Options()] is not entry  # overwritten

    def test_a_certified_miss_shares_its_read_only_arrays_with_the_entry(self):
        C = dual(cone(identity_chain_map(fixtures.t_per())))
        fam = modelcat.GeneratorFamily((fixtures.t_per(),)).opposite
        res = modelcat.orthogonal_certificate(C, fam)
        assert res.verdict == CERTIFIED and res.certificate.checked
        _, kept_pairs = C._solved[fam][Options()]
        pairs = res.certificate.payload["pairs"]
        assert pairs and len(pairs) == len(kept_pairs)
        for (f, s), (_, kf, ks) in zip(pairs, kept_pairs):
            for h, kept in ((f, kf), (s, ks)):
                assert kept[2] is h._column  # no copy
                assert not any(a.flags.writeable for a in h._column[0].arrays)
                block = kept_block(kept, kept[0])
                assert block.size and np.shares_memory(block, h.component(kept[0]))
                with pytest.raises(ValueError, match="read-only"):
                    h.component(kept[0])[...] = 0

    def test_an_early_unknown_does_not_stop_a_later_refutation(self, monkeypatch):
        C = dual(cone(identity_chain_map(fixtures.t_per())))
        fam = modelcat.GeneratorFamily((fixtures.contractible_AA(),), shift_range=1).opposite
        assert len(fam.shifts) > 1
        calls = []

        def unknown_then_no(maps, options):
            calls.append(len(maps))
            verdict = UNKNOWN if len(calls) == 1 else NO
            return [homotopy.NullHomotopyResult(verdict) for _ in maps]

        monkeypatch.setattr(homotopy, "null_homotopies", unknown_then_no)
        res = modelcat.orthogonal_certificate(C, fam)
        assert res.verdict == REFUTED and len(calls) == 2 and all(calls)
        assert res.witness.source is fam.shifts[1] and res.witness.target is C
        assert fam not in C._solved

    def test_an_unknown_is_not_remembered(self, monkeypatch, A):
        fam = modelcat.GeneratorFamily((fixtures.t_per(),)).opposite
        X = dual(functors.stalk(A))

        def zero_homotopies(maps, m):
            return [homotopy.Homotopy(f.source, f.target, {}, 0, 0) for f in maps]

        monkeypatch.setattr(homotopy, "_homotopies", zero_homotopies)
        assert modelcat.orthogonal_certificate(X, fam).verdict == UNKNOWN
        assert fam not in X._solved
        monkeypatch.undo()
        res = modelcat.orthogonal_certificate(X, fam)
        assert res.verdict == CERTIFIED and homotopy.verify_certificate(res.certificate)
        assert list(X._solved[fam]) == [Options()]

    def test_a_refutation_is_not_remembered(self, t_per):
        fam = modelcat.GeneratorFamily((fixtures.t_per(),)).opposite
        assert modelcat.orthogonal_certificate(dual(t_per), fam).verdict == REFUTED
        assert fam not in dual(t_per)._solved

    def test_another_side_family_or_options_never_hits(self, monkeypatch):
        C = cone(identity_chain_map(fixtures.t_per()))
        fam = modelcat.GeneratorFamily((fixtures.t_per(),))
        other = modelcat.GeneratorFamily(fam.generators)
        D, opp = dual(C), fam.opposite
        modelcat.orthogonal_certificate(D, opp)
        solves = count_calls(monkeypatch, homotopy, "null_homotopies")
        for X, family, options in [(C, fam, Options()),
                                   (D, other.opposite, Options()),
                                   (D, opp, Options(homotopy_period_bound=3))]:
            before = len(solves)
            res = modelcat.orthogonal_certificate(X, family, options)
            assert res.verdict == CERTIFIED and len(solves) > before
        assert set(D._solved[opp]) == {Options(), Options(homotopy_period_bound=3)}
        assert list(D._solved[other.opposite]) == list(C._solved[fam]) == [Options()]

    def test_marking_an_entry_read_only_visits_no_slot_pair(self, monkeypatch):
        # a kept family is marked through its arrays: its slots' (array,
        # row) pairs hold only ints, and a walk through them marks nothing
        read_only, visited = modules._read_only, []

        def record(value):
            visited.append(value)
            return read_only(value)

        monkeypatch.setattr(modules, "_read_only", record)
        C = dual(cone(identity_chain_map(fixtures.t_per())))
        fam = modelcat.GeneratorFamily((fixtures.t_per(),)).opposite
        assert modelcat.orthogonal_certificate(C, fam).verdict == CERTIFIED
        assert any(isinstance(v, complexes._Family) for v in visited)
        assert not [v for v in visited if type(v) is tuple and len(v) == 2
                    and all(type(x) is int for x in v)]

    def test_an_entry_goes_with_its_family(self):
        C = dual(cone(identity_chain_map(fixtures.t_per())))
        fam = modelcat.GeneratorFamily((fixtures.t_per(),)).opposite
        modelcat.orthogonal_certificate(C, fam)
        family = weakref.ref(fam)
        del fam
        gc.collect()
        assert family() is None
        assert not any(isinstance(k, modelcat.GeneratorFamily) for k in C._solved)

    def test_flags_are_remembered_on_the_complex(self, monkeypatch):
        C = cone(identity_chain_map(fixtures.t_per()))
        flags = modelcat.membership_flags(C)
        kernels = count_calls(monkeypatch, modules, "submodule")
        assert modelcat.membership_flags(C) is flags and not kernels
        assert C._membership["flags"] is flags
        assert flags == modelcat.MembershipFlags(True, True, True, True)


class TestClassifyMap:
    def test_a_negative_shift_range_is_rejected(self, t_per, D2):
        # with no shifts, every orthogonality would be certified vacuously
        with pytest.raises(ValidationError, match="shift_range"):
            modelcat.GeneratorFamily((t_per,), -1)
        f = zero_chain_map(t_per, complexes.zero_complex(D2))
        fam = modelcat.GeneratorFamily((t_per,), 1)
        assert modelcat.classify_map(f, "ctr", fam).trivial_fibration.verdict == NO

    @pytest.mark.parametrize("decided", [True, False])
    def test_an_undecided_orthogonality_gives_an_unknown_flag(self, monkeypatch, t_per, decided):
        # the projection T_per + T_per -> T_per has kernel T_per, whose
        # identity refutes orthogonality to T_per; with no homotopy search
        # decided the trivial fibration flag is undecided
        if not decided:
            monkeypatch.setattr(homotopy, "null_homotopies", lambda maps, options: [
                homotopy.NullHomotopyResult(UNKNOWN) for _ in maps])
        f = direct_sum_complex(t_per, t_per)[3]
        own = modelcat.GeneratorFamily((t_per,))  # no result remembered for it
        flag = modelcat.classify_map(f, "ctr", own).trivial_fibration
        if decided:
            assert flag.verdict == NO and flag.reason == "orthogonality refuted"
        else:
            assert flag.verdict == UNKNOWN
            assert flag.reason == "orthogonality undecided against family"

    def test_zero_to_t_per_ctr(self, t_per, D2, fam):
        f = zero_chain_map(complexes.zero_complex(D2), t_per)
        cls = modelcat.classify_map(f, "ctr", fam)
        assert cls.cofibration.verdict == YES
        assert cls.trivial_cofibration.verdict == NO  # T_per not in P~

    def test_counit_co_structure(self, t_per, fam):
        eps = functors.counit(t_per)
        cls = modelcat.classify_map(eps, "co", fam)
        assert cls.cofibration.verdict == YES
        assert cls.trivial_cofibration.verdict == YES

    def test_identity_all_yes(self, contractible, fam):
        f = identity_chain_map(contractible)
        for tag in ("ctr", "co"):
            cls = modelcat.classify_map(f, tag, fam)
            assert cls.cofibration.verdict == YES
            assert cls.trivial_cofibration.verdict == YES
            assert cls.fibration.verdict == YES
            assert cls.trivial_fibration.verdict == YES

    def test_consistency_trivial_implies_plain(self, t_per, D2, fam):
        maps = [
            zero_chain_map(complexes.zero_complex(D2), t_per),
            functors.counit(t_per),
            identity_chain_map(t_per),
        ]
        for f in maps:
            for tag in ("ctr", "co"):
                cls = modelcat.classify_map(f, tag, fam)
                if cls.trivial_cofibration.verdict == YES:
                    assert cls.cofibration.verdict == YES
                    wk = modelcat.is_weak_equivalence(f, tag, fam)
                    assert wk.verdict in (YES, UNKNOWN)
                if cls.trivial_fibration.verdict == YES:
                    assert cls.fibration.verdict == YES


class TestWeakEquivalence:
    def test_identity(self, t_per, fam):
        for tag in ("ctr", "co"):
            res = modelcat.is_weak_equivalence(
                identity_chain_map(t_per), tag, fam)
            assert res.verdict == YES

    def test_zero_endomorphism_is_not(self, t_per, fam):
        res = modelcat.is_weak_equivalence(
            zero_chain_map(t_per, t_per), "ctr", fam)
        assert res.verdict == NO

    def test_counit_co(self, t_per, fam):
        res = modelcat.is_weak_equivalence(functors.counit(t_per), "co", fam)
        assert res.verdict == YES

    def test_weak_equivalence_reflection(self, t_per, fam):
        # maps f between exact complexes of projectives: if F(f) is a
        # co-structure weak equivalence then f itself is one for ctr
        candidates = [identity_chain_map(t_per)]
        x = np.array([[0, 0], [1, 0]], dtype=np.int64)
        candidates.append(complexes.chain_map_from_callable(
            t_per, t_per, 0, 0, lambda n: x, 1, 1))
        for f in candidates:
            Ff = functors.apply_F(f)
            if modelcat.is_weak_equivalence(Ff, "co", fam).verdict == YES:
                assert modelcat.is_weak_equivalence(f, "ctr", fam).verdict \
                    == YES

    # (map, its ctr and co verdicts); a stalk end outside the class is
    # replaced, the far one first, so the stalks of k and A take two steps
    # and a zero complex end, which is in the class, none
    WEAK_EQUIVALENCES = {
        "id stalk(k)": (lambda T, k, A, Z: identity_chain_map(functors.stalk(k)), YES, YES),
        "id stalk(A)": (lambda T, k, A, Z: identity_chain_map(functors.stalk(A)), YES, YES),
        "counit(T_per)": (lambda T, k, A, Z: functors.counit(T), NO, YES),
        "unit(T_per)": (lambda T, k, A, Z: functors.unit(T), YES, NO),
        "F(id T_per)": (lambda T, k, A, Z: functors.apply_F(identity_chain_map(T)), YES, YES),
        "id T_per": (lambda T, k, A, Z: identity_chain_map(T), YES, YES),
        "zero T_per -> T_per": (lambda T, k, A, Z: zero_chain_map(T, T), NO, NO),
        "0 -> T_per": (lambda T, k, A, Z: zero_chain_map(Z, T), NO, NO),
        "T_per -> stalk(k)": (lambda T, k, A, Z: zero_chain_map(T, functors.stalk(k)), NO, NO),
        "stalk(k) -> T_per": (lambda T, k, A, Z: zero_chain_map(functors.stalk(k), T), NO, NO),
        "0 -> stalk(k)": (lambda T, k, A, Z: zero_chain_map(Z, functors.stalk(k)), NO, NO),
        "stalk(k) -> 0": (lambda T, k, A, Z: zero_chain_map(functors.stalk(k), Z), NO, NO),
    }

    @pytest.mark.parametrize("name", list(WEAK_EQUIVALENCES))
    def test_verdicts_are_pinned(self, t_per, k, A, D2, fam, name):
        make, *verdicts = self.WEAK_EQUIVALENCES[name]
        # a zero complex of its own, so that no shared one keeps the results
        zero = complexes.Complex.build(D2, 0, 0, {0: modules.zero_module(D2)}, {}, checked=True)
        f = make(t_per, k, A, zero)
        assert [modelcat.is_weak_equivalence(f, tag, fam).verdict
                for tag in ("ctr", "co")] == verdicts

    def test_ends_neither_stalks_nor_in_the_class_are_unknown(self, k, fam):
        S = functors.stalk(k)
        X = direct_sum_complex(S, reindex(S, 1))[0]
        for tag in ("ctr", "co"):
            res = modelcat.is_weak_equivalence(identity_chain_map(X), tag, fam)
            assert res.verdict == UNKNOWN and res.certificate is None

    def test_a_factor_not_found_is_unknown(self, monkeypatch, k, fam):
        monkeypatch.setattr(solver, "factor_chain_map", lambda *a, **kw: None)
        f = identity_chain_map(functors.stalk(k))
        for tag in ("ctr", "co"):
            res = modelcat.is_weak_equivalence(f, tag, fam)
            assert res.verdict == UNKNOWN and res.certificate is None


class TestContractibilityCoherence:
    def test_tilde_p_members_are_contractible(self, contractible):
        flags = modelcat.membership_flags(contractible)
        assert flags.in_tildeP
        res = homotopy.null_homotopy(identity_chain_map(contractible))
        assert res.verdict == YES
