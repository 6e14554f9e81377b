"""Membership flags, orthogonality certificates, classification, weak equivalences."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import (equal_by_degrees, periodic_complex, t_per_with_period_2_tails,
                      triangular_d2, truncated_polynomial)
from singeq import complexes, fixtures, functors, homotopy, modelcat, modules, solver
from singeq.config import Options
from singeq.errors import ValidationError
from singeq.complexes import identity_chain_map, reindex, zero_chain_map
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
        res = modelcat.orthogonal_certificate(
            functors.stalk(A), "left_of_exI", fam)
        assert res.verdict == CERTIFIED
        assert homotopy.verify_certificate(res.certificate)

    def test_t_per_not_right_of_exP(self, t_per, fam):
        res = modelcat.orthogonal_certificate(t_per, "right_of_exP", fam)
        assert res.verdict == REFUTED
        assert res.witness is not None
        # the witness is genuinely non-null-homotopic
        assert homotopy.null_homotopy(res.witness).verdict == NO

    def test_bounded_refutation_witness_matches_per_map_loop(self, k, contractible, fam):
        # maps from C[-1] + k into the shifts of T_per: those through the
        # contractible C[-1] are null-homotopic and come first in each
        # basis, those through k are not
        X = complexes.direct_sum_complex(reindex(contractible, -1), functors.stalk(k))[0]
        res = modelcat.orthogonal_certificate(X, "left_of_exI", fam)
        assert res.verdict == REFUTED

        def first_refutation():
            for Tk in fam.shifts:
                for i, f in enumerate(solver.chain_map_space_basis(X, Tk)[0]):
                    if homotopy.null_homotopy(f).verdict == NO:
                        return Tk, i, f

        Tk, i, f = first_refutation()
        assert i > 0  # a null-homotopic map comes first in its basis
        w = res.witness
        assert w.target is Tk and (w.clo, w.chi) == (f.clo, f.chi)
        assert all(np.array_equal(w.component(n), f.component(n))
                   for n in range(f.clo - 2, f.chi + 3))

    def test_each_pair_is_checked_once(self, monkeypatch, A, fam):
        checked = []
        verify = homotopy.verify_null_homotopy

        def recording(f, s, *others):
            checked.extend([(f, s), *others])
            return verify(f, s, *others)

        monkeypatch.setattr(homotopy, "verify_null_homotopy", recording)
        res = modelcat.orthogonal_certificate(functors.stalk(A), "left_of_exI", fam)
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
        res = modelcat.orthogonal_certificate(functors.stalk(A), "left_of_exI", fam)
        assert res.verdict == UNKNOWN and res.certificate is None

    def test_shifts_are_built_once_per_family(self, monkeypatch, A, fam):
        assert len(fam.shifts) == 1  # the seven shifts of T_per are one complex
        assert fam.shifts is fam.shifts

        def no_reindex(*args):
            raise AssertionError("shift rebuilt")

        monkeypatch.setattr(modelcat, "reindex", no_reindex)
        res = modelcat.orthogonal_certificate(functors.stalk(A), "left_of_exI", fam)
        assert res.verdict == CERTIFIED

    def test_zero_complex_both_sides(self, D2, fam):
        Z = complexes.zero_complex(D2)
        for side in ("right_of_exP", "left_of_exI"):
            assert modelcat.orthogonal_certificate(Z, side, fam).verdict \
                == CERTIFIED


def all_shift_runs(X, side, fam):
    """The loop of orthogonal_certificate over all 2r+1 shifts of each
    generator, none left out: (verdict, witness, [(T[k], its pairs)])
    for the shifts run before the verdict."""
    if side == "left_of_exI" and fam.injective is not None:
        fam = fam.injective
    r, runs, unknown = fam.shift_range, [], False
    for T in fam.generators:
        for k in range(-r, r + 1):
            Tk = reindex(T, k)
            ends = (Tk, X) if side == "right_of_exP" else (X, Tk)
            basis, _ = solver.chain_map_space_basis(*ends)
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
            for side in ("right_of_exP", "left_of_exI"):
                verdict, witness, runs = all_shift_runs(X, side, fam)
                res = modelcat.orthogonal_certificate(X, side, fam)
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
        functors.stalk(fixtures.regular_D2()), "left_of_exI", fam, options)
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


class TestClassifyMap:
    def test_a_negative_shift_range_is_rejected(self, t_per, D2):
        # with no shifts, every orthogonality would be certified vacuously
        with pytest.raises(ValidationError, match="shift_range"):
            modelcat.GeneratorFamily((t_per,), -1)
        f = zero_chain_map(t_per, complexes.zero_complex(D2))
        fam = modelcat.GeneratorFamily((t_per,), 1)
        assert modelcat.classify_map(f, "ctr", fam).trivial_fibration.verdict == NO

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


class TestContractibilityCoherence:
    def test_tilde_p_members_are_contractible(self, contractible):
        flags = modelcat.membership_flags(contractible)
        assert flags.in_tildeP
        res = homotopy.null_homotopy(identity_chain_map(contractible))
        assert res.verdict == YES
