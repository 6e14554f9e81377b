"""Walk plans: the bookkeeping of a check walk is planned once per pair of
complexes and kept from the second walk of its key on, while every check
still runs on every call, on the caller's maps.  A plan holds no map value
and no check result, and no object of its target but arrays."""

import contextlib
import gc
import io
import os
import random
import weakref

import pytest

from conftest import in_new_process, random_chain_map, random_d2_complex, random_module
from singeq import complexes, fixtures, functors, homotopy, linalg
from singeq.complexes import ChainMap, identity_chain_map
from singeq.errors import ValidationError
from singeq.homotopy import YES
from test_walks import bounded_bases, changed, corrupted, htpy_bases, recorded  # noqa: F401

FIXDIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")


def count_plans(monkeypatch) -> list:
    """(S, T, k) of each walk plan built from now on."""
    built = []
    real = complexes._Walk
    monkeypatch.setattr(complexes, "_Walk", lambda S, T, k, *rest:
                        built.append((S, T, k)) or real(S, T, k, *rest))
    return built


def walk_keys(store: dict) -> list:
    """The keys of the walk plans in one entry of a Complex._solved."""
    return [k for k in store if isinstance(k, tuple) and k[0] == "walk"]


def engine_results(check) -> list:
    """check(), then what each run of the check engine returned."""
    results = []
    real = complexes._first_failure

    def first_failure(*args):
        results.append(real(*args))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_first_failure", first_failure)
        return [check(), results]


def equivalence():
    """The inclusion T_per -> T_per + C[1], C contractible, and its
    homotopy-inverse certificate: the inverse is periodic, and the
    homotopy on the target is nonzero."""
    X = fixtures.t_per()
    C = complexes.reindex(fixtures.contractible_AA(), 1)
    f = complexes.direct_sum_complex(X, C)[1]
    res = homotopy.homotopy_equivalence_certificate(f)
    assert res.verdict == YES
    return f, res.certificate


def corrupted_recheck(part: str, degree: int, cold: bool) -> list:
    """[verdict, engine results, plans built] of a re-check of the
    certificate of equivalence() whose part has a unit entry added at
    degree: warm after a second check of the certificate, which keeps the
    plans of its walks, or cold, with every walk of the pair forgotten."""
    f, cert = equivalence()
    assert homotopy.verify_certificate(cert)
    g = cert.payload[part]
    unit = linalg.zeros(*g.component(degree).shape)
    unit[0, 0] = 1
    bad = homotopy.Certificate("homotopy-inverse",
                               {**cert.payload, part: changed(g, degree, unit)})
    if cold:
        for X in (f.source, f.target):
            for plans in X._solved.values():
                for key in walk_keys(plans):
                    del plans[key]
    with pytest.MonkeyPatch.context() as mp:
        built = count_plans(mp)
        verdict, results = engine_results(lambda: homotopy.verify_certificate(bad))
    return [verdict, [r and list(r) for r in results], len(built)]


class TestWalkPlans:
    @pytest.mark.parametrize("argv", [("demo", "D2-Tper"),
                                      ("verify-equivalence", "tper.cx", "--side", "auto"),
                                      ("verify-equivalence", "tper.cx", "--side", "I")])
    def test_a_warm_command_builds_no_plan_and_runs_every_check(self, monkeypatch, argv):
        from singeq.cli import main

        path = [os.path.join(FIXDIR, a) if a.endswith(".cx") else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            # the second run walks again, and keeps the plans of its walks
            assert main(path) == main(path) == 0
            built = count_plans(monkeypatch)
            runs = recorded(lambda: main(path))
        assert not built
        # every remembered equivalence is checked again, on every entry
        assert runs[0] and runs[1]

    def test_a_walk_made_once_keeps_only_its_key(self, monkeypatch):
        rng = random.Random(6)
        S, T = random_d2_complex(rng), random_d2_complex(rng)
        f = random_chain_map(rng, S, T)
        key = ("walk", 0, False, ((complexes._profile(f),),))
        assert key not in S._solved[T]
        built = count_plans(monkeypatch)
        for walks in range(1, 5):
            ChainMap(S, T, f.components, f.clo, f.chi, f.neg, f.pos).validate()
            assert (len(built), S._solved[T][key] is None) == (min(walks, 2), walks == 1)

    @pytest.mark.parametrize("part, degree", [("inverse", 0), ("inverse", 3),
                                              ("homotopy_source", 1),
                                              ("homotopy_target", 2)])
    def test_a_corrupted_certificate_fails_as_in_a_cold_walk(self, part, degree):
        verdict, results, built = corrupted_recheck(part, degree, cold=False)
        assert verdict is False and built == 0
        assert any(results)
        cold = in_new_process("test_walk_plans", f"corrupted_recheck({part!r}, {degree}, True)")
        assert cold[2] > 0
        assert [verdict, results] == cold[:2]

    def test_maps_with_one_profile_get_their_own_verdicts(self, htpy_bases):
        for basis in [*htpy_bases, *bounded_bases()]:
            good = basis[len(basis) // 2]
            for where, kind, bad, alone in corrupted(good):
                assert complexes._profile(bad) == complexes._profile(good)
                for f in (good, bad, good, bad):
                    if f is good:
                        f.validate()
                    else:
                        with pytest.raises(ValidationError) as err:
                            f.validate()
                        assert str(err.value) == alone
            # the whole basis with one map changed, after the whole basis
            basis[0].validate(*basis[1:])
            for _, _, bad, alone in corrupted(good):
                maps = [bad if f is good else f for f in basis]
                with pytest.raises(ValidationError) as err:
                    maps[0].validate(*maps[1:])
                assert str(err.value) == alone

    def test_homotopies_with_one_profile_get_their_own_verdicts(self):
        f, cert = equivalence()
        hY = cert.payload["homotopy_target"]
        g = complexes.add_maps(complexes.compose(f, cert.payload["inverse"]),
                               identity_chain_map(f.target), sign=-1)
        assert homotopy.verify_null_homotopy(g, hY)
        for n in range(hY.clo, hY.chi + 1):
            if not hY.component(n).size:
                continue
            unit = linalg.zeros(*hY.component(n).shape)
            unit[-1, -1] = 1
            bad = changed(hY, n, unit)
            assert complexes._profile(bad) == complexes._profile(hY)
            assert not homotopy.verify_null_homotopy(g, bad)
            assert homotopy.verify_null_homotopy(g, hY)

    def test_a_plan_goes_with_its_target_and_keeps_no_source_alive(self):
        rng = random.Random(4)

        def kept_plan(S, T):
            """A weak reference to the plan of a walk of a map S -> T made twice."""
            f = random_chain_map(rng, S, T)
            for _ in range(2):
                ChainMap(S, T, f.components, f.clo, f.chi, f.neg, f.pos).validate()
            plan = S._solved[T][("walk", 0, False, ((complexes._profile(f),),))]
            assert isinstance(plan, complexes._Walk)
            return weakref.ref(plan)

        S, T = random_d2_complex(rng), random_d2_complex(rng)
        plan, source = kept_plan(S, T), weakref.ref(S)
        del S
        gc.collect()
        assert source() is None and plan() is None
        S = random_d2_complex(rng)
        plan, target = kept_plan(S, T), weakref.ref(T)
        del T
        gc.collect()
        assert target() is None and plan() is None and not S._solved
        # a stalk is kept on its module, which the plan does not hold
        T = functors.stalk(random_module(rng, fixtures.D2()))
        plan, target = kept_plan(S, T), weakref.ref(T)
        del T
        gc.collect()
        assert target() is None and plan() is None and not S._solved
