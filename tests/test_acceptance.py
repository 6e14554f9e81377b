"""Acceptance suite: nine property-based criteria at fixture scale.

Each test prints exactly one PASS/FAIL line (visible outside capture) and
enforces its runtime budget.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from singeq import (approx, complexes, equiv, fixtures, functors, homotopy,
                    linalg, modelcat, modules, solver)
from singeq.complexes import (add_maps, chain_map_from_callable, cone,
                              cokernel_complex, direct_sum_complex,
                              identity_chain_map, reindex, zero_chain_map)
from singeq.config import Options
from singeq.homotopy import NO, UNKNOWN, YES
from singeq.modelcat import CERTIFIED

from conftest import mono_quasi_iso, random_chain_map, random_d2_complex


def _x_id(t_per):
    x = np.array([[0, 0], [1, 0]], dtype=np.int64)
    return chain_map_from_callable(t_per, t_per, 0, 0, lambda n: x, 1, 1)


def _report(capsys, label, ok, elapsed, budget):
    with capsys.disabled():
        print(f"{label}: {'PASS' if ok and elapsed < budget else 'FAIL'}"
              f" ({elapsed:.2f}s, budget {budget}s)")
    assert ok
    assert elapsed < budget


def test_criterion_1_adjunction_suite(capsys, t_per, k, A):
    start = time.perf_counter()
    rng = random.Random(1)
    targets = [t_per, reindex(t_per, 1), reindex(t_per, -1),
               functors.stalk(k), functors.stalk(A)]
    ok = True
    for i in range(200):
        X = random_d2_complex(rng, 4, 3)
        Y = targets[i % len(targets)]
        FX = functors.apply_F(X)
        GY = functors.apply_G(Y)
        left, complete_l = solver.chain_map_space_basis(FX, Y)
        right, complete_r = solver.chain_map_space_basis(X, GY)
        ok &= complete_l and complete_r and len(left) == len(right)
        w = functors.AdjunctionWitness(X, Y)
        for f in left:
            ok &= add_maps(w.backward(w.forward(f)), f, sign=-1).is_zero()
        for g in right:
            ok &= add_maps(w.forward(w.backward(g)), g, sign=-1).is_zero()
        if not ok:
            break
    _report(capsys, "criterion 1 (adjunction suite, 200 random complexes)",
            ok, time.perf_counter() - start, 30)


def test_criterion_2_mono_quasi_isos(capsys):
    start = time.perf_counter()
    rng = random.Random(2)
    failures = 0
    for _ in range(100):
        f = mono_quasi_iso(rng)
        if not f.is_mono() or not complexes.is_quasi_isomorphism(f):
            failures += 1
            continue
        om = functors.omega_map(f)
        if linalg.rank(om.matrix, 2) != om.source.dim:
            failures += 1
    _report(capsys, "criterion 2 (100 mono quasi-isos: omega full column rank)",
            failures == 0, time.perf_counter() - start, 60)


def test_criterion_3_cofibrations(capsys, contractible):
    # Trivial ctr-cofibrations X -> X + C with C a contractible complex of
    # projectives: the image under the syzygy-stalk functor stays a mono
    # and its cokernel is certified orthogonal to the exact-injectives.
    # (Plain cofibrations only inherit the mono part; a periodic cokernel
    # gives a simple-module stalk whose socle map into a shifted generator
    # is not null-homotopic, so the certificate claim is specific to the
    # trivial case.)
    start = time.perf_counter()
    rng = random.Random(3)
    fam = modelcat.default_family(fixtures.D2())
    unknowns = 0
    ok = True
    for i in range(50):
        X = random_d2_complex(rng, 3, 2)
        T = reindex(contractible, i % 5 - 2)
        if i % 3 == 0:
            T = complexes.direct_sum_complex(T, reindex(contractible, i % 2))[0]
        _, iX, _, _, _ = direct_sum_complex(X, T)
        # sanity: iX is a trivial ctr-cofibration by construction
        coker, _ = cokernel_complex(iX)
        ok &= iX.is_mono() and modelcat.membership_flags(coker).in_tildeP
        Ff = functors.apply_F(iX)
        ok &= Ff.is_mono()
        Fcoker, _ = cokernel_complex(Ff)
        res = modelcat.orthogonal_certificate(Fcoker, "left_of_exI", fam)
        ok &= res.verdict != "REFUTED"
        if res.verdict == "UNKNOWN":
            unknowns += 1
        FT = functors.apply_F(T)
        res2 = modelcat.orthogonal_certificate(FT, "left_of_exI", fam)
        ok &= res2.verdict == CERTIFIED
        if not ok:
            break
    _report(capsys,
            f"criterion 3 (50 trivial ctr-cofibrations, UNKNOWN rate "
            f"{unknowns}/50)",
            ok and unknowns == 0, time.perf_counter() - start, 60)


def test_criterion_4_counit(capsys, t_per):
    start = time.perf_counter()
    fam = modelcat.default_family(fixtures.D2())
    eps = functors.counit(t_per)
    ok = eps.is_mono()
    C, _ = cokernel_complex(eps)
    for piece in complexes.two_sided_split(C, 0):
        res = modelcat.orthogonal_certificate(piece, "left_of_exI", fam)
        ok &= res.verdict == CERTIFIED
    ok &= modelcat.is_weak_equivalence(eps, "co", fam).verdict == YES
    _report(capsys, "criterion 4 (counit of the periodic fixture)",
            ok, time.perf_counter() - start, 5)


def test_criterion_5_stalk_replacement(capsys, k):
    start = time.perf_counter()
    fam = modelcat.default_family(fixtures.D2())
    rep = approx.stalk_replacement(functors.stalk(k), "cofibrant_ctr", fam)
    ok = modelcat.membership_flags(rep.object).in_exP
    ok &= linalg.rank(rep.map.component(0), 2) == 1  # q epi in degree 0
    ok &= rep.upper.verdict == CERTIFIED
    ok &= rep.lower.verdict == CERTIFIED
    Fq = functors.apply_F(rep.map)
    ok &= modelcat.is_weak_equivalence(Fq, "co", fam).verdict == YES
    _report(capsys, "criterion 5 (cofibrant replacement of the simple stalk)",
            ok, time.perf_counter() - start, 5)


def test_criterion_6_round_trips(capsys, t_per):
    start = time.perf_counter()
    ok = equiv.verify_round_trip(t_per, "P").verdict == YES
    for j in range(-2, 3):
        ok &= equiv.verify_round_trip(reindex(t_per, j), "P").verdict == YES
    AT2 = modules.regular_module(fixtures.T2())
    C = cone(identity_chain_map(functors.stalk(AT2)))
    pipe = equiv.f_prime(C)
    ok &= homotopy.null_homotopy(
        identity_chain_map(pipe.object)).verdict == YES
    ok &= equiv.verify_round_trip(C, "P").verdict == YES
    _report(capsys, "criterion 6 (round trips: periodic fixture, shifts, T2)",
            ok, time.perf_counter() - start, 10)


def test_criterion_7_solver_cross_validation(capsys, t_per, contractible):
    start = time.perf_counter()
    rng = random.Random(7)
    pool = [t_per, reindex(t_per, 1), reindex(t_per, -1), contractible]
    bases = {}
    ok = True
    for _ in range(100):
        X, Y = rng.choice(pool), rng.choice(pool)
        key = (id(X), id(Y))
        if key not in bases:
            bases[key] = solver.chain_map_space_basis(X, Y)[0]
        basis = bases[key]
        f = zero_chain_map(X, Y)
        for b in basis:
            if rng.randint(0, 1):
                f = add_maps(f, b)
        stable = homotopy.stably_zero(f)
        found = None
        for m in range(1, 5):
            found = homotopy.search_periodic_homotopy(f, m)
            if found is not None:
                break
        # a found homotopy must agree with the stable criterion; a stable
        # refutation forbids any periodic homotopy
        if found is not None:
            ok &= stable
            ok &= homotopy.verify_null_homotopy(f, found)
        if not stable:
            ok &= found is None
        if not ok:
            break
    f = _x_id(t_per)
    ok &= homotopy.search_periodic_homotopy(f, 1) is None
    ok &= homotopy.search_periodic_homotopy(f, 2) is not None
    ok &= homotopy.null_homotopy(f).verdict == YES
    _report(capsys, "criterion 7 (stable vs periodic null-homotopy, 100 maps)",
            ok, time.perf_counter() - start, 20)


def test_criterion_8_stable_hom_dimension(capsys, t_per, k):
    start = time.perf_counter()
    hom, _ = solver.chain_map_space_basis(t_per, t_per)
    ok = len(hom) >= 2
    # the syzygy functor identifies homotopy classes with stable classes;
    # the identification is verified map-by-map below, so the class-space
    # dimension is the rank of the induced stable endomorphisms
    W = functors.omega(t_per)
    P, epi = modules.projective_cover(W)
    proj_factoring = [
        (epi.matrix @ s.matrix) % 2 for s in modules.hom_basis(W, P)]
    proj_vecs = (np.column_stack([m.flatten() for m in proj_factoring])
                 if proj_factoring else np.zeros((W.dim * W.dim, 0),
                                                 dtype=np.int64))
    omega_vecs = np.column_stack(
        [functors.omega_map(f).matrix.flatten() % 2 for f in hom])
    proj_rank = linalg.rank(proj_vecs, 2)
    dim_classes = linalg.rank(
        np.column_stack([omega_vecs, proj_vecs]) % 2, 2) - proj_rank
    # oracle: dim stable End(k) = dim Hom(k, k) - dim(projective factoring)
    stable_end = len(modules.hom_basis(W, W)) - proj_rank
    ok &= dim_classes == 1 == stable_end
    # the identification holds pointwise: stably trivial basis elements are
    # honestly null-homotopic, stably nontrivial ones are not
    for f in hom:
        res = homotopy.null_homotopy(f)
        if homotopy.stably_zero(f):
            ok &= res.verdict == YES
        else:
            ok &= res.verdict == NO
    _report(capsys, "criterion 8 (homotopy classes of periodic endomaps)",
            ok, time.perf_counter() - start, 5)


def test_criterion_9_membership_coherence(capsys, t_per, contractible):
    start = time.perf_counter()
    ok = True
    for X in (contractible, reindex(contractible, 2)):
        if modelcat.membership_flags(X).in_tildeP:
            ok &= homotopy.null_homotopy(
                identity_chain_map(X)).verdict == YES
    flags = modelcat.membership_flags(t_per)
    ok &= flags.in_exP and flags.in_exI
    ok &= not flags.in_tildeP and not flags.in_tildeI
    _report(capsys, "criterion 9 (membership/contractibility coherence)",
            ok, time.perf_counter() - start, 60)
