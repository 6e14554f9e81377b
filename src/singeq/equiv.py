"""The composite equivalences between totally acyclic complexes of
projectives and of injectives, with machine-checked round trips.

f_prime sends a complex of projectives to the complete injective
resolution of the Gorenstein-injective preenvelope of its degree-zero
syzygy; g_prime is the inverse composite.  Round trips are certified by
lifting the canonical stable identification of syzygies to a chain map
and producing an explicit homotopy inverse for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import approx, functors, homotopy, linalg, modelcat, modules, solver
from .complexes import ChainMap, Complex, compose, dual, dual_chain_map
from .config import Options
from .errors import LiftError, ValidationError
from .homotopy import UNKNOWN, Certificate
from .modelcat import GeneratorFamily
from .modules import ModuleMap


@dataclass(eq=False)
class PipelineResult:
    input: Complex
    stalk: Complex  # F(P) resp. G(I)
    replacement: approx.StalkReplacement
    object: Complex  # the replacement complex


def f_prime(P: Complex, fam: GeneratorFamily | None = None,
            options: Options = Options()) -> PipelineResult:
    """Complex of injectives: fibrant replacement of the syzygy stalk F(P)."""
    if not homotopy.is_exP(P, options):
        raise ValidationError("f_prime input must be an exact complex of projectives")
    FP = functors.apply_F(P)
    rep = approx.stalk_replacement(FP, "fibrant_co", fam, options)
    return PipelineResult(P, FP, rep, rep.object)


def g_prime(I: Complex, fam: GeneratorFamily | None = None,
            options: Options = Options()) -> PipelineResult:
    """Complex of projectives: cofibrant replacement of the cycle stalk G(I)."""
    if not homotopy.is_exI(I, options):
        raise ValidationError("g_prime input must be an exact complex of injectives")
    GI = functors.apply_G(I)
    rep = approx.stalk_replacement(GI, "cofibrant_ctr", fam, options)
    return PipelineResult(I, GI, rep, rep.object)


def lift_stable_map(phi: ModuleMap, X: Complex, Y: Complex,
                    side: str = "omega",
                    options: Options = Options()) -> ChainMap:
    """Chain map f: X -> Y realizing phi up to the stable relation.

    side "omega": phi: omega(X) -> omega(Y); omega(f) - phi factors
    through a projective.  side "theta": phi: theta(X) -> theta(Y);
    theta(f) - phi factors through an injective.  The lift is searched
    with growing tail periods; LiftError on exhaustion.  Since theta is
    D . omega . D, the theta lift is D of the omega lift of D(phi).  An
    omega lift is memoized, and a hit checked again (solver._remembered).
    """
    if side == "theta":
        return dual_chain_map(lift_stable_map(modules.dual_map(phi), dual(Y), dual(X),
                                              "omega", options))
    if side != "omega":
        raise ValueError(f"unknown stable side {side!r}")
    p = X.algebra.p
    SX, sx_map = functors.omega_data(X)  # projection X_0 ->> omega(X)
    SY, sy_map = functors.omega_data(Y)
    Pcov, cov = modules.projective_cover(SY)

    def found():
        for m in range(1, options.homotopy_period_bound + 1):
            sys = solver.graded_system(X, Y, 0, *solver.window(X, Y, (), m, 1, around=(0,)),
                                       extras={"aux": (SX, Pcov)})
            sys.add_equation((phi.matrix @ sx_map.matrix) % p, [
                (sy_map.matrix, 0, None),
                ((-cov.matrix) % p, "aux", sx_map.matrix),
            ], (X.term(0), SY))
            if sys.solve() is not None:
                yield solver._solved_map(sys, X, Y)
            if not sys.fold:
                return

    def holds(f):
        diff = (functors.omega_map(f).matrix - phi.matrix) % p
        return homotopy.factors_through_projective(ModuleMap(SX, SY, diff))

    key = ("omega", phi.matrix.shape, phi.matrix.tobytes(), options)
    f = solver._remembered(X, Y, key, (), found, solver._kept_map(X, Y), holds)
    if f is None:
        raise LiftError("PERIODIC-CLOSURE-FAILED: no stable lift within "
                        f"homotopy_period_bound={options.homotopy_period_bound}")
    return f


@dataclass(eq=False)
class RoundTripReport:
    input: Complex
    first: PipelineResult  # F' of the input (resp. G')
    second: PipelineResult  # G' of the first output (resp. F')
    comparison: ChainMap | None
    certificate: Certificate | None
    verdict: str
    composite_check: str  # is_weak_equivalence of counit . F(q), co-structure


def verify_round_trip(X: Complex, side: str = "P",
                      fam: GeneratorFamily | None = None,
                      options: Options = Options()) -> RoundTripReport:
    """Certify G'(F'(P)) ~ P (side "P") or F'(G'(I)) ~ I (side "I")."""
    p = X.algebra.p
    if side == "P":
        first = f_prime(X, fam, options)
        second = g_prime(first.object, fam, options)
        # canonical stable map: factor the preenvelope mono of omega(X)
        # through the precover epi of theta(I), then read it off on syzygies
        N = first.stalk.term(0)  # omega(X)
        iso1 = _cycles_identification(first)  # triple.mid -> theta(I)
        u = (iso1 @ first.replacement.triple.mono.matrix) % p  # N -> theta(I)
        tg = second.replacement.triple
        alpha = solver.solve_module_map([(N, tg.mid)], u,
                                        [(tg.epi.matrix, 0, None)],
                                        (N, tg.right))
        if alpha is None:
            return RoundTripReport(X, first, second, None, None, UNKNOWN, UNKNOWN)
        iso2 = second.replacement.witness  # omega(P2) -> M2
        phi_mat = (linalg.invert(iso2.matrix, p) @ alpha) % p
        phi = ModuleMap(N, functors.omega(second.object), phi_mat)
        lift_side = "omega"
    elif side == "I":
        first = g_prime(X, fam, options)
        second = f_prime(first.object, fam, options)
        # canonical stable map theta(X) -> theta(I2): extend the composite
        # M2 ~ omega(P2) -> Y' along the precover epi M2 ->> theta(X),
        # up to a correction through a projective
        Z = first.stalk.term(0)  # theta(X)
        tg = first.replacement.triple  # 0 -> W -> M2 -> Z -> 0
        iso2 = first.replacement.witness  # omega(P2) -> M2
        u2 = second.replacement.triple.mono.matrix  # omega(P2) -> Y'
        iso1 = _cycles_identification(second)  # Y' -> theta(I2)
        THY2 = functors.theta(second.object)
        target_mat = ((iso1 @ u2) % p @ linalg.invert(iso2.matrix, p)) % p  # M2 -> theta(I2)
        Pcov, cov = modules.projective_cover(THY2)
        # cbar . epi == target + cov . h for some module map h: mid -> Pcov
        cbar = solver.solve_module_map([(Z, THY2), (tg.mid, Pcov)], target_mat, [
            (None, 0, tg.epi.matrix), ((-cov.matrix) % p, 1, None)], (tg.mid, THY2))
        if cbar is None:
            return RoundTripReport(X, first, second, None, None, UNKNOWN, UNKNOWN)
        phi = ModuleMap(Z, THY2, cbar)
        lift_side = "theta"
    else:
        raise ValueError(f"unknown round-trip side {side!r}")

    try:
        comparison = lift_stable_map(phi, X, second.object, lift_side, options)
    except LiftError:
        return RoundTripReport(X, first, second, None, None, UNKNOWN, UNKNOWN)
    res = homotopy.homotopy_equivalence_certificate(comparison, options)

    composite_check = _composite_weak_equivalence(first, second, side, fam, options)
    return RoundTripReport(X, first, second, comparison, res.certificate,
                           res.verdict, composite_check)


def _cycles_identification(pipe: PipelineResult) -> np.ndarray:
    """Matrix of the iso triple.mid -> theta(object) for a fibrant pipeline."""
    p = pipe.input.algebra.p
    _, incl = functors.theta_data(pipe.object)
    iso = linalg.solve_matrix(incl.matrix, pipe.replacement.witness.matrix, p)
    if iso is None:
        raise ValidationError("preenvelope does not land in the degree-0 cycles")
    return iso


def _composite_weak_equivalence(first: PipelineResult, second: PipelineResult,
                                side: str, fam, options: Options) -> str:
    """Check the composite counit . F(q) as a co-structure weak equivalence."""
    if side == "P":
        I, gpipe = first.object, second
    else:
        I, gpipe = first.input, first
    q = gpipe.replacement.map  # cofibrant replacement of G(I)
    composite = compose(functors.counit(I), functors.apply_F(q))
    return modelcat.is_weak_equivalence(composite, "co", fam, options).verdict
