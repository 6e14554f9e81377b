"""Membership predicates and map classification for the two model structures.

Tag "ctr": cofibrant objects are exact complexes of projectives, every
object is fibrant.  Tag "co": every object is cofibrant, fibrant objects
are exact complexes of injectives.  Orthogonality against the proper
class is replaced by a certified verdict against a finite generator
family closed under shifts; the verdict carries the family used.

Each certificate is checked once, and the verdict follows the check: an
orthogonality certificate is made only of pairs whose null-homotopy check
passed inside homotopy.null_homotopies, so it is built checked, and a
failed check gives UNKNOWN, never CERTIFIED.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import homotopy, modules, solver
from .complexes import (ChainMap, Complex, cokernel_complex, compose,
                        is_exact, kernel_complex, reindex)
from .config import Options
from .errors import ValidationError
from .homotopy import NO, UNKNOWN, YES, Certificate

CERTIFIED = "CERTIFIED"
REFUTED = "REFUTED"

TAGS = ("ctr", "co")


@dataclass(frozen=True)
class MembershipFlags:
    in_exP: bool
    in_exI: bool
    in_tildeP: bool
    in_tildeI: bool


@dataclass(frozen=True, eq=False)
class GeneratorFamily:
    generators: tuple
    shift_range: int = 3

    @cached_property
    def shifts(self) -> tuple:
        """T[k] for each generator T and k in -shift_range..shift_range."""
        r = self.shift_range
        return tuple(reindex(T, k) for T in self.generators for k in range(-r, r + 1))


@dataclass(eq=False)
class OrthogonalityResult:
    verdict: str  # CERTIFIED | REFUTED | UNKNOWN
    witness: ChainMap | None = None
    certificate: Certificate | None = None
    family: GeneratorFamily | None = None


@dataclass(eq=False)
class Flag:
    verdict: str  # YES | NO | UNKNOWN
    reason: str = ""
    certificate: object = None


@dataclass(eq=False)
class MapClassification:
    cofibration: Flag
    trivial_cofibration: Flag
    fibration: Flag
    trivial_fibration: Flag


@dataclass(eq=False)
class WeakEquivalenceResult:
    verdict: str
    certificate: Certificate | None = None


def _cycles_in_class(X: Complex, which: str) -> bool:
    """The cycles of every distinct block of X are projective (which
    "proj") or injective."""
    B = X._blocks
    for n in range(B.lo - B.neg, B.hi + B.pos + 1):
        if not X.term(n).dim:
            continue  # no cycles
        Z, _ = modules.kernel(X.diff_map(n))
        cls = Z.split_class
        if not (cls.is_projective if which == "proj" else cls.is_injective):
            return False
    return True


def membership_flags(X: Complex, options: Options = Options()) -> MembershipFlags:
    exP = homotopy.is_exP(X, options)
    exI = homotopy.is_exI(X, options)
    return MembershipFlags(
        in_exP=exP,
        in_exI=exI,
        in_tildeP=exP and _cycles_in_class(X, "proj"),
        in_tildeI=exI and _cycles_in_class(X, "inj"),
    )


def default_family(algebra, options: Options = Options()) -> GeneratorFamily:
    """Complete resolutions of the non-projective indecomposables, per fixture;
    memoized on the algebra per shift range."""
    from . import fixtures

    def compute():
        if algebra is fixtures.D2():
            return GeneratorFamily((fixtures.t_per(),), options.shift_range)
        # Semisimple and hereditary fixtures: every exact complex of
        # projectives is contractible, so the orthogonal is everything
        # and the empty family is the honest generator set.
        return GeneratorFamily((), options.shift_range)

    return modules._memo(algebra, ("family", options.shift_range), compute)


def orthogonal_certificate(X: Complex, side: str, fam: GeneratorFamily,
                           options: Options = Options()) -> OrthogonalityResult:
    if side not in ("right_of_exP", "left_of_exI"):
        raise ValueError(f"unknown side {side!r}")
    check = homotopy.is_exP if side == "right_of_exP" else homotopy.is_exI
    for T in fam.generators:
        if not check(T, options):
            raise ValidationError("generator fails its own membership check")
    pairs = []
    unknown = False
    for Tk in fam.shifts:
        if side == "right_of_exP":
            basis, _ = solver.chain_map_space_basis(Tk, X, options)
        else:
            basis, _ = solver.chain_map_space_basis(X, Tk, options)
        for f, res in zip(basis, homotopy.null_homotopies(basis, options)):
            if res.verdict == NO:
                return OrthogonalityResult(REFUTED, witness=f, family=fam)
            if res.verdict == UNKNOWN:
                unknown = True
            else:
                pairs.append((f, res.homotopy))
    if unknown:
        return OrthogonalityResult(UNKNOWN, family=fam)
    # every pair passed its check in null_homotopies
    cert = Certificate("orthogonality", {"pairs": pairs}, checked=True)
    return OrthogonalityResult(CERTIFIED, certificate=cert, family=fam)


def _bool_flag(ok: bool, reason: str) -> Flag:
    return Flag(YES if ok else NO, "" if ok else reason)


def _orth_flag(pre: bool, pre_reason: str, res: OrthogonalityResult) -> Flag:
    if not pre:
        return Flag(NO, pre_reason)
    if res.verdict == CERTIFIED:
        return Flag(YES, certificate=res.certificate)
    if res.verdict == REFUTED:
        return Flag(NO, "orthogonality refuted", certificate=res.witness)
    return Flag(UNKNOWN, "orthogonality undecided against family")


def classify_map(f: ChainMap, tag: str, fam: GeneratorFamily,
                 options: Options = Options()) -> MapClassification:
    if tag not in TAGS:
        raise ValueError(f"unknown structure tag {tag!r}")
    mono, epi = f.is_mono(), f.is_epi()
    coker, _ = cokernel_complex(f)
    ker, _ = kernel_complex(f)
    if tag == "ctr":
        cflags = membership_flags(coker, options)
        cof = _bool_flag(mono and cflags.in_exP,
                         "not a mono" if not mono else "cokernel not in exP~")
        tcof = _bool_flag(mono and cflags.in_tildeP,
                          "not a mono" if not mono else "cokernel not in P~")
        fib = _bool_flag(epi, "not an epi")
        tfib = _orth_flag(epi, "not an epi",
                          orthogonal_certificate(ker, "right_of_exP", fam, options)
                          if epi else OrthogonalityResult(UNKNOWN))
    else:
        kflags = membership_flags(ker, options)
        fib = _bool_flag(epi and kflags.in_exI,
                         "not an epi" if not epi else "kernel not in exI~")
        tfib = _bool_flag(epi and kflags.in_tildeI,
                          "not an epi" if not epi else "kernel not in I~")
        cof = _bool_flag(mono, "not a mono")
        tcof = _orth_flag(mono, "not a mono",
                          orthogonal_certificate(coker, "left_of_exI", fam, options)
                          if mono else OrthogonalityResult(UNKNOWN))
    return MapClassification(cof, tcof, fib, tfib)


def _is_stalk_shape(X: Complex) -> bool:
    return X.bounded() and all(
        X.term(n).dim == 0 for n in range(X.lo, X.hi + 1) if n != 0)


def _bifibrant(X: Complex, tag: str, options: Options) -> bool:
    return homotopy.is_exP(X, options) if tag == "ctr" else homotopy.is_exI(X, options)


def is_weak_equivalence(f: ChainMap, tag: str,
                        fam: GeneratorFamily | None = None,
                        options: Options = Options(),
                        _depth: int = 0) -> WeakEquivalenceResult:
    if tag not in TAGS:
        raise ValueError(f"unknown structure tag {tag!r}")
    if _bifibrant(f.source, tag, options) and _bifibrant(f.target, tag, options):
        res = homotopy.homotopy_equivalence_certificate(f, options)
        return WeakEquivalenceResult(res.verdict, res.certificate)
    if _depth >= 3:
        return WeakEquivalenceResult(UNKNOWN)

    from . import approx  # deferred: approx builds on this module's verdict types

    if tag == "ctr":
        if _is_stalk_shape(f.target) and not _is_stalk_shape(f.source):
            rep = approx.stalk_replacement(f.target, "cofibrant_ctr", fam, options)
            g = solver.factor_chain_map(f, rep.map, "lift", options)
            if g is None:
                return WeakEquivalenceResult(UNKNOWN)
            return is_weak_equivalence(g, tag, fam, options, _depth + 1)
        if _is_stalk_shape(f.source):
            rep = approx.stalk_replacement(f.source, "cofibrant_ctr", fam, options)
            return is_weak_equivalence(compose(f, rep.map), tag, fam, options,
                                       _depth + 1)
    else:
        if _is_stalk_shape(f.source) and not _is_stalk_shape(f.target):
            rep = approx.stalk_replacement(f.source, "fibrant_co", fam, options)
            h = solver.factor_chain_map(f, rep.map, "extend", options)
            if h is None:
                return WeakEquivalenceResult(UNKNOWN)
            return is_weak_equivalence(h, tag, fam, options, _depth + 1)
        if _is_stalk_shape(f.target):
            rep = approx.stalk_replacement(f.target, "fibrant_co", fam, options)
            return is_weak_equivalence(compose(rep.map, f), tag, fam, options,
                                       _depth + 1)
    return WeakEquivalenceResult(UNKNOWN)
