"""Membership predicates and map classification for the two model structures.

Tag "ctr": cofibrant objects are exact complexes of projectives, every
object is fibrant.  Tag "co": every object is cofibrant, fibrant objects
are exact complexes of injectives.  Orthogonality against the proper
class is replaced by a certified verdict against a finite generator
family closed under shifts; the verdict carries the family used.  The
family holds each distinct shifted complex once (GeneratorFamily.shifts),
so a shift that equals an earlier one in every degree gets no basis,
decision or pairs of its own: all seven shifts of T_per over the
built-in D2 are one complex.

Each certificate is checked once, and the verdict follows the check: an
orthogonality certificate is made only of pairs whose null-homotopy check
passed inside homotopy.null_homotopies, so it is built checked, and a
failed check gives UNKNOWN, never CERTIFIED.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import homotopy, modules, solver
from .complexes import (ChainMap, Complex, cokernel_complex, compose,
                        kernel_complex, reindex, same_complex)
from .config import Options
from .errors import NotGorensteinError, ValidationError
from .homotopy import NO, UNKNOWN, YES, Certificate, EquivalenceResult

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
    # the family of the left_of_exI side; None when this one serves both
    # sides, as complete resolutions over a self-injective algebra do
    injective: GeneratorFamily | None = None

    def __post_init__(self):
        # a negative range has no shifts and would certify any orthogonality
        if self.shift_range < 0:
            raise ValidationError(f"shift_range {self.shift_range} is negative")

    @cached_property
    def shifts(self) -> tuple:
        """T[k] for each generator T and k in -shift_range..shift_range, in
        that order, each distinct complex once: a shift that equals an
        earlier one in every degree (complexes.same_complex), of any
        generator, is left out, since orthogonality to it is orthogonality
        to that one.  All seven shifts of T_per over the built-in D2 are
        one complex: over F_2 the sign (-1)^k of the shifted differential
        is 1, and A -x-> A repeats in every degree.  A generator's shifts
        stop at its first repeat T[k] = T[j], j < k: then every later
        T[k + i] = T[j + i] repeats one too."""
        r, out = self.shift_range, []
        for T in self.generators:
            own = []
            for Tk in (reindex(T, k) for k in range(-r, r + 1)):
                if any(same_complex(Tk, S) for S in own):
                    break
                own.append(Tk)
            out += [S for S in own if not any(same_complex(S, U) for U in out)]
        return tuple(out)


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


def _cycles_in_class(X: Complex, which: str) -> bool:
    """The cycles of every distinct block of X are projective (which
    "proj") or injective."""
    B = X._blocks
    for n in range(B.lo - B.neg, B.hi + B.pos + 1):
        if not X.term(n).dim:
            continue  # no cycles
        if not homotopy._in_class(modules.kernel(X.diff_map(n))[0], which):
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
    """The generator family used when none is given; memoized on the
    algebra per options.

    Empty when every simple module has finite projective dimension within
    gorenstein_bound: the algebra then has finite global dimension, every
    exact complex of projectives is contractible, and the orthogonal is
    everything.  T_per over the built-in D2, the complete resolution of
    its simple module.  Otherwise, over a d-Gorenstein algebra, the
    complete resolutions, within periodicity_bound, of the d-th syzygies
    of the simple modules whose projective dimension is not found within
    gorenstein_bound: those syzygies are Gorenstein projective.  Unless
    the algebra is self-injective, the left_of_exI side gets its own
    family, the dual one: the complete injective resolutions of the d-th
    cosyzygies of the simple modules of infinite injective dimension.
    Raises NotGorensteinError when the algebra is not Gorenstein within
    gorenstein_bound.
    """
    from . import approx, fixtures  # deferred: approx builds on this module

    bound = options.gorenstein_bound

    def loose(alg):  # the simple modules of infinite projective dimension
        return [S for S in modules.simple_modules(alg)
                if modules.projective_dimension(S, bound) is None]

    def compute():
        if algebra is fixtures.D2():
            # T_per in the basis the fixture fixes, which keeps the bits of
            # every certificate over the built-in D2
            return GeneratorFamily((fixtures.t_per(),), options.shift_range)
        d = modules.gorenstein_dimension(algebra, bound) if loose(algebra) else 0
        if d is None:
            raise NotGorensteinError(
                "the default generator family needs a Gorenstein algebra; "
                f"none found within gorenstein_bound={bound}")

        def family(alg, resolve, injective=None):
            return GeneratorFamily(tuple(
                resolve(modules.syzygy(S, d), options)[0]
                for S in loose(alg)), options.shift_range, injective)

        if d == 0:
            return family(algebra, approx.complete_resolution)
        # the simples of A^op are the duals of those of A
        return family(algebra, approx.complete_resolution, family(
            modules._opposite_of(algebra), approx.complete_injective_resolution))

    return modules._memo(algebra, ("family", options), compute)


def orthogonal_certificate(X: Complex, side: str, fam: GeneratorFamily,
                           options: Options = Options()) -> OrthogonalityResult:
    if side not in ("right_of_exP", "left_of_exI"):
        raise ValueError(f"unknown side {side!r}")
    check = homotopy.is_exP if side == "right_of_exP" else homotopy.is_exI
    if side == "left_of_exI" and fam.injective is not None:
        fam = fam.injective
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


def is_weak_equivalence(f: ChainMap, tag: str,
                        fam: GeneratorFamily | None = None,
                        options: Options = Options(),
                        _depth: int = 0) -> EquivalenceResult:
    if tag not in TAGS:
        raise ValueError(f"unknown structure tag {tag!r}")
    which = "proj" if tag == "ctr" else "inj"
    if homotopy._is_ex(f.source, which) and homotopy._is_ex(f.target, which):
        return homotopy.homotopy_equivalence_certificate(f, options)
    if _depth >= 3:
        return EquivalenceResult(UNKNOWN)

    from . import approx  # deferred: approx builds on this module's verdict types

    # a stalk end is replaced: on the ctr side f lifts along the cofibrant
    # replacement of its target, on the co side it extends along the
    # fibrant replacement of its source
    near, far = (f.target, f.source) if tag == "ctr" else (f.source, f.target)
    kind, how = ("cofibrant_ctr", "lift") if tag == "ctr" else ("fibrant_co", "extend")
    if _is_stalk_shape(near) and not _is_stalk_shape(far):
        rep = approx.stalk_replacement(near, kind, fam, options)
        g = solver.factor_chain_map(f, rep.map, how, options)
        if g is None:
            return EquivalenceResult(UNKNOWN)
        return is_weak_equivalence(g, tag, fam, options, _depth + 1)
    if _is_stalk_shape(far):
        rep = approx.stalk_replacement(far, kind, fam, options)
        g = compose(f, rep.map) if tag == "ctr" else compose(rep.map, f)
        return is_weak_equivalence(g, tag, fam, options, _depth + 1)
    return EquivalenceResult(UNKNOWN)
