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

Orthogonality has one side, right of exP.  The duality D = Hom_k(-, k)
exchanges exP and exI over the opposite algebra, so the co side's trivial
cofibrations ask whether D of the cokernel is right-orthogonal to the
duals of the co generators (GeneratorFamily.opposite); the certificate,
witness and family a co flag carries are over A^op, and
homotopy.verify_certificate checks them there.

Each certificate is checked once, and the verdict follows the check: an
orthogonality certificate is made only of pairs whose null-homotopy check
passed inside homotopy.null_homotopies, so it is built checked, and a
failed check gives UNKNOWN, never CERTIFIED.  A CERTIFIED verdict is
remembered on the complex it describes through solver._remembered, as
every re-checked result is; membership_flags are remembered on the
complex too, as its exactness is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import homotopy, linalg, modules, solver
from .complexes import (ChainMap, Complex, Homotopy, _copied, _kept, cokernel_complex,
                        compose, dual, kernel_complex, reindex, same_complex)
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
    # the family of the co side; None when this one serves both sides, as
    # complete resolutions over a self-injective algebra do
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

    @cached_property
    def opposite(self) -> GeneratorFamily:
        """The duals over A^op of the co side's generators (injective, or
        this family when it serves both sides): the family a co question
        asked on duals is answered against.  For a default family these
        are the complete resolutions over A^op that it dualized, since
        dual(dual(X)) is X."""
        fam = self.injective or self
        return GeneratorFamily(tuple(map(dual, fam.generators)), fam.shift_range)


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
    "proj") or injective: one kernel per distinct (term, differential)
    pair of X's table, as homotopy._terms_in_class reads its terms."""
    p = X.algebra.p
    blocks = {(id(t), id(d)): (t, d) for t, d in X._blocks.data if t.dim}  # 0 has no cycles
    return all(homotopy._in_class(modules.submodule(t, linalg.kernel_basis(d, p))[0], which)
               for t, d in blocks.values())


def membership_flags(X: Complex) -> MembershipFlags:
    """X's four memberships, memoized on X (X._membership["flags"]), as
    its "exact", "proj" and "inj" verdicts are."""
    memo = X._membership
    if "flags" not in memo:
        exP = homotopy.is_exP(X)
        exI = homotopy.is_exI(X)
        memo["flags"] = MembershipFlags(
            in_exP=exP,
            in_exI=exI,
            in_tildeP=exP and _cycles_in_class(X, "proj"),
            in_tildeI=exI and _cycles_in_class(X, "inj"),
        )
    return memo["flags"]


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
    the algebra is self-injective, the co side gets its own family
    (GeneratorFamily.injective), the dual one: the duals of the complete
    resolutions over A^op of the d-th syzygies of its simple modules of
    infinite projective dimension, which are the complete injective
    resolutions of the d-th cosyzygies of the simple modules of infinite
    injective dimension.
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

        def resolutions(alg):
            return tuple(approx.complete_resolution(modules.syzygy(S, d), options)[0]
                         for S in loose(alg))

        injective = None
        if d:  # the simples of A^op are the duals of those of A
            injective = GeneratorFamily(tuple(map(dual, resolutions(
                modules._opposite_of(algebra)))), options.shift_range)
        return GeneratorFamily(resolutions(algebra), options.shift_range, injective)

    return modules._memo(algebra, ("family", options), compute)


def orthogonal_certificate(X: Complex, fam: GeneratorFamily,
                           options: Options = Options()) -> OrthogonalityResult:
    """CERTIFIED when every chain map into X from each shift of fam is
    null-homotopic, REFUTED with a map that is not, else UNKNOWN: whether X
    is right-orthogonal to exP.  X is left-orthogonal to exI exactly when
    D(X) is right-orthogonal to the duals fam.opposite over A^op, so the
    co side asks orthogonal_certificate(dual(X), fam.opposite) and reads
    its certificate and witness over A^op.

    Remembered through solver._remembered in X._solved[fam], the family
    held weakly, under the Options: a CERTIFIED result as each pair's shift
    index in fam.shifts and the family columns of its map and homotopy
    (complexes._kept).  The certificate a miss hands out shares its arrays
    with the entry, so its pairs are read-only.  REFUTED and UNKNOWN are
    not remembered."""
    for T in fam.generators:
        if not homotopy.is_exP(T, options):
            raise ValidationError("generator fails its own membership check")

    def rebuild(kept):
        pairs = [(_copied(ChainMap, fam.shifts[i], X, f), _copied(Homotopy, fam.shifts[i], X, s))
                 for i, f, s in kept]
        cert = Certificate("orthogonality", {"pairs": pairs})
        return OrthogonalityResult(CERTIFIED, certificate=cert, family=fam)

    def solve():  # the one (result, value) of the scan, for _remembered
        pairs = []
        for i, T in enumerate(fam.shifts):
            basis, _ = solver.chain_map_space_basis(T, X, options)
            for f, res in zip(basis, homotopy.null_homotopies(basis, options)):
                if res.verdict == NO:
                    return [(OrthogonalityResult(REFUTED, witness=f, family=fam), None)]
                pairs.append((i, f, res.homotopy))  # None on an UNKNOWN, and the scan goes on
        if any(s is None for _, _, s in pairs):
            return [(OrthogonalityResult(UNKNOWN, family=fam), None)]
        # every pair passed its check in null_homotopies; the entry shares their arrays
        cert = Certificate("orthogonality", {"pairs": [modules._read_only((f, s))
                                                       for _, f, s in pairs]}, checked=True)
        return [(OrthogonalityResult(CERTIFIED, certificate=cert, family=fam),
                 tuple([(i, _kept(f), _kept(s)) for i, f, s in pairs]))]

    return solver._remembered(X, fam, options, (), solve, rebuild, homotopy._holds)


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
        cflags = membership_flags(coker)
        cof = _bool_flag(mono and cflags.in_exP,
                         "not a mono" if not mono else "cokernel not in exP~")
        tcof = _bool_flag(mono and cflags.in_tildeP,
                          "not a mono" if not mono else "cokernel not in P~")
        fib = _bool_flag(epi, "not an epi")
        tfib = _orth_flag(epi, "not an epi",
                          orthogonal_certificate(ker, fam, options)
                          if epi else OrthogonalityResult(UNKNOWN))
    else:
        kflags = membership_flags(ker)
        fib = _bool_flag(epi and kflags.in_exI,
                         "not an epi" if not epi else "kernel not in exI~")
        tfib = _bool_flag(epi and kflags.in_tildeI,
                          "not an epi" if not epi else "kernel not in I~")
        cof = _bool_flag(mono, "not a mono")
        tcof = _orth_flag(mono, "not a mono",
                          orthogonal_certificate(dual(coker), fam.opposite, options)
                          if mono else OrthogonalityResult(UNKNOWN))
    return MapClassification(cof, tcof, fib, tfib)


def _is_stalk_shape(X: Complex) -> bool:
    return X.bounded() and all(
        X.term(n).dim == 0 for n in range(X.lo, X.hi + 1) if n != 0)


def is_weak_equivalence(f: ChainMap, tag: str,
                        fam: GeneratorFamily | None = None,
                        options: Options = Options()) -> EquivalenceResult:
    """Whether f is a weak equivalence of the tag's model structure: a
    homotopy equivalence once each end is in the class (exP on "ctr",
    exI on "co").  A stalk end outside the class is replaced first, in at
    most two steps, since its replacement is never a stalk: the far end
    (the source on "ctr", the target on "co") by composing with its
    replacement, then the near end by factoring f through its own (a lift
    on "ctr", an extension on "co").  UNKNOWN when an end outside the
    class is no stalk, or the factor is not found."""
    if tag not in TAGS:
        raise ValueError(f"unknown structure tag {tag!r}")
    from . import approx  # deferred: approx builds on this module's verdict types

    which = "proj" if tag == "ctr" else "inj"
    kind, how = ("cofibrant_ctr", "lift") if tag == "ctr" else ("fibrant_co", "extend")

    def outside(X):  # a stalk end outside the class, which gets replaced
        return _is_stalk_shape(X) and not homotopy._is_ex(X, which)

    far = f.source if tag == "ctr" else f.target
    if outside(far):
        rep = approx.stalk_replacement(far, kind, fam, options)
        f = compose(f, rep.map) if tag == "ctr" else compose(rep.map, f)
    near = f.target if tag == "ctr" else f.source
    if outside(near):
        rep = approx.stalk_replacement(near, kind, fam, options)
        f = solver.factor_chain_map(f, rep.map, how, options)
        if f is None:
            return EquivalenceResult(UNKNOWN)
    if homotopy._is_ex(f.source, which) and homotopy._is_ex(f.target, which):
        return homotopy.homotopy_equivalence_certificate(f, options)
    return EquivalenceResult(UNKNOWN)
