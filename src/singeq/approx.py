"""Gorenstein approximation machinery.

Gorenstein-projective/injective approximations of modules via the
Auslander-Buchweitz pushout construction, complete (totally acyclic)
resolutions with periodic-tail closure, and the cofibrant/fibrant
replacements of stalk complexes built from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functors, linalg, modelcat, modules
from .complexes import (ChainMap, Complex, chain_map, cokernel_complex,
                        complex_from_callable, kernel_complex, two_sided_split)
from .config import Options
from .errors import NotGorensteinError, PeriodicityError, ValidationError
from .homotopy import UNKNOWN, YES
from .modelcat import CERTIFIED, GeneratorFamily, OrthogonalityResult
from .modules import Module, ModuleMap


@dataclass(eq=False)
class GorensteinReport:
    dimension: int | None
    verdict: str  # GORENSTEIN | NOT-GORENSTEIN-WITHIN-BOUND


def check_gorenstein(algebra, bound: int = 8) -> GorensteinReport:
    d = modules.gorenstein_dimension(algebra, bound)
    if d is None:
        return GorensteinReport(None, "NOT-GORENSTEIN-WITHIN-BOUND")
    return GorensteinReport(d, "GORENSTEIN")


@dataclass(eq=False)
class ApproximationTriple:
    """Verified short exact sequence 0 -> left -> mid -> right -> 0.

    side GP-precover: 0 -> W -> M -> N -> 0 with M Gorenstein projective
    and W of finite projective dimension.  side GI-preenvelope:
    0 -> N -> Y' -> X' -> 0 with Y' Gorenstein injective and X' of finite
    injective dimension.
    """

    side: str
    left: Module
    mid: Module
    right: Module
    mono: ModuleMap  # left -> mid
    epi: ModuleMap  # mid -> right
    resolution: Complex | None = None  # GP/GI certificate of mid
    finite_dim: int | None = None  # pd(left) resp. id(right)

    def verify(self) -> None:
        p = self.left.algebra.p
        self.mono.validate()
        self.epi.validate()
        if not self.mono.is_injective() or not self.epi.is_surjective():
            raise ValidationError("approximation sequence not exact at the ends")
        if ((self.epi.matrix @ self.mono.matrix) % p).any():
            raise ValidationError("approximation composite nonzero")
        if self.left.dim + self.right.dim != self.mid.dim:
            raise ValidationError("approximation ranks do not add up")


def complete_resolution(M: Module, bound: int = 8,
                        options: Options = Options()):
    """(T, iso: omega(T) -> M) with T totally acyclic with projective terms.

    Projective covers run leftward and injective envelopes rightward
    until the (co)syzygy isomorphism class repeats, which closes the
    periodic tails.  Raises PeriodicityError if no repetition appears
    within the bound, NotGorensteinError if an envelope fails to be
    projective (the construction needs a self-injective-style fixture on
    the right half).
    """
    A = M.algebra
    p = A.p
    if M.dim == 0 or modules.split_class(M).is_projective:
        T = Complex.build(A, -1, 0, {0: M, -1: M}, {0: linalg.eye(M.dim)})
        return T, _omega_witness(T, M)

    # left half: projective covers P_0 -> P_1 -> ... with syzygies Z_i
    Zs = [M]
    Ps, pis, kappas = [], [], []
    wrap_pos = None
    for jdx in range(1, bound + 1):
        P, pi = modules.projective_cover(Zs[-1])
        Z, kincl = modules.kernel(pi)
        Ps.append(P)
        pis.append(pi)
        kappas.append(kincl)
        Zs.append(Z)
        for idx in range(jdx):
            psi = modules.find_isomorphism(Zs[idx], Zs[jdx], options)
            if psi is not None:
                wrap_pos = (idx, jdx, psi)
                break
        if wrap_pos:
            break
    if wrap_pos is None:
        raise PeriodicityError("NO-PERIODICITY-WITHIN-BOUND")
    i, j, psi = wrap_pos
    q_pos = j - i
    # wrap differential P_i -> P_{j-1}: project to Z_i, transport, include
    w = ((kappas[j - 1].matrix @ psi.matrix) % p @ pis[i].matrix) % p

    # right half: injective envelopes, required to stay projective
    Cs = [M]
    Es, iotas, projs = [], [], []
    wrap_neg = None
    for tdx in range(1, bound + 1):
        E, iota = modules.injective_envelope(Cs[-1])
        if not modules.split_class(E).is_projective:
            raise NotGorensteinError(
                "injective envelope is not projective; complete resolutions "
                "need projective-injective envelopes on the right half")
        C, cproj = modules.cokernel(iota)
        Es.append(E)
        iotas.append(iota)
        projs.append(cproj)
        Cs.append(C)
        for sdx in range(tdx):
            phi = modules.find_isomorphism(Cs[tdx], Cs[sdx], options)
            if phi is not None:
                wrap_neg = (sdx, tdx, phi)
                break
        if wrap_neg:
            break
    if wrap_neg is None:
        raise PeriodicityError("NO-PERIODICITY-WITHIN-BOUND")
    s, t, phi = wrap_neg
    q_neg = t - s
    # wrap differential E_{t-1} -> E_s: project to C_t, transport, include
    v = ((iotas[s].matrix @ phi.matrix) % p @ projs[t - 1].matrix) % p

    def pidx(n: int) -> int:  # degree n >= 0 -> index into Ps
        return n if n < j else i + (n - i) % q_pos

    def eidx(n: int) -> int:  # envelope count for degree n <= -1
        c = -1 - n
        return c if c < t else s + (c - s) % q_neg

    def term_fn(n: int) -> Module:
        return Ps[pidx(n)] if n >= 0 else Es[eidx(n)]

    def diff_fn(n: int) -> np.ndarray:
        if n >= 1:
            if n >= j and (n - i) % q_pos == 0:
                return w
            k = pidx(n)  # P_k -> Z_k -> P_{k-1}
            return (kappas[k - 1].matrix @ pis[k].matrix) % p
        if n == 0:
            return (iotas[0].matrix @ pis[0].matrix) % p
        c = -n  # envelope count of the target degree n-1... source is eidx(n)
        src = eidx(n)
        if eidx(n - 1) != src + 1:
            return v
        return (iotas[src + 1].matrix @ projs[src].matrix) % p

    T = complex_from_callable(A, -t, j - 1, term_fn, diff_fn, q_neg, q_pos)
    return T, _omega_witness(T, M, pis[0])


def _omega_witness(T: Complex, M: Module, pi0: ModuleMap | None = None) -> ModuleMap:
    """Isomorphism omega(T) -> M descending the degree-0 data."""
    p = T.algebra.p
    OM, proj = functors.omega_data(T)
    if pi0 is None:  # split-complex shortcut: T_0 = M, omega(T) = M
        mat = linalg.solve_matrix(proj.matrix.T, linalg.eye(M.dim).T, p).T % p
    else:
        mat = linalg.solve_matrix(proj.matrix.T, pi0.matrix.T, p).T % p
    iso = ModuleMap(OM, M, mat)
    iso.validate()
    if not iso.is_invertible():
        raise ValidationError("omega witness is not an isomorphism")
    return iso


def _gp_helper(N: Module, depth: int, bound: int, options: Options):
    """(W, M, e) with 0 -> W -> M -e-> N -> 0, M GP, pd W < depth."""
    A = N.algebra
    p = A.p
    if depth == 0 or N.dim == 0:
        W = modules.zero_module(A)
        return W, N, modules.identity_map(N), modules.zero_map(W, N)
    P, pi = modules.projective_cover(N)
    K, kincl = modules.kernel(pi)
    W1, M1, e1, w1 = _gp_helper(K, depth - 1, bound, options)
    T1, iso1 = complete_resolution(M1, bound, options)
    # mono M1 -> T1_{-1}: d_0 factors as T1_0 ->> omega(T1) -> T1_{-1},
    # and the second leg is injective by exactness; precompose iso1^{-1}
    Q = T1.term(-1)
    OM, proj = functors.omega_data(T1)
    mbar = linalg.solve_matrix(proj.matrix.T, T1.diff(0).T, p)
    if mbar is None:
        raise ValidationError("cycle inclusion failed to descend")
    mono_m = (mbar.T @ linalg.invert(iso1.matrix, p)) % p  # M1 -> Q
    g = (kincl.matrix @ e1.matrix) % p  # M1 -> P
    QP, incs, _ = modules.direct_sum([Q, P])
    rel = np.vstack([(mono_m @ linalg.eye(M1.dim)) % p,
                     (-g) % p]) % p  # columns (m u, -g u)
    X, xproj = modules.quotient_module(QP, rel)
    f0 = np.hstack([linalg.zeros(N.dim, Q.dim), pi.matrix]) % p  # QP -> N
    fmatT = linalg.solve_matrix(xproj.matrix.T, f0.T, p)
    if fmatT is None:
        raise ValidationError("precover epi failed to descend to the pushout")
    f = ModuleMap(X, N, fmatT.T % p)
    f.validate()
    if not f.is_surjective():
        raise ValidationError("pushout map is not surjective")
    W, wincl = modules.kernel(f)
    return W, X, f, wincl


def gp_gi_approximation(N: Module, side: str,
                        options: Options = Options()) -> ApproximationTriple:
    A = N.algebra
    bound = options.gorenstein_bound
    report = check_gorenstein(A, bound)
    if report.verdict != "GORENSTEIN":
        raise NotGorensteinError("approximation needs a Gorenstein base algebra")
    d = report.dimension
    if side == "GP":
        W, M, e, wincl = _gp_helper(N, d, options.periodicity_bound, options)
        T, _ = complete_resolution(M, options.periodicity_bound, options)
        pdW = modules.projective_dimension(W, bound)
        if pdW is None:
            raise ValidationError("precover kernel has unbounded projective dimension")
        triple = ApproximationTriple("GP-precover", W, M, N, wincl, e, T, pdW)
        triple.verify()
        return triple
    if side == "GI":
        DN = modules.dual_module(N)
        opp = gp_gi_approximation(DN, "GP", options)
        Yp = modules.dual_module(opp.mid)
        Xp = modules.dual_module(opp.left)
        # dualizing the GP sequence flips it; double duals are literal
        mono = ModuleMap(N, Yp, opp.epi.matrix.T % A.p)
        epi = ModuleMap(Yp, Xp, opp.mono.matrix.T % A.p)
        idim = modules.injective_dimension(Xp, bound)
        if idim is None:
            raise ValidationError("preenvelope cokernel has unbounded injective dimension")
        triple = ApproximationTriple("GI-preenvelope", N, Yp, Xp, mono, epi,
                                     None, idim)
        triple.verify()
        return triple
    raise ValueError(f"unknown approximation side {side!r}")


def complete_injective_resolution(Yp_dual_gp: Module, bound: int,
                                  options: Options = Options()):
    """(J, mono: D(dual) -> J_0) for the Gorenstein injective D(input).

    The input is a Gorenstein projective module over the opposite
    algebra; J is the degreewise dual of its complete resolution, a
    totally acyclic complex of injectives whose degree-0 cycles recover
    the dual module.
    """
    Top, iso_op = complete_resolution(Yp_dual_gp, bound, options)
    A = modules._opposite_of(Yp_dual_gp.algebra)
    p = A.p
    OMop, projop = functors.omega_data(Top)
    # c: Top_0 ->> D(Y') over A^op; its dual is the mono Y' -> J_0
    c = (iso_op.matrix @ projop.matrix) % p

    def term_fn(n: int) -> Module:
        return modules.dual_module(Top.term(-n))

    def diff_fn(n: int) -> np.ndarray:
        return Top.diff(1 - n).T % p

    J = complex_from_callable(A, -Top.hi, -Top.lo, term_fn, diff_fn,
                              Top.pos_period, Top.neg_period)
    Yp = modules.dual_module(Yp_dual_gp)
    mono = ModuleMap(Yp, J.term(0), c.T % p)
    mono.validate()
    if not mono.is_injective():
        raise ValidationError("theta witness is not a mono")
    return J, mono


@dataclass(eq=False)
class StalkReplacement:
    object: Complex
    map: ChainMap  # q: object -> S (cofibrant) or j: S -> object (fibrant)
    which: str
    triple: ApproximationTriple
    upper: OrthogonalityResult
    lower: OrthogonalityResult
    verdict: str  # YES when both pieces certified, else UNKNOWN
    # cofibrant: iso omega(object) -> triple.mid;
    # fibrant: mono triple.mid -> object_0 with image the degree-0 cycles
    witness: ModuleMap | None = None


_REPLACEMENT_CACHE: dict = {}


def stalk_replacement(S: Complex, which: str,
                      fam: GeneratorFamily | None = None,
                      options: Options = Options()) -> StalkReplacement:
    if any(S.term(n).dim for n in range(S.lo, S.hi + 1) if n != 0) or not S.bounded():
        raise ValidationError("replacement is implemented for stalk complexes only")
    N = S.term(0)
    p = S.algebra.p
    if fam is None:
        fam = modelcat.default_family(S.algebra, options)
    bound = options.periodicity_bound
    # replacements depend only on the stalk module's presentation and on
    # every search bound, so the key holds the full Options
    key = (id(S.algebra), which, N.dim,
           tuple(a.tobytes() for a in N.action), id(fam), options)
    cached = _REPLACEMENT_CACHE.get(key)
    if cached is not None:
        old = cached
        if old.which == "cofibrant_ctr":
            remapped = chain_map(old.object, S, dict(old.map.components))
        else:
            remapped = chain_map(S, old.object, dict(old.map.components))
        return StalkReplacement(old.object, remapped, old.which, old.triple,
                                old.upper, old.lower, old.verdict, old.witness)

    if which == "cofibrant_ctr":
        triple = gp_gi_approximation(N, "GP", options)
        T, iso = complete_resolution(triple.mid, bound, options)
        _, proj = functors.omega_data(T)
        q0 = ((triple.epi.matrix @ iso.matrix) % p @ proj.matrix) % p
        q = chain_map(T, S, {0: q0})
        if not q.is_epi():
            raise ValidationError("replacement map is not an epi in degree 0")
        K, _ = kernel_complex(q)
        split = two_sided_split(K, 0)
        upper = modelcat.orthogonal_certificate(split.upper, "right_of_exP",
                                                fam, options)
        lower = modelcat.orthogonal_certificate(split.lower, "right_of_exP",
                                                fam, options)
        verdict = YES if (upper.verdict == CERTIFIED and
                          lower.verdict == CERTIFIED) else UNKNOWN
        out = StalkReplacement(T, q, which, triple, upper, lower, verdict, iso)
        _REPLACEMENT_CACHE[key] = out
        return out

    if which == "fibrant_co":
        triple = gp_gi_approximation(N, "GI", options)
        # triple.mid = D(M_op) for a GP module M_op over the opposite algebra
        M_op = modules.dual_module(triple.mid)
        J, theta_mono = complete_injective_resolution(M_op, bound, options)
        j0 = (theta_mono.matrix @ triple.mono.matrix) % p
        jmap = chain_map(S, J, {0: j0})
        if not jmap.is_mono():
            raise ValidationError("replacement map is not a mono in degree 0")
        C, _ = cokernel_complex(jmap)
        split = two_sided_split(C, 0)
        upper = modelcat.orthogonal_certificate(split.upper, "left_of_exI",
                                                fam, options)
        lower = modelcat.orthogonal_certificate(split.lower, "left_of_exI",
                                                fam, options)
        verdict = YES if (upper.verdict == CERTIFIED and
                          lower.verdict == CERTIFIED) else UNKNOWN
        out = StalkReplacement(J, jmap, which, triple, upper, lower, verdict,
                               ModuleMap(triple.mid, J.term(0), theta_mono.matrix))
        _REPLACEMENT_CACHE[key] = out
        return out

    raise ValueError(f"unknown replacement kind {which!r}")
