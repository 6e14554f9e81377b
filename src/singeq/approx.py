"""Gorenstein approximation machinery.

Gorenstein-projective/injective approximations of modules via the
Auslander-Buchweitz pushout construction, complete (totally acyclic)
resolutions with periodic-tail closure, and the cofibrant/fibrant
replacements of stalk complexes built from them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import functors, linalg, modelcat, modules
from .complexes import (ChainMap, Complex, chain_map, cokernel_complex,
                        complex_from_callable, dual, kernel_complex, two_sided_split)
from .config import Options
from .errors import NotGorensteinError, PeriodicityError, ValidationError
from .homotopy import UNKNOWN, YES
from .modelcat import CERTIFIED, GeneratorFamily, OrthogonalityResult
from .modules import Module, ModuleMap


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


def _syzygy(Z: Module):
    """(P, pi, Z', kappa): the projective cover pi: P ->> Z and its kernel
    kappa: Z' -> P."""
    P, pi = modules.projective_cover(Z)
    return P, pi, *modules.kernel(pi)


def _cosyzygy(C: Module):
    """(E, iota, C', proj): the minimal left add(A)-approximation
    iota: C -> E, required to be mono, and its cokernel proj: E ->> C'."""
    E, iota = modules.left_projective_approximation(C)
    if not iota.is_injective():
        raise NotGorensteinError("module is not Gorenstein projective: a cosyzygy does not "
                                 "embed in a projective module")
    return E, iota, *modules.cokernel(iota)


def _tower(M: Module, step, name: str, options: Options, later_first: bool = False):
    """Steps (P_k, a_k, C_{k+1}, b_k) = step(C_k) from C_0 = M until C_j is
    isomorphic to an earlier C_i: (the steps as columns, i, j, the
    isomorphism found by find_isomorphism(C_i, C_j), or (C_j, C_i) when
    later_first)."""
    bound = options.periodicity_bound
    Cs, steps = [M], []
    for j in range(1, bound + 1):
        steps.append(step(Cs[-1]))
        Cs.append(steps[-1][2])
        for i in range(j):
            pair = (Cs[j], Cs[i]) if later_first else (Cs[i], Cs[j])
            iso = modules.find_isomorphism(*pair, options)
            if iso is not None:
                return tuple(zip(*steps)), i, j, iso
    raise PeriodicityError(f"NO-PERIODICITY-WITHIN-BOUND: no {name} repeats "
                           f"within periodicity_bound={bound}")


def complete_resolution(M: Module, options: Options = Options()):
    """(T, iso: omega(T) -> M) with T totally acyclic with projective terms.

    Projective covers run leftward and minimal left add(A)-approximations
    (injective envelopes over a self-injective algebra) rightward until
    the (co)syzygy isomorphism class repeats, which closes the periodic
    tails.  Raises PeriodicityError if no repetition appears within
    periodicity_bound, NotGorensteinError if an approximation is not
    injective: M is then not Gorenstein projective.
    """
    A = M.algebra
    if M.is_projective:
        T = Complex.build(A, -1, 0, {0: M, -1: M}, {0: linalg.eye(M.dim)})
        return T, _omega_witness(T, M)

    (Ps, pis, _, kappas), i, j, psi = _tower(M, _syzygy, "syzygy", options)
    (Es, iotas, _, projs), s, t, phi = _tower(M, _cosyzygy, "cosyzygy", options,
                                              later_first=True)

    # the wrap differentials P_i -> P_{j-1} and E_{t-1} -> E_s: project to
    # the repeated (co)syzygy, transport, include
    w = kappas[j - 1].compose(psi).compose(pis[i]).matrix
    v = iotas[s].compose(phi).compose(projs[t - 1]).matrix

    def fold(c: int, first: int, last: int) -> int:  # tower position of the c-th term
        return c if c < last else first + (c - first) % (last - first)

    def term_fn(n: int) -> Module:
        return Ps[fold(n, i, j)] if n >= 0 else Es[fold(-1 - n, s, t)]

    def diff_fn(n: int) -> np.ndarray:
        if n == 0:
            return iotas[0].compose(pis[0]).matrix
        if n > 0:  # P_b -> Z_b -> P_a
            a, b = fold(n - 1, i, j), fold(n, i, j)
            return kappas[a].compose(pis[b]).matrix if b == a + 1 else w
        a, b = fold(-1 - n, s, t), fold(-n, s, t)  # E_a -> C_b -> E_b
        return iotas[b].compose(projs[a]).matrix if b == a + 1 else v

    T = complex_from_callable(A, -t, j - 1, term_fn, diff_fn, t - s, j - i)
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


def _gp_helper(N: Module, depth: int, options: Options):
    """(W, M, e) with 0 -> W -> M -e-> N -> 0, M GP, pd W < depth."""
    A = N.algebra
    p = A.p
    if depth == 0 or N.dim == 0:
        W = modules.zero_module(A)
        return W, N, modules.identity_map(N), modules.zero_map(W, N)
    P, pi = modules.projective_cover(N)
    K, kincl = modules.kernel(pi)
    W1, M1, e1, w1 = _gp_helper(K, depth - 1, options)
    T1, iso1 = complete_resolution(M1, options)
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
    d = modules.gorenstein_dimension(A, bound)
    if d is None:
        raise NotGorensteinError("approximation needs a Gorenstein base algebra")
    if side == "GP":
        W, M, e, wincl = _gp_helper(N, d, options)
        T, _ = complete_resolution(M, options)
        pdW = modules.projective_dimension(W, bound)
        if pdW is None:
            raise ValidationError("precover kernel has unbounded projective dimension")
        triple = ApproximationTriple("GP-precover", W, M, N, wincl, e, T, pdW)
        triple.verify()
        return triple
    if side == "GI":
        opp = gp_gi_approximation(modules.dual_module(N), "GP", options)
        # dualizing the GP sequence flips it
        mono, epi = modules.dual_map(opp.epi), modules.dual_map(opp.mono)
        Yp, Xp = epi.source, epi.target
        idim = modules.injective_dimension(Xp, bound)
        if idim is None:
            raise ValidationError("preenvelope cokernel has unbounded injective dimension")
        triple = ApproximationTriple("GI-preenvelope", N, Yp, Xp, mono, epi,
                                     None, idim)
        triple.verify()
        return triple
    raise ValueError(f"unknown approximation side {side!r}")


def complete_injective_resolution(Yp_dual_gp: Module, options: Options = Options()):
    """(J, mono: D(dual) -> J_0) for the Gorenstein injective D(input).

    The input is a Gorenstein projective module over the opposite algebra;
    J is the dual of its complete resolution, a totally acyclic complex of
    injectives whose degree-0 cycles recover the dual module.
    """
    Top, iso_op = complete_resolution(Yp_dual_gp, options)
    # Top_0 ->> omega(Top) ~ D(Y') over A^op; its dual is the mono Y' -> J_0
    mono = modules.dual_map(iso_op.compose(functors.omega_data(Top)[1]))
    mono.validate()
    if not mono.is_injective():
        raise ValidationError("theta witness is not a mono")
    return dual(Top), mono


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
    if which not in ("cofibrant_ctr", "fibrant_co"):
        raise ValueError(f"unknown replacement kind {which!r}")
    N = S.term(0)
    p = S.algebra.p
    if fam is None:
        fam = modelcat.default_family(S.algebra, options)
    # replacements depend only on the stalk module's presentation and on
    # every search bound, so the key holds the full Options; the algebra
    # and the family hash by identity, and the key keeps them alive, so a
    # recycled id never reads another family's entry
    key = (S.algebra, which, N.dim, tuple(a.tobytes() for a in N.action), fam, options)
    cached = _REPLACEMENT_CACHE.get(key)
    if cached is not None:
        # the cached map is a chain map on any checked stalk of the key's module
        ends = (cached.object, S) if which == "cofibrant_ctr" else (S, cached.object)
        return replace(cached, map=chain_map(*ends, dict(cached.map.components),
                                             checked=S._checked and cached.map._checked))

    if which == "cofibrant_ctr":
        triple = gp_gi_approximation(N, "GP", options)
        obj, witness = complete_resolution(triple.mid, options)
        _, proj = functors.omega_data(obj)
        q = chain_map(obj, S, {0: ((triple.epi.matrix @ witness.matrix) % p @ proj.matrix) % p})
        if not q.is_epi():
            raise ValidationError("replacement map is not an epi in degree 0")
        rest, side = kernel_complex(q)[0], "right_of_exP"
    else:
        triple = gp_gi_approximation(N, "GI", options)
        # triple.mid = D(M_op) for a GP module M_op over the opposite algebra
        obj, theta_mono = complete_injective_resolution(
            modules.dual_module(triple.mid), options)
        q = chain_map(S, obj, {0: (theta_mono.matrix @ triple.mono.matrix) % p})
        if not q.is_mono():
            raise ValidationError("replacement map is not a mono in degree 0")
        witness = ModuleMap(triple.mid, obj.term(0), theta_mono.matrix)
        rest, side = cokernel_complex(q)[0], "left_of_exI"
    upper, lower = (modelcat.orthogonal_certificate(piece, side, fam, options)
                    for piece in two_sided_split(rest, 0))
    verdict = YES if upper.verdict == lower.verdict == CERTIFIED else UNKNOWN
    out = StalkReplacement(obj, q, which, triple, upper, lower, verdict, witness)
    _REPLACEMENT_CACHE[key] = out
    return out
