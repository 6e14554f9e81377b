"""Gorenstein approximation machinery.

Gorenstein-projective/injective approximations of modules via the
Auslander-Buchweitz pushout construction, complete (totally acyclic)
resolutions with periodic-tail closure, and the cofibrant/fibrant
replacements of stalk complexes built from them.
Each Gorenstein module is resolved once: a triple carries the resolution
of its middle term, and the replacement reads it.

The co side is the dual of the ctr side.  A fibrant replacement of S is D
of the cofibrant replacement of D(S) over the opposite algebra, against
the dual family (GeneratorFamily.opposite): its GI-preenvelope is
_dual_triple of the GP-precover of D(N), its resolution the dual of that
one's, and its two pieces are the cofibrant pieces swapped, since D
reverses degrees, with their certificates over A^op.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import functors, linalg, modelcat, modules
from .complexes import (ChainMap, Complex, chain_map, complex_from_callable, dual,
                        dual_chain_map, kernel_complex, two_sided_split)
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

    resolution, which both replacements read: (T, iso: omega(T) -> M)
    from complete_resolution(M), resp. (J = D(T), mono: Y' -> J_0 onto
    the degree-0 cycles) for the GP triple of D(N) over A^op.
    """

    side: str
    left: Module
    mid: Module
    right: Module
    mono: ModuleMap  # left -> mid
    epi: ModuleMap  # mid -> right
    resolution: tuple  # (T, iso) resp. (J, mono), see above
    finite_dim: int  # pd(left) resp. id(right)

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
        return T, _omega_witness(T, M, modules.identity_map(M))

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


def _omega_witness(T: Complex, M: Module, pi0: ModuleMap) -> ModuleMap:
    """Isomorphism omega(T) -> M descending pi0: T_0 -> M."""
    p = T.algebra.p
    OM, proj = functors.omega_data(T)
    iso = ModuleMap(OM, M, linalg.solve_matrix(proj.matrix.T, pi0.matrix.T, p).T % p)
    iso.validate()
    if not iso.is_invertible():
        raise ValidationError("omega witness is not an isomorphism")
    return iso


def _gp_helper(N: Module, depth: int):
    """(W, M, e, w) with 0 -> W -w-> M -e-> N -> 0, M GP, pd W < depth."""
    A = N.algebra
    p = A.p
    if depth == 0 or N.dim == 0:
        W = modules.zero_module(A)
        return W, N, modules.identity_map(N), modules.zero_map(W, N)
    P, pi, K, kincl = _syzygy(N)
    _, M1, e1, _ = _gp_helper(K, depth - 1)
    # the mono M1 -> Q: d_0 of M1's complete resolution, as built there
    Q, mono = (M1, modules.identity_map(M1)) if M1.is_projective else _cosyzygy(M1)[:2]
    g = (kincl.matrix @ e1.matrix) % p  # M1 -> P
    QP, _, _ = modules.direct_sum([Q, P])
    rel = np.vstack([mono.matrix, (-g) % p]) % p  # columns (m u, -g u)
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


def gp_approximation(N: Module, options: Options = Options()) -> ApproximationTriple:
    """The verified GP-precover of N with its resolution: the
    Auslander-Buchweitz pushout to depth the Gorenstein dimension of the
    algebra.  The GI-preenvelope of N is _dual_triple of the GP-precover of
    D(N) over the opposite algebra."""
    bound = options.gorenstein_bound
    d = modules.gorenstein_dimension(N.algebra, bound)
    if d is None:
        raise NotGorensteinError("approximation needs a Gorenstein base algebra")
    W, M, e, wincl = _gp_helper(N, d)
    resolution = complete_resolution(M, options)
    pdW = modules.projective_dimension(W, bound)
    if pdW is None:
        raise ValidationError("precover kernel has unbounded projective dimension")
    triple = ApproximationTriple("GP-precover", W, M, N, wincl, e, resolution, pdW)
    triple.verify()
    return triple


def _dual_triple(gp: ApproximationTriple) -> ApproximationTriple:
    """The verified GI-preenvelope 0 -> D(N) -> D(M) -> D(W) -> 0 that D
    makes of the GP-precover 0 -> W -> M -> N -> 0 over A^op, with
    id(D(W)) = pd(W)."""
    # dualizing the GP sequence flips it
    mono, epi = modules.dual_map(gp.epi), modules.dual_map(gp.mono)
    # T_0 ->> omega(T) ~ M = D(Y'); its dual is the mono Y' -> D(T)_0 onto
    # the degree-0 cycles
    T, iso = gp.resolution
    J = dual(T)
    theta = ModuleMap(epi.source, J.term(0), iso.compose(functors.omega_data(T)[1]).matrix.T.copy())
    theta.validate()
    if not theta.is_injective():
        raise ValidationError("theta witness is not a mono")
    triple = ApproximationTriple("GI-preenvelope", mono.source, epi.source, epi.target, mono, epi,
                                 (J, theta), gp.finite_dim)
    triple.verify()
    return triple


@dataclass(eq=False)
class StalkReplacement:
    object: Complex
    map: ChainMap  # q: object -> S (cofibrant) or j: S -> object (fibrant)
    which: str
    triple: ApproximationTriple
    upper: OrthogonalityResult
    lower: OrthogonalityResult
    verdict: str  # YES when both pieces certified, else UNKNOWN
    witness: ModuleMap  # of triple.resolution, with the object


_REPLACEMENT_CACHE: dict = {}


def stalk_replacement(S: Complex, which: str,
                      fam: GeneratorFamily | None = None,
                      options: Options = Options()) -> StalkReplacement:
    if not modelcat._is_stalk_shape(S):
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
        triple = gp_approximation(N, options)
        obj, witness = triple.resolution
        _, proj = functors.omega_data(obj)
        q = chain_map(obj, S, {0: ((triple.epi.matrix @ witness.matrix) % p @ proj.matrix) % p})
        if not q.is_epi():
            raise ValidationError("replacement map is not an epi in degree 0")
        upper, lower = (modelcat.orthogonal_certificate(piece, fam, options)
                        for piece in two_sided_split(kernel_complex(q)[0], 0))
        verdict = YES if upper.verdict == lower.verdict == CERTIFIED else UNKNOWN
        out = StalkReplacement(obj, q, which, triple, upper, lower, verdict, witness)
    else:  # the dual of a cofibrant replacement over A^op; D swaps the pieces
        rep = stalk_replacement(dual(S), "cofibrant_ctr", fam.opposite, options)
        triple = _dual_triple(rep.triple)
        out = StalkReplacement(triple.resolution[0], dual_chain_map(rep.map), which, triple,
                               rep.lower, rep.upper, rep.verdict, triple.resolution[1])
    _REPLACEMENT_CACHE[key] = out
    return out
