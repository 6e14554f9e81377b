"""Null-homotopy and homotopy-equivalence solvers.

Three strategies decide whether a chain map is null-homotopic: a complete
finite solve when one side is bounded, the stable syzygy criterion for
totally acyclic complexes of projectives over a Gorenstein algebra, and a
periodic-ansatz search otherwise.  UNKNOWN is a value, never upgraded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functors, linalg, modules
from .complexes import (ChainMap, Complex, Homotopy, _lcm, _map_profile,
                        add_maps, chain_map_from_callable, compose, cone,
                        identity_chain_map, is_exact)
from .config import Options
from .errors import ValidationError
from .solver import FoldedSystem

YES = "YES"
NO = "NO"
UNKNOWN = "UNKNOWN"

_MEMBERSHIP_CACHE: dict = {}
_GORENSTEIN_CACHE: dict = {}


@dataclass(eq=False)
class Certificate:
    """Re-checkable evidence: a payload of maps plus the equations they satisfy."""

    kind: str  # null-homotopy | contraction | homotopy-inverse | splitting | orthogonality
    payload: dict
    checked: bool = False


@dataclass(eq=False)
class NullHomotopyResult:
    verdict: str
    homotopy: Homotopy | None = None
    certificate: Certificate | None = None
    strategy: str = ""


@dataclass(eq=False)
class EquivalenceResult:
    verdict: str
    certificate: Certificate | None = None


def verify_null_homotopy(f: ChainMap, s: Homotopy) -> bool:
    """f_n == d s_n + s_{n-1} d at every degree of the common check range."""
    p = f.source.algebra.p
    X, Y = f.source, f.target
    q = _lcm([f.neg_period, f.pos_period, s.neg_period, s.pos_period,
              X.neg_period, X.pos_period, Y.neg_period, Y.pos_period])
    a = min(f.clo, s.clo, X.lo, Y.lo) - 2 * q - 1
    b = max(f.chi, s.chi, X.hi, Y.hi) + 2 * q + 1
    for n in range(a, b + 1):
        sn = s.component(n)
        if sn.shape != (Y.term(n + 1).dim, X.term(n).dim):
            return False
        lhs = (Y.diff(n + 1) @ sn + s.component(n - 1) @ X.diff(n)) % p
        if not np.array_equal(lhs, f.component(n)):
            return False
        try:
            modules.ModuleMap(X.term(n), Y.term(n + 1), sn).validate()
        except ValidationError:
            return False
    return True


def verify_certificate(cert: Certificate) -> bool:
    if cert.kind in ("null-homotopy", "contraction"):
        ok = verify_null_homotopy(cert.payload["map"], cert.payload["homotopy"])
    elif cert.kind == "homotopy-inverse":
        ok = _verify_inverse_payload(cert.payload)
    elif cert.kind == "splitting":
        r, sct = cert.payload["retraction"], cert.payload["section"]
        ok = r.compose(sct).matrix is not None and np.array_equal(
            r.compose(sct).matrix, linalg.eye(sct.source.dim))
    elif cert.kind == "orthogonality":
        ok = all(verify_null_homotopy(f, s) for f, s in cert.payload["pairs"])
    else:
        raise ValueError(f"unknown certificate kind {cert.kind!r}")
    cert.checked = ok
    return ok


def _verify_inverse_payload(payload: dict) -> bool:
    f, g = payload["map"], payload["inverse"]
    hX, hY = payload["homotopy_source"], payload["homotopy_target"]
    gf_id = add_maps(compose(g, f), identity_chain_map(f.source), sign=-1)
    fg_id = add_maps(compose(f, g), identity_chain_map(f.target), sign=-1)
    return verify_null_homotopy(gf_id, hX) and verify_null_homotopy(fg_id, hY)


def _homotopy_from_solution(f: ChainMap, sys: FoldedSystem, comps: dict) -> Homotopy:
    neg, pos = sys.fold_blocks(comps)
    comps = {n: m for n, m in comps.items() if m.size}
    return Homotopy(f.source, f.target, comps, sys.lo, sys.hi, neg, pos)


def _homotopy_system(f: ChainMap, lo: int, hi: int, fold: int,
                     eq_lo: int, eq_hi: int) -> FoldedSystem:
    X, Y = f.source, f.target
    p = X.algebra.p
    shapes = {n: (Y.term(n + 1).dim, X.term(n).dim) for n in range(lo, hi + 1)}
    sys = FoldedSystem(p, shapes, lo, hi, fold)
    for n in range(lo, hi + 1):
        r, c = shapes[n]
        if r and c:
            src, tgt = X.term(n), Y.term(n + 1)
            for aS, aT in zip(src.action, tgt.action):
                sys.add_equation(linalg.zeros(r, c), [
                    (linalg.eye(r), n, aS),
                    ((-aT) % p, n, linalg.eye(c)),
                ])
    for n in range(eq_lo, eq_hi + 1):
        rows, cols = Y.term(n).dim, X.term(n).dim
        if rows == 0 or cols == 0:
            continue
        sys.add_equation(f.component(n), [
            (Y.diff(n + 1), n, linalg.eye(cols)),
            (linalg.eye(rows), n - 1, X.diff(n)),
        ])
    return sys


def _solve_bounded(f: ChainMap):
    X, Y = f.source, f.target
    blo, bhi = (X.lo, X.hi) if X.bounded() else (Y.lo, Y.hi)
    lo, hi = blo - 2, bhi + 2
    sys = _homotopy_system(f, lo, hi, 0, lo, hi)
    comps = sys.solve()
    if comps is None:
        return None
    return _homotopy_from_solution(f, sys, comps)


def search_periodic_homotopy(f: ChainMap, m: int):
    """Homotopy whose tails have period m * lcm of the tail periods, or None."""
    X, Y = f.source, f.target
    L = _lcm([X.neg_period, X.pos_period, Y.neg_period, Y.pos_period,
              f.neg_period, f.pos_period])
    P = max(1, m) * L
    lo = min(X.lo, Y.lo, f.clo) - P
    hi = max(X.hi, Y.hi, f.chi) + P
    sys = _homotopy_system(f, lo, hi, P, lo - P, hi + P)
    comps = sys.solve()
    if comps is None:
        return None
    s = _homotopy_from_solution(f, sys, comps)
    return s if verify_null_homotopy(f, s) else None


def _gorenstein_dim(algebra, options: Options):
    key = (id(algebra), options)
    if key not in _GORENSTEIN_CACHE:
        _GORENSTEIN_CACHE[key] = (
            algebra, modules.gorenstein_dimension(algebra, options.gorenstein_bound))
    return _GORENSTEIN_CACHE[key][1]


def _terms_in_class(X: Complex, which: str) -> bool:
    q = _lcm([X.neg_period, X.pos_period])
    for n in range(X.lo - q, X.hi + q + 1):
        cls = modules.split_class(X.term(n))
        if not (cls.is_projective if which == "proj" else cls.is_injective):
            return False
    return True


def is_exP(X: Complex, options: Options = Options()) -> bool:
    """Exact with projective terms (checked over window plus one tail period)."""
    key = (id(X), "P")
    if key not in _MEMBERSHIP_CACHE:
        _MEMBERSHIP_CACHE[key] = (X, is_exact(X) and _terms_in_class(X, "proj"))
    return _MEMBERSHIP_CACHE[key][1]


def is_exI(X: Complex, options: Options = Options()) -> bool:
    """Exact with injective terms (checked over window plus one tail period)."""
    key = (id(X), "I")
    if key not in _MEMBERSHIP_CACHE:
        _MEMBERSHIP_CACHE[key] = (X, is_exact(X) and _terms_in_class(X, "inj"))
    return _MEMBERSHIP_CACHE[key][1]


def factors_through_projective(g: modules.ModuleMap) -> bool:
    """Whether g lifts along the projective cover of its target."""
    if g.source.dim == 0 or g.target.dim == 0:
        return True
    P, epi = modules.projective_cover(g.target)
    p = g.source.algebra.p
    sys = FoldedSystem(p, {0: (P.dim, g.source.dim)}, 0, 0)
    sys.require_module_map(0, g.source, P)
    sys.add_equation(g.matrix, [(epi.matrix, 0, linalg.eye(g.source.dim))])
    return sys.solve() is not None


def factors_through_injective(g: modules.ModuleMap) -> bool:
    """Whether g extends along the injective envelope of its source."""
    if g.source.dim == 0 or g.target.dim == 0:
        return True
    E, iota = modules.injective_envelope(g.source)
    p = g.source.algebra.p
    sys = FoldedSystem(p, {0: (g.target.dim, E.dim)}, 0, 0)
    sys.require_module_map(0, E, g.target)
    sys.add_equation(g.matrix, [(linalg.eye(g.target.dim), 0, iota.matrix)])
    return sys.solve() is not None


def stably_zero(f: ChainMap) -> bool:
    """Stable criterion for maps of totally acyclic complexes of projectives."""
    return factors_through_projective(functors.omega_map(f))


def null_homotopy(f: ChainMap, options: Options = Options()) -> NullHomotopyResult:
    X, Y = f.source, f.target
    if X.bounded() or Y.bounded():
        s = _solve_bounded(f)
        if s is None:
            return NullHomotopyResult(NO, strategy="bounded")
        cert = Certificate("null-homotopy", {"map": f, "homotopy": s})
        verify_certificate(cert)
        return NullHomotopyResult(YES, s, cert, strategy="bounded")

    stable_applies = (
        _gorenstein_dim(X.algebra, options) is not None
        and is_exP(X, options) and is_exP(Y, options)
    )
    if stable_applies and not stably_zero(f):
        return NullHomotopyResult(NO, strategy="stable")

    for m in range(1, options.homotopy_period_bound + 1):
        s = search_periodic_homotopy(f, m)
        if s is not None:
            # already verified inside the search
            cert = Certificate("null-homotopy", {"map": f, "homotopy": s},
                               checked=True)
            strategy = "stable+periodic" if stable_applies else "periodic"
            return NullHomotopyResult(YES, s, cert, strategy=strategy)
    # The stable criterion may say "homotopic to zero" without a
    # periodic-tailed witness inside the search bound; stay honest.
    return NullHomotopyResult(UNKNOWN, strategy="stable" if stable_applies else "periodic")


def _cone_blocks(f: ChainMap, s: Homotopy, n: int):
    """Split s_n: X_{n-1} + Y_n -> X_n + Y_{n+1} into its four blocks."""
    xr = f.source.term(n).dim
    xc = f.source.term(n - 1).dim
    m = s.component(n)
    return m[:xr, :xc], m[:xr, xc:], m[xr:, :xc], m[xr:, xc:]


def homotopy_equivalence_certificate(
    f: ChainMap, options: Options = Options()
) -> EquivalenceResult:
    """Homotopy inverse with both homotopies, extracted from a cone contraction."""
    C = cone(f)
    if not is_exact(C):
        return EquivalenceResult(NO)
    res = null_homotopy(identity_chain_map(C), options)
    if res.verdict != YES:
        return EquivalenceResult(res.verdict)
    s = res.homotopy
    X, Y = f.source, f.target
    p = X.algebra.p
    lo, hi, nq, pq = _map_profile(f, X, Y)
    sq = _lcm([nq, pq, s.neg_period, s.pos_period])
    lo, hi = min(lo, s.clo), max(hi, s.chi)

    g = chain_map_from_callable(Y, X, lo, hi,
                                lambda n: _cone_blocks(f, s, n)[1], sq, sq)
    hX = _graded_from_callable(X, X, lo, hi,
                               lambda n: _cone_blocks(f, s, n + 1)[0], sq, p)
    hY = _graded_from_callable(Y, Y, lo, hi,
                               lambda n: (-_cone_blocks(f, s, n)[3]) % p, sq, p)
    cert = Certificate("homotopy-inverse", {
        "map": f, "inverse": g, "homotopy_source": hX, "homotopy_target": hY,
        "contraction": s,
    })
    if not verify_certificate(cert):
        return EquivalenceResult(UNKNOWN)
    return EquivalenceResult(YES, cert)


def _graded_from_callable(X, Y, lo, hi, fn, q, p) -> Homotopy:
    comps = {n: fn(n) % p for n in range(lo, hi + 1)}
    neg = tuple(fn(lo - 1 - i) % p for i in range(q))
    pos = tuple(fn(hi + 1 + i) % p for i in range(q))
    return Homotopy(X, Y, comps, lo, hi,
                    (q, neg) if any(b.any() for b in neg) else None,
                    (q, pos) if any(b.any() for b in pos) else None)
