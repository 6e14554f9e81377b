"""Null-homotopy and homotopy-equivalence solvers.

Three strategies decide whether a chain map is null-homotopic: a complete
finite solve when one side is bounded, the stable syzygy criterion for
totally acyclic complexes of projectives over a Gorenstein algebra (of
injectives through the duality D), and a periodic-ansatz search otherwise.
null_homotopies decides a list of maps with one source and one target
jointly, in one loop of rounds m: each round is one elimination per
window for all the maps still open, and what it finds is checked in one
stacked call.  When a side is bounded the window is complete whatever m,
so round 1 is the complete solve and the only round.  UNKNOWN is a value,
never upgraded.

Each round solves d s + s d = f in the system solver.graded_system
builds with shift 1, on the window that solver.window gives with pad 2
and shift 1.
search_periodic_homotopy is one round of the search for one map.

Each certificate is checked once, and the verdict follows the check: a
YES carries a certificate whose check passed (checked=True), and a found
witness whose check fails gives UNKNOWN.  verify_certificate checks a
certificate again whenever it is called.

homotopy_equivalence_certificate remembers each decision; the modules
docstring says where and how a hit is checked again.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import check, functors, modules
from .complexes import (ChainMap, Complex, Homotopy, _copied, _kept, _lcm, _map_profile,
                        _sample, _value, cone, dual_chain_map, identity_chain_map, is_exact)
# compose and FoldedSystem are unused here but stay importable from here,
# which perfbench/selftest.py uses to test the tracer's alias rebinding
from .complexes import compose  # noqa: F401
from .config import Options
from .errors import ValidationError
from .solver import FoldedSystem  # noqa: F401
from .solver import _remembered, graded_system, solve_module_map, window

YES = "YES"
NO = "NO"
UNKNOWN = "UNKNOWN"

@dataclass(eq=False)
class Certificate:
    """Re-checkable evidence: a payload of maps plus the equations they satisfy."""

    kind: str  # null-homotopy | homotopy-inverse | orthogonality
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


def verify_null_homotopy(f: ChainMap, s: Homotopy, *others: tuple) -> bool:
    """f_n == d s_n + s_{n-1} d at every degree of the pair's check range,
    for (f, s) and for each further (map, homotopy) pair in others.

    check._check_walk runs these checks over each pair's check range, as
    for ChainMap.validate: each s_n a module map at every action index,
    and the equation at every entry, stacked across the walked degrees
    and the pairs.  A pair the walk cannot read (a block of the wrong
    shape, a map of another degree or terms) is False, not an error.
    """
    pairs = ((f, s), *others)
    if any(g.source.algebra.p != f.source.algebra.p for g, _ in pairs):
        return False
    try:
        return check._check_walk([(s, f) for f, s in pairs]) is None
    except ValidationError:
        return False


def verify_certificate(cert: Certificate) -> bool:
    if cert.kind == "null-homotopy":
        ok = verify_null_homotopy(cert.payload["map"], cert.payload["homotopy"])
    elif cert.kind == "homotopy-inverse":
        ok = _verify_inverse_payload(cert.payload)
    elif cert.kind == "orthogonality":
        pairs = cert.payload["pairs"]
        ok = not pairs or verify_null_homotopy(*pairs[0], *pairs[1:])
    else:
        raise ValueError(f"unknown certificate kind {cert.kind!r}")
    cert.checked = ok
    return ok


def _holds(res) -> bool:
    """The holds of solver._remembered for an equivalence or orthogonality:
    its certificate, if any, was built checked or passes verify_certificate."""
    return res.certificate is None or res.certificate.checked or verify_certificate(res.certificate)


def _verify_inverse_payload(payload: dict) -> bool:
    """f: X -> Y and g: Y -> X are chain maps (one stacked check), and
    d hX + hX d = g f - 1 on X and d hY + hY d = f g - 1 on Y, checked in
    the walk (check._check_walk, which groups the two sides) from the
    blocks of f and g, so no map is built for g f - 1 or f g - 1.  A map
    the walks cannot read fails, as in verify_null_homotopy."""
    f, g = payload["map"], payload["inverse"]
    hX, hY = payload["homotopy_source"], payload["homotopy_target"]
    if g.source is not f.target or g.target is not f.source:
        return False
    try:
        f.validate(g)
        return check._check_walk([(hX, f, g), (hY, g, f)]) is None
    except ValidationError:
        return False


def _homotopies(maps: list, m: int) -> list:
    """Null-homotopy per chain map of maps (one source, one target), or
    None, from one elimination on window(..., m, 2, shift=1); each is the
    homotopy the map's own solve gives, and those found are one family,
    made from the solve's stacks.  Complete when a side is bounded."""
    X, Y = maps[0].source, maps[0].target
    sys = graded_system(X, Y, 1, *window(X, Y, maps, m, 2, shift=1), maps)
    sols = sys.solve_each()
    found = iter(sys.graded_each(Homotopy, X, Y, sys.solutions)
                 if any(s is not None for s in sols) else ())
    return [None if comps is None else next(found) for comps in sols]


def search_periodic_homotopy(f: ChainMap, m: int):
    """Homotopy whose tails have period m * lcm of the tail periods, or
    None; it is checked before it is returned.  When a side is bounded
    this is the complete bounded solve, whatever m."""
    s = _homotopies([f], m)[0]
    return s if s is not None and verify_null_homotopy(f, s) else None


def _in_class(M: modules.Module, which: str) -> bool:
    """M is projective (which "proj") or injective (which "inj")."""
    return M.is_projective if which == "proj" else M.is_injective


def _terms_in_class(X: Complex, which: str) -> bool:
    """Every distinct term of X is projective (which "proj") or injective."""
    return all(_in_class(t, which) for t, _ in X._blocks.data)


def _is_ex(X: Complex, which: str) -> bool:
    """Exact with projective (which "proj") or injective terms, checked
    over the window plus one tail period; the verdict is memoized on X."""
    memo = X._membership
    if which not in memo:
        memo[which] = is_exact(X) and _terms_in_class(X, which)
    return memo[which]


def is_exP(X: Complex, options: Options = Options()) -> bool:
    """Exact with projective terms (_is_ex)."""
    return _is_ex(X, "proj")


def is_exI(X: Complex, options: Options = Options()) -> bool:
    """Exact with injective terms (_is_ex)."""
    return _is_ex(X, "inj")


def factors_through_projective(g: modules.ModuleMap) -> bool:
    """Whether g lifts along the projective cover of its target."""
    if g.source.dim == 0 or g.target.dim == 0:
        return True
    P, epi = modules.projective_cover(g.target)
    return solve_module_map([(g.source, P)], g.matrix, [(epi.matrix, 0, None)],
                            (g.source, g.target)) is not None


def stably_zero(f: ChainMap) -> bool:
    """Stable criterion for maps of totally acyclic complexes of projectives;
    of injectives, it applies to D(f), null-homotopic exactly when f is."""
    return factors_through_projective(functors.omega_map(f))


def null_homotopy(f: ChainMap, options: Options = Options()) -> NullHomotopyResult:
    return null_homotopies([f], options)[0]


def null_homotopies(maps: list, options: Options = Options()) -> list:
    """NullHomotopyResult per chain map of maps, which share one source and
    one target.

    Each system has a right-hand side per map and one elimination, which
    decides each map on its own: a map gets exactly the homotopy, or the
    NO, its own solve gives.  Unbounded: the stable criterion runs first on
    each map (on D(f) when X and Y are in exI but not both in exP).  Then
    round m, for m = 1..homotopy_period_bound, is one solve per group of
    open maps that share their own window (a map whose tails are zero has
    period 0 and a narrower fold).  The homotopies a round finds are
    checked in one stacked verify_null_homotopy call; if it fails the
    pairs are checked one by one, and a map whose pair fails stays open.
    Bounded side: round 1 is the complete solve and the only round, so a
    map with no solution is NO and a map whose pair fails is UNKNOWN.
    """
    if not maps:
        return []
    X, Y = maps[0].source, maps[0].target
    if any(f.source is not X or f.target is not Y for f in maps):
        raise ValueError("maps do not share one source and one target")
    bounded = X.bounded() or Y.bounded()
    gorenstein = not bounded and modules.gorenstein_dimension(
        X.algebra, options.gorenstein_bound) is not None
    ctr = gorenstein and is_exP(X, options) and is_exP(Y, options)
    stable = ctr or gorenstein and is_exI(X, options) and is_exI(Y, options)
    strategy = "bounded" if bounded else "stable+periodic" if stable else "periodic"
    out = [NullHomotopyResult(NO, strategy="stable") if stable
           and not stably_zero(f if ctr else dual_chain_map(f)) else None for f in maps]
    for m in range(1, (1 if bounded else options.homotopy_period_bound) + 1):
        groups = {}
        for i, f in enumerate(maps):
            if out[i] is None:
                groups.setdefault(window(X, Y, [f], m, 2, shift=1), []).append(i)
        found = [(i, s) for idx in groups.values()
                 for i, s in zip(idx, _homotopies([maps[i] for i in idx], m))]
        checks = [(maps[i], s) for i, s in found if s is not None]
        ok = bool(checks) and verify_null_homotopy(*checks[0], *checks[1:])
        for i, s in found:
            if s is None and bounded:
                out[i] = NullHomotopyResult(NO, strategy=strategy)
            elif s is not None and (ok or verify_null_homotopy(maps[i], s)):
                out[i] = _found(maps[i], s, strategy)
    # The stable criterion may say "homotopic to zero" without a
    # periodic-tailed witness inside the search bound; stay honest.
    return [r or NullHomotopyResult(UNKNOWN, strategy="stable" if stable else strategy)
            for r in out]


def _found(f: ChainMap, s: Homotopy, strategy: str) -> NullHomotopyResult:
    """YES for f with the homotopy s, whose check passed."""
    cert = Certificate("null-homotopy", {"map": f, "homotopy": s}, checked=True)
    return NullHomotopyResult(YES, s, cert, strategy=strategy)


def _cone_blocks(f: ChainMap, s: Homotopy, n: int):
    """Split s_n: X_{n-1} + Y_n -> X_n + Y_{n+1} into its four blocks."""
    xr = f.source.term(n).dim
    xc = f.source.term(n - 1).dim
    m = s.component(n)
    return m[:xr, :xc], m[:xr, xc:], m[xr:, :xc], m[xr:, xc:]


def homotopy_equivalence_certificate(
    f: ChainMap, options: Options = Options()
) -> EquivalenceResult:
    """Homotopy inverse with both homotopies, extracted from a cone
    contraction; solved once per target, map value and Options
    (solver._remembered).  A remembered NO or UNKNOWN is returned as it
    is; a remembered YES is rebuilt with f as its map and checked again.
    An UNKNOWN given by a found inverse that fails its check is not kept."""
    X, Y = f.source, f.target

    def rebuild(value):
        verdict, parts = value
        if parts is None:
            return EquivalenceResult(verdict)
        # copies of the kept tables, handed over
        g, hX, hY = (_copied(kind, S, T, kept) for kind, S, T, kept in (
            (ChainMap, Y, X, parts["inverse"]),
            (Homotopy, X, X, parts["homotopy_source"]),
            (Homotopy, Y, Y, parts["homotopy_target"])))
        return EquivalenceResult(YES, Certificate("homotopy-inverse", {
            "map": f, "inverse": g, "homotopy_source": hX, "homotopy_target": hY}))

    def solve():
        value = _equivalence(f, options)
        yield rebuild(value), value
        yield EquivalenceResult(UNKNOWN), None  # the found inverse failed its check

    return _remembered(X, Y, ("equivalence", _value(f), options), (), solve, rebuild, _holds)


def _equivalence(f: ChainMap, options: Options) -> tuple:
    """(verdict, and for a YES the inverse g and the homotopies hX, hY, each
    as its window, table and tail periods, read off a contraction of the
    cone, else None), solved; homotopy_equivalence_certificate checks them."""
    C = cone(f)
    if not is_exact(C):
        return NO, None
    X, Y = f.source, f.target
    for which in ("proj", "inj"):  # C_n = X_{n-1} + Y_n is in class when both are
        if X._membership.get(which) and Y._membership.get(which):
            C._membership[which] = True
    res = null_homotopy(identity_chain_map(C), options)
    if res.verdict != YES:
        return res.verdict, None
    s = res.homotopy
    lo, hi, nq, pq = _map_profile(f, X, Y)
    sq = _lcm([nq, pq, s.neg_period, s.pos_period])
    lo, hi = min(lo, s.clo), max(hi, s.chi)
    return YES, {
        name: _kept(_sample(kind, S, T, lo, hi, comp_fn, sq, sq)) for name, kind, S, T, comp_fn in (
            ("inverse", ChainMap, Y, X, lambda n: _cone_blocks(f, s, n)[1]),
            ("homotopy_source", Homotopy, X, X, lambda n: _cone_blocks(f, s, n + 1)[0]),
            ("homotopy_target", Homotopy, Y, Y, lambda n: -_cone_blocks(f, s, n)[3]))}
