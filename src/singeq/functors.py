"""The degree-zero functors between complexes and modules.

omega takes X_0 / Im d_1, theta takes Ker d_0, stalk places a module in
degree zero; F and G are the stalk-valued composites.  Shifted variants
are obtained by composing with reindex, never by a degree parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, modules
from .complexes import ChainMap, Complex, chain_map
from .config import Options
from .errors import ValidationError
from .modules import Module, ModuleMap

_OMEGA_CACHE: dict = {}
_THETA_CACHE: dict = {}


def omega_data(X: Complex):
    """(X_0 / Im d_1, projection from X_0)."""
    key = id(X)
    if key not in _OMEGA_CACHE:
        p = X.algebra.p
        B = linalg.column_space_basis(X.diff(1), p)
        _OMEGA_CACHE[key] = (X, modules.quotient_module(X.term(0), B))
    return _OMEGA_CACHE[key][1]


def theta_data(X: Complex):
    """(Ker d_0, inclusion into X_0)."""
    key = id(X)
    if key not in _THETA_CACHE:
        _THETA_CACHE[key] = (X, modules.kernel(X.diff_map(0)))
    return _THETA_CACHE[key][1]


def omega(X: Complex) -> Module:
    return omega_data(X)[0]


def theta(X: Complex) -> Module:
    return theta_data(X)[0]


def stalk(M: Module) -> Complex:
    return Complex.build(M.algebra, 0, 0, {0: M}, {})


def omega_map(f: ChainMap) -> ModuleMap:
    """Induced map omega(source) -> omega(target)."""
    p = f.source.algebra.p
    _, projX = omega_data(f.source)
    NY, projY = omega_data(f.target)
    rhs = (projY.matrix @ f.component(0)) % p
    mT = linalg.solve_matrix(projX.matrix.T, rhs.T, p)
    if mT is None:
        raise ValidationError("chain map does not descend along omega")
    return ModuleMap(omega(f.source), NY, mT.T % p)


def theta_map(f: ChainMap) -> ModuleMap:
    """Induced map theta(source) -> theta(target)."""
    p = f.source.algebra.p
    _, inclX = theta_data(f.source)
    TY, inclY = theta_data(f.target)
    m = linalg.solve_matrix(inclY.matrix, (f.component(0) @ inclX.matrix) % p, p)
    if m is None:
        raise ValidationError("chain map does not restrict along theta")
    return ModuleMap(theta(f.source), TY, m)


def apply_F(x):
    """F = stalk . omega, on complexes or chain maps."""
    if isinstance(x, Complex):
        return stalk(omega(x))
    return chain_map(apply_F(x.source), apply_F(x.target),
                     {0: omega_map(x).matrix})


def apply_G(x):
    """G = stalk . theta, on complexes or chain maps."""
    if isinstance(x, Complex):
        return stalk(theta(x))
    return chain_map(apply_G(x.source), apply_G(x.target),
                     {0: theta_map(x).matrix})


def apply_FG(which: str, x):
    if which == "F":
        return apply_F(x)
    if which == "G":
        return apply_G(x)
    raise ValueError(f"unknown functor {which!r}")


@dataclass(frozen=True, eq=False)
class AdjunctionWitness:
    """Explicit bijection Hom(F X, Y) <-> Hom(X, G Y) for a fixture pair."""

    X: Complex
    Y: Complex

    def forward(self, f: ChainMap) -> ChainMap:
        """Hom(F X, Y) -> Hom(X, G Y)."""
        p = self.X.algebra.p
        _, incl = theta_data(self.Y)
        phi = linalg.solve_matrix(incl.matrix, f.component(0), p)
        if phi is None:
            raise ValidationError("map out of a stalk does not land in the cycles")
        _, proj = omega_data(self.X)
        return chain_map(self.X, apply_G(self.Y), {0: (phi @ proj.matrix) % p})

    def backward(self, g: ChainMap) -> ChainMap:
        """Hom(X, G Y) -> Hom(F X, Y)."""
        p = self.X.algebra.p
        _, proj = omega_data(self.X)
        psiT = linalg.solve_matrix(proj.matrix.T, g.component(0).T, p)
        if psiT is None:
            raise ValidationError("map into a stalk does not kill the boundaries")
        _, incl = theta_data(self.Y)
        return chain_map(apply_F(self.X), self.Y,
                         {0: (incl.matrix @ psiT.T) % p})


def transpose(witness: AdjunctionWitness, f: ChainMap, direction: str) -> ChainMap:
    if direction == "forward":
        return witness.forward(f)
    if direction == "backward":
        return witness.backward(f)
    raise ValueError(f"unknown direction {direction!r}")


def counit(Y: Complex) -> ChainMap:
    """FG(Y) -> Y: the cycle inclusion in degree zero, zero elsewhere."""
    _, incl = theta_data(Y)
    FGY = apply_F(apply_G(Y))
    return chain_map(FGY, Y, {0: incl.matrix})


def unit(X: Complex) -> ChainMap:
    """X -> GF(X): the boundary-quotient projection in degree zero."""
    _, proj = omega_data(X)
    GFX = apply_G(apply_F(X))
    return chain_map(X, GFX, {0: proj.matrix})


def unit_counit(which: str, X: Complex) -> ChainMap:
    if which == "unit":
        return unit(X)
    if which == "counit":
        return counit(X)
    raise ValueError(f"unknown natural transformation {which!r}")
