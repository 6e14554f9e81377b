"""Built-in desk-scale fixtures, and the two builders of algebras they use:
truncated_polynomial gives D_n = F_p[x]/(x^n), and upper_triangular
gives T_2(A), the upper triangular 2x2 matrices over A.  F2, D2 and T2
are D_1, D_2 and T_2(F2) over F_2; k, kF2, S1 and S2 are their simple
modules (modules.simple_modules).  T_per over D2 is periodic, with a
contractible companion."""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np

from . import complexes, linalg
from .algebra import Algebra, Field
from .errors import ValidationError
from .modules import Module, regular_module, simple_modules


def truncated_polynomial(n: int, p: int, name: str) -> Algebra:
    """D_n = F_p[x]/(x^n) in the basis 1, x, x^2, ..., x^(n-1), validated;
    a new algebra on every call.  n must be at least 1."""
    if n < 1:
        raise ValidationError(f"D_n needs n >= 1, not n = {n}")
    mul = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n - i):
            mul[i, j, i + j] = 1
    labels = ("1", "x", *(f"x^{i}" for i in range(2, n)))[:n]
    alg = Algebra(Field(p), n, labels, mul, linalg.eye(n)[0], (0,), tuple(range(1, n)), name)
    alg.validate()
    return alg


# the matrix units e11, e22, e12 as (row, column)
_UNITS = ((0, 0), (1, 1), (0, 1))


def upper_triangular(A: Algebra, name: str) -> Algebra:
    """T_2(A), validated and new on every call.  Basis element 3 i + u is
    a_i e_u for a_i the i-th basis element of A and e_u = e11, e22, e12,
    labelled like xe12 (a label "1" is dropped).  The idempotents are
    e e11, e e22 for each idempotent e of A; the radical is spanned by r
    e11, r e22 for r in rad A and by every a e12."""
    n = 3 * A.dim
    mul = np.zeros((n, n, n), dtype=np.int64)
    for u, (r, c) in enumerate(_UNITS):
        for v, (r2, c2) in enumerate(_UNITS):
            if c == r2:  # (a e_rc)(b e_cc2) = ab e_rc2
                mul[u::3, v::3, _UNITS.index((r, c2))::3] = A.mul
    labels = tuple(("" if a == "1" else a) + e
                   for a in A.basis_labels for e in ("e11", "e22", "e12"))
    radical = sorted([3 * i + u for i in A.radical_basis for u in (0, 1)]
                     + [3 * i + 2 for i in range(A.dim)])
    alg = Algebra(A.field, n, labels, mul, np.kron(A.unit, [1, 1, 0]),
                  tuple(3 * i + u for i in A.idempotents for u in (0, 1)),
                  tuple(radical), name)
    alg.validate()
    return alg


@lru_cache(maxsize=None)
def F2() -> Algebra:
    return truncated_polynomial(1, 2, "F2")


@lru_cache(maxsize=None)
def D2() -> Algebra:
    return truncated_polynomial(2, 2, "D2")


@lru_cache(maxsize=None)
def T2() -> Algebra:
    return upper_triangular(F2(), "T2")


@lru_cache(maxsize=None)
def simple_k() -> Module:
    """The unique simple module over D2."""
    return dataclasses.replace(simple_modules(D2())[0], name="k")


@lru_cache(maxsize=None)
def regular_D2() -> Module:
    return regular_module(D2())


@lru_cache(maxsize=None)
def simple_k_F2() -> Module:
    return dataclasses.replace(simple_modules(F2())[0], name="k")


@lru_cache(maxsize=None)
def S1() -> Module:
    """Simple projective module of T2 (vertex e11)."""
    return dataclasses.replace(simple_modules(T2())[0], name="S1")


@lru_cache(maxsize=None)
def S2() -> Module:
    """Second simple module of T2; not projective."""
    return dataclasses.replace(simple_modules(T2())[1], name="S2")


@lru_cache(maxsize=None)
def t_per() -> complexes.Complex:
    """The 1-periodic exact complex ... -> A -x-> A -x-> A -> ... over D2."""
    A = regular_D2()
    x = np.array([[0, 0], [1, 0]], dtype=np.int64)  # left multiplication by x
    return complexes.Complex.build(
        algebra=D2(),
        lo=0,
        hi=0,
        terms={0: A},
        diffs={},
        neg_tail=complexes.Tail(1, (A,), (x,)),
        pos_tail=complexes.Tail(1, (A,), (x,)),
        neg_seam=x,
        pos_seam=x,
    )


@lru_cache(maxsize=None)
def contractible_AA() -> complexes.Complex:
    """0 -> A -id-> A -> 0 in degrees 1, 0 over D2."""
    A = regular_D2()
    return complexes.Complex.build(
        algebra=D2(),
        lo=0,
        hi=1,
        terms={0: A, 1: A},
        diffs={1: np.eye(2, dtype=np.int64)},
    )


BUILTIN_ALGEBRAS = {"F2": F2, "D2": D2, "T2": T2}


# one object per name, so the documents that name it share memo entries
@lru_cache(maxsize=None)
def builtin_module(name: str) -> Module:
    table = {
        "k": simple_k,
        "A": regular_D2,
        "kF2": simple_k_F2,
        "S1": S1,
        "S2": S2,
        "AT2": lambda: regular_module(T2()),
    }
    return table[name]()


def builtin_complex(name: str) -> complexes.Complex:
    """One object per name: the fixtures are cached, and T_per keeps its shifts."""
    from .complexes import reindex

    if name == "T_per":
        return t_per()
    if name == "contractible":
        return contractible_AA()
    if name.startswith("T_per["):
        try:
            k = int(name[len("T_per[") : -1])
        except ValueError:
            raise ValidationError(f"shift of {name!r} is not an integer") from None
        return reindex(t_per(), k)
    raise KeyError(name)
