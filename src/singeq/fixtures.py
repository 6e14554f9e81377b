"""Built-in desk-scale fixtures: F2, D2 = F_2[x]/(x^2), T2 = upper
triangular 2x2 matrices over F_2, their standard modules, and the
periodic complex T_per together with a contractible companion."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import complexes
from .algebra import Algebra, Field
from .errors import ValidationError
from .modules import Module, regular_module


def _mat(rows):
    return np.array(rows, dtype=np.int64)


@lru_cache(maxsize=None)
def F2() -> Algebra:
    alg = Algebra(
        field=Field(2),
        dim=1,
        basis_labels=("1",),
        mul=np.ones((1, 1, 1), dtype=np.int64),
        unit=_mat([1]),
        idempotents=(0,),
        radical_basis=(),
        name="F2",
    )
    alg.validate()
    return alg


@lru_cache(maxsize=None)
def D2() -> Algebra:
    # basis (1, x) with x^2 = 0
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1
    mul[0, 1, 1] = 1
    mul[1, 0, 1] = 1
    alg = Algebra(
        field=Field(2),
        dim=2,
        basis_labels=("1", "x"),
        mul=mul,
        unit=_mat([1, 0]),
        idempotents=(0,),
        radical_basis=(1,),
        name="D2",
    )
    alg.validate()
    return alg


@lru_cache(maxsize=None)
def T2() -> Algebra:
    # basis (e11, e22, e12)
    labels = ("e11", "e22", "e12")
    mul = np.zeros((3, 3, 3), dtype=np.int64)
    mul[0, 0, 0] = 1  # e11 e11 = e11
    mul[1, 1, 1] = 1  # e22 e22 = e22
    mul[0, 2, 2] = 1  # e11 e12 = e12
    mul[2, 1, 2] = 1  # e12 e22 = e12
    alg = Algebra(
        field=Field(2),
        dim=3,
        basis_labels=labels,
        mul=mul,
        unit=_mat([1, 1, 0]),
        idempotents=(0, 1),
        radical_basis=(2,),
        name="T2",
    )
    alg.validate()
    return alg


@lru_cache(maxsize=None)
def simple_k() -> Module:
    """The unique simple module over D2."""
    m = Module(D2(), 1, (_mat([[1]]), _mat([[0]])), name="k")
    m.validate()
    return m


@lru_cache(maxsize=None)
def regular_D2() -> Module:
    return regular_module(D2())


@lru_cache(maxsize=None)
def simple_k_F2() -> Module:
    m = Module(F2(), 1, (_mat([[1]]),), name="k")
    m.validate()
    return m


@lru_cache(maxsize=None)
def S1() -> Module:
    """Simple projective module of T2 (vertex e11)."""
    m = Module(T2(), 1, (_mat([[1]]), _mat([[0]]), _mat([[0]])), name="S1")
    m.validate()
    return m


@lru_cache(maxsize=None)
def S2() -> Module:
    """Second simple module of T2; not projective."""
    m = Module(T2(), 1, (_mat([[0]]), _mat([[1]]), _mat([[0]])), name="S2")
    m.validate()
    return m


@lru_cache(maxsize=None)
def t_per() -> complexes.Complex:
    """The 1-periodic exact complex ... -> A -x-> A -x-> A -> ... over D2."""
    A = regular_D2()
    x = _mat([[0, 0], [1, 0]])  # left multiplication by x on basis (1, x)
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
