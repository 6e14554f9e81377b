"""Every rejection of Algebra.validate and Module.validate, pinned by its
message on small hand-corrupted D2, T2 and T_2(D_2) inputs, and a
corruption sweep whose expected first failing (i, j) comes from a loop
over the definition in Python integers."""

import random
import re

import numpy as np
import pytest

from conftest import random_module, triangular_d2
from singeq import fixtures, linalg, modules
from singeq.algebra import Algebra
from singeq.errors import ValidationError
from singeq.modules import Module

ALGEBRAS = {"D2": fixtures.D2, "T2": fixtures.T2, "T2(D2)": triangular_d2}


def presentation(name: str, entries=(), **changes) -> Algebra:
    """A new, unvalidated algebra with the presentation of a named one,
    each (i, j, k, value) of entries written into its structure constants
    and the fields in changes replaced."""
    A = ALGEBRAS[name]()
    mul = A.mul.copy()
    for i, j, k, value in entries:
        mul[i, j, k] = value
    fields = dict(field=A.field, dim=A.dim, basis_labels=A.basis_labels, mul=mul,
                  unit=A.unit.copy(), idempotents=A.idempotents,
                  radical_basis=A.radical_basis, name=A.name)
    return Algebra(**{**fields, **changes})


# D2 has basis 1, x; T2 has e11, e22, e12; T2(D2) has e11, e22, e12, xe11, xe22, xe12
@pytest.mark.parametrize("alg, message", [
    (lambda: presentation("D2", mul=fixtures.D2().mul[:, :, :1]),
     "structure constant tensor has wrong shape"),
    (lambda: presentation("D2", idempotents=(2,)), "idempotent or radical index outside the basis"),
    (lambda: presentation("T2", radical_basis=(-1,)),
     "idempotent or radical index outside the basis"),
    # x * 1 = 1 + x: (x * 1) * x = x, x * (1 * x) = 0
    (lambda: presentation("D2", [(1, 0, 0, 1)]), "multiplication not associative at (1,0)"),
    # e12 * e12 = e11: (e12 * e11) * e12 = 0, e12 * (e11 * e12) = e11
    (lambda: presentation("T2", [(2, 2, 0, 1)]), "multiplication not associative at (2,0)"),
    (lambda: presentation("D2", unit=np.array([0, 1])), "designated unit is not a left unit"),
    # x * 1 = 0: associative, and 1 is a unit on the left only
    (lambda: presentation("D2", [(1, 0, 1, 0)]), "designated unit is not a right unit"),
    (lambda: presentation("D2", idempotents=(1,), radical_basis=(0,)),
     "basis element 1 is not idempotent"),
    # x * x = x: 1 and x are idempotents with 1 * x = x
    (lambda: presentation("D2", [(1, 1, 1, 1)], idempotents=(0, 1), radical_basis=()),
     "idempotents 0,1 not orthogonal"),
    (lambda: presentation("T2", idempotents=(0,)), "idempotents do not sum to the unit"),
    (lambda: presentation("D2", idempotents=(0, 0)), "idempotents do not sum to the unit"),
    (lambda: presentation("T2", radical_basis=(2, 1)), "radical basis overlaps the idempotents"),
    # e12 * xe22 = xe12 lies outside span(xe22), and xe11 * e12 outside span(xe11)
    (lambda: presentation("T2(D2)", radical_basis=(4,)), "radical span is not a two-sided ideal"),
    (lambda: presentation("T2(D2)", radical_basis=(3,)), "radical span is not a two-sided ideal"),
    (lambda: presentation("T2(D2)", radical_basis=(2, 3, 5, 0)),
     "radical basis overlaps the idempotents"),
    (lambda: presentation("D2", [(1, 1, 1, 1)]), "radical span is not nilpotent"),
    (lambda: presentation("D2", radical_basis=()), "quotient by the radical is not split basic"),
    (lambda: presentation("T2(D2)", radical_basis=(2, 3, 5)),
     "quotient by the radical is not split basic"),
], ids=["mul-shape", "idempotent-index", "radical-index", "not-associative-D2",
        "not-associative-T2", "left-unit", "right-unit", "not-idempotent", "not-orthogonal",
        "idempotents-short", "idempotent-twice", "overlap", "not-a-left-ideal",
        "not-a-right-ideal", "overlap-T2(D2)",
        "not-nilpotent", "not-split-basic", "not-split-basic-T2(D2)"])
def test_every_algebra_rejection_is_pinned(alg, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        alg().validate()


@pytest.mark.parametrize("unit, shape", [([1], "(1,)"), ([1, 0, 0], "(3,)"),
                                         ([[1, 0]], "(1, 2)")], ids=["short", "long", "matrix"])
def test_a_unit_of_the_wrong_shape_is_named(unit, shape):
    alg = presentation("D2", unit=np.array(unit))
    with pytest.raises(ValidationError, match=f"^unit has shape {re.escape(shape)}, not \\(2,\\)$"):
        alg.validate()


def d2_module(*action) -> Module:
    return Module(fixtures.D2(), len(action[0]), tuple(np.array(a, dtype=np.int64) for a in action))


@pytest.mark.parametrize("mod, message", [
    (lambda: Module(fixtures.D2(), -1, ()), "module dimension -1 is negative"),
    (lambda: d2_module([[1]]), "module has 1 action matrices, algebra has dimension 2"),
    (lambda: d2_module([[1]], [[0]], [[0]]), "module has 3 action matrices, algebra has dimension 2"),
    (lambda: Module(fixtures.D2(), 1, (linalg.eye(1), linalg.zeros(2, 2))),
     "action matrix 1 has wrong shape"),
    (lambda: d2_module([[0]], [[0]]), "unit does not act as the identity"),
    (lambda: d2_module([[1, 0], [0, 1]], [[1, 0], [0, 0]]), "action violates relation (1,1)"),
    (lambda: d2_module([[1]], [[1]]), "action violates relation (1,1)"),
    # e11 and e12 acting by 1, though e12 * e11 = 0
    (lambda: Module(fixtures.T2(), 1, (linalg.eye(1), linalg.zeros(1, 1), linalg.eye(1))),
     "action violates relation (2,0)"),
], ids=["dim-negative", "action-short", "action-long", "action-shape", "unit", "relation-D2",
        "x-invertible", "relation-T2"])
def test_every_module_rejection_is_pinned(mod, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        mod().validate()


# -- the definitions, in Python integers --------------------------------


def first_nonassociative(mul: list, p: int):
    """The first (i, j), in row-major order, with b_i (b_j b_l) !=
    (b_i b_j) b_l for some l, or None."""
    n = len(mul)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                left = [sum(mul[j][l][m] * mul[i][m][q] for m in range(n)) % p for q in range(n)]
                right = [sum(mul[i][j][m] * mul[m][l][q] for m in range(n)) % p for q in range(n)]
                if left != right:
                    return i, j
    return None


def first_module_failure(mul: list, unit: list, action: list, p: int):
    """What Module.validate rejects first once the shapes are right: "unit"
    when sum_i u_i a_i is not the identity, else the first (i, j), in
    row-major order, with a_i a_j != sum_k c_ijk a_k, else None."""
    n, d = len(mul), len(action[0])
    rows = range(d)
    if any(sum(unit[i] * action[i][r][c] for i in range(n)) % p != (r == c)
           for r in rows for c in rows):
        return "unit"
    for i in range(n):
        for j in range(n):
            for r in rows:
                for c in rows:
                    prod = sum(action[i][r][m] * action[j][m][c] for m in rows)
                    comb = sum(mul[i][j][k] * action[k][r][c] for k in range(n))
                    if (prod - comb) % p:
                        return i, j
    return None


def corrupted_entries(rng: random.Random, shape: tuple, p: int, count: int) -> list:
    """count distinct positions in an array of shape, each with an offset
    in 1..p-1 to add there."""
    positions = set()
    while len(positions) < count:
        positions.add(tuple(rng.randrange(s) for s in shape))
    return [(pos, rng.randrange(1, p)) for pos in sorted(positions)]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_a_corrupted_algebra_fails_associativity_where_the_definition_does(name):
    rng = random.Random(f"associativity {name}")
    A = ALGEBRAS[name]()
    found = 0
    for _ in range(40):
        mul = A.mul.copy()
        for pos, offset in corrupted_entries(rng, mul.shape, A.p, rng.randint(1, 2)):
            mul[pos] = (mul[pos] + offset) % A.p
        expected = first_nonassociative(mul.tolist(), A.p)
        try:
            presentation(name, mul=mul).validate()
            message = None
        except ValidationError as exc:
            message = str(exc)
        if expected is None:
            assert message is None or "associative" not in message
        else:
            found += 1
            assert message == "multiplication not associative at (%d,%d)" % expected
    assert found >= 20


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_a_corrupted_module_fails_where_the_definition_does(name):
    rng = random.Random(f"relations {name}")
    A = ALGEBRAS[name]()
    mods = [modules.regular_module(A), *modules.simple_modules(A),
            *[random_module(rng, A) for _ in range(3)]]
    outcomes = set()
    for _ in range(40):
        M = rng.choice([M for M in mods if M.dim])
        action = M.stacked_action.copy()
        for pos, offset in corrupted_entries(rng, action.shape, A.p, rng.randint(1, 2)):
            action[pos] = (action[pos] + offset) % A.p
        expected = first_module_failure(A.mul.tolist(), A.unit.tolist(), action.tolist(), A.p)
        try:
            Module(A, M.dim, tuple(action)).validate()
            message = None
        except ValidationError as exc:
            message = str(exc)
        if expected is None:
            assert message is None
        elif expected == "unit":
            assert message == "unit does not act as the identity"
        else:
            assert message == "action violates relation (%d,%d)" % expected
        outcomes.add(expected if expected in (None, "unit") else "relation")
    assert outcomes >= {"unit", "relation"}
