"""Split basic finite-dimensional algebras over prime fields.

An algebra is presented by structure constants together with a designated
complete set of orthogonal idempotents and a basis of the Jacobson
radical.  validate() checks all of it, so downstream code can rely on
projective covers and radicals being pure linear algebra.

validate() checks the shapes of the tensor and the unit, associativity,
that the unit is one on both sides, that the idempotents are idempotent,
orthogonal and sum to the unit, and that the radical basis indices avoid
them and span a nilpotent two-sided ideal of codimension their number.
Associativity is the relation a_i a_j = sum_k c_ijk a_k asked of the left
multiplications (relation_failure), and Module.validate asks the same of
its action matrices.  The other checks read slices of the tensor, plus
one column-space step per power of the radical.  The relation check is
one batched product per i, and still costs dim^5 at dimension dim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ValidationError


# Moduli must lie below this bound, so that linalg's int64 arithmetic is
# exact (see the overflow bound in its docstring) and _is_prime stays short.
MAX_MODULUS = 1 << 26


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """The prime field F_p."""

    p: int

    def __post_init__(self):
        if self.p >= MAX_MODULUS:
            raise ValidationError(f"modulus {self.p} is not below the supported bound 2^26")
        if not _is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")


@dataclass(frozen=True, eq=False)
class Algebra:
    field: Field
    dim: int
    basis_labels: tuple
    mul: np.ndarray  # mul[i, j, k]: coefficient of b_k in b_i * b_j
    unit: np.ndarray  # coordinate vector of 1
    idempotents: tuple  # basis indices forming a complete orthogonal set
    radical_basis: tuple  # basis indices spanning rad(A)
    name: str = ""
    _left_mul: dict = field(default_factory=dict, compare=False, repr=False)
    # what modules.py computes once per algebra and shares (see its docstring)
    _modules: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def p(self) -> int:
        return self.field.p

    def left_multiplication(self, i: int) -> np.ndarray:
        """Matrix of left multiplication by basis element b_i on A."""
        if i not in self._left_mul:
            # column j = coordinates of b_i * b_j
            self._left_mul[i] = (self.mul[i].T % self.p).copy()
        return self._left_mul[i]

    def relation_failure(self, a: np.ndarray):
        """The first (i, j), in row-major order, at which the stack a
        (dim x m x m) fails a_i a_j = sum_k c_ijk a_k mod p, or None.

        One batched product per i: a_i against the whole stack, and the
        row mul[i] against the stack flattened."""
        p, n = self.p, self.dim
        a = a % p
        flat = a.reshape(n, -1)
        for i in range(n):
            lhs = (a[i] @ a).reshape(n, -1) % p
            bad = (lhs != (self.mul[i] % p) @ flat % p).any(axis=1)
            if bad.any():
                return i, int(bad.argmax())
        return None

    def validate(self) -> None:
        p, n = self.p, self.dim
        mul = self.mul % p
        if mul.shape != (n, n, n):
            raise ValidationError("structure constant tensor has wrong shape")
        if np.shape(self.unit) != (n,):
            raise ValidationError(f"unit has shape {np.shape(self.unit)}, not ({n},)")
        if any(not 0 <= i < n for i in (*self.idempotents, *self.radical_basis)):
            raise ValidationError("idempotent or radical index outside the basis")
        # associativity: L_i L_j == sum_k c[i,j,k] L_k on the left multiplications
        bad = self.relation_failure(mul.transpose(0, 2, 1))
        if bad is not None:
            raise ValidationError(f"multiplication not associative at ({bad[0]},{bad[1]})")
        # unit: sum_i u_i c[i,j,k] and sum_j u_j c[i,j,k] are both delta
        u = self.unit % p
        eye = linalg.eye(n)
        # (an algebra of dimension 0 is refused here)
        if not n or not np.array_equal(np.tensordot(u, mul, 1) % p, eye):
            raise ValidationError("designated unit is not a left unit")
        if not np.array_equal(np.tensordot(mul, u, (1, 0)) % p, eye):
            raise ValidationError("designated unit is not a right unit")
        # idempotents: idempotent, orthogonal, summing to the unit
        E = list(self.idempotents)
        for i in E:
            if not np.array_equal(mul[i, i], eye[i]):
                raise ValidationError(f"basis element {i} is not idempotent")
        bad = np.argwhere(mul[np.ix_(E, E)].any(axis=2) & np.not_equal.outer(E, E))
        if len(bad):
            raise ValidationError(f"idempotents {E[bad[0, 0]]},{E[bad[0, 1]]} not orthogonal")
        if not np.array_equal(eye[E].sum(axis=0) % p, u):
            raise ValidationError("idempotents do not sum to the unit")
        J = sorted(self.radical_basis)
        if set(J) & set(self.idempotents):
            raise ValidationError("radical basis overlaps the idempotents")
        # two-sided ideal: b_i * r and r * b_i have no coordinate outside J
        outside = np.ones(n, dtype=bool)
        outside[J] = False
        if mul[:, J][..., outside].any() or mul[J][..., outside].any():
            raise ValidationError("radical span is not a two-sided ideal")
        # nilpotent: J^m = 0 for some m <= dim; the columns of layer span J^m
        layer = linalg.eye(n)[:, J]
        for _ in range(n + 1):
            # v * b_j for each column v of layer and each j in J
            products = (layer.T @ mul[:, J].reshape(n, -1)).reshape(-1, n).T % p
            if not products.any():
                break
            layer = linalg.column_space_basis(products, p)
        else:
            raise ValidationError("radical span is not nilpotent")
        # split basic: dim A / rad A == number of idempotents
        if n - len(J) != len(self.idempotents):
            raise ValidationError("quotient by the radical is not split basic")

    def opposite(self) -> "Algebra":
        """The opposite algebra; idempotents and radical carry over."""
        return Algebra(
            field=self.field,
            dim=self.dim,
            basis_labels=self.basis_labels,
            mul=(self.mul.transpose(1, 0, 2) % self.p).copy(),
            unit=self.unit.copy(),
            idempotents=self.idempotents,
            radical_basis=self.radical_basis,
            name=self.name + "^op" if self.name else "",
        )
