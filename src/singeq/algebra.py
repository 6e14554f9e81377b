"""Split basic finite-dimensional algebras over prime fields.

An algebra is presented by structure constants together with a designated
complete set of orthogonal idempotents and a basis of the Jacobson
radical.  validate() checks all of it, so downstream code can rely on
projective covers and radicals being pure linear algebra.
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

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two elements given by coordinate vectors."""
        p = self.p
        out = np.zeros(self.dim, dtype=np.int64)
        for i in range(self.dim):
            c = int(a[i]) % p
            if c:
                out = (out + c * ((self.left_multiplication(i) @ (b % p)) % p)) % p
        return out

    def validate(self) -> None:
        p = self.p
        n = self.dim
        mul = self.mul % p
        if mul.shape != (n, n, n):
            raise ValidationError("structure constant tensor has wrong shape")
        if any(not 0 <= i < n for i in (*self.idempotents, *self.radical_basis)):
            raise ValidationError("idempotent or radical index outside the basis")
        # associativity: (b_i b_j) b_k == b_i (b_j b_k)
        L = [self.left_multiplication(i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                # L_i L_j should equal sum_k c[i,j,k] L_k
                rhs = sum(int(mul[i, j, k]) * L[k] for k in range(n)) % p
                lhs = (L[i] @ L[j]) % p
                if not np.array_equal(lhs, rhs):
                    raise ValidationError(f"multiplication not associative at ({i},{j})")
        # unit
        u = self.unit % p
        umat = sum(int(u[i]) * L[i] for i in range(n)) % p
        if not np.array_equal(umat, linalg.eye(n)):
            raise ValidationError("designated unit is not a left unit")
        # right unit: b_i * u == b_i
        for i in range(n):
            if not np.array_equal((L[i] @ u) % p, self._basis_vector(i)):
                raise ValidationError("designated unit is not a right unit")
        # idempotents: orthogonal, idempotent, summing to the unit
        for i in self.idempotents:
            ei = self._basis_vector(i)
            if not np.array_equal(self.multiply(ei, ei), ei):
                raise ValidationError(f"basis element {i} is not idempotent")
        for i in self.idempotents:
            for j in self.idempotents:
                if i != j:
                    prod = self.multiply(self._basis_vector(i), self._basis_vector(j))
                    if prod.any():
                        raise ValidationError(f"idempotents {i},{j} not orthogonal")
        esum = np.zeros(n, dtype=np.int64)
        for i in self.idempotents:
            esum = (esum + self._basis_vector(i)) % p
        if not np.array_equal(esum, u):
            raise ValidationError("idempotents do not sum to the unit")
        self._validate_radical()

    def _validate_radical(self) -> None:
        p = self.p
        n = self.dim
        J = sorted(self.radical_basis)
        if set(J) & set(self.idempotents):
            raise ValidationError("radical basis overlaps the idempotents")
        span = linalg.zeros(n, len(J))
        for c, i in enumerate(J):
            span[i, c] = 1
        # two-sided ideal: b_i * r and r * b_i stay in span(J)
        for i in range(n):
            Li = self.left_multiplication(i)
            for c, j in enumerate(J):
                for v in (Li @ span[:, c], self.multiply(span[:, c], self._basis_vector(i))):
                    if linalg.solve(span, v % p, p) is None:
                        raise ValidationError("radical span is not a two-sided ideal")
        # nilpotent: J^m = 0 for some m <= dim
        layer = [span[:, c] for c in range(len(J))]
        for _ in range(n + 1):
            if not layer:
                break
            nxt = []
            for v in layer:
                for c in range(len(J)):
                    w = self.multiply(v, span[:, c])
                    if w.any():
                        nxt.append(w)
            if not nxt:
                layer = []
                break
            stacked = np.column_stack(nxt) % p
            basis = linalg.column_space_basis(stacked, p)
            layer = [basis[:, c] for c in range(basis.shape[1])]
        else:
            raise ValidationError("radical span is not nilpotent")
        # split basic: dim A / rad A == number of idempotents
        if n - len(J) != len(self.idempotents):
            raise ValidationError("quotient by the radical is not split basic")

    def _basis_vector(self, i: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        v[i] = 1
        return v

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
