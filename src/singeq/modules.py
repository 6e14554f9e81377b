"""Finite-dimensional modules over split basic algebras.

Modules are value-semantic presentations (action matrices); maps carry an
explicit intertwiner matrix.  Isomorphism is always explicit via
find_isomorphism, never implied by equal dimensions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .algebra import Algebra
from .config import Options
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    IsomorphismUndecided,
    ValidationError,
)

_DEFAULT = Options()


@dataclass(frozen=True, eq=False)
class Module:
    algebra: Algebra
    dim: int
    action: tuple  # one (dim x dim) matrix per algebra basis element
    name: str = ""

    def validate(self) -> None:
        A = self.algebra
        p = A.p
        for i, m in enumerate(self.action):
            if m.shape != (self.dim, self.dim):
                raise ValidationError(f"action matrix {i} has wrong shape")
        unit = sum(int(A.unit[i]) * self.action[i] for i in range(A.dim))
        unit = np.asarray(unit, dtype=np.int64) % p if self.dim else linalg.zeros(0, 0)
        if not np.array_equal(unit, linalg.eye(self.dim)):
            raise ValidationError("unit does not act as the identity")
        for i in range(A.dim):
            for j in range(A.dim):
                lhs = (self.action[i] @ self.action[j]) % p
                rhs = sum(int(A.mul[i, j, k]) * self.action[k] for k in range(A.dim))
                rhs = np.asarray(rhs, dtype=np.int64) % p if self.dim else lhs
                if not np.array_equal(lhs, rhs):
                    raise ValidationError(f"action violates relation ({i},{j})")

    def act(self, coords: np.ndarray) -> np.ndarray:
        """Matrix by which the element with given coordinates acts."""
        p = self.algebra.p
        out = linalg.zeros(self.dim, self.dim)
        for i in range(self.algebra.dim):
            if coords[i] % p:
                out = (out + int(coords[i]) * self.action[i]) % p
        return out

    def is_zero(self) -> bool:
        return self.dim == 0

    @cached_property
    def stacked_action(self) -> np.ndarray:
        """The action matrices as one (algebra.dim x dim x dim) array."""
        return np.stack(self.action)


@dataclass(frozen=True, eq=False)
class ModuleMap:
    source: Module
    target: Module
    matrix: np.ndarray  # target.dim x source.dim

    def validate(self) -> None:
        if self.source.algebra is not self.target.algebra:
            raise AlgebraMismatch("source and target live over different algebras")
        p = self.source.algebra.p
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise DimensionMismatch("map matrix has wrong shape")
        if self.matrix.size == 0:
            return
        # all relations F a_i = b_i F at once, one batched product per side
        lhs = (self.matrix @ self.source.stacked_action) % p
        rhs = (self.target.stacked_action @ self.matrix) % p
        bad = (lhs != rhs).any(axis=(1, 2))
        if bad.any():
            raise ValidationError(f"matrix does not intertwine action {bad.argmax()}")

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other."""
        if other.target is not self.source and other.target.dim != self.source.dim:
            raise DimensionMismatch("maps not composable")
        p = self.source.algebra.p
        return ModuleMap(other.source, self.target, (self.matrix @ other.matrix) % p)

    def is_injective(self) -> bool:
        p = self.source.algebra.p
        return linalg.rank(self.matrix, p) == self.source.dim

    def is_surjective(self) -> bool:
        p = self.source.algebra.p
        return linalg.rank(self.matrix, p) == self.target.dim

    def is_invertible(self) -> bool:
        return self.source.dim == self.target.dim and self.is_injective()


def zero_module(algebra: Algebra) -> Module:
    """The zero module over algebra; one shared instance per algebra."""
    Z = algebra._modules.get("zero")
    if Z is None:
        Z = Module(algebra, 0, tuple(linalg.zeros(0, 0) for _ in range(algebra.dim)))
        algebra._modules["zero"] = Z
    return Z


def zero_map(source: Module, target: Module) -> ModuleMap:
    return ModuleMap(source, target, linalg.zeros(target.dim, source.dim))


def identity_map(M: Module) -> ModuleMap:
    return ModuleMap(M, M, linalg.eye(M.dim))


def regular_module(algebra: Algebra) -> Module:
    """A as a left module over itself."""
    return Module(
        algebra,
        algebra.dim,
        tuple(algebra.left_multiplication(i) for i in range(algebra.dim)),
        name="A",
    )


def direct_sum(modules: list) -> tuple:
    """(sum, inclusions, projections)."""
    if not modules:
        raise ValueError("empty direct sum needs an algebra; use zero_module")
    A = modules[0].algebra
    dims = [m.dim for m in modules]
    total = sum(dims)
    action = []
    for i in range(A.dim):
        blocks = linalg.zeros(total, total)
        off = 0
        for m in modules:
            blocks[off : off + m.dim, off : off + m.dim] = m.action[i]
            off += m.dim
        action.append(blocks)
    S = Module(A, total, tuple(action))
    incs, projs = [], []
    off = 0
    for m in modules:
        inc = linalg.zeros(total, m.dim)
        inc[off : off + m.dim, :] = linalg.eye(m.dim)
        incs.append(ModuleMap(m, S, inc))
        projs.append(ModuleMap(S, m, inc.T.copy()))
        off += m.dim
    return S, incs, projs


def submodule(M: Module, basis: np.ndarray) -> tuple:
    """Module on an invariant column span; returns (sub, inclusion)."""
    p = M.algebra.p
    basis = linalg.column_space_basis(basis % p, p)
    k = basis.shape[1]
    # one solve against the images of the basis under every action matrix
    images = np.hstack([(a @ basis) % p for a in M.action])
    X = linalg.solve_matrix(basis, images, p)
    if X is None:
        raise ValidationError("span is not invariant under the action")
    action = tuple(X[:, i * k : (i + 1) * k].copy() for i in range(M.algebra.dim))
    sub = Module(M.algebra, k, action)
    return sub, ModuleMap(sub, M, basis)


def quotient_module(M: Module, sub_basis: np.ndarray) -> tuple:
    """Quotient by an invariant column span; returns (quot, projection)."""
    p = M.algebra.p
    B = linalg.column_space_basis(sub_basis % p, p)
    full = linalg.extend_to_basis(B, p)
    r = B.shape[1]
    inv = linalg.invert(full, p)
    proj = inv[r:, :]
    section = full[:, r:]
    action = []
    for i in range(M.algebra.dim):
        action.append((proj @ M.action[i] @ section) % p)
    Q = Module(M.algebra, M.dim - r, tuple(action))
    return Q, ModuleMap(M, Q, proj)


def hom_basis(M: Module, N: Module) -> list:
    """Basis of the intertwiner space Hom(M, N)."""
    if M.algebra is not N.algebra:
        raise AlgebraMismatch("hom_basis needs a common algebra")
    p = M.algebra.p
    s, t = M.dim, N.dim
    if s == 0 or t == 0:
        return []
    rows = []
    for i in range(M.algebra.dim):
        # row-major vec: vec(F @ A_i - B_i @ F)
        rows.append(np.kron(linalg.eye(t), M.action[i].T) - np.kron(N.action[i], linalg.eye(s)))
    system = np.vstack(rows) % p
    K = linalg.kernel_basis(system, p)
    return [ModuleMap(M, N, K[:, j].reshape(t, s).copy()) for j in range(K.shape[1])]


def kernel(f: ModuleMap) -> tuple:
    """(Ker f, inclusion)."""
    p = f.source.algebra.p
    K = linalg.kernel_basis(f.matrix, p)
    return submodule(f.source, K)


def image(f: ModuleMap) -> tuple:
    """(Im f, inclusion into target)."""
    p = f.source.algebra.p
    B = linalg.column_space_basis(f.matrix, p)
    return submodule(f.target, B)


def cokernel(f: ModuleMap) -> tuple:
    """(Coker f, projection)."""
    p = f.source.algebra.p
    B = linalg.column_space_basis(f.matrix, p)
    return quotient_module(f.target, B)


def subquotients(f: ModuleMap) -> tuple:
    """((Ker, incl), (Im, incl), (Coker, proj)), rank-nullity exact."""
    return kernel(f), image(f), cokernel(f)


def radical_submodule_basis(M: Module) -> np.ndarray:
    """Column basis of rad(A)*M."""
    p = M.algebra.p
    cols = [M.action[j] for j in M.algebra.radical_basis]
    if not cols or M.dim == 0:
        return linalg.zeros(M.dim, 0)
    return linalg.column_space_basis(np.hstack(cols) % p, p)


def indecomposable_projective(algebra: Algebra, idem_index: int) -> tuple:
    """(A*e_i as a module, inclusion into the regular module, generator coords)."""
    reg = regular_module(algebra)
    p = algebra.p
    cols = np.column_stack(
        [algebra.mul[j, idem_index, :] for j in range(algebra.dim)]
    ) % p
    P, incl = submodule(reg, cols)
    e = np.zeros(algebra.dim, dtype=np.int64)
    e[idem_index] = 1
    gen = linalg.solve(incl.matrix, e, p)
    if gen is None:
        raise ValidationError("idempotent not inside its own projective")
    return P, incl, gen


def projective_cover(M: Module) -> tuple:
    """(P, epi) with P a sum of indecomposable projectives covering M."""
    A = M.algebra
    p = A.p
    if M.dim == 0:
        return zero_module(A), zero_map(zero_module(A), M)
    radB = radical_submodule_basis(M)
    top, pi_top = quotient_module(M, radB)
    summands = []
    blocks = []
    for i in A.idempotents:
        e_action = top.action[i]
        img = linalg.column_space_basis(e_action, p)
        for c in range(img.shape[1]):
            # lift the top basis vector to M, then project to e_i * M
            t = img[:, c]
            v = linalg.solve(pi_top.matrix, t, p)
            m = (M.action[i] @ v) % p
            P, incl, _ = indecomposable_projective(A, i)
            # inclusion basis columns are elements of A; act on m
            col = linalg.zeros(M.dim, P.dim)
            for j in range(P.dim):
                a_coords = incl.matrix[:, j]
                col[:, j] = (M.act(a_coords) @ m) % p
            summands.append(P)
            blocks.append(col)
    if not summands:
        raise ValidationError("nonzero module with zero top")
    S, _, _ = direct_sum(summands)
    epi = ModuleMap(S, M, np.hstack(blocks) % p)
    epi.validate()
    if not epi.is_surjective():
        raise ValidationError("projective cover candidate is not surjective")
    return S, epi


def dual_module(M: Module) -> Module:
    """Vector-space dual as a left module over the opposite algebra."""
    op = _opposite_of(M.algebra)
    return Module(op, M.dim, tuple(m.T.copy() for m in M.action))


def dual_module_back(M: Module, algebra: Algebra) -> Module:
    """Dual of a module over A^op, viewed over the original algebra."""
    return Module(algebra, M.dim, tuple(m.T.copy() for m in M.action))


_OPPOSITES: dict = {}


def _opposite_of(algebra: Algebra) -> Algebra:
    key = id(algebra)
    if key not in _OPPOSITES:
        op = algebra.opposite()
        _OPPOSITES[key] = op
        _OPPOSITES[id(op)] = algebra
    return _OPPOSITES[key]


def injective_envelope(M: Module) -> tuple:
    """(I, mono) computed through the duality with A^op projectives."""
    A = M.algebra
    if M.dim == 0:
        return zero_module(A), zero_map(M, zero_module(A))
    Mo = dual_module(M)
    P, epi = projective_cover(Mo)
    I = dual_module_back(P, A)
    mono = ModuleMap(M, I, epi.matrix.T.copy())
    mono.validate()
    if not mono.is_injective():
        raise ValidationError("injective envelope candidate is not injective")
    return I, mono


@dataclass
class SplitClass:
    is_projective: bool
    is_injective: bool
    section: ModuleMap | None  # splits the projective cover when projective
    retraction: ModuleMap | None  # splits the injective envelope when injective


def _find_one_sided_inverse(f: ModuleMap, side: str):
    """Section (f s = id) or retraction (r f = id) inside the hom space."""
    p = f.source.algebra.p
    section = side == "section"
    dim = f.target.dim if section else f.source.dim
    if dim == 0:
        return ModuleMap(f.target, f.source, linalg.zeros(f.source.dim, f.target.dim))
    basis = hom_basis(f.target, f.source)
    if not basis:
        return None
    mats = [f.matrix @ h.matrix if section else h.matrix @ f.matrix for h in basis]
    cols = np.column_stack([m.reshape(-1) for m in mats]) % p
    lam = linalg.solve(cols, linalg.eye(dim).reshape(-1), p)
    if lam is None:
        return None
    total = sum(int(lam[i]) * basis[i].matrix for i in range(len(basis)))
    return ModuleMap(f.target, f.source, np.asarray(total, dtype=np.int64) % p)


def split_class(M: Module) -> SplitClass:
    """Projectivity/injectivity flags with explicit splitting witnesses."""
    if M.dim == 0:
        return SplitClass(True, True, None, None)
    _, epi = projective_cover(M)
    section = _find_one_sided_inverse(epi, "section")
    _, mono = injective_envelope(M)
    retraction = _find_one_sided_inverse(mono, "retraction")
    return SplitClass(section is not None, retraction is not None, section, retraction)


def syzygy(M: Module, n: int) -> Module:
    """n-fold kernel of projective covers (n>0) or cokernel of envelopes (n<0)."""
    cur = M
    if n >= 0:
        for _ in range(n):
            _, epi = projective_cover(cur)
            cur, _ = kernel(epi)
    else:
        for _ in range(-n):
            _, mono = injective_envelope(cur)
            cur, _ = cokernel(mono)
    return cur


def find_isomorphism(M: Module, N: Module, options: Options = _DEFAULT):
    """An invertible intertwiner, or None; raises when search is inconclusive."""
    if M.algebra is not N.algebra:
        raise AlgebraMismatch("modules over different algebras")
    if M.dim != N.dim:
        return None
    if M.dim == 0:
        return zero_map(M, N)
    basis = hom_basis(M, N)
    if not basis:
        return None
    p = M.algebra.p
    h = len(basis)
    if h <= options.iso_exhaustive_dim and p ** h <= 1 << 16:
        for coeffs in itertools.product(range(p), repeat=h):
            if not any(coeffs):
                continue
            m = sum(c * b.matrix for c, b in zip(coeffs, basis)) % p
            if linalg.rank(m, p) == M.dim:
                return ModuleMap(M, N, m)
        return None
    rng = random.Random(0)
    for _ in range(options.iso_random_tries):
        m = sum(rng.randrange(p) * b.matrix for b in basis) % p
        if linalg.rank(np.asarray(m), p) == M.dim:
            return ModuleMap(M, N, np.asarray(m, dtype=np.int64))
    raise IsomorphismUndecided(
        f"hom space of dimension {h} too large to exhaust; random search failed"
    )


def projective_dimension(M: Module, bound: int):
    """Smallest n with the n-th syzygy projective, or None within bound."""
    cur = M
    for n in range(bound + 1):
        if cur.dim == 0 or split_class(cur).is_projective:
            return n
        _, epi = projective_cover(cur)
        cur, _ = kernel(epi)
    return None


def injective_dimension(M: Module, bound: int):
    """Smallest n with the n-th cosyzygy injective, or None within bound."""
    cur = M
    for n in range(bound + 1):
        if cur.dim == 0 or split_class(cur).is_injective:
            return n
        _, mono = injective_envelope(cur)
        cur, _ = cokernel(mono)
    return None


def gorenstein_dimension(algebra: Algebra, bound: int):
    """Max of the injective dimensions of the left and right regular module."""
    left = injective_dimension(regular_module(algebra), bound)
    right = injective_dimension(regular_module(_opposite_of(algebra)), bound)
    if left is None or right is None:
        return None
    return max(left, right)
