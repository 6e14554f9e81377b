"""Finite-dimensional modules over split basic algebras.

Modules are value-semantic presentations (action matrices); maps carry an
explicit intertwiner matrix.  Isomorphism is always explicit via
find_isomorphism, never implied by equal dimensions.

The injective side is derived through the duality D = Hom_k(-, k) from
mod A to mod A^op (dual_module, dual_map), which turns injectives into
projectives: the injective envelope of M is D of the projective cover of
D(M), the injective dimension of M is the projective dimension of D(M),
and cosyzygies are D of the syzygies of D(M).

Caching rule: data that depends only on module actions is memoized on
their algebra under the exact action bytes, so equal presentations share
one entry and a change of basis gets its own.  That covers a module's
projective cover, injective envelope and left add(A)-approximation, and
the hom basis of a pair (source, target) with its pivot entries, keyed
on both actions in that order.  Module.is_projective and is_injective
compare dimensions on the memoized cover and envelope.  The same
per-algebra dict holds what depends on the algebra alone: the zero
module, one zero matrix per shape (zero_block), the indecomposable
projectives, the opposite algebra, the action generators, the Gorenstein
dimension per bound and the generator family per Options.  Memoized
arrays are read-only, and every check a computation makes runs on its
first computation.

What depends on one complex or chain map is memoized on that object, and
lives and dies with it: the table of its distinct blocks (a complex's or
graded map's _blocks), the kernel and cokernel complexes of a chain map,
a complex's exP / exI verdicts and its dual complex (complexes.dual), and
the homotopy-equivalence verdicts of the maps out of a complex
(homotopy.homotopy_equivalence_certificate), keyed on the target object
(held by the entry and compared by identity), the map's window, periods
and blocks, and the full Options.  A remembered YES is checked again on
every hit.
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
        if self.dim < 0:
            raise ValidationError(f"module dimension {self.dim} is negative")
        if len(self.action) != A.dim:
            raise ValidationError(
                f"module has {len(self.action)} action matrices, algebra has dimension {A.dim}")
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

    @property
    def is_projective(self) -> bool:
        """M is projective, read from the memoized projective cover.

        The cover P(M) -> M is onto, so equal dimensions make it an
        isomorphism.  Conversely projective_cover is minimal, one A*e_i
        per basis vector of the top of M, so a projective M has a cover
        of its own dimension: a NO relies on that minimality."""
        return projective_cover(self)[0].dim == self.dim

    @property
    def is_injective(self) -> bool:
        """M is injective, read from the memoized injective envelope.

        The envelope M -> I(M) is one to one, and it is D of the minimal
        projective cover of D(M), so it has the dimension of M exactly
        when D(M) is projective, that is when M is injective."""
        return injective_envelope(self)[0].dim == self.dim


@dataclass(frozen=True, eq=False)
class ModuleMap:
    source: Module
    target: Module
    matrix: np.ndarray  # target.dim x source.dim

    def validate(self) -> None:
        if self.source.algebra is not self.target.algebra:
            raise AlgebraMismatch("source and target live over different algebras")
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise DimensionMismatch("map matrix has wrong shape")
        bad = intertwining_failures(self.source, self.target, [self.matrix])[0]
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


def intertwining_residue(source: Module, target: Module, F: np.ndarray) -> np.ndarray:
    """(F a_i - b_i F) mod p for a stack F (... x target.dim x source.dim)
    and every action index i, as (... x algebra.dim x target.dim x
    source.dim): zero exactly where F intertwines action i.  One batched
    product per side against the stacked actions."""
    F = F[..., None, :, :]
    return (F @ source.stacked_action - target.stacked_action @ F) % source.algebra.p


def intertwining_failures(source: Module, target: Module, mats) -> np.ndarray:
    """(len(mats) x algebra.dim) flags, set where mats[k] fails F a_i = b_i F.

    All matrices source -> target and all action indices are checked at
    once (intertwining_residue).
    """
    if not (source.dim and target.dim):
        return np.zeros((len(mats), source.algebra.dim), dtype=bool)
    return intertwining_residue(source, target, np.array(mats)).any(axis=(2, 3))


def _memo(algebra: Algebra, key, compute):
    """compute(), stored on algebra under key, with its arrays made read-only."""
    memo = algebra._modules
    if key not in memo:
        memo[key] = _read_only(compute())
    return memo[key]


def _read_only(value):
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, Module):
        _read_only(value.action)
    elif isinstance(value, ModuleMap):
        _read_only(value.matrix)
    elif isinstance(value, tuple):
        for v in value:
            _read_only(v)
    return value


def _by_value(kind: str, mods: tuple, compute):
    """compute(), memoized on the algebra of mods under the exact bytes of
    each module's action, in the order given."""
    key = (kind, *[(M.dim, M.stacked_action.dtype.str, M.stacked_action.tobytes())
                   for M in mods])
    return _memo(mods[0].algebra, key, compute)


def zero_module(algebra: Algebra) -> Module:
    """The zero module over algebra; one shared instance per algebra."""
    return _memo(algebra, "zero", lambda: Module(
        algebra, 0, tuple(linalg.zeros(0, 0) for _ in range(algebra.dim))))


def zero_block(algebra: Algebra, rows: int, cols: int) -> np.ndarray:
    """A read-only (rows x cols) zero matrix, one shared array per shape."""
    return _memo(algebra, ("zero", rows, cols), lambda: linalg.zeros(rows, cols))


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


def action_generators(algebra: Algebra) -> tuple:
    """Basis indices whose actions generate every action, memoized on the
    algebra: the idempotents but the last (all of them sum to the unit)
    and the radical basis elements that span rad/rad^2, since those lifts
    generate the radical.  A matrix that intertwines these intertwines
    every basis element."""

    def compute():
        p = algebra.p
        J = list(algebra.radical_basis)
        # rad^2 is spanned by the products b_i b_j of radical basis elements
        products = algebra.mul[np.ix_(J, J)].reshape(-1, algebra.dim).T
        _, pivots = linalg.rref(np.hstack([products, linalg.eye(algebra.dim)[:, J]]), p)
        top = [J[c - products.shape[1]] for c in pivots if c >= products.shape[1]]
        return tuple(sorted([*algebra.idempotents[:-1], *top]))

    return _memo(algebra, "action generators", compute)


def _hom(M: Module, N: Module) -> tuple:
    """(basis, pivot entries) of Hom(M, N), memoized by the values of M
    and N; see hom_stack and hom_pivots."""
    if M.algebra is not N.algebra:
        raise AlgebraMismatch("hom_stack needs a common algebra")

    def compute():
        p = M.algebra.p
        s, t = M.dim, N.dim
        if s == 0 or t == 0:
            return linalg.zeros(0, t * s).reshape(0, t, s), np.arange(0)
        # row-major vec: vec(F @ A_i - B_i @ F) over the generating indices
        gens = list(action_generators(M.algebra))
        system = np.vstack([linalg.zeros(0, t * s)] + [
            linalg.kron(linalg.eye(t), a.T) - linalg.kron(b, linalg.eye(s))
            for a, b in zip(M.stacked_action[gens], N.stacked_action[gens])]) % p
        K = linalg.kernel_basis(system, p)
        # column j of K is 1 at the j-th free column of the elimination, 0
        # at the other free columns, and 0 below its free column
        last = K.shape[0] - 1 - np.argmax(K[::-1] != 0, axis=0)
        return K.T.reshape(-1, t, s), last

    return _by_value("hom", (M, N), compute)


def hom_stack(M: Module, N: Module) -> np.ndarray:
    """Basis of the intertwiner space Hom(M, N) as one read-only
    (h x N.dim x M.dim) array, memoized by the values of M and N.

    It is the reduced kernel basis of F a_i = b_i F over the indices i of
    action_generators only: all idempotents but one, and radical basis
    elements spanning rad/rad^2 (x alone over D_n, none over a field).
    These generate the algebra, so the system has the same kernel as the
    one over every index, hence the same row space and the same basis,
    bit for bit.  The checks of a module map (intertwining_failures)
    still test every index.
    """
    return _hom(M, N)[0]


def hom_pivots(M: Module, N: Module) -> np.ndarray:
    """The h row-major entries of an (N.dim x M.dim) matrix at which
    hom_stack(M, N)[j] is 1 and every other basis matrix is 0: the free
    columns of its elimination, from the same memo.  A module map
    M -> N is the combination of the basis with its values there as
    coefficients, so it is determined by those entries."""
    return _hom(M, N)[1]


def hom_basis(M: Module, N: Module) -> list:
    """Basis of the intertwiner space Hom(M, N), one ModuleMap each."""
    return [ModuleMap(M, N, h) for h in hom_stack(M, N)]


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


def radical_submodule_basis(M: Module) -> np.ndarray:
    """Column basis of rad(A)*M."""
    p = M.algebra.p
    cols = [M.action[j] for j in M.algebra.radical_basis]
    if not cols or M.dim == 0:
        return linalg.zeros(M.dim, 0)
    return linalg.column_space_basis(np.hstack(cols) % p, p)


def indecomposable_projective(algebra: Algebra, idem_index: int) -> tuple:
    """(A*e_i as a module, inclusion into the regular module, generator coords)."""

    def compute():
        p = algebra.p
        cols = np.column_stack(
            [algebra.mul[j, idem_index, :] for j in range(algebra.dim)]
        ) % p
        P, incl = submodule(regular_module(algebra), cols)
        e = np.zeros(algebra.dim, dtype=np.int64)
        e[idem_index] = 1
        gen = linalg.solve(incl.matrix, e, p)
        if gen is None:
            raise ValidationError("idempotent not inside its own projective")
        return P, incl, gen

    return _memo(algebra, ("projective", idem_index), compute)


def projective_cover(M: Module) -> tuple:
    """(P, epi) with P a sum of indecomposable projectives covering M."""
    if M.dim == 0:
        return zero_module(M.algebra), zero_map(zero_module(M.algebra), M)
    S, epi = _by_value("cover", (M,), lambda: _projective_cover(M))
    return S, ModuleMap(S, M, epi)


def _projective_cover(M: Module) -> tuple:
    """(P, epi matrix) for a nonzero M, with the epi validated."""
    A = M.algebra
    p = A.p
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
    return S, epi.matrix


def dual_module(M: Module) -> Module:
    """Vector-space dual as a left module over the opposite algebra.

    An involution: the opposite of the opposite algebra is the algebra
    itself (_opposite_of), so D(D(M)) has the algebra and the action of M."""
    op = _opposite_of(M.algebra)
    return Module(op, M.dim, tuple(m.T.copy() for m in M.action))


def dual_map(f: ModuleMap) -> ModuleMap:
    """D(f): D(f.target) -> D(f.source) over the opposite algebra."""
    return ModuleMap(dual_module(f.target), dual_module(f.source), f.matrix.T.copy())


def _opposite_of(algebra: Algebra) -> Algebra:
    """The opposite algebra, built once; its own opposite is algebra."""

    def compute():
        op = algebra.opposite()
        op._modules["opposite"] = algebra
        return op

    return _memo(algebra, "opposite", compute)


def injective_envelope(M: Module) -> tuple:
    """(I, mono) computed through the duality with A^op projectives."""
    A = M.algebra
    if M.dim == 0:
        return zero_module(A), zero_map(M, zero_module(A))

    def compute():
        mono = dual_map(projective_cover(dual_module(M))[1])
        mono.validate()
        if not mono.is_injective():
            raise ValidationError("injective envelope candidate is not injective")
        return mono.target, mono.matrix

    I, mono = _by_value("envelope", (M,), compute)
    return I, ModuleMap(M, I, mono)


def left_projective_approximation(M: Module) -> tuple:
    """(P, f): the minimal left add(A)-approximation f: M -> P, through
    which every map from M to a projective factors; f is injective when
    M is Gorenstein projective.  Over a self-injective algebra it is the
    injective envelope.  Otherwise P has a copy of A*e_i for each element
    of a basis of the top of the right module Hom_A(M, A) in e_i."""
    A = M.algebra
    if M.dim == 0 or gorenstein_dimension(A, 0) == 0:
        return injective_envelope(M)

    def compute():
        p = A.p
        H = hom_stack(M, regular_module(A))
        if not len(H):
            return zero_module(A), linalg.zeros(0, M.dim)
        right = A.mul.transpose(1, 2, 0) % p  # right[i]: x -> x b_i on A
        rad = [(right[r] @ g) % p for r in A.radical_basis for g in H]
        summands, blocks = [], []
        for i in A.idempotents:  # Hom(M, A)e_i modulo Hom(M, A)rad e_i
            low, gens = [(right[i] @ g) % p for g in rad], [(right[i] @ g) % p for g in H]
            P, incl, _ = indecomposable_projective(A, i)
            for c in linalg.rref(np.array(low + gens).reshape(len(low) + len(H), -1).T, p)[1]:
                if c >= len(low):
                    summands.append(P)
                    blocks.append(linalg.solve_matrix(incl.matrix, gens[c - len(low)], p))
        f = ModuleMap(M, direct_sum(summands)[0], np.vstack(blocks) % p)
        f.validate()
        return f.target, f.matrix

    P, f = _by_value("approximation", (M,), compute)
    return P, ModuleMap(M, P, f)


def syzygy(M: Module, n: int) -> Module:
    """n-fold kernel of projective covers (n>0), or for n<0 the cosyzygy
    D(syzygy(D(M), -n)): cokernels of envelopes, up to isomorphism."""
    if n < 0:
        return dual_module(syzygy(dual_module(M), -n))
    cur = M
    for _ in range(n):
        _, epi = projective_cover(cur)
        cur, _ = kernel(epi)
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
        f"hom space of dimension {h} over F_{p} exceeds the exhaustive search "
        f"(iso_exhaustive_dim={options.iso_exhaustive_dim}) and "
        f"iso_random_tries={options.iso_random_tries} random tries found no isomorphism")


def projective_dimension(M: Module, bound: int):
    """Smallest n with the n-th syzygy projective, or None within bound."""
    cur = M
    for n in range(bound + 1):
        if cur.is_projective:
            return n
        _, epi = projective_cover(cur)
        cur, _ = kernel(epi)
    return None


def injective_dimension(M: Module, bound: int):
    """Smallest n with the n-th cosyzygy injective, or None within bound:
    the projective dimension of D(M)."""
    return projective_dimension(dual_module(M), bound)


def gorenstein_dimension(algebra: Algebra, bound: int):
    """Max of the injective dimensions of the left and right regular module,
    or None beyond bound; memoized on the algebra per bound."""

    def compute():
        left = injective_dimension(regular_module(algebra), bound)
        right = injective_dimension(regular_module(_opposite_of(algebra)), bound)
        if left is None or right is None:
            return None
        return max(left, right)

    return _memo(algebra, ("gorenstein", bound), compute)
