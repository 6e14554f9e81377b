"""The builders of algebras and simple modules: fixtures.truncated_polynomial,
fixtures.upper_triangular and modules.simple_modules, and the built-in
algebras and simple modules made with them."""

import hashlib
import os
import random

import pytest

from conftest import periodic_complex, random_d2_complex, triangular_d2, truncated_polynomial
from singeq import complexes, fixtures, formats, linalg, modules
from singeq.config import Options
from singeq.errors import ValidationError

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def array_digest(*arrays) -> str:
    """Digest of each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr((a.dtype.str, a.shape)).encode() + a.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name, doc", [("F2", "f2.alg"), ("D2", "d2.alg"), ("T2", "t2.alg")])
def test_builtin_algebras_equal_the_shipped_documents(name, doc):
    built = fixtures.BUILTIN_ALGEBRAS[name]()
    shipped = formats.load_algebra(os.path.join(FIXDIR, doc))
    assert built is not shipped
    for a, b in ((built.mul, shipped.mul), (built.unit, shipped.unit)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert built.basis_labels == shipped.basis_labels
    assert (built.idempotents, built.radical_basis) == (shipped.idempotents, shipped.radical_basis)
    assert built.name == shipped.name == name


# mul and unit of the test algebras, as the code before the builders wrote them
@pytest.mark.parametrize("build, digest", [
    (lambda: truncated_polynomial(3, 2), "e4e6bfc92bdf02ac"),
    (lambda: truncated_polynomial(3, 3), "e4e6bfc92bdf02ac"),
    (lambda: truncated_polynomial(4, 2), "ed5e5aa549495336"),
    (lambda: truncated_polynomial(3, 2 ** 26 - 5), "e4e6bfc92bdf02ac"),
    (triangular_d2, "11ae70fde59be2a8"),
], ids=["D3/F2", "D3/F3", "D4/F2", "D3/Fmax", "T2(D2)"])
def test_builders_keep_the_structure_constants(build, digest):
    alg = build()
    assert array_digest(alg.mul, alg.unit) == digest


def test_builders_label_and_name_their_bases():
    assert truncated_polynomial(4, 3).basis_labels == ("1", "x", "x^2", "x^3")
    T = triangular_d2()
    assert T.basis_labels == ("e11", "e22", "e12", "xe11", "xe22", "xe12")
    assert (T.idempotents, T.radical_basis, T.name) == ((0, 1), (2, 3, 4, 5), "T2(D2)")


@pytest.mark.parametrize("n", [0, -1])
def test_truncated_polynomial_refuses_n_below_1(n):
    with pytest.raises(ValidationError, match=f"not n = {n}$"):
        fixtures.truncated_polynomial(n, 2, f"D{n}")


def test_builders_return_a_new_algebra_on_every_call():
    assert fixtures.truncated_polynomial(2, 2, "D2") is not fixtures.D2()
    assert triangular_d2() is not triangular_d2()
    assert fixtures.T2() is fixtures.T2()


def test_triangular_over_a_triangular_algebra_validates():
    T = fixtures.upper_triangular(triangular_d2(), "T2(T2(D2))")
    assert T.dim == 18 and len(T.idempotents) == 4 and len(T.radical_basis) == 14


# the action bytes of the built-in simple modules, as written out before
@pytest.mark.parametrize("build, name, digest", [
    (fixtures.simple_k, "k", "97c97c16adbdf67f"),
    (fixtures.simple_k_F2, "k", "4bc267ce87999e26"),
    (fixtures.S1, "S1", "a337f837fa1fe78f"),
    (fixtures.S2, "S2", "b4436cab1fe79f7e"),
], ids=["k", "kF2", "S1", "S2"])
def test_builtin_simple_modules_keep_their_actions(build, name, digest):
    M = build()
    assert (M.name, M.dim) == (name, 1)
    assert array_digest(*M.action) == digest


@pytest.mark.parametrize("build", [fixtures.F2, fixtures.D2, fixtures.T2, triangular_d2,
                                   lambda: truncated_polynomial(3, 3)],
                         ids=["F2", "D2", "T2", "T2(D2)", "D3/F3"])
def test_simple_modules_are_the_simple_tops(build):
    alg = build()
    simples = modules.simple_modules(alg)
    assert len(simples) == len(alg.idempotents)
    for i, S in zip(alg.idempotents, simples):
        S.validate()
        # one-dimensional, killed by the radical, and e_i acts as 1
        assert S.dim == 1 and not any(S.action[j].any() for j in alg.radical_basis)
        assert [int(S.action[j][0, 0]) for j in alg.idempotents] == [
            int(j == i) for j in alg.idempotents]


@pytest.mark.parametrize("base", [fixtures.F2, fixtures.D2, lambda: truncated_polynomial(3, 3)],
                         ids=["F2", "D2", "D3/F3"])
def test_gorenstein_dimension_of_triangular_algebras_grows_by_one(base):
    # closed form: G-dim T_2(A) = G-dim A + 1, and G-dim A = 0 for these A,
    # which are semisimple or self-injective
    A = base()
    T = fixtures.upper_triangular(A, "T_2(A)")
    TT = fixtures.upper_triangular(T, "T_2(T_2(A))")
    assert [modules.gorenstein_dimension(alg, Options().gorenstein_bound)
            for alg in (A, T, TT)] == [0, 1, 2]


def test_identity_chain_map_is_the_identity_at_every_degree():
    # built-in complexes and shifts, the zero complex, random bounded
    # complexes over D2 and the periodic T_j over D4/F2
    rng = random.Random(5)
    for X in [fixtures.t_per(), fixtures.builtin_complex("T_per[1]"),
              fixtures.contractible_AA(), complexes.reindex(fixtures.contractible_AA(), 3),
              complexes.zero_complex(fixtures.D2()), *(random_d2_complex(rng) for _ in range(5)),
              *(periodic_complex(truncated_polynomial(4, 2), j) for j in (1, 2, 3))]:
        f = complexes.identity_chain_map(X)
        assert f._checked and (f.neg_period, f.pos_period) == (X.neg_period, X.pos_period)
        q = max(X.neg_period, X.pos_period, 1)
        for n in range(X.lo - 3 * q, X.hi + 3 * q + 1):
            assert f.component(n).tobytes() == linalg.eye(X.term(n).dim).tobytes()
