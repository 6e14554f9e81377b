"""Input-format parsing, round-trip identity, and the command-line driver."""

import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from conftest import count_calls, count_solves, triangular_d2
from singeq import (approx, cli, complexes, fixtures, formats, functors, homotopy, linalg,
                    modules)
from singeq.complexes import zero_chain_map
from singeq.cli import main
from singeq.config import default_options
from singeq.errors import IsomorphismUndecided, LiftError, ParseError

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXDIR, name)


class TestParsing:
    def test_algebra_file(self):
        alg = formats.load_algebra(fx("d2.alg"))
        assert alg.dim == 2 and alg.field.p == 2

    def test_module_file(self):
        mod = formats.load_module(fx("k.mod"))
        assert mod.dim == 1 and mod.algebra is fixtures.D2()

    def test_complex_file_matches_builtin(self):
        cx = formats.load_complex(fx("tper.cx"))
        ref = fixtures.t_per()
        for n in range(-2, 3):
            assert cx.term(n).dim == ref.term(n).dim
            assert np.array_equal(cx.diff(n) % 2, ref.diff(n) % 2)

    def test_map_file(self):
        f = formats.load_chain_map(fx("xid.map"))
        f.validate()
        assert np.array_equal(f.component(0),
                              np.array([[0, 0], [1, 0]], dtype=np.int64))

    def test_builtin_names_resolve(self):
        assert formats.load_module("k").dim == 1
        assert formats.load_complex("T_per[2]").lo == 2

    def test_parse_error_carries_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken")
        with pytest.raises(ParseError) as exc:
            formats.load_json(str(bad))
        assert exc.value.line == 2 and exc.value.column is not None

    def test_missing_field_rejected(self):
        with pytest.raises(ParseError):
            formats.algebra_from_doc({"p": 2})

    def test_matrices_reduced_mod_p(self):
        doc = json.load(open(fx("k.mod")))
        doc["action"] = [[[3]], [[2]]]
        mod = formats.module_from_doc(doc)
        assert mod.action[0][0, 0] == 1 and mod.action[1][0, 0] == 0

    def test_inline_algebra_interned(self):
        alg_doc = json.load(open(fx("d2.alg")))
        m1 = formats.module_from_doc(
            {"algebra": alg_doc, "dim": 1, "action": [[[1]], [[0]]]})
        m2 = formats.module_from_doc(
            {"algebra": dict(alg_doc), "dim": 2,
             "action": [[[1, 0], [0, 1]], [[0, 0], [1, 0]]]})
        assert m1.algebra is m2.algebra


class TestRoundTrip:
    def test_algebra_doc_round_trip(self):
        alg = formats.load_algebra(fx("d2.alg"))
        doc = formats.algebra_to_doc(alg)
        again = formats.algebra_from_doc(doc)
        assert again is alg  # interning makes the round trip literal

    def test_complex_doc_round_trip(self):
        cx = formats.load_complex(fx("tper.cx"))
        doc = formats.complex_to_doc(cx)
        again = formats.complex_from_doc(doc)
        for n in range(-2, 3):
            assert again.term(n).dim == cx.term(n).dim
            assert np.array_equal(again.diff(n) % 2, cx.diff(n) % 2)
        assert again.neg_period == cx.neg_period
        assert again.pos_period == cx.pos_period

    def test_map_doc_round_trip(self):
        f = formats.load_chain_map(fx("xid.map"))
        doc = formats.chain_map_to_doc(f)
        again = formats.chain_map_from_doc(doc)
        for n in range(-3, 4):
            assert np.array_equal(again.component(n), f.component(n))

    @pytest.mark.parametrize("name", ["k", "A", "kF2", "S1", "S2", "AT2", "0F2", "0D2", "0T2"])
    def test_module_doc_round_trip(self, name):
        # 0X is the zero module over the built-in algebra X: its 0 x 0
        # actions are written as [], which loads with shape (0,)
        M = modules.zero_module(fixtures.BUILTIN_ALGEBRAS[name[1:]]()) \
            if name.startswith("0") else fixtures.builtin_module(name)
        again = formats.module_from_doc(formats.module_to_doc(M, M.algebra.name))
        assert again.algebra is M.algebra and again.dim == M.dim
        for a, b in zip(again.action, M.action, strict=True):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_complex_with_a_zero_term_round_trip(self, D2, k):
        # d_1: k -> 0 has shape (0, 1) and is written as []
        X = complexes.Complex.build(D2, 0, 1, {0: modules.zero_module(D2), 1: k},
                                    {1: linalg.zeros(0, 1)})
        again = formats.complex_from_doc(formats.complex_to_doc(X, "D2"))
        assert again.diff(1).shape == (0, 1)
        assert [again.term(n).dim for n in (0, 1)] == [0, 1]

    def test_complex_with_zero_terms_in_its_tails_round_trip(self, D2, k, tmp_path, capsys):
        # window [k] at 0 and tails of period 2 with terms (0, k) on both
        # sides: the (0, 1) blocks and seams are written [], the (1, 0) ones [[]]
        zero = modules.zero_module(D2)
        blocks = (linalg.zeros(1, 0), linalg.zeros(0, 1))
        X = complexes.Complex.build(D2, 0, 0, {0: k}, {},
                                    complexes.Tail(2, (zero, k), blocks),
                                    complexes.Tail(2, (zero, k), blocks),
                                    linalg.zeros(0, 1), linalg.zeros(1, 0))
        doc = formats.complex_to_doc(X, "D2")
        assert doc["neg_tail"]["seam"] == [] and doc["pos_tail"]["seam"] == [[]]
        assert doc["neg_tail"]["diffs"] == doc["pos_tail"]["diffs"] == [[[]], []]
        again = formats.complex_from_doc(doc)
        assert (again.neg_period, again.pos_period) == (2, 2)
        for n in range(-6, 7):
            assert again.term(n).dim == X.term(n).dim == 1 - n % 2
            assert again.diff(n).shape == X.diff(n).shape
        # a tail of period 0 has no blocks: the side is bounded
        doc["pos_tail"] = {"period": 0, "terms": [], "diffs": [], "seam": []}
        assert formats.complex_from_doc(doc).pos_tail is None
        del doc["pos_tail"]
        path = tmp_path / "tails.cx"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        assert "overall: YES" in capsys.readouterr().out

    def test_map_with_empty_tail_blocks_round_trip(self, D2, A, tmp_path, capsys):
        # the identity of a complex whose period-2 tails alternate A and 0:
        # its 0 x 0 tail blocks are written [], and each loads with the
        # shape of its own degree
        zero = modules.zero_module(D2)
        term = lambda n: A if n % 2 == 0 else zero
        X = complexes.complex_from_callable(
            D2, 0, 1, term, lambda n: linalg.zeros(term(n - 1).dim, term(n).dim), 2, 2)
        f = complexes.identity_chain_map(X)
        doc = json.loads(json.dumps(formats.chain_map_to_doc(f)))
        assert doc["tail_components"]["neg"]["blocks"][0] == []
        assert doc["tail_components"]["pos"]["blocks"][1] == []
        again = formats.chain_map_from_doc(doc)
        for n in range(-6, 8):
            assert again.component(n).shape == f.component(n).shape == (A.dim * (1 - n % 2),) * 2
            assert np.array_equal(again.component(n), f.component(n))
        path = tmp_path / "id.map"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        assert "overall: YES" in capsys.readouterr().out

    def test_map_to_a_zero_stalk_round_trip(self, D2, k):
        f = zero_chain_map(functors.stalk(k), functors.stalk(modules.zero_module(D2)))
        again = formats.chain_map_from_doc(formats.chain_map_to_doc(f))
        assert again.component(0).shape == (0, 1)
        assert again.target.term(0).dim == 0


class TestCli:
    def test_validate_shipped_fixture(self, capsys):
        assert main(["validate", fx("d2.alg")]) == 0
        out = capsys.readouterr().out
        assert "YES" in out and "overall: YES" in out

    def test_functor_omega(self, capsys):
        assert main(["functor", "omega", fx("tper.cx")]) == 0
        assert "dim 1 over D2" in capsys.readouterr().out

    def test_demo_json(self, capsys):
        assert main(["--format", "json", "demo", "D2-Tper"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["overall"] == "YES"
        names = {e["name"]: e["verdict"] for e in report["entries"]}
        assert names["verify_round_trip side P"] == "YES"
        assert names["verify_round_trip side I"] == "YES"

    def test_python_dash_m_runs_from_a_checkout(self):
        src = os.path.dirname(os.path.dirname(formats.__file__))
        out = subprocess.run([sys.executable, "-m", "singeq", "demo", "D2-Tper"],
                             capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, out.stderr
        assert "overall: YES" in out.stdout

    def test_demo_stable_under_rerun(self, capsys):
        main(["--format", "json", "demo", "D2-Tper"])
        first = json.loads(capsys.readouterr().out)
        main(["--format", "json", "demo", "D2-Tper"])
        second = json.loads(capsys.readouterr().out)
        for e in first["entries"] + second["entries"]:
            e.pop("time")
        assert first == second

    @pytest.mark.parametrize("argv", [("classify", "xid.map", "--structure", "ctr"),
                                      ("demo", "D2-Tper")], ids=["classify", "demo"])
    def test_entry_times_add_up_to_the_command(self, capsys, monkeypatch, argv):
        # a clock at 0 when the command starts, moving 1 s per reading and
        # 100 s per input file read
        now, readings = [0], []

        def perf_counter():
            readings.append(now[0])
            now[0] += 1
            return readings[-1]

        def load_json(path, read=formats.load_json):
            now[0] += 100
            return read(path)

        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=perf_counter))
        monkeypatch.setattr(formats, "load_json", load_json)
        assert main(["--format", "json", *[fx(a) if a.endswith(".map") else a
                                           for a in argv]]) == 0
        times = [e["time"] for e in json.loads(capsys.readouterr().out)["entries"]]
        assert min(times) >= 0
        assert sum(times) == readings[-1]  # the reading at the last entry

    def test_classify(self, capsys):
        assert main(["classify", fx("xid.map"), "--structure", "ctr"]) == 0

    def test_replace(self, capsys):
        code = main(["replace", fx("kstalk.cx"), "--which", "cofibrant-ctr"])
        assert code == 0
        assert "overall: YES" in capsys.readouterr().out

    def test_verify_equivalence(self, capsys):
        assert main(["verify-equivalence", fx("tper.cx")]) == 0

    def test_verify_equivalence_rejects_stalk(self, capsys):
        assert main(["verify-equivalence", fx("kstalk.cx")]) == 1

    def test_usage_error(self, capsys):
        assert main(["bogus"]) == 64
        assert main(["replace", fx("kstalk.cx")]) == 64

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["validate", str(bad)]) == 65
        err = capsys.readouterr().err
        assert "line 1" in err


# (name, verdict, digest) of every entry of each distinct command of the
# perfbench cli-session, fixtures by file name.  A refactoring keeps every
# one of them: a moved digest is a changed certificate or object.
_PINNED_REPORTS = {
    ("validate", "d2.alg"): [("algebra well-formed", "YES", "970a2192acbc")],
    ("validate", "t2.alg"): [("algebra well-formed", "YES", "c4b5d1b63eba")],
    ("validate", "f2.alg"): [("algebra well-formed", "YES", "960fbdcc73a7")],
    ("validate", "k.mod"): [("module well-formed", "YES", "a67c7811483f")],
    ("validate", "a.mod"): [("module well-formed", "YES", "e48af6a16978")],
    ("validate", "s1.mod"): [("module well-formed", "YES", "0c2cbf5ec7c9")],
    ("validate", "s2.mod"): [("module well-formed", "YES", "cc680f7a6866")],
    ("validate", "tper.cx"): [("complex well-formed", "YES", "5b3f5f548c58")],
    ("validate", "kstalk.cx"): [("complex well-formed", "YES", "a67c7811483f")],
    ("validate", "contractible.cx"): [("complex well-formed", "YES", "6cb5122aeb78")],
    ("validate", "xid.map"): [("map well-formed", "YES", "17f4c4d1b2d8")],
    ("functor", "F", "tper.cx"): [("F applied", "YES", "a67c7811483f")],
    ("functor", "F", "kstalk.cx"): [("F applied", "YES", "a67c7811483f")],
    ("functor", "F", "contractible.cx"): [("F applied", "YES", "5feceb66ffc8")],
    ("functor", "G", "tper.cx"): [("G applied", "YES", "a67c7811483f")],
    ("functor", "G", "kstalk.cx"): [("G applied", "YES", "a67c7811483f")],
    ("functor", "G", "contractible.cx"): [("G applied", "YES", "e48af6a16978")],
    ("functor", "omega", "tper.cx"): [("omega applied", "YES", "a67c7811483f")],
    ("functor", "omega", "kstalk.cx"): [("omega applied", "YES", "a67c7811483f")],
    ("functor", "omega", "contractible.cx"): [("omega applied", "YES", "5feceb66ffc8")],
    ("functor", "theta", "tper.cx"): [("theta applied", "YES", "a67c7811483f")],
    ("functor", "theta", "kstalk.cx"): [("theta applied", "YES", "a67c7811483f")],
    ("functor", "theta", "contractible.cx"): [("theta applied", "YES", "e48af6a16978")],
    ("classify", "xid.map", "--structure", "ctr"): [
        ("cofibration", "YES", "-"), ("trivial cofibration", "YES", "-"),
        ("fibration", "YES", "-"), ("trivial fibration", "YES", "-")],
    ("classify", "xid.map", "--structure", "co"): [
        ("cofibration", "YES", "-"), ("trivial cofibration", "YES", "-"),
        ("fibration", "YES", "-"), ("trivial fibration", "YES", "-")],
    ("replace", "kstalk.cx", "--which", "cofibrant-ctr"): [
        ("replacement built", "YES", "cc77d628e698"), ("membership", "YES", "-"),
        ("comparison map mono/epi", "YES", "4cbbd8ca5215"),
        ("upper piece orthogonal", "YES", "0ac6482facaa"),
        ("lower piece orthogonal", "YES", "23b9ce62ec49")],
    ("replace", "kstalk.cx", "--which", "fibrant-co"): [
        ("replacement built", "YES", "cc77d628e698"), ("membership", "YES", "-"),
        ("comparison map mono/epi", "YES", "4cbbd8ca5215"),
        ("upper piece orthogonal", "YES", "2c91b700b931"),
        ("lower piece orthogonal", "YES", "5b9b1157a38b")],
    **{("verify-equivalence", "tper.cx", "--side", side): [
        ("membership", "YES", "-"), ("round trip", "YES", "6f4825ece777"),
        ("composite weak equivalence", "YES", "-")] for side in ("auto", "P", "I")},
    ("demo", "D2-Tper"): [
        ("gorenstein base algebra", "YES", "-"), ("input in exP and exI", "YES", "-"),
        ("counit weak equivalence", "YES", "0e8efc67c08a"),
        ("cofibrant stalk replacement", "YES", "cc77d628e698"),
        ("verify_round_trip side P", "YES", "6f4825ece777"),
        ("composite check side P", "YES", "-"),
        ("verify_round_trip side I", "YES", "6f4825ece777"),
        ("composite check side I", "YES", "-")],
}


@pytest.mark.parametrize("argv", list(_PINNED_REPORTS), ids=" ".join)
def test_cli_session_reports_are_pinned(capsys, argv):
    path = [fx(a) if a.endswith((".alg", ".mod", ".cx", ".map")) else a for a in argv]
    assert main(["--format", "json", *path]) == 0
    report = json.loads(capsys.readouterr().out)
    got = [(e["name"], e["verdict"], e["digest"]) for e in report["entries"]]
    assert got == _PINNED_REPORTS[argv]


def test_cli_session_reports_do_not_depend_on_order(capsys):
    # in one process, so every memo is warm from the commands before
    for argv in reversed(list(_PINNED_REPORTS)):
        path = [fx(a) if a.endswith((".alg", ".mod", ".cx", ".map")) else a for a in argv]
        for _ in range(2):
            assert main(["--format", "json", *path]) == 0
            report = json.loads(capsys.readouterr().out)
            got = [(e["name"], e["verdict"], e["digest"]) for e in report["entries"]]
            assert got == _PINNED_REPORTS[argv], argv


# Solves (graded systems built) and certificate re-checks of a command run
# a second time in one process: the memos answer every repeated solve, and
# every remembered equivalence is still checked again.
@pytest.mark.parametrize("argv, solves, rechecks", [
    (("demo", "D2-Tper"), 0, 5),
    (("verify-equivalence", "tper.cx", "--side", "P"), 0, 2),
    (("verify-equivalence", "tper.cx", "--side", "I"), 0, 2),
    (("verify-equivalence", "tper.cx", "--side", "auto"), 0, 2),
], ids=["demo", "verify-equivalence-P", "verify-equivalence-I", "verify-equivalence-auto"])
def test_a_warm_command_runs_its_pinned_solves_and_rechecks(capsys, monkeypatch, argv,
                                                            solves, rechecks):
    path = [fx(a) if a.endswith(".cx") else a for a in argv]
    assert main(path) == 0
    solved = count_solves(monkeypatch)
    checked = count_calls(monkeypatch, homotopy, "verify_certificate")
    assert main(path) == 0
    assert (len(solved), len(checked)) == (solves, rechecks)


def write_square_zero_plane(tmp_path):
    """k[x,y]/(x^2, y^2) over F_2, its simple module k, and the stalk of k.

    The syzygies of k grow in dimension, so no periodic tail closes.
    """
    labels = ["1", "x", "y", "xy"]
    mul = np.zeros((4, 4, 4), dtype=np.int64)
    for i, j, k in [(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 0, 1),
                    (2, 0, 2), (3, 0, 3), (1, 2, 3), (2, 1, 3)]:
        mul[i, j, k] = 1
    (tmp_path / "plane.alg").write_text(json.dumps({
        "name": "k[x,y]/(x^2,y^2)", "p": 2, "basis": labels, "mul": mul.tolist(),
        "unit": [1, 0, 0, 0], "idempotents": [0], "radical": [1, 2, 3]}))
    (tmp_path / "k.mod").write_text(json.dumps({
        "name": "k", "algebra": "plane.alg", "dim": 1,
        "action": [[[1]], [[0]], [[0]], [[0]]]}))
    stalk = tmp_path / "kstalk.cx"
    stalk.write_text(json.dumps({"window": {"lo": 0, "hi": 0, "terms": ["k.mod"],
                                            "diffs": []}}))
    return str(stalk)


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def replace_entries(capsys, argv):
    """(name, verdict, digest) of each entry of a replace report."""
    assert main(["--format", "json", *argv]) == 0
    return [(e["name"], e["verdict"], e["digest"])
            for e in json.loads(capsys.readouterr().out)["entries"]]


class TestFamilyFiles:
    @pytest.mark.parametrize("which", ["cofibrant-ctr", "fibrant-co"])
    def test_a_shift_of_a_generator_adds_nothing(self, tmp_path, capsys, which):
        # T_per[1] is T_per again over F_2, so its shifts are all decided
        # already and the certificates, and their digests, do not change
        reports = []
        for gens in (["T_per"], ["T_per", "T_per[1]"]):
            path = tmp_path / "family.json"
            path.write_text(json.dumps({"generators": gens}))
            reports.append(replace_entries(
                capsys, ["replace", fx("kstalk.cx"), "--which", which, "--family", str(path)]))
        assert reports[0] == reports[1]
        assert [v for _, v, _ in reports[0]] == ["YES"] * 5


class TestExitCodes:
    def test_0_yes(self, tmp_path, capsys):
        assert main(["validate", write_square_zero_plane(tmp_path)]) == 0

    @pytest.mark.parametrize("which", ["cofibrant-ctr", "fibrant-co"])
    def test_0_replace_over_a_non_self_injective_algebra(self, tmp_path, capsys, which):
        # the default family over the 1-Gorenstein T_2(D_2) is built from
        # add(A)-approximations, not from non-projective injective envelopes
        alg = triangular_d2()
        (tmp_path / "t2d2.alg").write_text(json.dumps(formats.algebra_to_doc(alg)))
        S = modules.simple_modules(alg)[1]
        (tmp_path / "s.mod").write_text(json.dumps(formats.module_to_doc(S, "t2d2.alg")))
        stalk = tmp_path / "s.cx"
        stalk.write_text(json.dumps({"window": {"lo": 0, "hi": 0, "terms": ["s.mod"],
                                                "diffs": []}}))
        assert main(["replace", str(stalk), "--which", which]) == 0

    @pytest.mark.parametrize("structure", ["ctr", "co"])
    def test_classify_a_map_to_the_zero_stalk(self, tmp_path, capsys, D2, k, structure):
        f = zero_chain_map(functors.stalk(k), functors.stalk(modules.zero_module(D2)))
        path = tmp_path / "to_zero.map"
        path.write_text(json.dumps(formats.chain_map_to_doc(f)))
        assert main(["classify", str(path), "--structure", structure]) in (0, 1, 2)

    @pytest.mark.parametrize("side", ["neg", "pos"])
    def test_0_a_map_tail_of_period_0_is_absent(self, tmp_path, capsys, side):
        # a tail with no blocks loads as no tail, as a complex's tail does
        with open(fx("xid.map")) as fh:
            doc = {**json.load(fh), "source": fx("tper.cx"), "target": fx("tper.cx")}
        tails = doc["tail_components"]

        def digest(tails):
            path = tmp_path / "tails.map"
            path.write_text(json.dumps({**doc, "tail_components": tails}))
            assert main(["--format", "json", "validate", str(path)]) == 0
            return json.loads(capsys.readouterr().out)["entries"][0]["digest"]

        without = {k: v for k, v in tails.items() if k != side}
        assert digest({**tails, side: {"period": 0, "blocks": []}}) == digest(without)

    @pytest.mark.parametrize("key, renamed", [("negative", "neg"), ("positive", "pos"),
                                              ("middle", None)])
    def test_65_an_unknown_map_tail_key(self, tmp_path, capsys, key, renamed):
        # "negative" for "neg" used to load the map without its negative tail
        with open(fx("xid.map")) as fh:
            doc = {**json.load(fh), "source": fx("tper.cx"), "target": fx("tper.cx")}
        tails = dict(doc["tail_components"])
        tails[key] = tails.pop(renamed) if renamed else tails["neg"]
        path = tmp_path / "tails.map"
        path.write_text(json.dumps({**doc, "tail_components": tails}))
        assert main(["validate", str(path)]) == 65
        assert f"unknown tail_components key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("components, gap", [
        ({"100000": [[0, 0], [1, 0]]}, "leave degrees 1..99999 between them"),
        ({"-7": [[0, 0], [1, 0]]}, "leave degrees -6..-1 between them"),
        ({"0": [[1, 0], [0, 1]], "3": [[1, 0], [0, 1]]}, "skip degrees 1..2")])
    def test_65_a_map_whose_components_leave_a_gap(self, tmp_path, capsys, components, gap):
        # its table spans the window and the complexes' ones, one block per
        # degree: key 100000 stored 100000 blocks and exited 0
        path = tmp_path / "gap.map"
        path.write_text(json.dumps({"source": fx("tper.cx"), "target": fx("tper.cx"),
                                    "components": components}))
        assert main(["validate", str(path)]) == 65
        assert gap in capsys.readouterr().err

    def test_0_a_map_beside_its_complexes(self, tmp_path, capsys):
        # a window that adjoins the complexes' windows leaves no gap
        path = tmp_path / "beside.map"
        path.write_text(json.dumps({"source": fx("tper.cx"), "target": fx("tper.cx"),
                                    "components": {"1": [[0, 0], [1, 0]]}}))
        assert main(["validate", str(path)]) == 0

    def test_1_no(self, capsys):
        assert main(["verify-equivalence", fx("kstalk.cx")]) == 1

    def test_2_search_exhaustion(self, tmp_path, capsys):
        stalk = write_square_zero_plane(tmp_path)
        assert main(["replace", stalk, "--which", "cofibrant-ctr"]) == 2
        err = capsys.readouterr().err
        assert "NO-PERIODICITY-WITHIN-BOUND" in err and "periodicity_bound=8" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("exc", [
        LiftError("PERIODIC-CLOSURE-FAILED: homotopy_period_bound=4"),
        IsomorphismUndecided("iso_exhaustive_dim=12")])
    def test_2_other_searches(self, monkeypatch, capsys, exc):
        monkeypatch.setattr(approx, "stalk_replacement", _raise(exc))
        assert main(["replace", fx("kstalk.cx"), "--which", "cofibrant-ctr"]) == 2
        assert str(exc) in capsys.readouterr().err

    def test_64_usage(self, capsys):
        assert main(["replace", fx("kstalk.cx"), "--which", "sideways"]) == 64

    def test_65_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.mod"
        bad.write_text(json.dumps({"algebra": "D2", "dim": 1,
                                   "action": [[[1]], [[1]]]}))
        assert main(["validate", str(bad)]) == 65
        err = capsys.readouterr().err
        assert err.startswith("error: ValidationError: ") and err.count("\n") == 1

    @pytest.mark.parametrize("ref", ["T_per[x]", "T_per[1.5]", "T_per[2"])
    def test_65_built_in_shift_not_an_integer(self, capsys, ref):
        assert main(["functor", "F", ref]) == 65
        err = capsys.readouterr().err
        assert err == f"error: ValidationError: shift of {ref!r} is not an integer\n"

    @pytest.mark.parametrize("doc", [
        {"p": "x", "basis": ["1"], "mul": [[[1]]], "unit": [1], "idempotents": [0],
         "radical": []},
        {"algebra": "D2", "dim": "one", "action": [[[1]], [[0]]]},
        {"p": 2, "basis": ["1", "x"], "mul": [[[1, 0], [0, 1]], [[0, 1]]], "unit": [1, 0],
         "idempotents": [0], "radical": [1]},
        {"p": 2, "basis": ["1"], "mul": [[[1]]], "unit": [1], "idempotents": [5],
         "radical": []},
        {"source": "T_per", "target": "T_per", "components": {"0": [[0, 0], [1, 0]]},
         "tail_components": {"neg": {"period": 2, "blocks": [[[0, 0], [1, 0]]]}}},
        {"source": "T_per", "target": "T_per", "components": {"0": [[0, 0], [1, 0]]},
         "tail_components": {"neg": {"period": 1,
                                     "blocks": [[[0, 0], [1, 0]], [[1, 1], [1, 1]]]}}},
        {"algebra": "D2", "dim": 1, "action": [[[1]]]},
        {"algebra": "D2", "dim": 1, "action": [[[1]], [[0]], [[0]]]},
        {"algebra": "D2", "dim": -1, "action": []},
    ], ids=["p", "dim", "ragged-mul", "idempotent-index", "map-tail-short", "map-tail-long",
            "action-short", "action-long", "dim-negative"])
    def test_65_malformed_document(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 65
        err = capsys.readouterr().err
        assert err.startswith(("parse error: " + str(bad), "error: ValidationError: "))

    @pytest.mark.parametrize("unit, shape", [([1], "(1,)"), ([1, 0, 0], "(3,)"),
                                             ([[1, 0]], "(1, 2)")],
                             ids=["short", "long", "matrix"])
    def test_65_unit_of_the_wrong_shape(self, tmp_path, capsys, unit, shape):
        # the shipped D2 is interned first: a unit with its bytes but
        # another shape must not resolve to it
        formats.load_algebra(fx("d2.alg"))
        with open(fx("d2.alg")) as fh:
            doc = {**json.load(fh), "unit": unit}
        bad = tmp_path / "bad.alg"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 65
        assert capsys.readouterr().err == (
            f"error: ValidationError: unit has shape {shape}, not (2,)\n")

    @pytest.mark.parametrize("doc", [
        {"window": {"lo": 0, "hi": 1, "terms": ["k", "S1"], "diffs": [[[0]]]}},
        {"window": {"lo": 0, "hi": 0, "terms": ["k"], "diffs": []},
         "pos_tail": {"period": 1, "terms": ["S1"], "diffs": [[[0]]]}},
    ], ids=["window", "tail"])
    def test_65_terms_over_another_algebra(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.cx"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 65
        assert capsys.readouterr().err == (
            "error: AlgebraMismatch: term at degree 1 lives over another algebra (T2) "
            "than the complex (D2)\n")

    @pytest.mark.parametrize("doc, field", [
        ({"source": "T_per", "target": "T_per", "components": [[1]]}, "components"),
        ({"window": "lo hi terms diffs"}, "window"),
        ({"window": {"lo": 0, "hi": 0, "terms": ["k"], "diffs": []},
          "neg_tail": "period terms diffs"}, "neg_tail"),
        ({"source": "T_per", "target": "T_per", "components": {"0": [[0, 0], [1, 0]]},
          "tail_components": "neg"}, "tail_components"),
    ], ids=["map-components", "complex-window", "complex-tail", "map-tails"])
    def test_65_field_not_an_object(self, tmp_path, capsys, doc, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 65
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and err.count("\n") == 1
        assert f"field {field!r} must be an object" in err

    @pytest.mark.parametrize("family", [
        {"generators": ["T_per"], "shift_range": -1},
        {"generators": ["T_per"], "shift_range": "three"},
        {"generators": "T_per"},
    ], ids=["negative", "not-an-integer", "not-a-list"])
    def test_65_malformed_family(self, tmp_path, capsys, family):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(family))
        argv = ["classify", fx("xid.map"), "--structure", "ctr", "--family", str(path)]
        assert main(argv) == 65

    @pytest.mark.parametrize("argv", [
        ["replace", fx("kstalk.cx"), "--which", "cofibrant-ctr"],
        ["classify", fx("xid.map"), "--structure", "ctr"],
    ], ids=["replace", "classify"])
    @pytest.mark.parametrize("generator, names", [
        ({"window": {"lo": 0, "hi": 0, "terms": ["S2"], "diffs": []}}, ("T2 of dim 3", "D2")),
        ("tper-over-d2-file.cx", ("D2 of dim 2 (another algebra of that name)", "D2")),
    ], ids=["T2-stalk", "T_per-over-a-D2-file"])
    def test_65_family_over_another_algebra(self, tmp_path, capsys, argv, generator, names):
        # the input lives over the built-in D2; a T2 stalk, or T_per over
        # d2.alg loaded by path (an algebra object of its own), is named
        # with both algebras, before any check runs on the family
        with open(fx("tper.cx")) as fh:
            doc = json.load(fh)
        for part in (doc["window"], doc["neg_tail"], doc["pos_tail"]):
            part["terms"] = [{"algebra": os.path.abspath(fx("d2.alg")), "dim": 2,
                              "action": [[[1, 0], [0, 1]], [[0, 0], [1, 0]]]}]
        (tmp_path / "tper-over-d2-file.cx").write_text(json.dumps(doc))
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"generators": [generator]}))
        assert main([*argv, "--family", str(path)]) == 65
        err = capsys.readouterr().err
        assert err.startswith("error: AlgebraMismatch: ") and err.count("\n") == 1
        assert (f"generator 0 lives over algebra {names[0]}, "
                f"but the input over algebra {names[1]} of dim 2") in err

    @pytest.mark.parametrize("shift_range", [2.5, True, 2 ** 70],
                             ids=["fractional", "bool", "beyond-int64"])
    def test_65_family_shift_range_not_an_integer(self, tmp_path, capsys, shift_range):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"generators": ["T_per"], "shift_range": shift_range}))
        argv = ["classify", fx("xid.map"), "--structure", "ctr", "--family", str(path)]
        assert main(argv) == 65
        assert "field 'shift_range' must be an integer within int64" in capsys.readouterr().err

    @pytest.mark.parametrize("dim, entry", [(1.9, 0), (1, 0.5), (1, True), (1, 2 ** 70),
                                            (1, 2 ** 63), (1, -2 ** 63 - 1)],
                             ids=["fractional-dim", "fractional-entry", "bool-entry",
                                  "entry-beyond-int64", "entry-2^63", "entry-below-int64"])
    def test_65_module_number_not_an_integer(self, tmp_path, capsys, dim, entry):
        bad = tmp_path / "bad.mod"
        bad.write_text(json.dumps({"algebra": "D2", "dim": dim, "action": [[[1]], [[entry]]]}))
        assert main(["validate", str(bad)]) == 65
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and err.count("\n") == 1
        assert ("'dim'" if dim != 1 else "'action'") in err

    @pytest.mark.parametrize("text, message", [
        (b'{"algebra": "D2", "dim": 0, "action": [[], []], "name": "\xe9"}', "not UTF-8"),
        (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
    ], ids=["not-utf-8", "deep-array"])
    def test_65_unreadable_json(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        assert main(["validate", str(bad)]) == 65
        err = capsys.readouterr().err
        assert err.startswith("parse error: " + str(bad)) and message in err

    @pytest.mark.parametrize("name", [5, [1], None])
    @pytest.mark.parametrize("doc", [
        {"p": 2, "basis": ["1"], "mul": [[[1]]], "unit": [1], "idempotents": [0],
         "radical": []},
        {"algebra": "D2", "dim": 1, "action": [[[1]], [[0]]]},
        {"window": {"lo": 0, "hi": 0, "terms": ["k"], "diffs": []}},
    ], ids=["algebra", "module", "complex"])
    def test_65_name_not_a_string(self, tmp_path, capsys, doc, name):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, "name": name}))
        assert main(["validate", str(bad)]) == 65
        assert "field 'name' must be a string" in capsys.readouterr().err
        bad.write_text(json.dumps({**doc, "name": "ok"}))
        assert main(["validate", str(bad)]) == 0

    def test_integral_numbers_and_component_keys_still_load(self, tmp_path, capsys):
        mod = formats.module_from_doc({"algebra": "D2", "dim": 1.0,
                                       "action": [[[3.0]], [[-2 ** 63]]]})
        assert mod.dim == 1 and mod.action[0][0, 0] == 1 and mod.action[1][0, 0] == 0
        doc = json.load(open(fx("xid.map")))
        assert all(isinstance(key, str) for key in doc["components"])
        assert formats.chain_map_from_doc(doc, fx("xid.map")).clo == 0

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_65_bad_period_bound_in_the_environment(self, monkeypatch, capsys, value):
        monkeypatch.setenv("GH_HOMOTOPY_PERIOD_BOUND", value)
        assert main(["validate", fx("d2.alg")]) == 65
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert f"GH_HOMOTOPY_PERIOD_BOUND='{value}'" in err

    def test_period_bound_from_the_environment(self, monkeypatch):
        monkeypatch.setenv("GH_HOMOTOPY_PERIOD_BOUND", "2")
        assert default_options().homotopy_period_bound == 2

    def test_70_internal(self, monkeypatch, capsys):
        monkeypatch.setattr(formats, "load_any", _raise(RuntimeError("boom\nmore")))
        assert main(["validate", fx("d2.alg")]) == 70
        err = capsys.readouterr().err
        assert err.startswith("internal error: RuntimeError") and err.count("\n") == 1
