"""Parsed documents are memoized by content on their algebra: a load of
content already loaded returns the object that passed its check, the
memos on that object serve repeated commands, and a document that fails
its check stores nothing."""

import contextlib
import gc
import io
import json
import os

import pytest

from conftest import in_new_process, memo_digest
from singeq import fixtures, formats, functors
from singeq.cli import main
from singeq.complexes import Complex
from singeq.errors import ValidationError

FIXDIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")

# the commands run on each document after validate; FILE stands for its path
COMMANDS = {
    "tper.cx": [["verify-equivalence", "FILE", "--side", "I"], ["functor", "omega", "FILE"]],
    "kstalk.cx": [["functor", "theta", "FILE"], ["replace", "FILE", "--which", "cofibrant-ctr"]],
    "xid.map": [["classify", "FILE", "--structure", "co"]],
    "inline.cx": [["verify-equivalence", "FILE", "--side", "P"], ["functor", "F", "FILE"]],
}


def fx(name):
    return os.path.join(FIXDIR, name)


def run_json(argv) -> list:
    """[name, verdict, digest] of each entry of the JSON report of argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--format", "json", *argv]) == 0
    return [[e["name"], e["verdict"], e["digest"]]
            for e in json.loads(out.getvalue())["entries"]]


def command_reports(path: str) -> list:
    """The reports of validate and of the COMMANDS on path, and for a map
    the memo_digest of the parsed map."""
    out = [run_json([path if a == "FILE" else a for a in argv])
           for argv in [["validate", "FILE"], *COMMANDS[os.path.basename(path)]]]
    if path.endswith(".map"):
        out.append(memo_digest([formats.load_chain_map(path)]))
    return out


def inline_tper(tmp_path) -> str:
    """T_per written with each of its modules as an inline document."""
    with open(fx("tper.cx")) as fh:
        doc = json.load(fh)
    A = formats.module_to_doc(fixtures.regular_D2(), "D2")
    for part in (doc["window"], doc["neg_tail"], doc["pos_tail"]):
        part["terms"] = [A]
    path = tmp_path / "inline.cx"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_a_warm_load_reports_as_a_cold_load_in_a_new_process(tmp_path, name):
    path = inline_tper(tmp_path) if name == "inline.cx" else fx(name)
    cold = in_new_process("test_parse_memo", f"command_reports({path!r})")
    command_reports(path)
    assert command_reports(path) == cold
    load = formats.load_chain_map if name.endswith(".map") else formats.load_complex
    assert load(path) is load(path)


def x_module(name="M", x=((0, 0), (1, 0))) -> dict:
    return {"algebra": "D2", "dim": 2, "action": [[[1, 0], [0, 1]], [list(r) for r in x]],
            "name": name}


def x_map(entry=1, complex_ref="T_per") -> dict:
    x = [[0, 0], [entry, 0]]
    return {"source": complex_ref, "target": complex_ref, "components": {"0": x},
            "tail_components": {"neg": {"period": 1, "blocks": [x]},
                                "pos": {"period": 1, "blocks": [x]}}}


def stalk(module: dict) -> dict:
    return {"window": {"lo": 0, "hi": 0, "terms": [module], "diffs": []}}


class TestDistinctContent:
    def test_equal_documents_load_one_object(self):
        assert formats.module_from_doc(x_module()) is formats.module_from_doc(x_module())
        assert formats.complex_from_doc(stalk(x_module())) is \
            formats.complex_from_doc(stalk(x_module()))
        assert formats.chain_map_from_doc(x_map()) is formats.chain_map_from_doc(x_map())

    def test_a_built_in_name_gives_one_object(self):
        # so a document that names one is itself loaded once
        assert formats.complex_from_doc(stalk("AT2")) is formats.complex_from_doc(stalk("AT2"))
        f = formats.chain_map_from_doc(x_map(complex_ref="T_per[1]"))
        assert f is formats.chain_map_from_doc(x_map(complex_ref="T_per[1]"))

    def test_a_module_name_gives_its_own_object(self):
        M, N = formats.module_from_doc(x_module("M")), formats.module_from_doc(x_module("N"))
        assert M is not N and (M.name, N.name) == ("M", "N")
        X, Y = (formats.complex_from_doc(stalk(x_module(n))) for n in "MN")
        assert X is not Y and (X.term(0).name, Y.term(0).name) == ("M", "N")

    def test_an_algebra_name_gives_its_own_object(self, tmp_path):
        with open(fx("d2.alg")) as fh:
            doc = json.load(fh)
        paths = []
        for name, labels in (("first", ["1", "x"]), ("second", ["1", "x"]),
                             ("second", ["e", "t"])):
            paths.append(tmp_path / f"{name}-{labels[1]}.alg")
            paths[-1].write_text(json.dumps({**doc, "name": name, "basis": labels}))
        algs = [formats.load_algebra(str(path)) for path in paths]
        assert [(A.name, A.basis_labels) for A in algs] == [
            ("first", ("1", "x")), ("second", ("1", "x")), ("second", ("e", "t"))]
        assert formats.load_algebra(str(paths[1])) is algs[1]
        for path, name in zip(paths, ("first", "second", "second")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["--format", "json", "validate", str(path)]) == 0
            assert json.loads(out.getvalue())["entries"][0]["detail"] == f"algebra {name} of dim 2"

    def test_one_matrix_entry_gives_its_own_object(self):
        M = formats.module_from_doc(x_module(x=((0, 0), (1, 0))))
        N = formats.module_from_doc(x_module(x=((0, 0), (0, 0))))
        assert M is not N and M.action[1][1, 0] == 1 and N.action[1][1, 0] == 0
        f, g = formats.chain_map_from_doc(x_map(1)), formats.chain_map_from_doc(x_map(0))
        assert f is not g and f.component(0)[1, 0] == 1 and g.component(0)[1, 0] == 0


def test_a_document_that_fails_its_check_stores_nothing():
    A = [[1, 0], [0, 1]]
    bad = {"window": {"lo": 0, "hi": 2, "terms": ["A", "A", "A"], "diffs": [A, A]}}
    alg = fixtures.D2()
    errors, entries = [], []
    for _ in range(3):
        with pytest.raises(ValidationError) as exc:
            formats.complex_from_doc(bad)
        errors.append(str(exc.value))
        entries.append(set(alg._modules))
    assert len(set(errors)) == 1 and entries[0] == entries[1] == entries[2]
    assert not any(isinstance(v, Complex) and v.hi == 2 for v in alg._modules.values())
    bad["window"]["diffs"][1] = [[0, 0], [0, 0]]
    X = formats.complex_from_doc(bad)
    assert X._checked and formats.complex_from_doc(bad) is X


def test_a_parsed_array_is_read_only():
    M = formats.load_module(fx("k.mod"))
    X = formats.load_complex(fx("tper.cx"))
    f = formats.load_chain_map(fx("xid.map"))
    for array in (M.action[0], X.diff(0), X.diff(1), f.component(0), f.neg[1][0], f.pos[1][0]):
        with pytest.raises(ValueError):
            array[0, 0] = 1


def test_a_parsed_chain_map_builds_no_table():
    # freezing the parse reaches the map's family column, of which each
    # block it reads later is a view, and builds no table
    f = formats.chain_map_from_doc(x_map(complex_ref="T_per[-1]"))
    assert "_blocks" not in vars(f)
    assert not any(a.flags.writeable for a in f._column[0].arrays)
    assert "_blocks" not in vars(f)
    blocks = [f.component(n) for n in range(f.clo - 2, f.chi + 3)]
    assert not any(m.flags.writeable for m in blocks)


def test_repeated_commands_do_not_grow_memory():
    commands = [["functor", "omega", fx("tper.cx")], ["functor", "theta", fx("kstalk.cx")],
                ["verify-equivalence", fx("tper.cx"), "--side", "I"],
                ["classify", fx("xid.map"), "--structure", "co"]]
    counts = []
    for _ in range(26):  # a warm-up round, then 25 rounds
        for argv in commands:
            run_json(argv)
        gc.collect()
        counts.append((sum(isinstance(o, Complex) for o in gc.get_objects()),
                       len(functors._OMEGA_CACHE)))
    assert len(set(counts)) == 1, counts
