"""Every name a module of src/singeq imports is used in that module, and
every public function, class and method it defines is reached from
outside the tests.

A name counts as used when it is read anywhere in the module, also inside
a quoted annotation.  An import statement marked `# noqa: F401` on any of
its lines is skipped: homotopy keeps names there that the benchmark
reaches through it.
"""

import ast
import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "Complex"
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports_in_src():
    found = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "singeq", "*.py"))):
        with open(path) as fh:
            bad = unused_imports(fh.read())
        if bad:
            found[os.path.basename(path)] = bad
    assert found == {}


def test_the_scan_finds_an_unused_import_and_honours_noqa():
    source = ("from dataclasses import dataclass, field\n"
              "import numpy as np  # noqa: F401\n"
              "from .complexes import (Complex,  # noqa: F401\n"
              "                        is_exact)\n"
              "def f(x: \"Module\") -> int:\n"
              "    return dataclass\n"
              "from .modules import Module\n")
    assert unused_imports(source) == [(1, "field")]


# The check engine and the walks that drive it are bound in check alone,
# so that one patch of any of them there sees every check: other modules
# reach the walks as check._check_walk and check._check_complex.
ENGINE = {"_first_failure", "_check_walk", "_check_complex", "_walk"}


def imported_names(source: str) -> set:
    """Every name the source imports from a module."""
    return {a.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            for a in node.names}


def test_only_check_binds_the_check_engine():
    found = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "singeq", "*.py"))):
        with open(path) as fh:
            bound = imported_names(fh.read()) & ENGINE
        if bound:
            found[os.path.basename(path)] = sorted(bound)
    assert found == {}


# The block-table format of graded maps stays behind complexes: other
# modules make and keep maps through its producers (_from_stacks, _kept,
# _copied, _sample), never from the pieces of the format.  The one
# exception is the certificate checker, which reads tables (_Blocks.on and
# index) on the frames of the maps it walks (CHECK_READS).
TABLE_FORMAT = {"_Blocks", "_Family", "_family", "_frame", "_lone", "_members", "_own_periods",
                "_table"}


def test_only_complexes_binds_the_table_format():
    with open(os.path.join(ROOT, "src", "singeq", "complexes.py")) as fh:
        defined = {node.name for node in ast.parse(fh.read()).body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert TABLE_FORMAT <= defined  # the guard names what complexes defines
    found = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "singeq", "*.py"))):
        if os.path.basename(path) == "complexes.py":
            continue
        with open(path) as fh:
            source = fh.read()
        bound = imported_names(source) | {
            node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "complexes"}
        if bound & TABLE_FORMAT:
            found[os.path.basename(path)] = sorted(bound & TABLE_FORMAT)
    assert found == {"check.py": sorted(CHECK_READS & TABLE_FORMAT)}


# What the certificate checker (check) binds of complexes: the types of
# its annotations and the read primitives it needs, of which _Blocks (read
# through its on and index) and _frame belong to the table format.  It
# imports no module that decides, solves or reads and writes files, so a
# reader audits it with complexes' reads.
CHECK_READS = {"Complex", "GradedMap", "_Blocks", "_frame", "_map_profile", "_same_terms"}
CHECK_IMPORTS = {"__future__", "math", "typing", "numpy", "complexes", "errors", "modules"}


def test_check_imports_only_the_reads_it_names():
    with open(os.path.join(ROOT, "src", "singeq", "check.py")) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module} if node.module else {a.name for a in node.names}
    assert imported == CHECK_IMPORTS
    assert not imported & {"solver", "homotopy", "modelcat", "approx", "equiv", "functors",
                           "cli", "formats"}
    assert {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "complexes"} == CHECK_READS


@pytest.mark.parametrize("module", ["check", "complexes"])
def test_each_of_check_and_complexes_imports_first(module):
    # the two import each other; either may be the first a process imports
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    subprocess.run([sys.executable, "-c", f"import singeq.{module}"], env=env, check=True,
                   timeout=120)


# The module-level dicts of src/singeq: caches that the benchmark reads by
# name.  Every other cache lives on the object it describes (see modules).
MODULE_CACHES = {"functors._OMEGA_CACHE", "functors._THETA_CACHE",
                 "approx._REPLACEMENT_CACHE", "formats._ALGEBRA_INTERN"}


def module_level_dicts(source: str) -> list:
    """Names assigned an empty dict, {} or dict(), at module level."""
    out = []
    for node in ast.parse(source).body:
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                isinstance(value, ast.Dict) and not value.keys
                or isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "dict" and not value.args and not value.keywords):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [t.id for t in targets if isinstance(t, ast.Name)]
    return out


def test_module_level_caches_are_the_known_four():
    found = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "singeq", "*.py"))):
        with open(path) as fh:
            found |= {f"{os.path.basename(path)[:-3]}.{name}"
                      for name in module_level_dicts(fh.read())}
    assert found == MODULE_CACHES


def test_the_cache_scan_finds_empty_dicts_at_module_level():
    source = ("_A: dict = {}\n"
              "_B = dict()\n"
              "_C = {1: 2}\n"
              "_D: dict\n"
              "def f():\n"
              "    _E = {}\n"
              "class K:\n"
              "    _F = {}\n")
    assert module_level_dicts(source) == ["_A", "_B"]


# Public functions, classes and methods that nothing in src/, demos/ or
# perfbench/ names, kept as documented entry points of the library.
ENTRY_POINTS = {
    "complexes.is_quasi_isomorphism",  # a quasi-isomorphism test on the cone
    "formats.chain_map_to_doc",  # the writer of the chain-map format
}


def public_definitions(source: str) -> list:
    """Names of the public module-level functions and classes, and
    "Class.method" for the public methods and properties of each class; a
    decorated module-level function (a command line command) is reached
    through its decorator."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.decorator_list:
            out.append(node.name)
        elif isinstance(node, ast.ClassDef):
            out.append(node.name)
            out += [f"{node.name}.{m.name}" for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return [name for name in out if not name.startswith("_")]


def names_read(source: str) -> set:
    """Every name the source reads, as a name, an attribute or an import,
    and each part of a dotted-name string such as "modules.zero_module"."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
            names |= set(node.value.split("."))
    return names


def test_every_public_function_is_reached_outside_the_tests():
    sources = {}
    for pattern in ("src/singeq/*.py", "demos/*.py", "perfbench/*.py"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path) as fh:
                sources[path] = fh.read()
    read = set().union(*map(names_read, sources.values()))
    unreached = {f"{os.path.basename(path)[:-3]}.{name}"
                 for path, source in sources.items() if os.sep + "singeq" + os.sep in path
                 for name in public_definitions(source) if name.split(".")[-1] not in read}
    assert unreached == ENTRY_POINTS


def test_the_reach_scan_reads_names_attributes_and_dotted_strings():
    source = ("import click\n"
              "@click.command()\n"
              "def command(): pass\n"
              "def _private(): pass\n"
              "def public(): return helper() + mod.attr + len('tracer.hooked')\n"
              "class Kind:\n"
              "    def method(self): pass\n"
              "    def _hidden(self): pass\n"
              "class _Private:\n"
              "    def method(self): pass\n")
    assert public_definitions(source) == ["public", "Kind", "Kind.method"]
    assert {"helper", "attr", "tracer", "hooked", "click"} <= names_read(source)
    assert "public" not in names_read(source)
