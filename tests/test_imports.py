"""Every name a module of src/singeq imports is used in that module.

A name counts as used when it is read anywhere in the module, also inside
a quoted annotation.  An import statement marked `# noqa: F401` on any of
its lines is skipped: homotopy keeps names there that the benchmark
reaches through it.
"""

import ast
import glob
import os

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
