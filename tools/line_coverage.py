"""The function-body statements of src/singeq that tier-1 never runs.

    python3 tools/line_coverage.py

runs tier-1 (pytest -q tests) in this process under a sys.settrace
tracer limited to src/singeq, then prints, per module, the first line
of each statement inside a function body that never ran: AST statements
with no statement inside them, docstrings left out, each run when any
of its lines ran.
Tests that start a new process (the demos, the benchmark's self-test and
the cold runs that tests compare with) are not seen, so what only they
reach is listed too.  The last line is the total.  It only reports:
pytest prints its own result, and the exit status is 0."""

import ast
import glob
import os
import sys
import threading

SRC = os.path.abspath("src")
PACKAGE = os.path.join(SRC, "singeq")
ran = set()


def local(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return local


def call(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(PACKAGE) else None


def body_statements(tree) -> list:
    """(first, last) line of each function-body statement with no statement inside it."""
    docs = {id(n.body[0]) for n in ast.walk(tree) if isinstance(n, (
        ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and ast.get_docstring(n) is not None}
    spans = {(s.lineno, s.end_lineno) for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for top in fn.body for s in ast.walk(top)
             if isinstance(s, ast.stmt) and id(s) not in docs
             and not isinstance(s, (ast.Global, ast.Nonlocal))  # no code, so never run
             and not any(isinstance(c, ast.stmt) for c in ast.walk(s) if c is not s)}
    return sorted(spans)


if __name__ == "__main__":
    import pytest

    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    threading.settrace(call)
    sys.settrace(call)
    pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    sys.settrace(None)
    threading.settrace(None)
    total = missed = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as f:
            spans = body_statements(ast.parse(f.read()))
        never = [a for a, b in spans if not any((path, n) in ran for n in range(a, b + 1))]
        total, missed = total + len(spans), missed + len(never)
        if never:
            print(f"{os.path.basename(path)}: {len(never)} of {len(spans)}:", *never)
    print(f"{missed} of {total} function-body statements in src/singeq never ran "
          "(tests run in a new process are not seen)")
