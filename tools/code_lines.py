"""Count the code lines of src/singeq: the lines that hold a token other
than a comment or a docstring.

    python3 tools/code_lines.py         # the work tree
    python3 tools/code_lines.py REV     # the files at git revision REV

prints one "file: code lines" row per module of src/singeq, then the
total alone as its last line.  A docstring is the string that opens a module, class
or function body; every line of any other token counts, so a statement
spread over several lines counts each of them."""

import ast
import glob
import io
import os
import subprocess
import sys
import tokenize

SRC = "src/singeq"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT and not (tok.type == tokenize.STRING and tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def sources(rev=None) -> list:
    """(file name, source) of each module, in the work tree or at rev."""
    if rev is None:
        return [(os.path.basename(path), open(path).read())
                for path in sorted(glob.glob(os.path.join(SRC, "*.py")))]
    names = subprocess.run(["git", "ls-tree", "--name-only", rev, SRC + "/"], check=True,
                           capture_output=True, text=True).stdout.split()
    return [(os.path.basename(name), subprocess.run(
        ["git", "show", f"{rev}:{name}"], check=True, capture_output=True, text=True).stdout)
        for name in names if name.endswith(".py")]


if __name__ == "__main__":
    counts = [(name, code_lines(source)) for name, source in sources(*sys.argv[1:2])]
    for name, count in counts:
        print(f"{name}: {count}")
    print(sum(count for _, count in counts))
