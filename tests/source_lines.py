"""Count the code, docstring, comment and blank lines of each src/mvfa module.

Usage: ``python tests/source_lines.py [REV]``. Without REV the files in the
working tree are counted; with a git revision, its files are read through
``git show``, so two runs give a change's deltas against its parent.

A line inside a module, class or function docstring (found with ``ast``)
is a docstring line, even when blank. Of the rest, a line of whitespace is
blank, a line whose only token is a comment is a comment line, and every
other line is code.
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = "src/mvfa"
KINDS = ("code", "docstring", "comment", "blank")


def count_lines(text):
    """A dict of KINDS to the number of lines of that kind in ``text``."""
    lines = text.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    # a line holds code if any token other than a comment starts or runs on it
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                              tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, 1):
        if number in docstring:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif number in code:
            counts["code"] += 1
        else:
            counts["comment"] += 1
    return counts


def sources(rev=None):
    """(file name, text) of each module of the package, at ``rev`` or in the tree."""
    if rev is None:
        return [(path.name, path.read_text(encoding="utf-8"))
                for path in sorted((REPO / PACKAGE).glob("*.py"))]

    def git(*args):
        return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True,
                              text=True).stdout

    names = sorted(name for name in git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
                   if name.endswith(".py"))
    return [(name, git("show", f"{rev}:{PACKAGE}/{name}")) for name in names]


def main(argv):
    if len(argv) > 1:
        sys.exit("usage: python tests/source_lines.py [REV]")
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in KINDS) + f"{'lines':>10}")
    for name, text in sources(argv[0] if argv else None):
        counts = count_lines(text)
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{name:<16}" + "".join(f"{counts[kind]:>10}" for kind in KINDS)
              + f"{sum(counts.values()):>10}")
    print(f"{'total':<16}" + "".join(f"{total[kind]:>10}" for kind in KINDS)
          + f"{sum(total.values()):>10}")


if __name__ == "__main__":
    main(sys.argv[1:])
