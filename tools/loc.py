"""Line counts of a Python package: code, docstring, comment and blank.

    python3 tools/loc.py [DIR] [--against OTHER]

DIR defaults to ``src/decohd`` beside this file.  Each ``*.py`` file
directly in DIR gets one row, then a total row.  With ``--against`` each
row holds DIR's count minus that of OTHER, and a file that only one side
has counts 0 on the other.  OTHER is another copy of the package, or a
git revision whose ``src/decohd`` is read from its ``git archive``
(:func:`export`, which ``tools/pairs.py`` makes its trees with), so
``--against HEAD~1`` gives the last commit's change.  Every line falls
in exactly one part, so the parts of a file sum to its line count and
the total's to ``cat DIR/*.py | wc -l``:

* docstring: a line of the string that opens a module, class or
  function body (found with ``ast``), blank lines inside it included;
* code: any other line that holds a token, or lies inside a multi-line
  token such as a string;
* comment: a line whose only token is a comment (found with
  ``tokenize``);
* blank: the rest.

Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARTS = ("code", "docstring", "comment", "blank")
_LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER)


def count(source: str) -> dict[str, int]:
    """The number of lines of *source* in each of ``PARTS``."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(PARTS, 0)
    for line in range(1, len(source.splitlines()) + 1):
        part = ("docstring" if line in docstring else "code" if line in code
                else "comment" if line in comment else "blank")
        counts[part] += 1
    return counts


def export(source: str, into: str) -> str:
    """A fresh tree of *source* at *into*: a copy of the directory, or ``git archive`` of the revision."""
    if os.path.isdir(source):
        shutil.copytree(source, into, ignore=shutil.ignore_patterns(".git", "__pycache__", ".perfbench-*"))
        return into
    tar = subprocess.run(["git", "-C", ROOT, "archive", source], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def tally(root: str) -> dict[str, dict[str, int]]:
    """The counts of each ``*.py`` file directly in *root*, by file name."""
    out = {}
    for name in sorted(n for n in os.listdir(root) if n.endswith(".py")):
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            out[name] = count(fh.read())
    return out


def totals(root: str) -> dict[str, int]:
    """The counts of all ``*.py`` files directly in *root*, summed by part."""
    files = tally(root).values()
    return {p: sum(counts[p] for counts in files) for p in PARTS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Line counts of a Python package by part.")
    parser.add_argument("dir", nargs="?",
                        default=os.path.join(ROOT, "src", "decohd"))
    parser.add_argument("--against", metavar="OTHER",
                        help="print the change from this copy of the package or this git revision")
    args = parser.parse_args(argv)
    rows = tally(args.dir)
    fmt = "{:>10}"
    if args.against is not None:
        if os.path.isdir(args.against):
            base = tally(args.against)
        else:
            with tempfile.TemporaryDirectory() as tmp:
                base = tally(os.path.join(export(args.against, tmp), "src", "decohd"))
        zero = dict.fromkeys(PARTS, 0)
        rows = {name: {p: rows.get(name, zero)[p] - base.get(name, zero)[p] for p in PARTS}
                for name in sorted(rows.keys() | base.keys())}
        fmt = "{:>+10}"
    total = {p: sum(counts[p] for counts in rows.values()) for p in PARTS}
    print(f"{'module':<16}" + "".join(f"{p:>10}" for p in (*PARTS, "total")))
    for name, counts in [*rows.items(), ("total", total)]:
        print(f"{name:<16}" + "".join(fmt.format(counts[p]) for p in PARTS) + fmt.format(sum(counts.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
