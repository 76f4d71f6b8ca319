"""tools/loc.py on this checkout's package."""

import io
import os
import shutil
import subprocess
import sys
import tarfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "decohd")


def test_the_parts_sum_to_each_file_and_the_total_to_wc_l():
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "loc.py"), SRC],
                          check=True, capture_output=True, text=True, timeout=60)
    header, *rows, total = [line.split() for line in done.stdout.splitlines()]
    assert header == ["module", "code", "docstring", "comment", "blank", "total"]
    names = sorted(n for n in os.listdir(SRC) if n.endswith(".py"))
    assert [row[0] for row in rows] == names
    newlines = 0
    for name, *counts in rows:
        with open(os.path.join(SRC, name), "rb") as fh:
            data = fh.read()
        newlines += data.count(b"\n")
        *parts, lines = map(int, counts)
        assert sum(parts) == lines == len(data.splitlines()), name
        assert min(parts[:2]) > 0, name  # every module has code and a docstring
    *parts, lines = map(int, total[1:])
    assert total[0] == "total" and sum(parts) == lines == newlines  # cat src/decohd/*.py | wc -l


def test_a_line_falls_in_the_first_part_that_claims_it(tmp_path):
    source = (
        '"""Module\n'
        '\n'
        'docstring."""\n'
        '\n'
        '# a comment\n'
        'X = """a string\n'
        '\n'
        'that is code"""  # a trailing comment\n'
        '\n'
        '\n'
        'def f():\n'
        '    """One line."""\n'
        '    return X\n'
    )
    (tmp_path / "m.py").write_text(source, encoding="utf-8")
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "loc.py"), str(tmp_path)],
                          check=True, capture_output=True, text=True, timeout=60)
    assert done.stdout.splitlines()[1].split() == ["m.py", "5", "4", "1", "3", "13"]


def test_against_prints_each_modules_change_and_the_total(tmp_path):
    # A copy of the package with one code line added to one module.
    copy = tmp_path / "decohd"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "budget.py", "a", encoding="utf-8") as fh:
        fh.write("ADDED = 1\n")
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "loc.py"), str(copy), "--against", SRC],
                          check=True, capture_output=True, text=True, timeout=60)
    header, *rows = [line.split() for line in done.stdout.splitlines()]
    assert header == ["module", "code", "docstring", "comment", "blank", "total"]
    changed = {"budget.py": ["+1", "+0", "+0", "+0", "+1"], "total": ["+1", "+0", "+0", "+0", "+1"]}
    assert [row[0] for row in rows] == sorted(n for n in os.listdir(SRC) if n.endswith(".py")) + ["total"]
    for name, *deltas in rows:
        assert deltas == changed.get(name, ["+0"] * 5), name


@pytest.mark.skipif(not os.path.isdir(os.path.join(ROOT, ".git")), reason="needs the git repository")
def test_against_a_revision_reads_its_git_archive(tmp_path):
    tar = subprocess.run(["git", "-C", ROOT, "archive", "HEAD"], check=True, capture_output=True, timeout=60).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(tmp_path, filter="data")
    tables = [subprocess.run([sys.executable, os.path.join(ROOT, "tools", "loc.py"), SRC, "--against", other],
                             check=True, capture_output=True, text=True, timeout=60).stdout
              for other in ("HEAD", str(tmp_path / "src" / "decohd"))]
    assert tables[0] == tables[1] and tables[0].startswith("module ")
