"""tools/pairs.py on the working tree against itself, at smoke-test scale."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARGS = ["--workload", "train", "--seed", "3", "--seconds", "1", "--shapes", "tiny"]


def test_one_tiny_train_pair_writes_every_metric_and_the_direct_digest(tmp_path):
    out = tmp_path / "BENCH_0_pairs.json"
    printed = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "pairs.py"), "--parent", ROOT,
                              "--pairs", "1", "--out", str(out), *ARGS],
                             check=True, capture_output=True, text=True, timeout=600).stdout
    direct = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--trace", "0", *ARGS],
                            cwd=ROOT, check=True, capture_output=True, text=True, timeout=600)
    detail = next(line for line in direct.stdout.splitlines() if line.startswith("detail "))
    detail = json.loads(detail[len("detail "):])
    digest, threads = detail["digest"], detail["env"]["blas_threads"]

    report = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(report) == ["src_loc", "train seed 3"]
    src = os.path.join(ROOT, "src", "decohd")
    lines = 0
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += len(fh.read().splitlines())
    for side in ("parent", "change"):  # both sides are copies of this tree
        assert report["src_loc"][side].keys() == {"code", "docstring", "comment", "blank"}
        assert sum(report["src_loc"][side].values()) == lines
    assert printed.splitlines()[-1] == "src_loc change - parent: code +0 docstring +0 comment +0 blank +0 total +0"
    entry = report["train seed 3"]
    assert entry["digests"] == {"parent": [digest], "change": [digest]}
    assert entry["blas_threads"] == {"parent": [threads], "change": [threads]}
    assert entry["ops_failed"] == {"parent": [0], "change": [0], "verdict": "within bound"}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert sorted(entry["metrics"]) == sorted(names)
    for m in entry["metrics"].values():
        assert m.keys() == {"unit", "better", "bound", "parent", "change", "wins", "pairs", "paired_ratio",
                            "verdict"}
        for side in ("parent", "change"):
            assert m[side].keys() == {"runs", "median", "q1", "q3"} and len(m[side]["runs"]) == 1
        assert m["pairs"] == 1 and 0 <= m["wins"] <= 1
        assert m["verdict"] in ("better", "worse", "unresolved", "within bound")


def load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", os.path.join(ROOT, "tools", "pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_defaults_to_ten_and_refuses_fewer_than_one(capsys):
    pairs = load_pairs()
    argv = ["--parent", "HEAD", "--out", "x.json"]
    args = pairs.parse_args(argv)
    assert (args.pairs, args.workload, args.seed) == (10, ["train", "serve", "sweep"], 1)
    args = pairs.parse_args(argv + ["--workload", "serve", "train", "--seed", "5"])
    assert (args.workload, args.seed) == (["serve", "train"], 5)
    with pytest.raises(SystemExit) as excinfo:
        pairs.parse_args(argv + ["--pairs", "0"])
    assert excinfo.value.code == 2 and "--pairs must be at least 1" in capsys.readouterr().err


def test_both_sides_are_fresh_copies_side_by_side(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a process was launched")

    pairs = load_pairs()
    monkeypatch.setattr(pairs.subprocess, "run", never)
    parent = tmp_path / "parent-source"
    for name in ("a.py", ".git/HEAD", "pkg/b.py", "pkg/__pycache__/b.pyc", ".perfbench-x/out.csv"):
        (parent / name).parent.mkdir(parents=True, exist_ok=True)
        (parent / name).write_text(name, encoding="utf-8")
    trees = pairs.make_trees(str(parent), str(tmp_path / "trees"))
    assert trees == {side: str(tmp_path / "trees" / side) for side in ("parent", "change")}
    copied = sorted(os.path.relpath(os.path.join(d, f), trees["parent"]) for d, _, fs in os.walk(trees["parent"])
                    for f in fs)
    assert copied == ["a.py", os.path.join("pkg", "b.py")]
    init = os.path.join("src", "decohd", "__init__.py")
    with open(os.path.join(ROOT, init), "rb") as here, open(os.path.join(trees["change"], init), "rb") as there:
        assert here.read() == there.read()
    for d, dirs, _ in os.walk(trees["change"]):
        assert not [x for x in dirs if x in (".git", "__pycache__") or x.startswith(".perfbench-")], d


def fake_run(change_failures):
    """A stand-in for ``run`` whose change is 50 ms faster in every pair,
    which alone reads "better", and fails *change_failures* operations."""
    calls = {"parent": 0, "change": 0}

    def run(tree, workload, args):
        side = os.path.basename(tree)
        i = calls[side]
        calls[side] += 1
        return {"metrics": {"op_p50_ms": (100.0 if side == "parent" else 50.0) + i}, "digest": "d",
                "blas_threads": 2, "failed": change_failures[i] if side == "change" else 0}

    return run


def test_a_change_that_fails_more_operations_is_worse_and_never_better(monkeypatch):
    pairs = load_pairs()
    args = pairs.parse_args(["--parent", "HEAD", "--out", "x.json", "--workload", "train"])
    specs = {"op_p50_ms": {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}}
    trees = {side: os.path.join("trees", side) for side in ("parent", "change")}
    entries = []
    for failures in ([0] * 10, [0, 0, 1] + [0] * 7):
        monkeypatch.setattr(pairs, "run", fake_run(failures))
        entries.append(pairs.workload_entry(trees, "train", args, specs))
    clean, failing = entries
    assert clean["ops_failed"]["verdict"] == "within bound"
    assert clean["metrics"]["op_p50_ms"]["verdict"] == "better"
    assert clean["metrics"]["op_p50_ms"]["paired_ratio"] < 1
    assert failing["ops_failed"] == {"parent": [0] * 10, "change": [0, 0, 1] + [0] * 7, "verdict": "worse"}
    assert failing["blas_threads"] == {"parent": [2], "change": [2]}
    assert failing["metrics"]["op_p50_ms"]["wins"] == 10
    assert failing["metrics"]["op_p50_ms"]["verdict"] != "better"
