"""Which modules each entry point loads, and the names the package still resolves.

``determinize``, ``check`` and ``stats`` run only the exploration kernel, so
a fresh process that runs them never loads ``slices``, ``safra`` or
``stages``; ``roundtrip`` and ``trace`` load what they use on first call.
"""
import ast
import importlib
import json
import sys
from pathlib import Path

import pytest

import omegadet

from .conftest import SMALL_NBA, run_fresh
from .test_benchmark_contract import _load

KERNEL_SOURCE = Path(__file__).resolve().parents[1] / "src" / "omegadet" / "determinize.py"
LAZY_MODULES = ("omegadet.safra", "omegadet.slices", "omegadet.stages")

# Every name that the package bound before the staged reference moved out of
# the kernel, by the submodule that defines it.
PUBLIC_NAMES = {
    "determinize": (
        "ADAPTIVE", "MAX_COLLAPSE", "MULLER_SCHUPP", "SAFRA", "CapacityError", "MergeStrategy", "as_strategy",
        "determinize",
    ),
    "stages": (
        "choose_partition", "dominating_rank", "initial_slice", "merge", "normalize", "prune", "step", "transition"
    ),
    "nba": ("BuchiAutomaton", "Lasso", "format_lasso", "parse_lasso", "parse_nba", "serialize_nba", "successors"),
    "oracle": ("enumerate_lassos", "nba_accepts_lasso", "random_nba"),
    "parity": ("ParityAutomaton", "parse_dpa", "run_lasso", "serialize_dpa"),
    "safra": ("SafraNode", "TreeShape", "format_tree", "parse_tree", "safra_to_slice", "slice_to_safra", "unflatten"),
    "slices": ("PreSlice", "RankedSlice", "format_slice", "parse_slice"),
}

# Outputs recorded before the module split, which must not change: trace on
# SMALL_NBA under safra along "a | a" (stdout digest), and two roundtrips.
SMALL_TRACE_SHA256 = "467d4354196f3cdaff0b257b8c1fa3a0ec5f075ef38cdc7c3f0a7b4c896db6b9"
ROUNDTRIP_OUT = "{0}:1({1}:2({3}:4),{2}:3)\n({3}:4,{1}:2,{2}:3,{0}:1)\n"


def fresh_json(code: str):
    """Run ``code`` in a fresh interpreter; its last stdout line is parsed as JSON."""
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_the_kernel_imports_no_slice_tree_or_staged_module():
    # Module level only: the staged names are forwarded from inside __getattr__.
    for node in ast.parse(KERNEL_SOURCE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert name.rpartition(".")[2] not in ("slices", "safra", "stages"), ast.unparse(node)


def test_each_command_loads_only_what_it_runs(tmp_path):
    nba = tmp_path / "small.nba"
    nba.write_bytes(SMALL_NBA)
    dpa = tmp_path / "small.dpa"
    code = f"""
import contextlib, hashlib, io, json, sys
import omegadet.cli
cli = sys.modules["omegadet.cli"]

def loaded():
    return [name for name in {LAZY_MODULES!r} if name in sys.modules]

def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))
    return [status, out.getvalue(), err.getvalue()]

report = {{"import": loaded()}}
for argv in (
    ["determinize", "-i", {str(nba)!r}, "-o", {str(dpa)!r}, "--labels", "--strategy", "adaptive"],
    ["check", "-i", {str(nba)!r}, "--strategy", "safra"],
    ["check", "-i", {str(nba)!r}, "--dpa", {str(dpa)!r}],
    ["stats", "-i", {str(nba)!r}],
):
    report[argv[0]] = run(*argv)[0]
report["kernel"] = loaded()
report["roundtrip"] = run("roundtrip", "({{3}}:4,{{1}}:2,{{2}}:3,{{0}}:1)")
report["roundtrip errors"] = [run("roundtrip", "()"), run("roundtrip", "({{3}}:4")]
report["after roundtrip"] = loaded()
status, out, err = run("trace", "-i", {str(nba)!r}, "--strategy", "safra", "a | a")
report["trace"] = [status, hashlib.sha256(out.encode()).hexdigest(), err]
report["after trace"] = loaded()
print(json.dumps(report))
"""
    report = fresh_json(code)
    assert report["import"] == report["kernel"] == []
    assert [report[command] for command in ("determinize", "check", "stats")] == [0, 0, 0]
    assert report["roundtrip"] == [0, ROUNDTRIP_OUT, ""]
    assert report["roundtrip errors"] == [
        [1, "", "error: the empty slice has no tree form\n"],
        [2, "", "error: slice text must be wrapped in parentheses\n"],
    ]
    assert report["after roundtrip"] == ["omegadet.safra", "omegadet.slices"]
    assert report["trace"] == [0, SMALL_TRACE_SHA256, ""]
    assert report["after trace"] == list(LAZY_MODULES)


def test_every_public_name_resolves_to_its_defining_object():
    bound = [name for names in PUBLIC_NAMES.values() for name in names]
    assert sorted(omegadet.__all__) == sorted(bound)
    for home, names in PUBLIC_NAMES.items():
        module = importlib.import_module(f"omegadet.{home}")
        for name in names:
            assert getattr(omegadet, name) is getattr(module, name), name
    # The package attributes that importing the submodules used to set.
    for home in ("nba", "oracle", "parity", "safra", "slices", "stages"):
        assert getattr(omegadet, home) is sys.modules[f"omegadet.{home}"]


def test_the_kernel_forwards_exactly_the_traced_staged_names():
    kernel = sys.modules["omegadet.determinize"]
    stages = importlib.import_module("omegadet.stages")
    traced = [attr for home, attr, _, _ in _load("tracing").TARGETS if home == "determinize" and attr != "determinize"]
    assert traced == ["step", "prune", "choose_partition", "merge", "normalize"]
    for name in traced:
        assert getattr(kernel, name) is getattr(stages, name), name
    for module in (omegadet, kernel):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            module.no_such_name
    # Private staged names and dunders are not forwarded.
    for name in ("_stages", "_key", "_choose", "__path__"):
        assert not hasattr(kernel, name), name


def test_the_package_attribute_determinize_stays_the_function(tmp_path):
    nba = tmp_path / "small.nba"
    nba.write_bytes(SMALL_NBA)
    code = f"""
import contextlib, importlib, io, json, sys
import omegadet
kernel = sys.modules["omegadet.determinize"]
report = {{"path": hasattr(kernel, "__path__"), "unknown": hasattr(omegadet, "no_such_name")}}
report["probed"] = [name for name in {LAZY_MODULES!r} if name in sys.modules]
checks = [omegadet.slices.RankedSlice is omegadet.RankedSlice is sys.modules["omegadet.slices"].RankedSlice]
import omegadet.stages
checks.append(omegadet.determinize is kernel.determinize)
import omegadet.cli
with contextlib.redirect_stdout(io.StringIO()):
    status = sys.modules["omegadet.cli"].main(["trace", "-i", {str(nba)!r}, "| a"])
checks.append(status == 0 and omegadet.determinize is kernel.determinize)
checks.append(importlib.import_module("omegadet.determinize") is kernel)
checks.append(omegadet.determinize is kernel.determinize and callable(omegadet.determinize))
report["checks"] = checks
print(json.dumps(report))
"""
    report = fresh_json(code)
    assert report == {"path": False, "unknown": False, "probed": [], "checks": [True] * 5}
