"""What the benchmark in ``perfbench/`` uses of the package still exists.

The benchmark runs from its own directory and tier-1 does not collect it, so
a removed or renamed name would otherwise break it, or its ``--trace 1``
layer figures, without failing any test here.  These tests read
``perfbench/`` and change nothing in it.
"""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from omegadet.cli import build_parser
from omegadet.determinize import as_strategy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # The tracer wraps a module attribute, or a method from its class's own __dict__.
    for module_name, attr, _, _ in _load("tracing").TARGETS:
        home = importlib.import_module(f"omegadet.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(home, cls_name)).get(method)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(home, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda path: path.name)
def test_every_package_import_resolves(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "omegadet":
            home = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(home, alias.name), f"{path.name}: from {node.module} import {alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "omegadet":
                    importlib.import_module(alias.name)


def test_every_workload_command_parses():
    tokens = set()
    for params in _load("workloads").WORKLOADS.values():
        for token in params["strategies"]:
            tokens.add(token)
            build_parser().parse_args([*params["argv"], "-i", "in.nba", "--strategy", token])
    assert tokens == {"ms", "safra", "max", "adaptive"}
    for token in tokens:
        assert as_strategy(token).kind == token
