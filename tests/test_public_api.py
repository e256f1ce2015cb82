"""The public names the benchmark harness reads stay exported.

perfbench/bench_calls.py makes every call the benchmark makes into eprqkd.
It is parsed here, never imported or run, so that deleting or renaming a
public name fails this suite instead of the benchmark.
"""

import ast
import importlib.util
from pathlib import Path

import eprqkd

BENCH_CALLS = Path(__file__).resolve().parents[1] / "perfbench" / "bench_calls.py"


def _bench_names():
    """Names imported from eprqkd and attributes read off the package."""
    tree = ast.parse(BENCH_CALLS.read_text())
    imported, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "eprqkd":
            imported.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "eprqkd"
            and not node.attr.startswith("__")
        ):
            attributes.add(node.attr)
    return imported, attributes


def test_bench_calls_names_are_exported():
    imported, attributes = _bench_names()
    assert imported and attributes, "the parser found no eprqkd names in bench_calls.py"
    for name in sorted(imported | attributes):
        if importlib.util.find_spec(f"eprqkd.{name}") is not None:
            continue  # a submodule, such as eprqkd.cli
        assert name in eprqkd.__all__, f"bench_calls.py uses eprqkd.{name}, not in __all__"
        assert hasattr(eprqkd, name), f"eprqkd.{name} does not resolve"


def test_all_names_resolve():
    assert len(set(eprqkd.__all__)) == len(eprqkd.__all__)
    missing = [name for name in eprqkd.__all__ if not hasattr(eprqkd, name)]
    assert missing == []
