"""The package's public names, and the packages it needs."""

import ast
import re
import sys
from pathlib import Path

import pytest

import heatflex


def test_public_api_resolves():
    names = heatflex.__all__
    assert len(names) == len(set(names)), "a name repeats in __all__"
    missing = [name for name in names if not hasattr(heatflex, name)]
    assert not missing, f"__all__ names what heatflex does not define: {missing}"
    namespace = {}
    exec("from heatflex import *", namespace)
    assert set(names) <= set(namespace)


def test_dependencies_list_every_imported_package():
    # every package a module of src/heatflex imports, at its top or inside a
    # function, that is neither in the standard library nor heatflex itself
    # is in pyproject.toml's dependencies, so an install from it can run
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", d)[0].lower().replace("-", "_")
                    for d in tomllib.load(fh)["project"]["dependencies"]}
    imported = set()
    for path in sorted((root / "src" / "heatflex").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"heatflex"}
    assert {"numpy", "orjson"} <= third_party  # orjson is imported inside a function
    assert third_party <= declared, f"not in pyproject.toml: {sorted(third_party - declared)}"
