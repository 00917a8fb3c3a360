"""The benchmark's traced run wraps package attributes by name; they must exist.

``perfbench/layers.py`` lists them in ``PATCHES`` as (module, attribute,
span name).  The file is parsed, not imported, so this test needs nothing
from the benchmark but its source.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _patches():
    tree = ast.parse(LAYERS.read_text())
    modules = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.startswith("photonmux"):
            for alias in node.names:
                modules[alias.asname or alias.name] = (node.module, alias.name)
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]:
            return [(modules[entry.elts[0].id], entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError(f"no PATCHES in {LAYERS}")


def test_every_patched_attribute_exists():
    patches = _patches()
    assert len(patches) >= 10
    missing = []
    for (package, name), attr in patches:
        module = getattr(importlib.import_module(package), name)
        if not callable(getattr(module, attr, None)):
            missing.append(f"{package}.{name}.{attr}")
    assert not missing, f"perfbench/layers.py PATCHES names missing attributes: {missing}"
