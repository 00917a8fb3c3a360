"""The package attributes the benchmark uses by name must exist.

The traced run wraps the ones ``perfbench/layers.py`` lists in ``PATCHES``
as (module, attribute, span name), and every benchmark file reads others,
such as ``sweeps.DEFAULT_MU_GRID``.  The files are parsed, not imported, so
these tests need nothing from the benchmark but its source, and a renamed
attribute fails here rather than in the benchmark's own self-test.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"


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


def _imported(tree, missing):
    """The photonmux modules and objects that the imports anywhere in
    ``tree`` bind, by the name they bind; imports of missing names are
    added to ``missing``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "photonmux":
                    module = importlib.import_module(alias.name)
                    bound[alias.asname or "photonmux"] = (
                        module if alias.asname else importlib.import_module("photonmux"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "photonmux":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    bound[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    missing.add(f"{node.module}.{alias.name}")
    return bound


def _resolve(node, bound):
    """The photonmux object that a name or attribute chain names, or None
    for other expressions; AttributeError if an attribute is missing."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, bound)
        return None if owner is None else getattr(owner, node.attr)
    return None


def test_every_attribute_the_benchmark_reads_exists():
    missing, read = set(), set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = _imported(tree, missing)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            try:
                if _resolve(node, bound) is not None:
                    read.add(ast.unparse(node))
            except AttributeError:
                missing.add(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not missing, f"perfbench uses photonmux names that do not exist: {sorted(missing)}"
    assert {"sweeps.DEFAULT_MU_GRID", "montecarlo._CHUNK_WORD_TARGET",
            "stats.DEFAULT_N_MAX", "photonmux.SourceConfig"} <= read
