"""A run imports only the modules it uses, and a module only the names it uses.

Each run test runs a fresh interpreter, since the test process has imported
every module already.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import photonmux
from photonmux.montecarlo import available_backends

# The directory holding the imported package, so the subprocess imports the
# same code when the package is found only through pytest's pythonpath.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(photonmux.__file__))
needs_c = pytest.mark.skipif("c" not in available_backends(),
                             reason="the C kernel is unavailable")


def fresh(args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def fresh_json(code: str):
    """The JSON that ``code`` prints last, run in a fresh interpreter."""
    return json.loads(fresh(["-c", textwrap.dedent(code)]).stdout.splitlines()[-1])


@needs_c
def test_a_first_simulation_loads_no_unused_module():
    report = fresh_json("""
        import json, sys
        import photonmux

        eager = sorted(set(photonmux.__all__) & set(vars(photonmux)))
        listed = set(photonmux.__all__) <= set(dir(photonmux))
        cfg = photonmux.SourceConfig(m=4, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5)
        photonmux.output_distribution(cfg)
        photonmux.simulate(cfg, photonmux.McConfig(trials=1), "c")
        loaded = sorted(name for name in sys.modules
                        if name.startswith("photonmux.") or name == "hashlib")
        unresolved = [name for name in photonmux.__all__ if not hasattr(photonmux, name)]
        star = {}
        exec("from photonmux import *", star)
        unbound = sorted(set(photonmux.__all__) - set(star))
        print(json.dumps({"eager": eager, "lazy": sorted(photonmux._LAZY), "listed": listed,
                          "loaded": loaded, "unresolved": unresolved, "unbound": unbound}))
    """)
    unused = {"photonmux.sweeps", "photonmux.optimize", "photonmux.validate", "photonmux.cli",
              "photonmux.montecarlo._numpy_backend", "photonmux.montecarlo._philox", "hashlib"}
    assert not unused & set(report["loaded"]), report["loaded"]
    assert report["listed"]
    assert report["unresolved"] == [] and report["unbound"] == []
    assert set(report["lazy"]) == set(photonmux.__all__) - set(report["eager"])


def test_dist_loads_no_optimizer_sweep_monte_carlo_or_validation_module():
    proc = fresh(["-X", "importtime", "-m", "photonmux.cli", "dist", "--m", "4", "--mu", "0.1"])
    assert proc.stdout.splitlines()[-1].startswith("30,")
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert "photonmux.losses" in loaded
    assert not loaded & {"photonmux.sweeps", "photonmux.optimize", "photonmux.validate",
                         "photonmux.montecarlo"}


@needs_c
@pytest.mark.parametrize("config,counter", [
    ("m=4, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5, r_dark=5e6", False),
    ("m=8, mu=0.5, e_h=0.85, e_s=0.9, e_sw_db=1.0", True),
], ids=["predrawn", "counter"])
def test_a_cold_numpy_backend_matches_the_c_kernel(config, counter):
    # The numpy backend's module is imported for the first time inside
    # simulate, on either of its stream sources.
    report = fresh_json(f"""
        import json, sys
        from photonmux import McConfig, SourceConfig, simulate

        cfg, mc = SourceConfig({config}), McConfig(trials=20_000, seed=11)
        cold = "photonmux.montecarlo._numpy_backend" not in sys.modules
        numpy = simulate(cfg, mc, backend="numpy").counts.tolist()
        c = simulate(cfg, mc, backend="c").counts.tolist()
        from photonmux.montecarlo import _numpy_backend, _tables
        counter = _numpy_backend.counter_source_pays(_tables.build_tables(cfg))
        print(json.dumps({{"cold": cold, "counter": counter, "numpy": numpy, "c": c}}))
    """)
    assert report["cold"] and report["counter"] == counter
    assert report["numpy"] == report["c"]


def _unused_imports(path: Path) -> list:
    """The names that the imports of the module at ``path`` bind and that
    it neither reads nor lists in ``__all__``, where the import does not
    carry ``noqa: F401``."""
    text = path.read_text()
    lines, tree = text.splitlines(), ast.parse(text)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(Path(photonmux.__file__).parent.rglob("*.py"))
    assert len(modules) >= 10
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, f"unused imports: {unused}"


def _private_definitions(tree: ast.Module) -> set:
    """The private names, not dunders, that a module binds at its top level
    by a def, a class or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {target.id for target in targets if isinstance(target, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _reads(tree: ast.Module) -> set:
    """The names a module reads: as a Name, as an Attribute, or as an alias
    of a ``from`` import."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads |= {alias.name for alias in node.names}
    return reads


def test_every_private_module_level_name_is_read():
    # A consolidation that leaves a helper behind fails here, not in review.
    trees = {path: ast.parse(path.read_text())
             for path in sorted(Path(photonmux.__file__).parent.rglob("*.py"))}
    defined = {(path.name, name) for path, tree in trees.items()
               for name in _private_definitions(tree)}
    read = set().union(*map(_reads, trees.values()))
    assert len(defined) >= 80
    unread = sorted(f"{module}: {name}" for module, name in defined if name not in read)
    assert not unread, f"private names that nothing in the package reads: {unread}"
