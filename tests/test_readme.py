"""The photonmux names and commands README.md refers to must exist.

README is the reference for the package, so every backticked ``module.name``
or ``Class.attr`` whose first part names a photonmux module or class, such as
``losses._blocks``, ``SourceConfig.e_s_total`` or ``optimize.COARSE_POINTS``,
has to resolve.  File paths and other libraries' names, such as ``np.*``,
are not checked.  Every ``photonmux ...`` command in the CLI section's code
blocks has to parse.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import photonmux
from photonmux.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _roots():
    """The package, its modules by their last name and its classes by name."""
    roots = {"photonmux": photonmux}
    for info in pkgutil.walk_packages(photonmux.__path__, "photonmux."):
        roots[info.name.rsplit(".", 1)[-1]] = importlib.import_module(info.name)
    for module in list(roots.values()):
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__.startswith("photonmux"):
                roots[value.__name__] = value
    return roots


def _exists(obj, attrs):
    """Whether ``obj.<attrs>`` exists; a dataclass field counts as an
    attribute of its class."""
    *path, last = attrs
    for attr in path:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return hasattr(obj, last) or (dataclasses.is_dataclass(obj)
                                  and last in {f.name for f in dataclasses.fields(obj)})


def _dotted_names(text):
    """The dotted name that starts each backticked span outside code blocks."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    return {match.group(1) for span in re.findall(r"`([^`]+)`", text)
            if (match := re.match(r"(\w+(?:\.\w+)+)", span))}


def test_every_photonmux_name_in_the_readme_resolves():
    roots = _roots()
    names = {name for name in _dotted_names(README.read_text()) if name.split(".")[0] in roots}
    assert len(names) >= 20
    missing = sorted(name for name in names
                     if not _exists(roots[name.split(".")[0]], name.split(".")[1:]))
    assert not missing, f"README names that photonmux does not have: {missing}"


def _cli_commands(text):
    """The ``photonmux`` command lines in the code blocks of the CLI section."""
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [line for block in re.findall(r"```.*?\n(.*?)```", section, flags=re.S)
            for line in block.splitlines() if line.startswith("photonmux ")]


@pytest.mark.parametrize("command", _cli_commands(README.read_text()))
def test_every_cli_command_in_the_readme_parses(command):
    ns = build_parser().parse_args(shlex.split(command)[1:])
    assert ns.subcommand == shlex.split(command)[1]
