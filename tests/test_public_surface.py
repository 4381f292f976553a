"""The package has no flat API: its submodules are the public surface."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import diffdecomp
from diffdecomp.csvio import TOOL_VERSION

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(diffdecomp.__path__))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    """(module, function) of every entry of the benchmark tracer's TARGETS and COUNTED."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return [
        (entry.elts[0].value, entry.elts[1].value)
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id in ("TARGETS", "COUNTED")
        for entry in node.value.elts
    ]


def test_submodule_import_gives_the_module():
    import diffdecomp.fit as m

    assert callable(m.fd_gradient)


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"diffdecomp.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("module, name", traced_names())
def test_every_traced_name_resolves(module, name):
    # A traced benchmark round replaces each of these; a missing one crashes it.
    assert callable(getattr(importlib.import_module(f"diffdecomp.{module}"), name, None))


def test_one_version_string():
    assert diffdecomp.__version__ == TOOL_VERSION


def test_pyproject_takes_the_version_from_csvio():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in meta["project"]
    assert meta["project"]["dynamic"] == ["version"]
    dynamic = meta["tool"]["setuptools"]["dynamic"]["version"]
    assert dynamic == {"attr": "diffdecomp.csvio.TOOL_VERSION"}
