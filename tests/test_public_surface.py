"""The package has no flat API: its submodules are the public surface."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import diffdecomp
from diffdecomp.csvio import TOOL_VERSION

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(diffdecomp.__path__))
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def unused_imports(path):
    """Names bound by the file's top-level imports that it never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_no_unused_imports():
    # __version__ is imported into __init__ only to be the package's attribute.
    allowed = {("src/diffdecomp/__init__.py", "__version__")}
    files = sorted([*(ROOT / "src" / "diffdecomp").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                    *(ROOT / "scripts").glob("*.py")])
    found = {
        (path.relative_to(ROOT).as_posix(), name)
        for path in files
        for name in unused_imports(path)
    }
    assert found - allowed == set()


def test_cli_import_loads_no_process_pool():
    # A fit imports the pool's modules when it forks, so a process that
    # never forks does not pay for them.
    code = (
        "import sys, diffdecomp.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    package_root = str(Path(diffdecomp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "[]\n"


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
