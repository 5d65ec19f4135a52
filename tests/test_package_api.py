"""Public-API surface tests: everything advertised in __all__ resolves,
is documented, and every public name a package binds is advertised."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``repro`` and every package under it.
PACKAGES = ["repro"] + sorted(
    f"repro.{init.parent.name}" for init in (SRC / "repro").glob("*/__init__.py")
)


def broken_exports(package):
    """``__all__`` entries the package does not provide."""
    return [name for name in package.__all__ if not hasattr(package, name)]


def undocumented_exports(package):
    """Exported callables without a docstring."""
    return [
        name for name in package.__all__
        if callable(getattr(package, name, None))
        and not (getattr(package, name).__doc__ or "").strip()
    ]


def unexported_public_names(init_path):
    """Public names an ``__init__.py`` defines or imports from a module
    at top level but leaves out of ``__all__``."""
    tree = ast.parse(init_path.read_text(encoding="utf-8"))
    exported, bound = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.ImportFrom, ast.If, ast.Try)):
            bound.update(
                alias.asname or alias.name
                for sub in ast.walk(node)
                if isinstance(sub, ast.ImportFrom) and sub.module != "__future__"
                for alias in sub.names
            )
    return sorted(n for n in bound - exported
                  if n.isidentifier() and not n.startswith("_"))


def init_path(package_name):
    return SRC.joinpath(*package_name.split("."), "__init__.py")


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
    assert broken_exports(package) == []


@pytest.mark.parametrize("package_name", PACKAGES)
def test_packages_have_docstrings(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__ and len(package.__doc__.strip()) > 20


def test_public_classes_have_docstrings():
    """Every public class and function exported at package level is
    documented."""
    undocumented = [
        f"{package_name}.{name}"
        for package_name in PACKAGES
        for name in undocumented_exports(importlib.import_module(package_name))
    ]
    assert not undocumented, undocumented


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_names_are_exported(package_name):
    assert unexported_public_names(init_path(package_name)) == []


def test_each_check_catches_its_case(tmp_path, monkeypatch):
    package = tmp_path / "leaky"
    package.mkdir()
    (package / "impl.py").write_text(
        "def bare():\n    pass\n\n\n"
        "def kept():\n    \"\"\"Documented.\"\"\"\n"
    )
    (package / "__init__.py").write_text(
        '"""A package with one broken export of each kind."""\n'
        "from leaky.impl import bare, kept\n"
        '__all__ = ["bare", "ghost"]\n'
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        leaky = importlib.import_module("leaky")
        assert broken_exports(leaky) == ["ghost"]
        assert undocumented_exports(leaky) == ["bare"]
        assert unexported_public_names(package / "__init__.py") == ["kept"]
    finally:
        for name in ("leaky", "leaky.impl"):
            sys.modules.pop(name, None)


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_import_repro_loads_no_network_or_config_stack():
    """``import repro`` runs in every process the repo starts — each
    spawned collector and sweep worker included — so what it drags in is
    start-up cost paid per process.  An HTTP endpoint once pulled
    ``http.server`` (and with it ``email``, ``ssl``, ``socketserver``)
    into all of them; nothing a run needs lives in these modules."""
    import repro

    heavy = ["http.server", "http.client", "ssl", "email.utils",
             "socketserver", "tomllib"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; "
         f"print([m for m in {heavy!r} if m in sys.modules])"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
