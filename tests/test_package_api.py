"""Public-API surface tests: everything advertised in __all__ resolves."""

import importlib
import os
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.nn",
    "repro.sim",
    "repro.workflows",
    "repro.workload",
    "repro.rl",
    "repro.core",
    "repro.baselines",
    "repro.eval",
    "repro.utils",
    "repro.telemetry",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_packages_have_docstrings(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__ and len(package.__doc__.strip()) > 20


def test_public_classes_have_docstrings():
    """Every public class and function exported at package level is
    documented."""
    undocumented = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        for name in package.__all__:
            obj = getattr(package, name)
            if callable(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(f"{package_name}.{name}")
    assert not undocumented, undocumented


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
