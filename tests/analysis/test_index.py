"""The project index: extraction and graceful degradation.

Runs :func:`repro.analysis.index.build_index` over the synthetic
packages in ``tests/analysis/fixtures/`` (import cycles, re-export
chains, dynamic ``getattr`` dispatch) and over inline sources, pinning
that extraction is complete where Python is static and silent — never
wrong — where it is dynamic.
"""

from pathlib import Path

from repro.analysis.index import build_index
from repro.analysis.project import Project, discover_files, parse_module

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture_project(*names):
    """Parse fixture packages into a Project (no imports executed)."""
    files = discover_files([FIXTURES / name for name in names])
    modules = []
    for path in files:
        module, error = parse_module(path, root=FIXTURES)
        assert error is None, f"fixture {path} must parse: {error}"
        modules.append(module)
    return Project(modules)


def write_project(tmp_path, files):
    """Write ``{relative_path: source}`` and parse it into a Project."""
    for rel, code in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(code, encoding="utf-8")
    modules = []
    for path in discover_files([tmp_path]):
        module, error = parse_module(path, root=tmp_path)
        assert error is None
        modules.append(module)
    return Project(modules)


class TestImportGraph:
    def test_cycle_is_recorded_and_terminates(self):
        index = build_index(load_fixture_project("cyclepkg"))
        edges = {
            (e.importer, e.imported) for e in index.imports if e.toplevel
        }
        assert ("cyclepkg.alpha", "cyclepkg") in edges  # from cyclepkg import beta
        assert ("cyclepkg.beta", "cyclepkg.alpha") in edges

    def test_function_scope_import_is_not_toplevel(self):
        index = build_index(load_fixture_project("cyclepkg"))
        lazy = [
            e for e in index.imports
            if e.importer == "cyclepkg.beta"
            and e.imported == "cyclepkg.alpha"
            and not e.toplevel
        ]
        assert len(lazy) == 1

    def test_relative_import_resolves_to_absolute(self):
        index = build_index(load_fixture_project("reexport"))
        edges = {(e.importer, e.imported) for e in index.imports}
        assert ("reexport.facade", "reexport.impl") in edges
        assert ("reexport", "reexport.facade") in edges


class TestGracefulDegradation:
    """Dynamic constructs index as unknown — never crash, never guess."""

    def test_fstring_fork_label_is_none(self):
        index = build_index(load_fixture_project("dynpkg"))
        site = next(
            s for s in index.fork_sites if s.receiver == "self.rng"
        )
        assert site.label is None

    def test_subscripted_receiver_is_keyed(self):
        index = build_index(load_fixture_project("dynpkg"))
        site = next(
            s for s in index.fork_sites
            if s.receiver == 'self._rngs["collect"]'
        )
        assert site.label == "collect/worker"

    def test_fixtures_are_never_imported(self):
        import sys

        assert not any(
            name.split(".")[0] in ("cyclepkg", "reexport", "dynpkg")
            for name in sys.modules
        )


class TestForkSiteContext:
    def test_loop_and_default_context_flags(self, tmp_path):
        project = write_project(tmp_path, {
            "m.py": (
                "def run(rng, other=RNG.fork('shared')):\n"
                "    for i in range(3):\n"
                "        child = rng.fork('worker')\n"
                "    tail = rng.fork('tail')\n"
            ),
        })
        index = build_index(project)
        by_label = {s.label: s for s in index.fork_sites}
        assert by_label["worker"].in_loop
        assert not by_label["worker"].in_default
        assert by_label["shared"].in_default
        assert not by_label["tail"].in_loop
        assert by_label["worker"].function == "run"
