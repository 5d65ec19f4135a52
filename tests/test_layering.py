"""The docs/ARCHITECTURE.md import DAG, checked on ``src/repro``'s ASTs.

``repro.cli`` and the top-level modules are unconstrained; an import inside
a function is the escape hatch for an optional heavy edge.  A relative
import would hide its edge, so there are none.
"""

import ast
from pathlib import Path

LAYERS = {
    "utils": "",
    "nn": "utils", "telemetry": "utils", "workflows": "utils",
    "sim": "telemetry utils workflows", "workload": "sim utils",
    "rl": "nn telemetry utils", "core": "nn rl sim telemetry utils",
    "baselines": "core rl sim utils workflows",
    "eval": "baselines core rl sim telemetry utils workflows workload",
}


def layer_of(module):
    return next((p for p in LAYERS if (module + ".").startswith(f"repro.{p}.")), None)


def imports(node, lazy=False):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, lazy
        yield from imports(child, lazy or isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)))


def violations(src):
    """``(file, line, imported)`` per relative or DAG-breaking import."""
    found = []
    for path in sorted(src.rglob("*.py")):
        name = path.relative_to(src).as_posix()
        importer = layer_of(name[:-3].replace("/", "."))
        for node, lazy in imports(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.append((name, node.lineno, "."))
            elif importer and not lazy:
                targets = ([node.module] if isinstance(node, ast.ImportFrom)
                           else [alias.name for alias in node.names])
                found += [(name, node.lineno, target) for target in targets
                          if layer_of(target) not in
                          (None, importer, *LAYERS[importer].split())]
    return sorted(found)


def test_src_repro_follows_the_dag():
    assert violations(Path(__file__).resolve().parents[1] / "src") == []


def test_upward_and_relative_imports_fail_lazy_ones_pass(tmp_path):
    (sim := tmp_path / "repro" / "sim").mkdir(parents=True)
    (sim / "mod.py").write_text("from repro.rl import ddpg\n\ndef f():\n"
                                "    import repro.rl.ddpg\n    from . import x\n")
    assert violations(tmp_path) == [("repro/sim/mod.py", 1, "repro.rl"),
                                    ("repro/sim/mod.py", 5, ".")]
