"""`src/` is closed under its entry points (docs/ARCHITECTURE.md, "Customers").

AST only, by name: a public function, class or method under ``src/repro``
must be named by a CLI module, by something under ``benchmarks/``, or by
the body of a definition that is itself reachable -- or be a row of
``SCHEDULED`` citing the ROADMAP item that will call it.  Tests, examples
and ``__init__`` re-exports are not customers.  Matching by bare name
over-approximates (any ``.add`` keeps every ``add`` alive), so dynamic
dispatch can only make the guard more lenient, never flaky.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
#: The CLI modules, everything under benchmarks/, and the one harness file
#: that is an entry point: tests/conftest.py is where REPRO_SANITIZE=1 (the
#: CI sanitizer job) reaches ``repro.analysis.sanitizer``.
ROOT_FILES = [SRC / "cli.py", SRC / "__main__.py", SRC / "analysis" / "cli.py",
              REPO / "tests" / "conftest.py",
              *sorted((REPO / "benchmarks").rglob("*.py"))]
#: ``"package.module:Class.method"`` strings name code too (EnvSpec
#: factories, the profiler's and the e2e harness's wrap tables).
_ENTRY_POINT = re.compile(r"^[\w.]+:[\w.]+$")

# Unreachable today, kept for a run the roadmap schedules.  A class row
# covers its methods.  Two-sided: a row that became reachable, or whose
# definition is gone, fails.
SCHEDULED = {
    "repro.rl.critic.Critic.normalize_states":
        "ROADMAP item 4: tests/rl/reference_ddpg.py, an oracle kept "
        "verbatim, calls it",
    "repro.utils.batchpairs.registered_pairs":
        "ROADMAP item 4: 'every pair the repo claims equal' is enumerated "
        "from the registry",
    "repro.workflows.generator.random_ensemble":
        "ROADMAP item 4: the differential harness draws DAGs",
    "repro.sim.faults.ChaosInjector":
        "ROADMAP item 4: the differential harness draws repro.sim.faults "
        "outages",
    "repro.workload.arrivals.DeterministicArrivalProcess":
        "ROADMAP item 4: the differential harness draws arrival processes "
        "(its callbacks-pending scenarios already do)",
    "repro.workload.arrivals.ModulatedPoissonArrivalProcess":
        "ROADMAP item 4: the differential harness draws arrival processes",
    "repro.workload.arrivals.TraceArrivalProcess":
        "ROADMAP item 4: the differential harness draws arrival processes",
    "repro.eval.runner.EvalResult.response_time_series_for":
        "ROADMAP item 1a: Fig. 8 diagnosed per workflow type and task type, "
        "the way Bader et al. (PAPERS.md) report",
}


def _names(nodes, aliases=None):
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.alias):
                found.add(sub.name.rpartition(".")[2])
            elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                  and _ENTRY_POINT.match(sub.value)):
                found.update(sub.value.partition(":")[2].split("."))
    if aliases:
        found |= {aliases[n] for n in found & aliases.keys()}
    return found


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IMPORTS = (ast.Import, ast.ImportFrom)  # importing a name is not using it


def _parts(fn):
    """What a function names: its body, decorators and signature."""
    returns = [fn.returns] if fn.returns else []
    return fn.body + fn.decorator_list + [fn.args] + returns


def _scan():
    """Returns (always-live names, {qualified name: (name, body names, owner)})."""
    live = set()
    for path in ROOT_FILES:
        live |= _names([ast.parse(path.read_text())])
    defs = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py" or path in ROOT_FILES:
            continue
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        tree = ast.parse(path.read_text())
        # ``from m import f as _f``: a use of ``_f`` is a use of ``f``.
        aliases = {a.asname: a.name.rpartition(".")[2]
                   for n in ast.walk(tree) if isinstance(n, _IMPORTS)
                   for a in n.names if a.asname}
        live |= _names((n for n in tree.body
                        if not isinstance(n, _DEFS + _IMPORTS)), aliases)
        for top in (n for n in tree.body if isinstance(n, _DEFS)):
            qual = f"{module}.{top.name}"
            if not isinstance(top, ast.ClassDef):
                defs[qual] = (
                    top.name, _names(_parts(top), aliases), None)
                continue
            methods = [n for n in top.body if isinstance(n, _DEFS[:2])]
            visitor = any("NodeVisitor" in ast.unparse(b) for b in top.bases)
            own = [n for n in top.body if n not in methods]
            defs[qual] = (
                top.name, _names(own + top.bases + top.decorator_list, aliases), None)
            for m in methods:
                implicit = m.name.startswith("__") or (
                    visitor and m.name.startswith("visit_"))
                # A class its own methods name is not thereby used.
                defs[f"{qual}.{m.name}"] = (
                    m.name,
                    _names(_parts(m), aliases) - {top.name},
                    qual if implicit else None)
    return live, defs


def unreachable(scheduled=()):
    live, defs = _scan()
    reached = set()
    changed = True
    while changed:
        changed = False
        for qual, (name, body, implicit_owner) in defs.items():
            if qual in reached:
                continue
            owner = qual.rpartition(".")[0]
            if (name in live or qual in scheduled or owner in scheduled
                    or implicit_owner in reached):
                reached.add(qual)
                live |= body
                changed = True
    public = {q for q, (name, _, _) in defs.items() if not name.startswith("_")}
    return sorted(public - reached), defs


def test_every_public_name_has_a_customer():
    dead, _ = unreachable(SCHEDULED)
    assert dead == [], (
        "public names no CLI verb or benchmark reaches -- delete them, or add a "
        "SCHEDULED row citing the ROADMAP item that will call them:\n  "
        + "\n  ".join(dead))


def test_scheduled_table_is_minimal_and_cited():
    assert len(SCHEDULED) <= 15
    assert all(why.startswith("ROADMAP item ") for why in SCHEDULED.values())
    dead, defs = unreachable()
    missing = sorted(set(SCHEDULED) - set(defs))
    assert missing == [], f"SCHEDULED rows without a definition: {missing}"
    stale = sorted(k for k in SCHEDULED
                   if not any(q == k or q.startswith(k + ".") for q in dead))
    assert stale == [], f"SCHEDULED rows that are reachable without the table: {stale}"
