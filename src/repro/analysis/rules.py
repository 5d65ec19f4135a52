"""The reprolint rule set.

Four rule families, each tied to a reproduction-fidelity failure mode:

=====  ======================================================================
D1     Ambient nondeterminism: the ``random`` module, global numpy random
       state, and wall-clock reads bypass the seeded ``RngStream``
       discipline and silently decorrelate reruns (D101, D102).
D2     Silent seed fallbacks: constructing an ``RngStream`` from a
       hard-coded ``SeedSequence`` literal couples unrelated components to
       the same stream and hides the real experiment seed (D201).
S1     Simulation-invariant hygiene: exact float equality (S101), mutable
       default arguments (S102), and ``assert``-as-validation (S103) — all
       three change behaviour between environments (``python -O`` strips
       asserts) or between call orders.
A1     API consistency: ``__all__`` entries must resolve (A101),
       re-exported symbols must carry docstrings (A102), and public
       imports in package ``__init__`` files must be exported (A103).
=====  ======================================================================

Each checker yields :class:`~repro.analysis.findings.Finding` objects; the
engine applies inline suppressions and the baseline afterwards.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.project import (
    ModuleInfo,
    Project,
    dotted_name as _dotted_name,
    top_level_bindings as _top_level_bindings,
)

__all__ = [
    "Checker",
    "AmbientRandomnessChecker",
    "WallClockChecker",
    "SeedFallbackChecker",
    "FloatEqualityChecker",
    "MutableDefaultChecker",
    "AssertChecker",
    "ApiConsistencyChecker",
    "all_checkers",
    "all_rule_ids",
]


class Checker:
    """Base class: one rule family member with a stable id and severity."""

    #: Stable rule identifier (``D101``); referenced by suppressions,
    #: the baseline, and ``[tool.reprolint]`` disable lists.
    rule_id: str = ""
    #: Family prefix (``D1``) used in docs and reports.
    family: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            severity=self.severity,
            message=message,
            family=self.family,
        )


def _import_map(tree: ast.Module) -> Dict[str, str]:
    """Map local alias -> imported dotted module/symbol for a module."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


class AmbientRandomnessChecker(Checker):
    """D101: randomness outside :class:`repro.utils.rng.RngStream`."""

    rule_id = "D101"
    family = "D1"
    severity = Severity.ERROR
    description = (
        "ambient randomness (`random` module or global numpy random state) "
        "bypasses the seeded RngStream discipline"
    )

    #: numpy.random attributes that configure seeded generators rather
    #: than draw from global state.
    _ALLOWED_NP_RANDOM = {
        "SeedSequence",
        "default_rng",
        "Generator",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        aliases = _import_map(module.tree)
        numpy_aliases = {a for a, t in aliases.items() if t == "numpy"}
        np_random_aliases = {
            a for a, t in aliases.items() if t == "numpy.random"
        }
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            module, node,
                            "import of the stdlib `random` module; draw from "
                            "an explicit repro.utils.rng.RngStream instead",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    yield self.finding(
                        module, node,
                        "import from the stdlib `random` module; draw from "
                        "an explicit repro.utils.rng.RngStream instead",
                    )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in self._ALLOWED_NP_RANDOM:
                            yield self.finding(
                                module, node,
                                f"`from numpy.random import {alias.name}` "
                                "uses global numpy random state; use an "
                                "RngStream generator instead",
                            )
            elif isinstance(node, ast.Attribute):
                dotted = _dotted_name(node)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                bad = None
                if (
                    len(parts) == 3
                    and parts[0] in numpy_aliases
                    and parts[1] == "random"
                    and parts[2] not in self._ALLOWED_NP_RANDOM
                ):
                    bad = f"{parts[0]}.random.{parts[2]}"
                elif (
                    len(parts) == 2
                    and parts[0] in np_random_aliases
                    and parts[1] not in self._ALLOWED_NP_RANDOM
                ):
                    bad = dotted
                if bad is not None:
                    yield self.finding(
                        module, node,
                        f"`{bad}` draws from global numpy random state; "
                        "use an explicit RngStream (repro.utils.rng) "
                        "forked from the experiment seed",
                    )


class WallClockChecker(Checker):
    """D102: wall-clock reads inside deterministic simulation code."""

    rule_id = "D102"
    family = "D1"
    severity = Severity.ERROR
    description = (
        "wall-clock reads (time.time, datetime.now, ...) make rollouts "
        "irreproducible; simulated time lives on the event loop"
    )

    _TIME_FUNCS = {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
    }
    _DATETIME_FUNCS = {"now", "utcnow", "today"}

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        aliases = _import_map(module.tree)
        time_aliases = {a for a, t in aliases.items() if t == "time"}
        datetime_like = {
            a
            for a, t in aliases.items()
            if t in ("datetime", "datetime.datetime", "datetime.date")
        }
        clock_funcs = {
            a
            for a, t in aliases.items()
            if t in {f"time.{f}" for f in self._TIME_FUNCS}
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in clock_funcs:
                yield self.finding(
                    module, node,
                    f"wall-clock call `{func.id}()`; simulation code must "
                    "use the event-loop clock (`loop.now`)",
                )
                continue
            dotted = _dotted_name(func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if (
                len(parts) == 2
                and parts[0] in time_aliases
                and parts[1] in self._TIME_FUNCS
            ):
                yield self.finding(
                    module, node,
                    f"wall-clock call `{dotted}()`; simulation code must "
                    "use the event-loop clock (`loop.now`)",
                )
            elif (
                len(parts) >= 2
                and parts[0] in datetime_like
                and parts[-1] in self._DATETIME_FUNCS
            ):
                yield self.finding(
                    module, node,
                    f"wall-clock call `{dotted}()`; timestamps in "
                    "deterministic code must come from the simulation "
                    "clock or explicit arguments",
                )


class SeedFallbackChecker(Checker):
    """D201: RngStream built from a hard-coded SeedSequence literal."""

    rule_id = "D201"
    family = "D2"
    severity = Severity.ERROR
    description = (
        "RngStream constructed from a literal SeedSequence seed; callers "
        "must pass a stream forked from the experiment seed (or use "
        "repro.utils.rng.fallback_stream, which warns)"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name is None or name.split(".")[-1] != "RngStream":
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            for arg in args:
                if not isinstance(arg, ast.Call):
                    continue
                inner = _dotted_name(arg.func)
                if inner is None or inner.split(".")[-1] != "SeedSequence":
                    continue
                seed_args = list(arg.args) + [
                    kw.value for kw in arg.keywords
                ]
                if any(
                    isinstance(a, ast.Constant)
                    and isinstance(a.value, int)
                    and not isinstance(a.value, bool)
                    for a in seed_args
                ):
                    yield self.finding(
                        module, node,
                        "silent seed fallback: RngStream built from a "
                        "literal SeedSequence seed; fork an explicit "
                        "stream from the experiment seed instead",
                    )
                    break


class FloatEqualityChecker(Checker):
    """S101: exact equality against a float literal."""

    rule_id = "S101"
    family = "S1"
    severity = Severity.ERROR
    description = (
        "== / != against a float literal; use "
        "repro.utils.validation.isclose_zero or math.isclose"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            if any(
                isinstance(o, ast.Constant) and isinstance(o.value, float)
                for o in operands
            ):
                yield self.finding(
                    module, node,
                    "exact float equality is unstable under arithmetic "
                    "noise; use repro.utils.validation.isclose_zero / "
                    "math.isclose",
                )


class MutableDefaultChecker(Checker):
    """S102: mutable default argument values."""

    rule_id = "S102"
    family = "S1"
    severity = Severity.ERROR
    description = (
        "mutable default argument (list/dict/set) is shared across calls; "
        "default to None and construct inside the function"
    )

    _MUTABLE_CALLS = {"list", "dict", "set"}

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._MUTABLE_CALLS
        return False

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        module, default,
                        f"mutable default argument in `{node.name}()` is "
                        "shared across calls; default to None instead",
                    )


class AssertChecker(Checker):
    """S103: ``assert`` used for validation in library code."""

    rule_id = "S103"
    family = "S1"
    severity = Severity.ERROR
    description = (
        "asserts vanish under `python -O`; budget/constraint/invariant "
        "checks must use repro.utils.validation (e.g. require())"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    module, node,
                    "assert statement in library code is stripped by "
                    "`python -O`; raise via repro.utils.validation "
                    "(require/check_*) instead",
                )


class ApiConsistencyChecker(Checker):
    """A101/A102/A103: ``__all__`` and re-export hygiene in packages.

    This checker owns the whole A1 family and labels each finding with the
    matching sub-rule id instead of a single ``rule_id``.
    """

    rule_id = "A101"
    family = "A1"
    severity = Severity.ERROR
    description = (
        "package __init__ exports must resolve (A101), carry docstrings "
        "(A102) and be listed in __all__ (A103)"
    )

    _MAX_CHAIN = 8

    def _finding(
        self,
        module: ModuleInfo,
        node: ast.AST,
        rule: str,
        severity: Severity,
        message: str,
    ) -> Finding:
        return Finding(
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            severity=severity,
            message=message,
            family=self.family,
        )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        if not module.is_package_init:
            return
        bindings = _top_level_bindings(module.tree)
        all_node, all_names = _parse_all(module.tree)
        if all_node is None:
            return

        for name in all_names:
            if name not in bindings:
                yield self._finding(
                    module, all_node, "A101", Severity.ERROR,
                    f"`{name}` is listed in __all__ but is neither defined "
                    "nor imported in this module",
                )
                continue
            origin = _resolve_export(
                project, module, name, self._MAX_CHAIN
            )
            if origin is None:
                yield self._finding(
                    module, bindings[name], "A101", Severity.ERROR,
                    f"re-export `{name}` does not resolve to a definition "
                    "in its source module",
                )
            else:
                target_module, target_node = origin
                if (
                    isinstance(
                        target_node,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                    )
                    and ast.get_docstring(target_node) is None
                ):
                    yield self._finding(
                        module, bindings[name], "A102", Severity.WARNING,
                        f"re-exported symbol `{name}` "
                        f"({target_module.module}.{name}) has no docstring",
                    )

        exported = set(all_names)
        for name, node in bindings.items():
            if name.startswith("_") or name in exported:
                continue
            if isinstance(node, (ast.ImportFrom, ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.ClassDef)):
                yield self._finding(
                    module, node, "A103", Severity.WARNING,
                    f"public symbol `{name}` in a package __init__ is not "
                    "listed in __all__; export it or rename with a leading "
                    "underscore",
                )


def _parse_all(
    tree: ast.Module,
) -> Tuple[Optional[ast.AST], List[str]]:
    """Find the ``__all__`` assignment and its string entries."""
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            continue
        if isinstance(node.value, (ast.List, ast.Tuple)):
            names = [
                e.value
                for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
            return node, names
        return node, []
    return None, []


def _resolve_import_module(module: ModuleInfo, node: ast.ImportFrom) -> str:
    """Absolute dotted module an ImportFrom pulls from."""
    if node.level == 0:
        return node.module or ""
    # Relative import: resolve against this module's package.
    package_parts = module.module.split(".") if module.module else []
    if not module.is_package_init and package_parts:
        package_parts = package_parts[:-1]
    up = node.level - 1
    if up:
        package_parts = package_parts[: len(package_parts) - up]
    if node.module:
        package_parts = package_parts + node.module.split(".")
    return ".".join(package_parts)


def _resolve_export(
    project: Project,
    module: ModuleInfo,
    name: str,
    depth: int,
) -> Optional[Tuple[ModuleInfo, ast.AST]]:
    """Follow ``from x import name`` chains to the defining node.

    Returns ``(module, node)`` at the definition, or ``(module, node)`` at
    the last project-internal hop when the chain leaves the analysed tree
    (external dependency — treated as resolved).  Returns ``None`` when the
    chain dead-ends inside the project.
    """
    current = module
    for _ in range(depth):
        bindings = _top_level_bindings(current.tree)
        node = bindings.get(name)
        if node is None:
            return None
        if not isinstance(node, ast.ImportFrom):
            return current, node
        # Find the original (pre-alias) name for this hop.
        source_name = name
        for alias in node.names:
            if (alias.asname or alias.name) == name:
                source_name = alias.name
                break
        target = _resolve_import_module(current, node)
        target_module = project.resolve_module(target)
        if target_module is None:
            # Maybe `from pkg import submodule` where submodule is a module.
            as_module = project.resolve_module(f"{target}.{source_name}")
            if as_module is not None:
                return as_module, as_module.tree
            # External module: accept the re-export as resolved.
            return current, node
        current = target_module
        name = source_name
    return None


def all_checkers() -> List[Checker]:
    """Fresh instances of every registered checker, report order."""
    return [
        AmbientRandomnessChecker(),
        WallClockChecker(),
        SeedFallbackChecker(),
        FloatEqualityChecker(),
        MutableDefaultChecker(),
        AssertChecker(),
        ApiConsistencyChecker(),
    ]


def all_rule_ids() -> List[str]:
    """Every rule id the engine can emit, for --list-rules and config."""
    return [rule for rule, _, _ in rule_table()]


def rule_table() -> List[Tuple[str, str, str]]:
    """(rule id, family, description) rows for --list-rules output."""
    from repro.analysis.crossrules import project_rule_rows

    rows: List[Tuple[str, str, str]] = []
    for checker in all_checkers():
        if isinstance(checker, ApiConsistencyChecker):
            rows.append(("A101", "A1", "__all__ entry or re-export does not resolve"))
            rows.append(("A102", "A1", "re-exported symbol lacks a docstring"))
            rows.append(("A103", "A1", "public __init__ symbol missing from __all__"))
        else:
            rows.append((checker.rule_id, checker.family, checker.description))
    rows.extend(project_rule_rows())
    rows.append(("P001", "P", "file could not be parsed (syntax error)"))
    rows.append((
        "U101", "U1",
        "inline `# reprolint: disable` comment no longer matches any "
        "finding on its line; drop it so real regressions stay visible",
    ))
    return rows
