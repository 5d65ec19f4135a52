"""Project-level rule families consuming the :mod:`repro.analysis.index`.

Where :mod:`repro.analysis.rules` checks one module at a time, the three
families here need the whole-project index:

=====  ======================================================================
R1     RNG provenance: duplicate fork labels on the same parent stream
       (R101), constant labels forked inside loops (R102), and RNG
       objects captured in default arguments (R103).  Each one makes two
       "independent" streams share a name or a generator and silently
       correlates experiments.
L1     Layering: module-scope imports must follow the DAG documented in
       docs/ARCHITECTURE.md (L101).  Lazy function-level imports are
       exempt by design.
N1     Numeric discipline: mixed float32/float64 provenance within a
       function or across a call edge (N101), bare Python-float
       accumulation loops reachable from the hot-path roots (N102), and
       in-place mutation of array parameters that escape the defining
       module (N103).
=====  ======================================================================

All checks work on plain index data.  Emit-site schemas, event-loop
mutation discipline, pool-worker payloads and ``@batched_pair`` twins are
checked where they run, not here: the runtime sanitizer
(:mod:`repro.analysis.sanitizer`), the byte-identity suites and
``tests/core/test_batch_pair_registry.py``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding, Severity
from repro.analysis.index import ForkSite, FunctionInfo, ProjectIndex

__all__ = [
    "ProjectChecker",
    "RngProvenanceChecker",
    "LayeringChecker",
    "NumericDisciplineChecker",
    "all_project_checkers",
    "project_rule_rows",
]


class ProjectChecker:
    """One cross-module rule family."""

    family: str = ""
    #: (rule id, description) rows, for --list-rules and config validation.
    rules: List[Tuple[str, str]] = []

    def check(self, index: ProjectIndex, config: LintConfig) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        rule: str,
        path: str,
        line: int,
        column: int,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        return Finding(
            path=path,
            line=line,
            column=column,
            rule=rule,
            severity=severity,
            message=message,
            family=self.family,
        )


def _rng_like(receiver: Optional[str]) -> bool:
    """Heuristic: does the receiver look like an RngStream?

    ``fork`` is a common method name; gating on an rng-ish receiver
    (``rng``, ``self._rngs["collect"]``, ``system.workload_rng``) keeps
    the family from firing on unrelated fork() APIs.
    """
    if receiver is None:
        return False
    last = receiver.split(".")[-1]
    return "rng" in last.lower()


class RngProvenanceChecker(ProjectChecker):
    """R1: fork-label provenance across the whole project."""

    family = "R1"
    rules = [
        (
            "R101",
            "the same constant fork label is used at several call sites of "
            "one parent stream; path-qualify the labels so stream names "
            "stay unique and auditable",
        ),
        (
            "R102",
            "constant fork label inside a loop: every iteration creates a "
            "stream with the same name; derive the label from the loop "
            "variable",
        ),
        (
            "R103",
            "RNG captured in a default argument is created once at def "
            "time and shared across calls; default to None and fork inside "
            "the function",
        ),
    ]

    def check(self, index: ProjectIndex, config: LintConfig) -> Iterator[Finding]:
        sites = [s for s in index.fork_sites if _rng_like(s.receiver)]

        # R101: duplicate (receiver, label) across distinct call sites.
        groups: Dict[Tuple[str, str], List[ForkSite]] = defaultdict(list)
        for site in sites:
            if site.label is not None:
                groups[(site.receiver, site.label)].append(site)
        for (receiver, label), members in sorted(groups.items()):
            locations = {(m.path, m.line) for m in members}
            if len(locations) < 2:
                continue
            for site in members:
                others = sorted(
                    f"{m.path}:{m.line}"
                    for m in members
                    if (m.path, m.line) != (site.path, site.line)
                )
                yield self.finding(
                    "R101", site.path, site.line, site.column,
                    f"fork label {label!r} on parent `{receiver}` is also "
                    f"used at {', '.join(others)}; two streams share the "
                    f"name `{receiver}/{label}` — qualify the label with "
                    "its component path",
                )

        for site in sites:
            # R102: constant label forked in a loop.
            if site.label is not None and site.in_loop:
                yield self.finding(
                    "R102", site.path, site.line, site.column,
                    f"constant fork label {site.label!r} inside a loop "
                    "mints identically named streams every iteration; "
                    "derive the label from the loop variable "
                    "(e.g. f\"...{i}\")",
                )
            # R103: fork evaluated in a default argument.
            if site.in_default:
                yield self.finding(
                    "R103", site.path, site.line, site.column,
                    "RNG forked in a default argument is evaluated once at "
                    "def time and shared by every call; default to None "
                    "and fork inside the function body",
                )


class LayeringChecker(ProjectChecker):
    """L1: enforce the documented import DAG at module scope."""

    family = "L1"
    rules = [
        (
            "L101",
            "module-scope import violates the layer DAG "
            "([tool.reprolint.layers], docs/ARCHITECTURE.md)",
        ),
    ]

    @staticmethod
    def _layer_of(module: str, layers: Dict[str, List[str]]) -> Optional[str]:
        """Longest configured layer prefix owning ``module``."""
        best: Optional[str] = None
        for layer in layers:
            if module == layer or module.startswith(layer + "."):
                if best is None or len(layer) > len(best):
                    best = layer
        return best

    def check(self, index: ProjectIndex, config: LintConfig) -> Iterator[Finding]:
        layers = config.layers
        if not layers:
            return
        for edge in index.imports:
            if not edge.toplevel or not edge.importer:
                continue
            importer_layer = self._layer_of(edge.importer, layers)
            if importer_layer is None:
                continue  # unconstrained module (cli, tests, scripts)
            imported_layer = self._layer_of(edge.imported, layers)
            if imported_layer is None or imported_layer == importer_layer:
                continue
            if imported_layer in layers[importer_layer]:
                continue
            yield self.finding(
                "L101", edge.path, edge.line, edge.column,
                f"`{importer_layer}` must not import `{imported_layer}` "
                f"(module-scope import of `{edge.imported}`); allowed "
                f"dependencies: {sorted(layers[importer_layer]) or 'none'} "
                "— move the import behind a function boundary only if the "
                "edge is genuinely optional, otherwise invert the "
                "dependency",
            )


def _call_closure(
    roots: Set[str], by_name: Dict[str, List[FunctionInfo]]
) -> Set[str]:
    """Name-level reachability closure over the project call graph."""
    reachable: Set[str] = set()
    frontier = [n for n in roots if n in by_name]
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        for func in by_name[name]:
            for callee in func.calls:
                if callee not in reachable and callee in by_name:
                    frontier.append(callee)
    return reachable


def _functions_by_name(
    index: ProjectIndex,
) -> Dict[str, List[FunctionInfo]]:
    by_name: Dict[str, List[FunctionInfo]] = defaultdict(list)
    for func in index.functions:
        by_name[func.name].append(func)
    return by_name


class NumericDisciplineChecker(ProjectChecker):
    """N1: dtype provenance, hot-loop accumulation, parameter aliasing."""

    family = "N1"
    rules = [
        (
            "N101",
            "mixed float32/float64 provenance in one function or across a "
            "direct call edge; silent promotion doubles memory and breaks "
            "bit-reproducibility — pin one dtype",
        ),
        (
            "N102",
            "bare Python-float accumulation loop in a function reachable "
            "from the hot-path roots; use a vectorised reduction "
            "(np.sum/np.dot) or math.fsum",
        ),
        (
            "N103",
            "in-place numpy mutation (+=, out=, np.copyto, slice-assign) "
            "of a parameter in a function called from other modules; the "
            "caller's array is silently modified through the alias",
        ),
    ]

    @staticmethod
    def _dtype_set(func: FunctionInfo) -> Set[str]:
        return {
            d.name for d in func.dtype_mentions
            if d.name in ("float32", "float64")
        }

    def check(self, index: ProjectIndex, config: LintConfig) -> Iterator[Finding]:
        yield from self._check_mixed_dtypes(index)
        yield from self._check_hot_accumulation(index, config)
        yield from self._check_param_mutations(index)

    def _check_mixed_dtypes(self, index: ProjectIndex) -> Iterator[Finding]:
        by_name = _functions_by_name(index)
        for func in sorted(index.functions, key=lambda f: (f.path, f.line)):
            dtypes = self._dtype_set(func)
            if {"float32", "float64"} <= dtypes:
                site = min(
                    (d for d in func.dtype_mentions if d.name == "float32"),
                    key=lambda d: (d.line, d.column),
                )
                partner = min(
                    (d for d in func.dtype_mentions if d.name == "float64"),
                    key=lambda d: (d.line, d.column),
                )
                yield self.finding(
                    "N101", func.path, site.line, site.column,
                    f"`{func.qualname}` mixes float32 (line {site.line}) "
                    f"and float64 (line {partner.line}); arithmetic "
                    "between them silently promotes — pin one dtype for "
                    "the whole function",
                )
                continue
            if len(dtypes) != 1:
                continue
            (own,) = dtypes
            other = "float64" if own == "float32" else "float32"
            for callee_name in sorted(set(func.calls)):
                candidates = by_name.get(callee_name, [])
                if not candidates:
                    continue
                callee_sets = {
                    frozenset(self._dtype_set(c)) for c in candidates
                }
                # Only an unambiguous, single-dtype callee can contradict.
                if callee_sets != {frozenset({other})}:
                    continue
                site = min(
                    func.dtype_mentions, key=lambda d: (d.line, d.column)
                )
                yield self.finding(
                    "N101", func.path, site.line, site.column,
                    f"`{func.qualname}` pins {own} but calls "
                    f"`{callee_name}` which pins {other}; values crossing "
                    "that edge promote silently — align the dtypes",
                )

    def _check_hot_accumulation(
        self, index: ProjectIndex, config: LintConfig
    ) -> Iterator[Finding]:
        by_name = _functions_by_name(index)
        hot = _call_closure(set(config.hotpath_roots), by_name)
        for func in sorted(index.functions, key=lambda f: (f.path, f.line)):
            if func.name not in hot:
                continue
            floats = set(func.float_names)
            for site in func.accum_loops:
                if site.name not in floats:
                    continue
                yield self.finding(
                    "N102", func.path, site.line, site.column,
                    f"`{func.qualname}` (reachable from hot-path roots "
                    f"{sorted(config.hotpath_roots)}) accumulates "
                    f"`{site.name}` one Python float per iteration; "
                    "replace the loop with a vectorised reduction "
                    "(np.sum, np.dot, cumulative ufuncs) or math.fsum",
                )

    def _check_param_mutations(
        self, index: ProjectIndex
    ) -> Iterator[Finding]:
        # "Escapes the defining module", keyed off the import graph: some
        # module that imports the defining module calls the function name.
        importers: Dict[str, Set[str]] = defaultdict(set)
        for edge in index.imports:
            importers[edge.imported].add(edge.importer)
        callers: Dict[str, Set[str]] = defaultdict(set)
        for func in index.functions:
            for callee in func.calls:
                callers[callee].add(func.module)
        for func in sorted(index.functions, key=lambda f: (f.path, f.line)):
            if not func.param_mutations:
                continue
            external = callers.get(func.name, set()) & importers.get(
                func.module, set()
            )
            external.discard(func.module)
            if not external:
                continue
            rebound = set(func.rebound_params)
            for mut in func.param_mutations:
                if mut.param in ("self", "cls") or mut.param in rebound:
                    continue
                yield self.finding(
                    "N103", func.path, mut.line, mut.column,
                    f"`{func.qualname}` mutates parameter `{mut.param}` "
                    f"in place ({mut.kind}) and is called from "
                    f"{sorted(external)}; the caller's array changes "
                    "under it — copy first, or document the contract and "
                    "suppress this line",
                )


def all_project_checkers() -> List[ProjectChecker]:
    """Fresh instances of every cross-module checker, report order."""
    return [
        RngProvenanceChecker(),
        LayeringChecker(),
        NumericDisciplineChecker(),
    ]


def project_rule_rows() -> List[Tuple[str, str, str]]:
    """(rule id, family, description) rows for the rule reference."""
    rows: List[Tuple[str, str, str]] = []
    for checker in all_project_checkers():
        for rule_id, description in checker.rules:
            rows.append((rule_id, checker.family, description))
    return rows
