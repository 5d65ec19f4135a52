"""Project-level rule families consuming the :mod:`repro.analysis.index`.

Where :mod:`repro.analysis.rules` checks one module at a time, the four
families here need the whole-project index:

=====  ======================================================================
R1     RNG provenance: duplicate fork labels on the same parent stream
       (R101), constant labels forked inside loops (R102), and RNG
       objects captured in default arguments (R103).  Each one makes two
       "independent" streams share a name or a generator and silently
       correlates experiments.
T1     Telemetry conformance: every ``tracer.emit(...)`` call site must
       use a kind registered in ``RECORD_SCHEMAS`` (T101) with exactly
       the registered payload fields (T102); computed kinds are flagged
       for review (T103).  Keeps instrumentation and
       ``repro.telemetry.records`` from drifting apart.
E1     Event discipline — the race detector for the discrete-event
       simulator: sim-owned state may only be mutated by functions
       reachable from event callbacks, the step path, or construction
       (E101), and never from outside the sim layer at all (E102).
L1     Layering: module-scope imports must follow the DAG documented in
       docs/ARCHITECTURE.md (L101).  Lazy function-level imports are
       exempt by design.
N1     Numeric discipline: mixed float32/float64 provenance within a
       function or across a call edge (N101), bare Python-float
       accumulation loops reachable from the hot-path roots (N102), and
       in-place mutation of array parameters that escape the defining
       module (N103).
P1     Process safety: workers handed to pools/executors must be
       module-level callables (P101) that read no module-level mutable
       globals (P102) and no ambient RNG state — seeds must be derived
       per task (P103); result combination must be input-order
       deterministic (P104).
B1     Batch-pair contracts: every ``@batched_pair`` declaration must
       name an existing serial twin (B101) whose signature aligns modulo
       the leading batch axis (B102), and — when tests are under
       analysis — at least one test must reference the batched side
       (B103).
=====  ======================================================================

All checks work on plain index data.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding, Severity
from repro.analysis.index import (
    SIM_OWNED_SEGMENTS,
    BatchPairSite,
    EmitSite,
    ForkSite,
    FunctionInfo,
    ProjectIndex,
)

__all__ = [
    "ProjectChecker",
    "RngProvenanceChecker",
    "TelemetryConformanceChecker",
    "EventDisciplineChecker",
    "LayeringChecker",
    "NumericDisciplineChecker",
    "ProcessSafetyChecker",
    "BatchPairChecker",
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


class TelemetryConformanceChecker(ProjectChecker):
    """T1: tracer.emit call sites vs the RECORD_SCHEMAS registry."""

    family = "T1"
    rules = [
        (
            "T101",
            "tracer.emit with a record kind that is not registered in "
            "RECORD_SCHEMAS",
        ),
        (
            "T102",
            "tracer.emit payload fields do not match the registered schema "
            "for the kind",
        ),
        (
            "T103",
            "tracer.emit with a computed kind or payload cannot be checked "
            "statically; prefer constant kinds and keyword fields",
        ),
    ]

    @staticmethod
    def _tracer_like(site: EmitSite) -> bool:
        if site.receiver is None:
            return False
        return "tracer" in site.receiver.split(".")[-1].lower()

    def check(self, index: ProjectIndex, config: LintConfig) -> Iterator[Finding]:
        if not index.schemas:
            return  # no registry under analysis: nothing to conform to
        for site in index.emit_sites:
            if not self._tracer_like(site):
                continue
            if site.kind is None:
                yield self.finding(
                    "T103", site.path, site.line, site.column,
                    "record kind is computed at runtime; the schema "
                    "registry cannot vouch for it — use a constant kind "
                    "from repro.telemetry.records.RECORD_SCHEMAS",
                    severity=Severity.WARNING,
                )
                continue
            if site.kind not in index.schemas:
                yield self.finding(
                    "T101", site.path, site.line, site.column,
                    f"record kind {site.kind!r} is not registered in "
                    f"RECORD_SCHEMAS ({index.schema_module}); register the "
                    "schema before emitting it",
                )
                continue
            expected = index.schemas[site.kind]
            if expected is None:
                continue  # registry entry itself is dynamic: unchecked
            if site.dynamic_fields:
                yield self.finding(
                    "T103", site.path, site.line, site.column,
                    f"payload of {site.kind!r} uses **kwargs or positional "
                    "arguments; pass explicit keyword fields so the schema "
                    "can be checked statically",
                    severity=Severity.WARNING,
                )
                continue
            got = sorted(site.fields)
            if got != list(expected):
                missing = sorted(set(expected) - set(got))
                extra = sorted(set(got) - set(expected))
                yield self.finding(
                    "T102", site.path, site.line, site.column,
                    f"{site.kind!r} payload drifted from RECORD_SCHEMAS: "
                    f"missing={missing}, unexpected={extra}",
                )


class EventDisciplineChecker(ProjectChecker):
    """E1: sim-owned state mutations must stay on sanctioned paths."""

    family = "E1"
    rules = [
        (
            "E101",
            "sim-layer function mutates sim-owned state but is not "
            "reachable from event callbacks, the step path, or "
            "construction",
        ),
        (
            "E102",
            "sim-owned state (system/microservice/cluster attributes) "
            "mutated from outside the sim layer; route the change through "
            "a sim API instead",
        ),
    ]

    def check(self, index: ProjectIndex, config: LintConfig) -> Iterator[Finding]:
        sim_prefixes = tuple(config.sim_packages)
        if sim_prefixes:
            yield from self._check_reachability(index, config, sim_prefixes)
            yield from self._check_external_writes(index, sim_prefixes)

    @staticmethod
    def _in_packages(module: str, prefixes: Tuple[str, ...]) -> bool:
        return any(
            module == p or module.startswith(p + ".") for p in prefixes
        )

    def _check_reachability(
        self,
        index: ProjectIndex,
        config: LintConfig,
        sim_prefixes: Tuple[str, ...],
    ) -> Iterator[Finding]:
        sim_functions = [
            f for f in index.functions
            if self._in_packages(f.module, sim_prefixes)
        ]
        by_name: Dict[str, List[FunctionInfo]] = defaultdict(list)
        for func in sim_functions:
            by_name[func.name].append(func)

        # Roots: construction, dunders, decorated defs (properties,
        # context managers), configured step entry points, event-loop
        # callbacks, function names referenced as values, names called
        # from module top level, and names called from outside the sim
        # layer (public API surface).
        roots: Set[str] = set(config.step_entrypoints)
        roots.update(index.scheduled_callbacks)
        roots.update(index.value_refs)
        roots.update(index.toplevel_calls)
        for func in sim_functions:
            if func.name.startswith("__") and func.name.endswith("__"):
                roots.add(func.name)
            if func.decorated:
                roots.add(func.name)
        for func in index.functions:
            if not self._in_packages(func.module, sim_prefixes):
                roots.update(func.calls)

        # Name-level closure over the sim-internal call graph.
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

        for func in sorted(sim_functions, key=lambda f: (f.path, f.line)):
            if func.name in reachable or func.name in roots:
                continue
            for write in func.writes:
                yield self.finding(
                    "E101", func.path, write.line, write.column,
                    f"`{func.qualname}` writes `{write.target}` but is not "
                    "reachable from event callbacks, the step path, or "
                    "construction — sim state mutated off the event loop "
                    "breaks run reproducibility",
                )

    def _check_external_writes(
        self, index: ProjectIndex, sim_prefixes: Tuple[str, ...]
    ) -> Iterator[Finding]:
        for func in sorted(index.functions, key=lambda f: (f.path, f.line)):
            if self._in_packages(func.module, sim_prefixes):
                continue
            for write in func.writes:
                # Receiver path only: writing `self.system = ...` binds a
                # reference, writing `x.system.attr = ...` mutates sim
                # state through it.
                receiver = write.target.replace("[]", "").split(".")[:-1]
                if any(seg in SIM_OWNED_SEGMENTS for seg in receiver):
                    yield self.finding(
                        "E102", func.path, write.line, write.column,
                        f"`{func.qualname}` ({func.module}) writes "
                        f"`{write.target}` — sim-owned state must be "
                        "mutated through a sim API (submit, run_window, "
                        "set_allocation, ...), not attribute assignment "
                        "from another layer",
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


class ProcessSafetyChecker(ProjectChecker):
    """P1: callables crossing a process boundary must be self-contained."""

    family = "P1"
    rules = [
        (
            "P101",
            "worker handed to a pool/executor is a lambda, nested "
            "function, or bound method; process pools pickle the callable "
            "— only module-level functions survive the trip",
        ),
        (
            "P102",
            "pool worker reads a module-level mutable global; each worker "
            "process gets a stale copy — pass the state through the task "
            "payload instead",
        ),
        (
            "P103",
            "pool worker uses ambient RNG state or an OS-seeded "
            "generator; derive per-task seeds via derive_cell_seed / "
            "SeedSequence so runs replay identically",
        ),
        (
            "P104",
            "completion-order result combination (as_completed / "
            "imap_unordered) makes output depend on scheduling; use "
            "map/imap or reorder by input index",
        ),
    ]

    def check(self, index: ProjectIndex, config: LintConfig) -> Iterator[Finding]:
        by_name = _functions_by_name(index)
        for site in sorted(
            index.pool_sites, key=lambda s: (s.path, s.line, s.column)
        ):
            yield from self._check_site(site, by_name, index)
        for site in sorted(
            index.unordered_sites, key=lambda s: (s.path, s.line, s.column)
        ):
            where = f" in `{site.function}`" if site.function else ""
            yield self.finding(
                "P104", site.path, site.line, site.column,
                f"`{site.name}`{where} yields results in completion "
                "order — nondeterministic under scheduling jitter; use "
                "map/imap (input order) or index the results and sort",
            )

    def _check_site(self, site, by_name, index) -> Iterator[Finding]:
        if site.worker_form in ("lambda", "other"):
            yield self.finding(
                "P101", site.path, site.line, site.column,
                f"`{site.method}` worker is a "
                f"{'lambda' if site.worker_form == 'lambda' else 'computed expression'}; "
                "process pools pickle workers by qualified name — define "
                "a module-level function",
            )
            return
        if site.worker is None:
            return
        candidates = by_name.get(site.worker, [])
        local = [f for f in candidates if f.module == site.module]
        resolved = local or candidates
        if not resolved:
            return  # defined outside the analysed tree: unknowable
        if all(f.qualname != f.name for f in resolved):
            kind = (
                "bound method" if site.worker_form == "attribute"
                else "nested function"
            )
            yield self.finding(
                "P101", site.path, site.line, site.column,
                f"`{site.method}` worker `{site.worker}` resolves to a "
                f"{kind} ({resolved[0].qualname}); workers must be "
                "module-level functions to pickle cleanly and to keep "
                "their state explicit",
            )
            return
        for func in resolved:
            if func.qualname != func.name:
                continue
            mutable = set(
                index.mutable_globals.get(func.module, ())
            ) & set(func.reads)
            for name in sorted(mutable):
                yield self.finding(
                    "P102", func.path, func.line, func.column,
                    f"pool worker `{func.qualname}` (dispatched at "
                    f"{site.path}:{site.line}) reads module-level mutable "
                    f"global `{name}`; worker processes see a fork-time "
                    "copy — pass it through the task payload",
                )
            ambient = set(
                index.rng_globals.get(func.module, ())
            ) & set(func.reads)
            for name in sorted(ambient):
                yield self.finding(
                    "P103", func.path, func.line, func.column,
                    f"pool worker `{func.qualname}` reads module-level "
                    f"RNG `{name}`; every worker inherits the same "
                    "generator state — derive a per-task seed with "
                    "derive_cell_seed/SeedSequence instead",
                )
            for call in func.rng_calls:
                if call.seeded:
                    continue
                yield self.finding(
                    "P103", func.path, call.line, call.column,
                    f"pool worker `{func.qualname}` constructs "
                    f"`{call.name}()` with no seed (OS entropy); derive "
                    "the seed from the task via "
                    "derive_cell_seed/SeedSequence",
                )


class BatchPairChecker(ProjectChecker):
    """B1: ``@batched_pair`` declarations vs their serial twins."""

    family = "B1"
    rules = [
        (
            "B101",
            "@batched_pair names a serial twin that does not exist in the "
            "same scope (module or class)",
        ),
        (
            "B102",
            "serial/batch parameter lists do not align modulo the leading "
            "batch axis (allowing pluralised array names)",
        ),
        (
            "B103",
            "no test under analysis references the batched side of a "
            "registered pair; add an equivalence test before relying on "
            "the vectorised path",
        ),
    ]

    def check(self, index: ProjectIndex, config: LintConfig) -> Iterator[Finding]:
        functions = {(f.module, f.qualname): f for f in index.functions}
        test_functions = [
            f for f in index.functions if _is_test_path(f.path)
        ]
        for pair in sorted(
            index.batch_pairs, key=lambda b: (b.path, b.line, b.column)
        ):
            if pair.serial_name is None:
                continue  # computed name: unknowable, stays unchecked
            serial_qualname = (
                f"{pair.class_name}.{pair.serial_name}"
                if pair.class_name else pair.serial_name
            )
            serial = functions.get((pair.module, serial_qualname))
            if serial is None:
                scope = pair.class_name or pair.module
                yield self.finding(
                    "B101", pair.path, pair.line, pair.column,
                    f"@batched_pair({pair.serial_name!r}) on "
                    f"`{pair.batch_name}` names no function in `{scope}`; "
                    "the serial twin the equivalence contract rests on "
                    "does not exist",
                )
                continue
            problem = _signature_mismatch(
                serial.params, pair.batch_params
            )
            if problem is not None:
                yield self.finding(
                    "B102", pair.path, pair.line, pair.column,
                    f"`{pair.batch_name}{tuple(pair.batch_params)}` does "
                    f"not align with serial twin "
                    f"`{pair.serial_name}{tuple(serial.params)}`: "
                    f"{problem} — row k of the batch call must mean "
                    "exactly one serial call",
                )
            if test_functions and not any(
                pair.batch_name in f.calls or pair.batch_name in f.reads
                for f in test_functions
            ):
                yield self.finding(
                    "B103", pair.path, pair.line, pair.column,
                    f"no analysed test references `{pair.batch_name}`; "
                    "a registered pair without an equivalence test is an "
                    "unchecked promise",
                )


def _is_test_path(path: str) -> bool:
    parts = path.replace("\\", "/").split("/")
    if any(part in ("tests", "test") for part in parts[:-1]):
        return True
    name = parts[-1]
    return name.startswith("test_") or name.endswith("_test.py")


def _strip_receiver(params: List[str]) -> List[str]:
    if params and params[0] in ("self", "cls"):
        return list(params[1:])
    return list(params)


def _plural_of(serial: str, batch: str) -> bool:
    if serial.endswith("y") and batch == serial[:-1] + "ies":
        return True
    return batch in (serial, serial + "s", serial + "es")


def _signature_mismatch(
    serial_params: List[str], batch_params: List[str]
) -> Optional[str]:
    """None when aligned; otherwise a human-readable reason."""
    serial = _strip_receiver(serial_params)
    batch = _strip_receiver(batch_params)
    if len(batch) == len(serial) + 1:
        batch = batch[1:]  # leading batch-size axis (e.g. ``batch``)
    if len(batch) != len(serial):
        return (
            f"{len(batch)} batch parameter(s) vs {len(serial)} serial "
            "(after dropping self/cls and at most one leading batch axis)"
        )
    for s, b in zip(serial, batch):
        if not _plural_of(s, b):
            return f"batch parameter `{b}` does not match serial `{s}`"
    return None


def all_project_checkers() -> List[ProjectChecker]:
    """Fresh instances of every cross-module checker, report order."""
    return [
        RngProvenanceChecker(),
        TelemetryConformanceChecker(),
        EventDisciplineChecker(),
        LayeringChecker(),
        NumericDisciplineChecker(),
        ProcessSafetyChecker(),
        BatchPairChecker(),
    ]


def project_rule_rows() -> List[Tuple[str, str, str]]:
    """(rule id, family, description) rows for the rule reference."""
    rows: List[Tuple[str, str, str]] = []
    for checker in all_project_checkers():
        for rule_id, description in checker.rules:
            rows.append((rule_id, checker.family, description))
    return rows
