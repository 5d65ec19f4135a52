"""The project index: one whole-tree pass that cross-module rules consume.

Per-file rules (the D/S/A families in :mod:`repro.analysis.rules`) see one
AST at a time.  The four project-level families need facts that span
modules:

- **symbols** — top-level names per module (the symbol table),
- **imports** — which project module imports which, and whether the
  import happens at module scope or lazily inside a function,
- **fork sites** — every ``<rng>.fork(label)`` call with its resolved
  constant label, receiver, enclosing function, and loop context (R1),
- **emit sites** — every ``<tracer>.emit(kind, field=...)`` call with its
  resolved constant kind and keyword field set (T1),
- **schema registry** — the ``RECORD_SCHEMAS`` mapping parsed out of the
  telemetry records module, so instrumentation is checked against the
  registry *as written* without importing runtime code (T1),
- **call graph** — name-level call edges, attribute writes, scheduled
  event callbacks, and value-referenced functions, from which the E1
  event-discipline family computes reachability,
- **vector-safety facts** — per-function parameter lists, name reads,
  explicit dtype mentions, in-loop scalar accumulations, and in-place
  mutations of parameters (N1/B1), plus per-module mutable/RNG global
  tables, process-pool dispatch sites and order-nondeterministic
  result-combination sites (P1), and ``@batched_pair`` declarations (B1).

Everything in the index is plain data (str/int/bool containers) and is
rebuilt from the parsed modules on every run.

The extraction is deliberately *approximate where Python is dynamic*:
f-string fork labels index as ``label=None``, ``getattr``-style access
contributes nothing, and unresolvable registry entries mark their kind as
unchecked.  Rules treat None as "unknown — stay silent", never as an
error, so dynamic code degrades gracefully (see
``tests/analysis/test_index.py``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.project import (
    ModuleInfo,
    Project,
    dotted_name,
    receiver_key,
    top_level_bindings,
)

__all__ = [
    "ForkSite",
    "EmitSite",
    "ImportEdge",
    "FunctionInfo",
    "AttributeWrite",
    "ParamMutation",
    "AccumSite",
    "DtypeMention",
    "RngCall",
    "PoolSite",
    "UnorderedSite",
    "BatchPairSite",
    "ProjectIndex",
    "build_index",
]

#: Receiver path segments that mark state as sim-owned for the E1 family.
SIM_OWNED_SEGMENTS = ("system", "microservice", "microservices", "cluster")

#: Literal float-dtype tokens the N1 family tracks.
DTYPE_TOKENS = frozenset({"float16", "float32", "float64", "float128"})

#: Pool/executor dispatch methods whose first argument is the worker.
POOL_DISPATCH_METHODS = frozenset({
    "map", "submit", "imap", "imap_unordered", "apply_async", "starmap",
})

#: numpy wrappers that return (a view of) their argument unchanged when it
#: is already an ndarray — rebinding through them preserves aliasing.
ALIAS_PRESERVING_CALLS = frozenset({
    "asarray", "asanyarray", "ascontiguousarray",
    "atleast_1d", "atleast_2d", "atleast_3d",
})

#: Call targets whose result is module-level RNG state when bound at top
#: level (``_RNG = np.random.default_rng()``).
RNG_FACTORY_NAMES = frozenset({
    "default_rng", "RandomState", "Generator", "SeedSequence",
    "RngStream", "Random",
})

#: Generator constructors whose *argument-less* form seeds from the OS —
#: nondeterministic by construction (P103 raw material).
RNG_CONSTRUCTOR_NAMES = frozenset({"default_rng", "RandomState", "Random"})


@dataclass
class ForkSite:
    """One ``<receiver>.fork(<label>)`` call site."""

    path: str
    line: int
    column: int
    module: str
    #: Normalised receiver (``rng``, ``self._rngs["collect"]``); None when
    #: the receiver is too dynamic to key.
    receiver: Optional[str]
    #: Constant string label; None for f-strings / computed labels.
    label: Optional[str]
    #: Qualified enclosing scope (``Class.method``); "" at module level.
    function: str
    #: True when the call sits inside a for/while loop body.
    in_loop: bool
    #: True when the call appears inside a default-argument expression.
    in_default: bool


@dataclass
class EmitSite:
    """One ``<receiver>.emit(kind, field=..., ...)`` call site."""

    path: str
    line: int
    column: int
    module: str
    receiver: Optional[str]
    #: Constant record kind; None when the kind is computed.
    kind: Optional[str]
    #: Keyword payload field names, in call order.
    fields: List[str]
    #: True when the call uses ``**kwargs`` or positional payload args, in
    #: which case the field set is unknowable statically.
    dynamic_fields: bool


@dataclass
class ImportEdge:
    """One project-internal import."""

    path: str
    line: int
    column: int
    importer: str
    imported: str
    #: False for imports nested inside a function (sanctioned lazy imports).
    toplevel: bool


@dataclass
class AttributeWrite:
    """One assignment/augassign/del targeting an attribute chain."""

    line: int
    column: int
    #: Dotted target; subscripted chains get a ``[]`` suffix on the base
    #: (``self._window_arrivals[]``).
    target: str


@dataclass
class ParamMutation:
    """One in-place write to a function parameter (N103 raw material)."""

    line: int
    column: int
    param: str
    #: ``augassign`` (``x += ...``), ``subscript`` (``x[...] = ...`` or
    #: ``x[...] += ...``), ``out`` (``out=x`` keyword), ``copyto``
    #: (``np.copyto(x, ...)``).
    kind: str


@dataclass
class AccumSite:
    """One in-loop ``name += ...`` accumulation on a plain local name."""

    line: int
    column: int
    name: str


@dataclass
class DtypeMention:
    """One literal float-dtype token (``np.float32``, ``"float64"``)."""

    line: int
    column: int
    name: str


@dataclass
class RngCall:
    """One RNG constructor call (``default_rng``, ``RandomState``, ...)."""

    line: int
    column: int
    name: str
    #: False when called with no arguments at all — OS-entropy seeded.
    seeded: bool


@dataclass
class PoolSite:
    """One pool/executor dispatch (``pool.map(fn, ...)``) or
    ``Process(target=fn)`` construction."""

    path: str
    line: int
    column: int
    module: str
    #: Dispatch method: ``map``, ``submit``, ..., or ``Process``.
    method: str
    receiver: Optional[str]
    #: Simple name of the worker callable; None when unresolvable.
    worker: Optional[str]
    #: ``name`` | ``attribute`` | ``lambda`` | ``other`` | ``missing``.
    worker_form: str
    #: Qualified enclosing scope; "" at module level.
    function: str


@dataclass
class UnorderedSite:
    """One completion-order iteration site (``as_completed``,
    ``imap_unordered``) — results arrive in nondeterministic order."""

    path: str
    line: int
    column: int
    module: str
    name: str
    function: str


@dataclass
class BatchPairSite:
    """One ``@batched_pair("serial")`` declaration, read from source."""

    path: str
    line: int
    column: int
    module: str
    #: Directly enclosing class; "" for free functions.
    class_name: str
    batch_name: str
    #: Declared serial twin's simple name; None for a non-constant
    #: argument (left unchecked).
    serial_name: Optional[str]
    #: Positional parameter names of the batch function, in order.
    batch_params: List[str] = field(default_factory=list)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    path: str
    line: int
    column: int
    module: str
    #: ``Class.method`` within the module; plain name for free functions.
    qualname: str
    name: str
    #: Simple names this function calls (last dotted segment).
    calls: List[str] = field(default_factory=list)
    writes: List[AttributeWrite] = field(default_factory=list)
    decorated: bool = False
    #: Positional parameter names, in order (posonly + regular).
    params: List[str] = field(default_factory=list)
    #: Sorted plain names this function reads (Name loads).
    reads: List[str] = field(default_factory=list)
    dtype_mentions: List[DtypeMention] = field(default_factory=list)
    accum_loops: List[AccumSite] = field(default_factory=list)
    #: Sorted local names ever assigned a float constant (``total = 0.0``).
    float_names: List[str] = field(default_factory=list)
    param_mutations: List[ParamMutation] = field(default_factory=list)
    #: Sorted parameters rebound to a fresh object (alias broken) before
    #: any analysis question matters; excluded from mutation findings.
    rebound_params: List[str] = field(default_factory=list)
    rng_calls: List[RngCall] = field(default_factory=list)


@dataclass
class ProjectIndex:
    """Whole-project facts, all plain data."""

    #: module dotted name -> sorted top-level symbol names.
    symbols: Dict[str, List[str]] = field(default_factory=dict)
    imports: List[ImportEdge] = field(default_factory=list)
    fork_sites: List[ForkSite] = field(default_factory=list)
    emit_sites: List[EmitSite] = field(default_factory=list)
    #: record kind -> sorted payload fields; None when the registry entry
    #: could not be resolved statically (kind is then left unchecked).
    schemas: Dict[str, Optional[List[str]]] = field(default_factory=dict)
    #: Module that defines the schema registry, "" when none was found
    #: (T1 checks disable themselves in that case).
    schema_module: str = ""
    functions: List[FunctionInfo] = field(default_factory=list)
    #: Simple names of callables scheduled on the event loop.
    scheduled_callbacks: List[str] = field(default_factory=list)
    #: Simple names referenced as values (callbacks stored, passed, ...).
    value_refs: List[str] = field(default_factory=list)
    #: Simple names called from module top-level code.
    toplevel_calls: List[str] = field(default_factory=list)
    pool_sites: List[PoolSite] = field(default_factory=list)
    unordered_sites: List[UnorderedSite] = field(default_factory=list)
    batch_pairs: List[BatchPairSite] = field(default_factory=list)
    #: module -> sorted top-level names bound to mutable literals
    #: (list/dict/set), excluding ALL_CAPS constant registries.
    mutable_globals: Dict[str, List[str]] = field(default_factory=dict)
    #: module -> sorted top-level names bound to RNG factory calls.
    rng_globals: Dict[str, List[str]] = field(default_factory=dict)


def build_index(project: Project) -> ProjectIndex:
    """Extract the whole-project index from parsed modules."""
    index = ProjectIndex()
    scheduled: Set[str] = set()
    value_refs: Set[str] = set()
    toplevel_calls: Set[str] = set()
    for module in project.modules:
        if module.module:
            index.symbols[module.module] = sorted(
                top_level_bindings(module.tree)
            )
        _extract_imports(module, index)
        visitor = _ModuleVisitor(module, index, scheduled, value_refs,
                                 toplevel_calls)
        visitor.visit(module.tree)
        _extract_schema_registry(module, index)
        _extract_global_tables(module, index)
    index.scheduled_callbacks = sorted(scheduled)
    index.value_refs = sorted(value_refs)
    index.toplevel_calls = sorted(toplevel_calls)
    return index


def _extract_global_tables(module: ModuleInfo, index: ProjectIndex) -> None:
    """Record module-level mutable literals and RNG factory bindings."""
    if not module.module:
        return
    mutable: Set[str] = set()
    rng: Set[str] = set()
    for node in module.tree.body:
        targets: List[str] = []
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            targets = [node.target.id]
            value = node.value
        if not targets or value is None:
            continue
        if _is_mutable_literal(value):
            # ALL_CAPS registries and dunders (__all__) are constants by
            # convention; a lowercase mutable global is the hazard.
            mutable.update(
                t for t in targets
                if t.upper() != t and not t.startswith("__")
            )
        if _is_rng_factory(value):
            rng.update(targets)
    if mutable:
        index.mutable_globals[module.module] = sorted(mutable)
    if rng:
        index.rng_globals[module.module] = sorted(rng)


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        if callee is not None and callee.split(".")[-1] in (
            "list", "dict", "set", "defaultdict", "deque", "Counter",
            "OrderedDict",
        ):
            return True
    return False


def _is_rng_factory(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    callee = dotted_name(node.func)
    return (
        callee is not None
        and callee.split(".")[-1] in RNG_FACTORY_NAMES
    )


# Imports ------------------------------------------------------------------

def _extract_imports(module: ModuleInfo, index: ProjectIndex) -> None:
    for node, nested in _walk_with_nesting(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                index.imports.append(ImportEdge(
                    path=module.display_path,
                    line=node.lineno,
                    column=node.col_offset + 1,
                    importer=module.module,
                    imported=alias.name,
                    toplevel=not nested,
                ))
        elif isinstance(node, ast.ImportFrom):
            target = _absolute_import_target(module, node)
            if not target:
                continue
            index.imports.append(ImportEdge(
                path=module.display_path,
                line=node.lineno,
                column=node.col_offset + 1,
                importer=module.module,
                imported=target,
                toplevel=not nested,
            ))


def _walk_with_nesting(tree: ast.Module):
    """Yield ``(node, inside_function)`` over the whole tree."""
    stack = [(tree, False)]
    while stack:
        node, nested = stack.pop()
        yield node, nested
        child_nested = nested or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        for child in ast.iter_child_nodes(node):
            stack.append((child, child_nested))


def _absolute_import_target(module: ModuleInfo, node: ast.ImportFrom) -> str:
    """Absolute dotted module an ImportFrom pulls from."""
    if node.level == 0:
        return node.module or ""
    package_parts = module.module.split(".") if module.module else []
    if not module.is_package_init and package_parts:
        package_parts = package_parts[:-1]
    up = node.level - 1
    if up:
        package_parts = package_parts[: max(0, len(package_parts) - up)]
    if node.module:
        package_parts = package_parts + node.module.split(".")
    return ".".join(package_parts)


# Schema registry ----------------------------------------------------------

def _extract_schema_registry(module: ModuleInfo, index: ProjectIndex) -> None:
    """Parse a top-level ``RECORD_SCHEMAS = {...}`` mapping, if present."""
    for node in module.tree.body:
        target_names = []
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            target_names = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            target_names = [node.target.id]
            value = node.value
        if "RECORD_SCHEMAS" not in target_names or not isinstance(
            value, ast.Dict
        ):
            continue
        schemas: Dict[str, Optional[List[str]]] = {}
        for key, val in zip(value.keys, value.values):
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                continue  # computed kind: unindexable, skip gracefully
            schemas[key.value] = _resolve_field_set(val)
        if schemas:
            index.schemas = schemas
            index.schema_module = module.module
        return


def _resolve_field_set(node: ast.AST) -> Optional[List[str]]:
    """Constant string elements of ``frozenset({...})`` / set / list / tuple."""
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        if callee is None or callee.split(".")[-1] not in (
            "frozenset", "set", "tuple", "list",
        ):
            return None
        if len(node.args) != 1 or node.keywords:
            return None
        node = node.args[0]
    if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        fields: List[str] = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                fields.append(elt.value)
            else:
                return None
        return sorted(fields)
    return None


# Call sites, call graph, writes -------------------------------------------

class _ModuleVisitor(ast.NodeVisitor):
    """Single pass over one module collecting fork/emit sites and the
    call-graph facts, tracking scope, loop depth, and default-arg context."""

    def __init__(
        self,
        module: ModuleInfo,
        index: ProjectIndex,
        scheduled: Set[str],
        value_refs: Set[str],
        toplevel_calls: Set[str],
    ):
        self.module = module
        self.index = index
        self.scheduled = scheduled
        self.value_refs = value_refs
        self.toplevel_calls = toplevel_calls
        self.scope: List[str] = []          # class/function name stack
        self.scope_kinds: List[str] = []    # "class" / "func", parallel
        self.function_stack: List[FunctionInfo] = []
        #: Per-function scratch sets finalised into FunctionInfo on exit.
        self._fn_aux: List[Dict[str, Set[str]]] = []
        self.loop_depth = 0
        self.in_default = 0

    # Scope tracking -------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.append(node.name)
        self.scope_kinds.append("class")
        self.generic_visit(node)
        self.scope_kinds.pop()
        self.scope.pop()

    def _visit_function(self, node) -> None:
        qualname = ".".join(self.scope + [node.name])
        params = [
            a.arg for a in node.args.posonlyargs + node.args.args
        ]
        info = FunctionInfo(
            path=self.module.display_path,
            line=node.lineno,
            column=node.col_offset + 1,
            module=self.module.module,
            qualname=qualname,
            name=node.name,
            decorated=bool(node.decorator_list),
            params=params,
        )
        self.index.functions.append(info)
        self._record_batch_pair(node, params)
        # Defaults evaluate in the *enclosing* scope, at def time.
        self.in_default += 1
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            self.visit(default)
        self.in_default -= 1
        for decorator in node.decorator_list:
            self.visit(decorator)
        self.scope.append(node.name)
        self.scope_kinds.append("func")
        self.function_stack.append(info)
        self._fn_aux.append({
            "reads": set(), "stores": set(),
            "floats": set(), "rebound": set(),
        })
        outer_loop_depth, self.loop_depth = self.loop_depth, 0
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body = body[1:]  # docstrings are not dtype mentions
        for stmt in body:
            self.visit(stmt)
        self.loop_depth = outer_loop_depth
        aux = self._fn_aux.pop()
        info.reads = sorted(
            aux["reads"] - aux["stores"] - set(info.params)
        )
        info.float_names = sorted(aux["floats"])
        info.rebound_params = sorted(aux["rebound"])
        self.function_stack.pop()
        self.scope_kinds.pop()
        self.scope.pop()

    def _record_batch_pair(self, node, params: List[str]) -> None:
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            if _simple_call_name(decorator.func) != "batched_pair":
                continue
            serial: Optional[str] = None
            if decorator.args:
                first = decorator.args[0]
                if isinstance(first, ast.Constant) and isinstance(
                    first.value, str
                ):
                    serial = first.value
            class_name = (
                self.scope[-1]
                if self.scope_kinds and self.scope_kinds[-1] == "class"
                else ""
            )
            self.index.batch_pairs.append(BatchPairSite(
                path=self.module.display_path,
                line=decorator.lineno,
                column=decorator.col_offset + 1,
                module=self.module.module,
                class_name=class_name,
                batch_name=node.name,
                serial_name=serial,
                batch_params=list(params),
            ))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # Loops ----------------------------------------------------------------
    def _visit_loop(self, node) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    # Writes ---------------------------------------------------------------
    def _record_write(self, target: ast.AST, node: ast.AST) -> None:
        if self.function_stack:
            desc = _write_target(target)
            if desc is not None:
                self.function_stack[-1].writes.append(AttributeWrite(
                    line=getattr(node, "lineno", 1),
                    column=getattr(node, "col_offset", 0) + 1,
                    target=desc,
                ))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_write(target, node)
            self._note_name_binding(target, node)
            self._note_param_subscript(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_write(node.target, node)
        if self.function_stack:
            info = self.function_stack[-1]
            target = node.target
            if isinstance(target, ast.Name):
                self._fn_aux[-1]["stores"].add(target.id)
                if self.loop_depth > 0 and isinstance(
                    node.op, (ast.Add, ast.Sub, ast.Mult)
                ):
                    info.accum_loops.append(AccumSite(
                        line=node.lineno,
                        column=node.col_offset + 1,
                        name=target.id,
                    ))
                if target.id in info.params:
                    info.param_mutations.append(ParamMutation(
                        line=node.lineno,
                        column=node.col_offset + 1,
                        param=target.id,
                        kind="augassign",
                    ))
            else:
                self._note_param_subscript(target, node)
        self.generic_visit(node)

    def _note_name_binding(self, target: ast.AST, node: ast.Assign) -> None:
        """Track float-constant locals and alias-breaking param rebinds."""
        if not self.function_stack or not isinstance(target, ast.Name):
            return
        info = self.function_stack[-1]
        aux = self._fn_aux[-1]
        if isinstance(node.value, ast.Constant) and isinstance(
            node.value.value, float
        ):
            aux["floats"].add(target.id)
        if target.id in info.params and not _alias_preserving_rebind(
            node.value, target.id
        ):
            aux["rebound"].add(target.id)

    def _note_param_subscript(self, target: ast.AST, node: ast.AST) -> None:
        """``param[...] = ...`` / ``param[...] += ...`` slice-assignment."""
        if not self.function_stack:
            return
        info = self.function_stack[-1]
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and target.value.id in info.params
        ):
            info.param_mutations.append(ParamMutation(
                line=node.lineno,
                column=node.col_offset + 1,
                param=target.value.id,
                kind="subscript",
            ))

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_write(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_write(target, node)
        self.generic_visit(node)

    # Calls and value references -------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        simple = _simple_call_name(node.func)
        if simple is not None:
            if self.function_stack:
                self.function_stack[-1].calls.append(simple)
            else:
                self.toplevel_calls.add(simple)
            if simple in ("schedule", "schedule_at"):
                self._record_scheduled(node)
            elif simple == "fork":
                self._record_fork(node)
            elif simple == "emit":
                self._record_emit(node)
        self._record_call_mutations(node, simple)
        self._record_pool_or_unordered(node, simple)
        # Function references passed as arguments are callback roots.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            self._record_value_ref(arg)
        self.generic_visit(node)

    def _record_call_mutations(
        self, node: ast.Call, simple: Optional[str]
    ) -> None:
        """``np.copyto(param, ...)`` and ``out=param`` parameter writes."""
        if not self.function_stack:
            return
        info = self.function_stack[-1]
        if (
            simple == "copyto"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in info.params
        ):
            info.param_mutations.append(ParamMutation(
                line=node.lineno,
                column=node.col_offset + 1,
                param=node.args[0].id,
                kind="copyto",
            ))
        for kw in node.keywords:
            if (
                kw.arg == "out"
                and isinstance(kw.value, ast.Name)
                and kw.value.id in info.params
            ):
                info.param_mutations.append(ParamMutation(
                    line=kw.value.lineno,
                    column=kw.value.col_offset + 1,
                    param=kw.value.id,
                    kind="out",
                ))
        if simple in RNG_CONSTRUCTOR_NAMES:
            info.rng_calls.append(RngCall(
                line=node.lineno,
                column=node.col_offset + 1,
                name=simple,
                seeded=bool(node.args or node.keywords),
            ))
        # String dtype tokens count as mentions only in dtype-bearing
        # positions (``dtype="float32"``, ``astype("float32")``): a bare
        # "float64" in a comparison or table is a *check*, not a
        # provenance source.
        for kw in node.keywords:
            if (
                kw.arg == "dtype"
                and isinstance(kw.value, ast.Constant)
                and isinstance(kw.value.value, str)
                and kw.value.value in DTYPE_TOKENS
            ):
                self._record_dtype(kw.value, kw.value.value)
        if (
            simple == "astype"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value in DTYPE_TOKENS
        ):
            self._record_dtype(node.args[0], node.args[0].value)

    def _record_pool_or_unordered(
        self, node: ast.Call, simple: Optional[str]
    ) -> None:
        function = (
            self.function_stack[-1].qualname if self.function_stack else ""
        )
        if simple in ("as_completed", "imap_unordered"):
            self.index.unordered_sites.append(UnorderedSite(
                path=self.module.display_path,
                line=node.lineno,
                column=node.col_offset + 1,
                module=self.module.module,
                name=simple,
                function=function,
            ))
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in POOL_DISPATCH_METHODS
        ):
            receiver = receiver_key(node.func.value)
            low = (receiver or "").lower()
            if "pool" in low or "executor" in low:
                worker, form = _worker_descriptor(
                    node.args[0] if node.args else None
                )
                self.index.pool_sites.append(PoolSite(
                    path=self.module.display_path,
                    line=node.lineno,
                    column=node.col_offset + 1,
                    module=self.module.module,
                    method=node.func.attr,
                    receiver=receiver,
                    worker=worker,
                    worker_form=form,
                    function=function,
                ))
        elif simple == "Process":
            target = next(
                (kw.value for kw in node.keywords if kw.arg == "target"),
                None,
            )
            if target is None:
                return
            worker, form = _worker_descriptor(target)
            self.index.pool_sites.append(PoolSite(
                path=self.module.display_path,
                line=node.lineno,
                column=node.col_offset + 1,
                module=self.module.module,
                method="Process",
                receiver=None,
                worker=worker,
                worker_form=form,
                function=function,
            ))

    def visit_Name(self, node: ast.Name) -> None:
        if self.function_stack:
            aux = self._fn_aux[-1]
            if isinstance(node.ctx, ast.Load):
                aux["reads"].add(node.id)
                if node.id in DTYPE_TOKENS:
                    self._record_dtype(node, node.id)
            else:
                aux["stores"].add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in DTYPE_TOKENS and self.function_stack:
            self._record_dtype(node, node.attr)
        self.generic_visit(node)

    def _record_dtype(self, node: ast.AST, name: str) -> None:
        self.function_stack[-1].dtype_mentions.append(DtypeMention(
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            name=name,
        ))

    def _record_value_ref(self, node: ast.AST) -> None:
        if isinstance(node, ast.Attribute):
            self.value_refs.add(node.attr)
        elif isinstance(node, ast.Name):
            self.value_refs.add(node.id)

    def _record_scheduled(self, node: ast.Call) -> None:
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Lambda):
                for sub in ast.walk(arg.body):
                    if isinstance(sub, ast.Call):
                        name = _simple_call_name(sub.func)
                        if name is not None:
                            self.scheduled.add(name)
            elif isinstance(arg, ast.Attribute):
                self.scheduled.add(arg.attr)
            elif isinstance(arg, ast.Name):
                self.scheduled.add(arg.id)

    def _record_fork(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        label: Optional[str] = None
        if node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                label = first.value
        self.index.fork_sites.append(ForkSite(
            path=self.module.display_path,
            line=node.lineno,
            column=node.col_offset + 1,
            module=self.module.module,
            receiver=receiver_key(node.func.value),
            label=label,
            function=(
                self.function_stack[-1].qualname
                if self.function_stack else ""
            ),
            in_loop=self.loop_depth > 0,
            in_default=self.in_default > 0,
        ))

    def _record_emit(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        kind: Optional[str] = None
        if node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                kind = first.value
        fields = [kw.arg for kw in node.keywords if kw.arg is not None]
        dynamic = (
            any(kw.arg is None for kw in node.keywords)  # **kwargs
            or len(node.args) > 1                        # positional payload
        )
        self.index.emit_sites.append(EmitSite(
            path=self.module.display_path,
            line=node.lineno,
            column=node.col_offset + 1,
            module=self.module.module,
            receiver=receiver_key(node.func.value),
            kind=kind,
            fields=fields,
            dynamic_fields=dynamic,
        ))


def _simple_call_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _alias_preserving_rebind(value: ast.AST, name: str) -> bool:
    """True for ``x = np.asarray(x, ...)``-style rebinds that may keep
    ``x`` aliasing the caller's array (mutation findings stay live)."""
    if not isinstance(value, ast.Call):
        return False
    callee = dotted_name(value.func)
    if callee is None or callee.split(".")[-1] not in ALIAS_PRESERVING_CALLS:
        return False
    return bool(
        value.args
        and isinstance(value.args[0], ast.Name)
        and value.args[0].id == name
    )


def _worker_descriptor(node: Optional[ast.AST]):
    """``(simple name, form)`` for a callable handed to a pool."""
    if node is None:
        return None, "missing"
    if isinstance(node, ast.Name):
        return node.id, "name"
    if isinstance(node, ast.Attribute):
        return node.attr, "attribute"
    if isinstance(node, ast.Lambda):
        return None, "lambda"
    return None, "other"


def _write_target(target: ast.AST) -> Optional[str]:
    """Dotted description of an attribute-chain write target, else None."""
    suffix = ""
    if isinstance(target, ast.Subscript):
        suffix = "[]"
        target = target.value
    if not isinstance(target, ast.Attribute):
        return None
    dotted = dotted_name(target)
    if dotted is None:
        return None
    return dotted + suffix
