"""The project index: one whole-tree pass that cross-module rules consume.

Per-file rules (the D/S/A families in :mod:`repro.analysis.rules`) see one
AST at a time.  The three project-level families need facts that span
modules:

- **imports** — which project module imports which, and whether the
  import happens at module scope or lazily inside a function (L1, and
  N103's "called from another module"),
- **fork sites** — every ``<rng>.fork(label)`` call with its resolved
  constant label, receiver, enclosing function, and loop context (R1),
- **functions** — per definition: name-level call edges, explicit dtype
  mentions, in-loop scalar accumulations, float-constant locals, and
  in-place mutations of parameters (N1).

Everything in the index is plain data (str/int/bool containers) and is
rebuilt from the parsed modules on every run.

The extraction is deliberately *approximate where Python is dynamic*:
f-string fork labels index as ``label=None`` and ``getattr``-style access
contributes nothing.  Rules treat None as "unknown — stay silent", never
as an error, so dynamic code degrades gracefully (see
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
)

__all__ = [
    "ForkSite",
    "ImportEdge",
    "FunctionInfo",
    "ParamMutation",
    "AccumSite",
    "DtypeMention",
    "ProjectIndex",
    "build_index",
]

#: Literal float-dtype tokens the N1 family tracks.
DTYPE_TOKENS = frozenset({"float16", "float32", "float64", "float128"})

#: numpy wrappers that return (a view of) their argument unchanged when it
#: is already an ndarray — rebinding through them preserves aliasing.
ALIAS_PRESERVING_CALLS = frozenset({
    "asarray", "asanyarray", "ascontiguousarray",
    "atleast_1d", "atleast_2d", "atleast_3d",
})


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
class FunctionInfo:
    """One function or method definition."""

    path: str
    line: int
    module: str
    #: ``Class.method`` within the module; plain name for free functions.
    qualname: str
    name: str
    #: Simple names this function calls (last dotted segment).
    calls: List[str] = field(default_factory=list)
    dtype_mentions: List[DtypeMention] = field(default_factory=list)
    accum_loops: List[AccumSite] = field(default_factory=list)
    #: Sorted local names ever assigned a float constant (``total = 0.0``).
    float_names: List[str] = field(default_factory=list)
    param_mutations: List[ParamMutation] = field(default_factory=list)
    #: Sorted parameters rebound to a fresh object (alias broken) before
    #: any analysis question matters; excluded from mutation findings.
    rebound_params: List[str] = field(default_factory=list)


@dataclass
class ProjectIndex:
    """Whole-project facts, all plain data."""

    imports: List[ImportEdge] = field(default_factory=list)
    fork_sites: List[ForkSite] = field(default_factory=list)
    functions: List[FunctionInfo] = field(default_factory=list)


def build_index(project: Project) -> ProjectIndex:
    """Extract the whole-project index from parsed modules."""
    index = ProjectIndex()
    for module in project.modules:
        _extract_imports(module, index)
        _ModuleVisitor(module, index).visit(module.tree)
    return index


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


# Fork sites and per-function facts ----------------------------------------

class _ModuleVisitor(ast.NodeVisitor):
    """Single pass over one module collecting fork sites and the
    per-function facts, tracking scope, loop depth, and default-arg context."""

    def __init__(self, module: ModuleInfo, index: ProjectIndex):
        self.module = module
        self.index = index
        self.scope: List[str] = []          # class/function name stack
        self.function_stack: List[FunctionInfo] = []
        #: Per-function scratch sets: the positional ``params``, and
        #: ``floats`` / ``rebound`` finalised into FunctionInfo on exit.
        self._fn_aux: List[Dict[str, Set[str]]] = []
        self.loop_depth = 0
        self.in_default = 0

    # Scope tracking -------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def _visit_function(self, node) -> None:
        info = FunctionInfo(
            path=self.module.display_path,
            line=node.lineno,
            module=self.module.module,
            qualname=".".join(self.scope + [node.name]),
            name=node.name,
        )
        self.index.functions.append(info)
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
        self.function_stack.append(info)
        self._fn_aux.append({
            "params": {
                a.arg for a in node.args.posonlyargs + node.args.args
            },
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
        info.float_names = sorted(aux["floats"])
        info.rebound_params = sorted(aux["rebound"])
        self.function_stack.pop()
        self.scope.pop()

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

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_name_binding(target, node)
            self._note_param_subscript(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.function_stack:
            info = self.function_stack[-1]
            target = node.target
            if isinstance(target, ast.Name):
                if self.loop_depth > 0 and isinstance(
                    node.op, (ast.Add, ast.Sub, ast.Mult)
                ):
                    info.accum_loops.append(AccumSite(
                        line=node.lineno,
                        column=node.col_offset + 1,
                        name=target.id,
                    ))
                if target.id in self._fn_aux[-1]["params"]:
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
        aux = self._fn_aux[-1]
        if isinstance(node.value, ast.Constant) and isinstance(
            node.value.value, float
        ):
            aux["floats"].add(target.id)
        if target.id in aux["params"] and not _alias_preserving_rebind(
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
            and target.value.id in self._fn_aux[-1]["params"]
        ):
            info.param_mutations.append(ParamMutation(
                line=node.lineno,
                column=node.col_offset + 1,
                param=target.value.id,
                kind="subscript",
            ))

    # Calls ----------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        simple = _simple_call_name(node.func)
        if simple is not None:
            if self.function_stack:
                self.function_stack[-1].calls.append(simple)
            if simple == "fork":
                self._record_fork(node)
        self._record_call_mutations(node, simple)
        self.generic_visit(node)

    def _record_call_mutations(
        self, node: ast.Call, simple: Optional[str]
    ) -> None:
        """``np.copyto(param, ...)`` and ``out=param`` parameter writes."""
        if not self.function_stack:
            return
        info = self.function_stack[-1]
        params = self._fn_aux[-1]["params"]
        if (
            simple == "copyto"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in params
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
                and kw.value.id in params
            ):
                info.param_mutations.append(ParamMutation(
                    line=kw.value.lineno,
                    column=kw.value.col_offset + 1,
                    param=kw.value.id,
                    kind="out",
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

    def visit_Name(self, node: ast.Name) -> None:
        if (
            self.function_stack
            and isinstance(node.ctx, ast.Load)
            and node.id in DTYPE_TOKENS
        ):
            self._record_dtype(node, node.id)

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
