"""Parsed-module model: the unit of analysis reprolint rules operate on.

Every checker sees one :class:`ModuleInfo` at a time; no rule looks
across files.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: Shape of a real rule id (``D102``, ``S101``); anything else in a
#: disable comment is treated as prose, not a waiver.
_RULE_ID_RE = re.compile(r"[A-Z]+[0-9]{3}")

__all__ = [
    "ModuleInfo",
    "discover_files",
    "display_path",
    "dotted_name",
    "parse_module",
]


@dataclass
class ModuleInfo:
    """One parsed source file."""

    #: Path as reported in findings (see :func:`display_path`).
    display_path: str
    source: str
    tree: ast.Module
    #: 1-based line -> set of rule ids suppressed on that line ("all"
    #: suppresses every rule).
    suppressions: Dict[int, frozenset] = field(default_factory=dict)

    def lines(self) -> List[str]:
        return self.source.splitlines()


def discover_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[Path] = []
    for path in paths:
        if path.is_dir():
            found.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            found.append(path)
    # De-duplicate while preserving order (a file given twice, or both a
    # directory and a file inside it).
    seen = set()
    unique = []
    for path in found:
        key = path.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def display_path(path: Path) -> str:
    """``path`` relative to the working directory when it lies below it.

    Reports and baselines key findings by this string, so a lint run and
    its ``--update-baseline`` must start in the same directory.
    """
    try:
        return str(path.resolve().relative_to(Path.cwd().resolve()))
    except ValueError:
        return str(path)


def parse_module(
    path: Path,
) -> Tuple[Optional[ModuleInfo], Optional[SyntaxError]]:
    """Parse one file; returns ``(module, None)`` or ``(None, error)``."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, exc
    info = ModuleInfo(
        display_path=display_path(path),
        source=source,
        tree=tree,
        suppressions=_scan_suppressions(source),
    )
    return info, None


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _scan_suppressions(source: str) -> Dict[int, frozenset]:
    """Find ``# reprolint: disable=R1,R2`` comments, keyed by line."""
    result: Dict[int, frozenset] = {}
    marker = "reprolint:"
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "#" not in line or marker not in line:
            continue
        comment = line[line.index("#"):]
        idx = comment.find(marker)
        if idx < 0:
            continue
        directive = comment[idx + len(marker):].strip()
        if not directive.startswith("disable="):
            continue
        rules = directive[len("disable="):].split()[0]
        # Only rule-id-shaped tokens (``D102``, ``S101``) or the ``all``
        # wildcard count: prose that merely *mentions* ``disable=R1,R2``
        # (docstrings, this very function) must not register waivers —
        # they would instantly go stale under U101.
        ids = frozenset(
            r.strip() for r in rules.split(",")
            if r.strip() == "all" or _RULE_ID_RE.fullmatch(r.strip())
        )
        if ids:
            result[lineno] = ids
    return result
