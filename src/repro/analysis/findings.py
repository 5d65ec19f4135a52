"""Finding and severity types shared by every reprolint rule."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["Severity", "Finding"]


def _family_of(rule: str) -> str:
    """Family implied by a rule id: ``D101`` -> ``D1``, ``P001`` -> ``P``.

    ``P001`` (parse failure) keeps its historic one-letter family.
    """
    if rule == "P001":
        return "P"
    return rule[:2]


class Severity(enum.Enum):
    """How bad a finding is, as displayed; every rule today is an error."""

    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific location.

    Orders by (path, line, column, rule) so reports are stable across runs
    regardless of checker execution order.
    """

    path: str
    line: int
    column: int
    rule: str = field(compare=True)
    severity: Severity = field(compare=False)
    message: str = field(compare=False)
    #: Rule family prefix (``D1``, ``S1``, ...; ``P`` for parse failures).
    #: Not part of identity — the rule id already implies it.
    family: str = field(default="", compare=False)

    def format_text(self) -> str:
        """One-line ``path:line:col: RULE severity: message`` rendering."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.rule} {self.severity}: {self.message}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (used by ``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule,
            "family": self.family or _family_of(self.rule),
            "severity": str(self.severity),
            "message": self.message,
        }
