"""The reprolint engine: discover, parse, check, suppress, baseline.

:func:`run_analysis` is the single entry point used by both the module CLI
(``python -m repro.analysis``) and the ``repro lint`` subcommand; tests
call it directly with synthetic trees.

Every rule (the D1, D2 and S1 families) sees one parsed module at a
time.  Findings are sorted before they are reported, so checker
execution order never shows in a report.

After suppression filtering the engine replays every inline
``# reprolint: disable`` comment against the *raw* finding set: a
comment that waives nothing real anymore is reported as U101, the
inline twin of the stale-baseline failure.  U101 findings are exempt
from inline suppression (a stale ``disable=all`` must not hide its own
staleness) but honour ``--disable`` and the baseline like any other
rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import (
    ModuleInfo,
    discover_files,
    display_path,
    parse_module,
)
from repro.analysis.rules import all_checkers

__all__ = ["AnalysisResult", "run_analysis"]


@dataclass
class AnalysisResult:
    """Everything one lint run produced."""

    #: Findings to report (already suppression- and baseline-filtered).
    findings: List[Finding] = field(default_factory=list)
    #: Findings waived by inline ``# reprolint: disable=`` comments.
    suppressed: List[Finding] = field(default_factory=list)
    #: Findings waived by the baseline file.
    baselined: List[Finding] = field(default_factory=list)
    #: Baseline allowances that no longer match any finding, as
    #: ``(path, rule, unused_count)``.  Stale entries fail the run: a
    #: ratchet that waives fixed violations can hide regressions.
    stale_baseline: List[Tuple[str, str, int]] = field(default_factory=list)
    checked_files: int = 0

    @property
    def exit_code(self) -> int:
        """0 when clean; 1 when findings or stale baseline entries exist."""
        return 1 if self.findings or self.stale_baseline else 0


def _syntax_finding(path: Path, error: SyntaxError) -> Finding:
    return Finding(
        path=display_path(path),
        line=error.lineno or 1,
        column=(error.offset or 0) or 1,
        rule="P001",
        severity=Severity.ERROR,
        message=f"syntax error: {error.msg}",
        family="P",
    )


def run_analysis(
    paths: Sequence[Path],
    baseline: Optional[Baseline] = None,
    disable: Collection[str] = (),
) -> AnalysisResult:
    """Analyse ``paths`` (files or directories) and return the result.

    Findings of the rule ids in ``disable`` are dropped.  Paths are
    reported relative to the working directory.
    """
    baseline = baseline or Baseline.empty()
    disabled = set(disable)

    result = AnalysisResult()
    modules: List[ModuleInfo] = []
    raw: List[Finding] = []

    for path in discover_files([Path(p) for p in paths]):
        result.checked_files += 1
        module, error = parse_module(path)
        if error is not None:
            raw.append(_syntax_finding(path, error))
            continue
        modules.append(module)

    for checker in all_checkers():
        for module in modules:
            raw.extend(checker.check(module))

    by_path = {module.display_path: module for module in modules}
    filtered: List[Finding] = []
    for finding in raw:
        if finding.rule in disabled:
            continue
        module = by_path.get(finding.path)
        if module is not None and _is_suppressed(module, finding):
            result.suppressed.append(finding)
        else:
            filtered.append(finding)

    # U101 is matched against the raw set: a suppression stays live as
    # long as its finding *would* fire, even while globally disabled.
    for finding in _stale_suppressions(modules, raw):
        if finding.rule not in disabled:
            filtered.append(finding)

    reported, waived = baseline.apply(filtered)
    result.findings = sorted(reported)
    result.baselined = waived
    result.stale_baseline = baseline.stale_entries(filtered)
    result.suppressed.sort()
    return result


def _stale_suppressions(
    modules: Sequence[ModuleInfo], raw: Sequence[Finding]
) -> List[Finding]:
    """U101: inline disable comments that waive nothing anymore."""
    fired: Dict[Tuple[str, int], Set[str]] = {}
    for finding in raw:
        fired.setdefault((finding.path, finding.line), set()).add(
            finding.rule
        )
    findings: List[Finding] = []
    for module in modules:
        lines = module.lines()
        for lineno, ids in sorted(module.suppressions.items()):
            rules_here = fired.get((module.display_path, lineno), set())
            line_text = lines[lineno - 1] if lineno <= len(lines) else ""
            column = line_text.find("#") + 1 if "#" in line_text else 1
            for rule_id in sorted(ids):
                if rule_id == "all":
                    stale = not rules_here
                    detail = "no finding of any rule"
                else:
                    stale = rule_id not in rules_here
                    detail = f"no {rule_id} finding"
                if not stale:
                    continue
                findings.append(Finding(
                    path=module.display_path,
                    line=lineno,
                    column=column,
                    rule="U101",
                    severity=Severity.ERROR,
                    message=(
                        f"stale suppression: {detail} fires on this "
                        "line anymore; drop the comment — like a stale "
                        "baseline entry, a dead waiver can hide the "
                        "next real regression"
                    ),
                    family="U1",
                ))
    return findings


def _is_suppressed(module: ModuleInfo, finding: Finding) -> bool:
    ids = module.suppressions.get(finding.line)
    if ids is None:
        return False
    return finding.rule in ids or "all" in ids
