"""Command-line front end for reprolint.

::

    python -m repro.analysis                      # lint src/repro
    python -m repro.analysis src/repro/sim        # lint specific targets
    python -m repro.analysis --format json        # machine-readable output
    python -m repro.analysis tests --baseline b.json --update-baseline
                                                  # accept current findings
    python -m repro.analysis --list-rules         # rule reference

Paths are reported relative to the working directory, so run from the
repository root.  Exit codes: 0 = clean, 1 = findings reported, 2 =
usage error.  Also mounted as the ``repro lint`` subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.baseline import Baseline
from repro.analysis.engine import AnalysisResult, run_analysis
from repro.analysis.rules import all_rule_ids, rule_table

__all__ = ["main", "build_parser"]

#: What a bare run lints, relative to the working directory.
DEFAULT_PATHS = ["src/repro"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "reprolint: static determinism / simulation-invariant checks "
            "for the MIRAS reproduction"
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to analyse (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="baseline file waiving known findings (default: none)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write current findings to the --baseline file and exit 0",
    )
    parser.add_argument(
        "--disable", default=None,
        help="comma-separated rule ids to disable for this run",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule reference and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule, family, description in rule_table():
            print(f"{rule}  [{family}]  {description}")
        return 0

    disable: List[str] = []
    if args.disable:
        disable = [r.strip() for r in args.disable.split(",") if r.strip()]
        known = set(all_rule_ids())
        unknown = [r for r in disable if r not in known]
        if unknown:
            print(
                f"error: unknown rule id(s): {', '.join(unknown)}",
                file=sys.stderr,
            )
            return 2

    paths = [Path(p) for p in (args.paths or DEFAULT_PATHS)]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            "error: no such path(s): "
            + ", ".join(str(p) for p in missing),
            file=sys.stderr,
        )
        return 2

    baseline_path = Path(args.baseline) if args.baseline else None
    if args.update_baseline:
        if baseline_path is None:
            print("error: --update-baseline needs --baseline", file=sys.stderr)
            return 2
        result = run_analysis(paths, disable=disable)
        Baseline.from_findings(result.findings).save(baseline_path)
        print(
            f"baseline updated: {len(result.findings)} finding(s) "
            f"recorded in {baseline_path}"
        )
        return 0

    baseline = (
        Baseline.load(baseline_path) if baseline_path else Baseline.empty()
    )
    result = run_analysis(paths, baseline=baseline, disable=disable)

    if args.format == "json":
        print(json.dumps(_to_json(result), indent=2))
    else:
        _print_text(result)
    return result.exit_code


def _print_text(result: AnalysisResult) -> None:
    for finding in result.findings:
        print(finding.format_text())
    for path, rule, unused in result.stale_baseline:
        print(
            f"{path}: stale baseline entry: {unused} waived {rule} "
            "finding(s) no longer fire; run --update-baseline to ratchet "
            "the allowance down"
        )
    summary = (
        f"reprolint: {len(result.findings)} finding(s) in "
        f"{result.checked_files} file(s)"
    )
    extras = []
    if result.suppressed:
        extras.append(f"{len(result.suppressed)} suppressed inline")
    if result.baselined:
        extras.append(f"{len(result.baselined)} waived by baseline")
    if result.stale_baseline:
        extras.append(f"{len(result.stale_baseline)} stale baseline entries")
    if extras:
        summary += f" ({', '.join(extras)})"
    print(summary)


def _to_json(result: AnalysisResult) -> dict:
    """Machine-readable report.

    Every finding carries its rule ``family`` and a ``status``
    (``reported`` / ``suppressed`` / ``baselined``) so downstream tooling
    (the baseline ratchet, rule-traffic counts) never re-parses text
    output.
    """

    def annotate(findings, status):
        entries = []
        for finding in findings:
            entry = finding.to_dict()
            entry["status"] = status
            entries.append(entry)
        return entries

    return {
        "version": 2,
        "findings": annotate(result.findings, "reported"),
        "suppressed": annotate(result.suppressed, "suppressed"),
        "baselined": annotate(result.baselined, "baselined"),
        "stale_baseline": [
            {"path": path, "rule": rule, "unused": unused}
            for path, rule, unused in result.stale_baseline
        ],
        "checked_files": result.checked_files,
        "exit_code": result.exit_code,
    }


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
