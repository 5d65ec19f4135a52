"""reprolint: static determinism & simulation-invariant analysis.

MIRAS's claims rest on reproducible rollouts: the environment model is
trained on simulated transitions, so ambient nondeterminism (global RNG,
wall-clock reads, silently defaulted seeds) corrupts model-accuracy and
comparison results without failing a single test.  This package walks the
``src/repro`` tree with :mod:`ast` and rejects that defect class
statically, before it costs a training run.

Rule families, each checked one file at a time (see ``docs/LINTING.md``
for the full reference):

- **D1** — ambient nondeterminism (D101 stdlib/global-numpy randomness,
  D102 wall-clock reads),
- **D2** — silent seed fallbacks (D201 literal ``SeedSequence`` seeds),
- **S1** — simulation-invariant hygiene (S101 float equality, S102
  mutable defaults, S103 assert-as-validation),
- **U1** — stale inline suppressions (U101); P001 marks a file that
  does not parse.

:mod:`repro.analysis.sanitizer` checks what only the running program
shows: activated via ``REPRO_SANITIZE=1`` (or
:func:`~repro.analysis.sanitizer.sanitized`), it asserts fork-label
uniqueness per parent stream and record-schema validity against
``RECORD_SCHEMAS``.

Run the static pass with ``python -m repro.analysis`` or ``repro lint``.
Findings can be suppressed inline with ``# reprolint: disable=RULE`` or
ratcheted via a baseline file (stale entries fail the run).
"""

from repro.analysis.baseline import Baseline
from repro.analysis.engine import AnalysisResult, run_analysis
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import Checker, all_checkers, all_rule_ids

__all__ = [
    "AnalysisResult",
    "Baseline",
    "Checker",
    "Finding",
    "Severity",
    "all_checkers",
    "all_rule_ids",
    "run_analysis",
]
