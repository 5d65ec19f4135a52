"""reprolint: static determinism & simulation-invariant analysis.

MIRAS's claims rest on reproducible rollouts: the environment model is
trained on simulated transitions, so ambient nondeterminism (global RNG,
wall-clock reads, silently defaulted seeds) corrupts model-accuracy and
comparison results without failing a single test.  This package walks the
``src/repro`` tree with :mod:`ast` and rejects that defect class
statically, before it costs a training run.

Per-file rule families (see ``docs/LINTING.md`` for the full reference):

- **D1** — ambient nondeterminism (D101 stdlib/global-numpy randomness,
  D102 wall-clock reads),
- **D2** — silent seed fallbacks (D201 literal ``SeedSequence`` seeds),
- **S1** — simulation-invariant hygiene (S101 float equality, S102
  mutable defaults, S103 assert-as-validation),
- **A1** — public-API consistency in package ``__init__`` files (A101
  broken exports, A102 missing docstrings, A103 ``__all__`` mismatches).

Cross-module families, consuming the whole-tree
:class:`~repro.analysis.index.ProjectIndex`:

- **R1** — RNG fork-label provenance (R101 duplicate labels on one
  parent stream, R102 constant labels in loops, R103 forks in default
  arguments),
- **L1** — the import DAG of docs/ARCHITECTURE.md at module scope
  (L101),
- **N1** — numeric discipline (N101 mixed float32/float64 provenance,
  N102 scalar accumulation loops on the hot path, N103 in-place
  mutation of escaping array parameters).

:mod:`repro.analysis.sanitizer` is the runtime twin of R1 and the only
check of emitted records against ``RECORD_SCHEMAS``: activated via
``REPRO_SANITIZE=1`` (or :func:`~repro.analysis.sanitizer.sanitized`),
it asserts fork-label uniqueness and record-schema validity on the
running program.

Run the static pass with ``python -m repro.analysis`` or ``repro lint``.
Findings can be suppressed inline with ``# reprolint: disable=RULE`` or
ratcheted via a baseline file (stale entries fail the run);
configuration lives in ``[tool.reprolint]`` in pyproject.toml.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.config import LintConfig, load_config
from repro.analysis.crossrules import ProjectChecker, all_project_checkers
from repro.analysis.engine import AnalysisResult, run_analysis
from repro.analysis.findings import Finding, Severity
from repro.analysis.index import ProjectIndex, build_index
from repro.analysis.rules import Checker, all_checkers, all_rule_ids

__all__ = [
    "AnalysisResult",
    "Baseline",
    "Checker",
    "Finding",
    "LintConfig",
    "ProjectChecker",
    "ProjectIndex",
    "Severity",
    "all_checkers",
    "all_project_checkers",
    "all_rule_ids",
    "build_index",
    "load_config",
    "run_analysis",
]
