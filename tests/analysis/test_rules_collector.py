"""Process-safety coverage for the distributed-collector dispatch shape.

The collector ships episode specs into a process pool and gets
transition blocks back (``repro.rl.distributed``).  These fixtures pin
the endorsed payload shape — a module-level worker fed plain dicts of
scalars, strings, and arrays — as P-clean, and pin the tempting
shortcuts (a lambda worker, a completion-order merge) as findings.  The
real engine module itself must stay clean too.
"""

import textwrap

from repro.analysis.config import LintConfig
from repro.analysis.engine import run_analysis
from tests.analysis.conftest import repo_root, rules_of

PROCESS_RULES = {"P101", "P102", "P103", "P104"}


def src(code):
    return textwrap.dedent(code).lstrip("\n")


class TestCollectorPayloadShape:
    def test_plain_spec_dict_dispatch_is_clean(self, lint):
        # The endorsed transition-block shape: the worker receives one
        # plain dict (factory string, seeds, policy weights) and builds
        # its own env and RNG inside the child.
        findings = lint(src("""
            def run_collect_episode(spec):
                return {"episode": spec["episode"], "steps": spec["steps"]}

            def collect(pool, specs):
                return list(pool.map(run_collect_episode, specs))
        """))
        assert rules_of(findings).isdisjoint(PROCESS_RULES)

    def test_lambda_episode_worker_is_flagged(self, lint):
        findings = lint(src("""
            def collect(pool, specs):
                return list(pool.map(lambda s: s["episode"], specs))
        """))
        assert "P101" in rules_of(findings)

    def test_completion_order_merge_is_flagged(self, lint):
        # Merging blocks in completion order would let scheduling leak
        # into the replay buffer; the channel requires episode order.
        findings = lint(src("""
            from concurrent.futures import as_completed

            def run_collect_episode(spec):
                return spec

            def collect(pool, specs):
                futures = [
                    pool.submit(run_collect_episode, s) for s in specs
                ]
                merged = []
                for future in as_completed(futures):
                    merged.append(future.result())
                return merged
        """))
        assert "P104" in rules_of(findings)


class TestRealCollectorModuleIsClean:
    def test_distributed_engine_has_zero_process_findings(self):
        root = repo_root()
        target = root / "src" / "repro" / "rl" / "distributed.py"
        findings = run_analysis(
            [target], config=LintConfig(root=root / "src")
        ).findings
        flagged = rules_of(findings) & PROCESS_RULES
        assert not flagged, findings
