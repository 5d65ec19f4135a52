"""Every run is a pure function of its seed (docs/ARCHITECTURE.md,
"Determinism contract"): AST only, one file at a time.

Six rules hold over ``src/repro``: no ambient randomness (D101), no
wall-clock read (D102), no ``RngStream`` built from a literal
``SeedSequence`` seed (D201), no ``==`` / ``!=`` against a float literal
(S101), no mutable default argument (S102) and no ``assert`` (S103).
``tests/``, ``benchmarks/`` and ``examples/`` time themselves, pin exact
numbers and assert by design, so only D101 and S102 -- the two that
could still make a run there flaky -- hold over them.  A finding the
library keeps on purpose is a ``WAIVED`` row ``(path, rule)`` with its
reason, one per finding.  Two-sided: a finding without a row fails, and
so does a row no finding matches any more.  Names are resolved through
the file's own imports (``import numpy as np``, ``from time import
time``), so a local variable called ``time`` is not a clock.
"""

import ast
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
#: Trees held to ``WIDE_RULES`` only.
OTHER_TREES = ("tests", "benchmarks", "examples")
WIDE_RULES = frozenset({"D101", "S102"})

#: What each rule asks for instead.
RULES = {
    "D101": "draw from an RngStream forked from the experiment seed",
    "D102": "simulated time is the event loop's clock (loop.now)",
    "D201": "pass a stream forked from the experiment seed",
    "S101": "compare floats with repro.utils.validation.isclose_zero or math.isclose",
    "S102": "default to None and build the value inside the function",
    "S103": "python -O strips asserts; raise through repro.utils.validation",
}

#: ``(path under src/repro, rule)`` -> why the library keeps that finding.
WAIVED = {
    ("telemetry/manifest.py", "D102"):
        "the manifest's wall_time says when a run happened; no trace "
        "record carries it",
    ("telemetry/profile.py", "D102"):
        "the phase profiler measures the machine; profile.json is outside "
        "the contract",
}

#: numpy.random names that build a seeded generator instead of drawing
#: from numpy's global state.
_SEEDED = {"SeedSequence", "default_rng", "Generator", "BitGenerator", "PCG64",
           "PCG64DXSM", "Philox", "SFC64", "MT19937"}
_CLOCKS = {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
           "perf_counter_ns"}
_DATE_CLOCKS = {"now", "utcnow", "today"}
_MUTABLE = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def dotted(node):
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def _imports(tree):
    """Local name -> the module or ``module.symbol`` it was imported as."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _literal_seed(call):
    """``SeedSequence(<int literal>)`` among a call's arguments."""
    for arg in [*call.args, *(kw.value for kw in call.keywords)]:
        if (isinstance(arg, ast.Call)
                and (dotted(arg.func) or "").split(".")[-1] == "SeedSequence"):
            seeds = [*arg.args, *(kw.value for kw in arg.keywords)]
            if any(isinstance(s, ast.Constant) and type(s.value) is int for s in seeds):
                return True
    return False


def findings(tree):
    """``(rule, line)`` per violation in one parsed module."""
    imported = _imports(tree)

    def named(*targets):
        return {local for local, target in imported.items() if target in targets}

    numpy, np_random, time_module = named("numpy"), named("numpy.random"), named("time")
    dates = named("datetime", "datetime.datetime", "datetime.date")
    clocks = named(*(f"time.{clock}" for clock in _CLOCKS))
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Import):
            found += [("D101", line) for alias in node.names
                      if alias.name.split(".")[0] == "random"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "random":
                found.append(("D101", line))
            elif node.module == "numpy.random":
                found += [("D101", line) for alias in node.names
                          if alias.name not in _SEEDED]
        elif isinstance(node, ast.Attribute):
            parts = (dotted(node) or "").split(".")
            if ((len(parts) == 3 and parts[0] in numpy and parts[1] == "random")
                    or (len(parts) == 2 and parts[0] in np_random)) and (
                    parts[-1] not in _SEEDED):
                found.append(("D101", line))
        elif isinstance(node, ast.Call):
            parts = (dotted(node.func) or "").split(".")
            if ((len(parts) == 1 and parts[0] in clocks)
                    or (len(parts) == 2 and parts[0] in time_module and parts[1] in _CLOCKS)
                    or (len(parts) >= 2 and parts[0] in dates and parts[-1] in _DATE_CLOCKS)):
                found.append(("D102", line))
            if parts[-1] == "RngStream" and _literal_seed(node):
                found.append(("D201", line))
        elif isinstance(node, ast.Compare):
            if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and any(
                    isinstance(o, ast.Constant) and isinstance(o.value, float)
                    for o in [node.left, *node.comparators]):
                found.append(("S101", line))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for default in [*node.args.defaults, *node.args.kw_defaults]:
                if isinstance(default, _MUTABLE) or (
                        isinstance(default, ast.Call) and isinstance(default.func, ast.Name)
                        and default.func.id in ("list", "dict", "set")):
                    found.append(("S102", default.lineno))
        elif isinstance(node, ast.Assert):
            found.append(("S103", line))
    return found


@lru_cache(maxsize=None)
def scan(root, rules=frozenset(RULES)):
    """``(path relative to root, rule, line)`` per finding under ``root``."""
    return sorted(
        (path.relative_to(root).as_posix(), rule, line)
        for path in sorted(root.rglob("*.py"))
        for rule, line in findings(ast.parse(path.read_text(encoding="utf-8")))
        if rule in rules)


def test_src_repro_has_no_unwaived_finding():
    found = scan(SRC)
    extra = Counter((path, rule) for path, rule, _ in found) - Counter(WAIVED.keys())
    unwaived = [f"{path}:{line}: {rule}: {RULES[rule]}"
                for path, rule, line in found if (path, rule) in extra]
    assert unwaived == [], "src/repro breaks the determinism contract:\n  " + (
        "\n  ".join(unwaived))


def test_every_waived_row_still_matches():
    assert len(list(SRC.rglob("*.py"))) > 50
    stale = Counter(WAIVED.keys()) - Counter((path, rule) for path, rule, _ in scan(SRC))
    assert sorted(stale) == [], f"WAIVED rows no finding matches -- delete them: {sorted(stale)}"


@pytest.mark.parametrize("tree", OTHER_TREES)
def test_other_trees_keep_the_wide_rules(tree):
    found = [f"{tree}/{path}:{line}: {rule}: {RULES[rule]}"
             for path, rule, line in scan(REPO / tree, WIDE_RULES)]
    assert found == []


# (snippet, the rules it breaks): one row per behaviour of a rule.
CASES = {
    "D101-flags_stdlib_random_import": ("import random\nx = random.random()", {"D101"}),
    "D101-flags_from_random_import": ("from random import choice\nx = choice([1, 2])", {"D101"}),
    "D101-flags_global_numpy_distribution": (
        "import numpy as np\nx = np.random.normal(0.0, 1.0)", {"D101"}),
    "D101-flags_numpy_random_seed": ("import numpy as np\nnp.random.seed(42)", {"D101"}),
    "D101-flags_from_numpy_random_distribution": (
        "from numpy.random import uniform\nx = uniform()", {"D101"}),
    "D101-allows_seed_sequence_and_default_rng": (
        "import numpy as np\nss = np.random.SeedSequence(7)\ngen = np.random.default_rng(ss)",
        set()),
    "D101-allows_rngstream_draws": (
        "import numpy as np\nfrom repro.utils.rng import RngStream\n"
        "def draw(rng):\n    return rng.normal(0.0, 1.0)", set()),
    # ``config.random_fraction`` is not numpy state.
    "D101-allows_unrelated_attribute_named_random": (
        "def pick(config):\n    return config.random_fraction", set()),
    "D102-flags_time_time": ("import time\nstart = time.time()", {"D102"}),
    "D102-flags_perf_counter": ("import time\nt0 = time.perf_counter()", {"D102"}),
    "D102-flags_from_time_import_time": ("from time import time\nstart = time()", {"D102"}),
    "D102-flags_datetime_now": (
        "from datetime import datetime\nstamp = datetime.now()", {"D102"}),
    "D102-flags_datetime_module_now": (
        "import datetime\nstamp = datetime.datetime.now()", {"D102"}),
    "D102-allows_time_sleep_and_simulated_clock": (
        "import time\ndef wait(loop):\n    time.sleep(0.0)\n    return loop.now", set()),
    # A parameter that shadows the name ``time`` is not a clock.
    "D102-allows_local_time_variable": ("def fmt(time):\n    return time.time()", set()),
    "D201-flags_literal_seed_sequence": (
        "import numpy as np\nfrom repro.utils.rng import RngStream\n"
        "rng = RngStream('dense', np.random.SeedSequence(0))", {"D201"}),
    "D201-flags_bare_seed_sequence_name": (
        "from numpy.random import SeedSequence\nfrom repro.utils.rng import RngStream\n"
        "rng = RngStream('x', SeedSequence(1234))", {"D201"}),
    "D201-flags_keyword_form": (
        "import numpy as np\nfrom repro.utils.rng import RngStream\n"
        "rng = RngStream('x', seed_sequence=np.random.SeedSequence(entropy=3))", {"D201"}),
    "D201-allows_variable_seed": (
        "import numpy as np\nfrom repro.utils.rng import RngStream\n"
        "def make(seed):\n    return RngStream('x', np.random.SeedSequence(seed))", set()),
    "D201-allows_forked_stream": ("def child(parent):\n    return parent.fork('layer0')", set()),
    "S101-flags_equality_with_float_literal": (
        "def degenerate(cv):\n    return cv == 0.0", {"S101"}),
    "S101-flags_inequality_with_float_literal": ("def moved(x):\n    return x != 1.5", {"S101"}),
    "S101-flags_literal_on_left": ("def check(total):\n    return 0.0 == total", {"S101"}),
    "S101-allows_integer_equality": ("def empty(n):\n    return n == 0", set()),
    "S101-allows_float_ordering": ("def positive(x):\n    return x > 0.0", set()),
    "S101-allows_isclose_zero": (
        "from repro.utils.validation import isclose_zero\n"
        "def degenerate(cv):\n    return isclose_zero(cv)", set()),
    "S102-flags_list_default": ("def collect(items=[]):\n    return items", {"S102"}),
    "S102-flags_dict_default": ("def configure(options={}):\n    return options", {"S102"}),
    "S102-flags_dict_call_default": (
        "def configure(options=dict()):\n    return options", {"S102"}),
    "S102-flags_keyword_only_default": ("def collect(*, items=[]):\n    return items", {"S102"}),
    "S102-allows_none_default": (
        "def collect(items=None):\n    return list(items or [])", set()),
    "S102-allows_immutable_defaults": (
        "def scale(factor=1.0, mode='drain', dims=(1, 2)):\n    return factor, mode, dims",
        set()),
    "S103-flags_assert_statement": (
        "def allocate(total, budget):\n    assert total <= budget, 'over budget'\n"
        "    return total", {"S103"}),
    "S103-flags_bare_invariant_assert": (
        "def finish(consumer):\n    assert consumer.current_tag is not None", {"S103"}),
    "S103-allows_explicit_raise": (
        "def allocate(total, budget):\n    if total > budget:\n"
        "        raise ValueError('over budget')\n    return total", set()),
    "S103-allows_require_helper": (
        "from repro.utils.validation import require\n"
        "def finish(consumer):\n    require(consumer.current_tag is not None, 'no tag')", set()),
}


@pytest.mark.parametrize("case", CASES)
def test_rule(case):
    snippet, expected = CASES[case]
    assert {rule for rule, _ in findings(ast.parse(snippet))} == expected
