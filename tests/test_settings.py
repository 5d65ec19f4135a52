"""Every setting is one somebody sets (ROADMAP, design aim): AST only.

Two guards, one lenient rule set.  A field of the five config
dataclasses is set by keyword (``replace`` too) or override-dict key in
``src/repro`` or ``benchmarks/`` (``x=cfg.x`` only forwards); a keyword
passed to a config class's own constructor sets that class's field only.
A defaulted parameter of a function or method in ``src/repro`` (dunders
other than ``__init__`` exempt) is passed by a call to its name — a
class name for ``__init__`` — by keyword or by covering its position, by
a keyword to a call of a name ``src/repro`` does not define (forwarders:
``run_once``, ``partial``, ``EXPERIMENTS[...]``), or by a string dict
key or subscript store.  Anything else is a ``LEVERS`` row naming the
test that sets it, to reach a mechanism that stays: ``Class.field`` for
a field, ``name(param)`` for a parameter.  A row whose setting gained a
customer or is gone fails.  Lenient by name, not flaky."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CONFIGS = {"core/config.py": ("MirasConfig", "ModelConfig", "PolicyConfig"),
           "rl/ddpg.py": ("DDPGConfig",), "sim/system.py": ("SystemConfig",)}
# Set only by the test named, each to reach a mechanism that stays.
LEVERS = {
    "PolicyConfig.collect_lanes": "core/test_agent_distributed.py::test_collect_lanes_is_the_interleave_width",
    "DDPGConfig.actor_learning_rate": "rl/test_ddpg.py::test_learning_on_synthetic_bandit",
    "DDPGConfig.buffer_capacity": "rl/test_update_equivalence.py::test_weights_byte_equal_to_reference",
    "DDPGConfig.perturb_interval": "rl/test_serial_policy_oracle.py::test_act_at_k1_matches_the_serial_agent",
    "DDPGConfig.reward_scale": "rl/test_ddpg.py::test_entropy_bonus_pulls_toward_uniform",
    "SystemConfig.startup_delay_range": "sim/test_system.py::test_single_request_traverses_full_dag",
    # The item-4 generators: fault injection, MMPP arrivals, random DAGs.
    "ChaosInjector(consumer_crash_rate)": "sim/test_faults.py::test_crashes_do_not_lose_requests",
    "ModulatedPoissonArrivalProcess(mean_phase_duration)": "workload/test_arrivals.py::test_phases_produce_different_volumes",
    "random_ensemble(mean_service_range)": "workflows/test_generator_properties.py::test_service_times_within_requested_range",
    "random_workflow(edge_probability)": "workflows/test_generator_properties.py::test_zero_edge_probability_yields_chain_links",
    # Small buffers, so a short test reaches the growth and refill paths.
    "IndexFifo(capacity)": "sim/test_substrate_primitives.py::test_wraparound_growth",
    "RequestPool(capacity)": "sim/test_substrate_primitives.py::test_add_tasks_matches_serial",
    "PrefetchStream(block)": "sim/test_substrate_primitives.py::test_interleaved_kinds_resync",
}


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _string_keys(node):
    keys = (node.keys if isinstance(node, ast.Dict) else [node.slice]
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) else [])
    return {k.value for k in keys if isinstance(k, ast.Constant) and isinstance(k.value, str)}


def chosen(trees, classes):
    """``{"Class.field", ...}`` set in ``trees``, for ``{class: fields}``."""
    def named(name, owners):
        return {f"{c}.{name}" for c in owners if name in classes[c]}

    out = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            callee = _callee(node)
            owners = [callee] if callee in classes else list(classes)
            for kw in node.keywords:
                if kw.arg and not (
                        isinstance(kw.value, ast.Attribute) and kw.value.attr == kw.arg):
                    out |= named(kw.arg, owners)
        for key in _string_keys(node):
            out |= named(key, classes)
    return out


def fields(classes):
    return {c.name: {n.target.id for n in c.body if isinstance(n, ast.AnnAssign)}
            for c in classes}


def unset(classes, trees, levers):
    declared = fields(classes)
    idle = {f"{c}.{n}" for c, names in declared.items() for n in names} - chosen(trees, declared)
    return sorted(idle - set(levers)), sorted(set(levers) - idle)


def defaulted(trees):
    """``{"name(param)": (name, param, position)}`` for every defaulted
    parameter of a module-level function or a method: ``name`` is what a
    call uses (the class for ``__init__``), ``position`` counts past
    ``self`` and is ``None`` for keyword-only parameters."""
    out = {}
    for tree in trees:
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
            for fn in scope.body:
                if not isinstance(fn, ast.FunctionDef) or (
                        fn.name.startswith("__") and fn.name.endswith("__") and fn.name != "__init__"):
                    continue
                name = scope.name if fn.name == "__init__" else fn.name
                args = fn.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    out[f"{name}({arg.arg})"] = (name, arg.arg, i - (scope is not tree))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out[f"{name}({arg.arg})"] = (name, arg.arg, None)
    return out


def unpassed(params, trees, defined):
    """The keys of ``params`` (see :func:`defaulted`) no call, forwarder or
    string key in ``trees`` passes; ``defined`` names what ``src/repro``
    defines."""
    keywords, widest, forwarded = {}, {}, set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            callee = _callee(node)
            names = {kw.arg for kw in node.keywords if kw.arg}
            keywords.setdefault(callee, set()).update(names)
            width = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            widest[callee] = max(widest.get(callee, 0), width)
            if callee not in defined:
                forwarded |= names
        forwarded |= _string_keys(node)
    return {key for key, (name, param, position) in params.items()
            if param not in forwarded and param not in keywords.get(name, ())
            and (position is None or widest.get(name, 0) <= position)}


def _defined(src_trees):
    return {n.name for tree in src_trees for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))}


def idle_params(src_trees, caller_trees, levers):
    idle = unpassed(defaulted(src_trees), caller_trees, _defined(src_trees))
    rows = {key for key in levers if "(" in key}
    return sorted(idle - rows), sorted(rows - idle)


def _trees():
    src = [ast.parse(p.read_text()) for p in (REPO / "src/repro").rglob("*.py")]
    return src, src + [ast.parse(p.read_text()) for p in (REPO / "benchmarks").rglob("*.py")]


def test_every_field_is_set_somewhere():
    src = REPO / "src/repro"
    classes = [node for path, names in CONFIGS.items() for node in ast.parse((src / path).read_text()).body
               if isinstance(node, ast.ClassDef) and node.name in names]
    levers = {key: target for key, target in LEVERS.items() if "(" not in key}
    assert unset(classes, _trees()[1], levers) == ([], [])
    declared = fields(classes)
    for qual, (path, _, name) in ((q, t.partition("::")) for q, t in levers.items()):
        tree = ast.parse((REPO / "tests" / path).read_text())
        assert name in {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}, name
        assert qual in chosen([tree], declared), name


def test_every_parameter_is_passed_somewhere():
    src_trees, caller_trees = _trees()
    assert idle_params(src_trees, caller_trees, LEVERS) == ([], [])
    params, defined = defaulted(src_trees), _defined(src_trees)
    for key, (path, _, name) in ((k, t.partition("::")) for k, t in LEVERS.items() if "(" in k):
        tree = ast.parse((REPO / "tests" / path).read_text())
        test = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name]
        assert test, name
        # The named test itself passes the parameter.
        assert not unpassed({key: params[key]}, test, defined), name


def test_the_guard_fires():
    tree = ast.parse("class SystemConfig:\n    knob: int = 1\n    used: int = 2\nSystemConfig(used=3, knob=cfg.knob)")
    assert unset([tree.body[0]], [tree], {}) == (["SystemConfig.knob"], [])
    assert unset([tree.body[0]], [tree], {"SystemConfig.used": ""}) == (["SystemConfig.knob"], ["SystemConfig.used"])
    # A keyword counts for the class the call constructs.
    tree = ast.parse("class SystemConfig:\n    knob: int = 1\nclass ModelConfig:\n    knob: int = 1\n"
                     "ModelConfig(knob=2)")
    assert unset(tree.body[:2], [tree], {}) == (["SystemConfig.knob"], [])
    assert unset(tree.body[:2], [ast.parse("replace(cfg, knob=4)")], {}) == ([], [])


def test_the_parameter_guard_fires():
    src = ast.parse(
        "def f(a, b=1, *, c=2): pass\n"
        "class Box:\n"
        "    def __init__(self, size=3, fill=0): pass\n"
        "    def grow(self, by=2): pass\n"
        "    def __eq__(self, other=None): pass\n")
    # Nothing passes anything: every defaulted parameter but the dunder's.
    assert idle_params([src], [], {}) == (
        ["Box(fill)", "Box(size)", "f(b)", "f(c)", "grow(by)"], [])
    callers = ast.parse("f(0, 5)\nBox(4)\nx.grow(by=1)\nrun_once(c=3)\nd['fill'] = 0")
    assert idle_params([src], [callers], {}) == ([], [])
    # A position counts past self; a row whose parameter is passed is stale.
    assert idle_params([src], [ast.parse("Box(4)")], {"Box(size)": "", "f(b)": ""}) == (
        ["Box(fill)", "f(c)", "grow(by)"], ["Box(size)"])
    # A keyword to a function defined in src counts for that function only.
    assert idle_params([src], [ast.parse("f(0, fill=1)")], {}) == (
        ["Box(fill)", "Box(size)", "f(b)", "f(c)", "grow(by)"], [])
