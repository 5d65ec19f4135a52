"""Every setting is one somebody sets (ROADMAP, design aim): AST only.

Two guards over one list of setters, each resolved to the one callee it
reaches; a name that another callee shares sets nothing.  A field of
the five config dataclasses is set by a keyword to its own class or to
``replace`` (``x=cfg.x`` only forwards), or by a key of a ``FEEDS`` dict
that feeds its class.  A defaulted parameter of a function or method in
``src/repro`` (dunders other than ``__init__`` exempt) is passed by a
call to its name — a class name for ``__init__``, ``cls`` inside the
class — by keyword or by covering its position; by a forwarder, a call
of a name ``src/repro`` does not define that passes the function itself
and then its arguments (``run_once(benchmark, fn, *args, **kwargs)``,
``partial(fn, ...)``); by a keyword to a call through the ``REGISTRY``;
or by a key of a ``FEEDS`` dict.  The keys of documents the program
writes or ships (``policy_payload``, a saved agent's header, a
``state_dict``) set nothing.  Anything else is a ``LEVERS`` row naming
the test that sets it, to reach a mechanism that stays: ``Class.field``
for a field, ``name(param)`` for a parameter.  A row whose setting
gained a customer or is gone fails.  Lenient by name, not flaky."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CONFIGS = {"core/config.py": ("MirasConfig", "ModelConfig", "PolicyConfig"),
           "rl/ddpg.py": ("DDPGConfig",), "sim/system.py": ("SystemConfig",)}
#: ``_execute_cell`` calls an entry of this dict: ``EXPERIMENTS[name](seed=...)``.
REGISTRY = "EXPERIMENTS"
#: Dicts a call receives as keywords -> the class whose fields they set, or
#: the registry whose entry each outer key names.
FEEDS = {
    "policy_overrides": "PolicyConfig",  # cli.py: replace(config.policy, **policy_overrides)
    "QUICK_PARAMS": REGISTRY,  # eval/parallel.py: a quick cell's params
}
# Set only by the test named, each to reach a mechanism that stays.
LEVERS = {
    "PolicyConfig.collect_lanes": "core/test_agent_distributed.py::test_collect_lanes_is_the_interleave_width",
    # What the scenario harness draws: fault injection, random DAGs.
    "ChaosInjector(consumer_crash_rate)": "sim/test_faults.py::test_crashes_do_not_lose_requests",
    "random_ensemble(mean_service_range)": "workflows/test_generator_properties.py::test_service_times_within_requested_range",
    "random_ensemble(seed)": "workflows/test_generator_properties.py::test_service_times_within_requested_range",
    "random_workflow(edge_probability)": "workflows/test_generator_properties.py::test_zero_edge_probability_yields_chain_links",
    # Small buffers, so a short test reaches the growth and refill paths.
    "IndexFifo(capacity)": "sim/test_substrate_primitives.py::test_wraparound_growth",
    "RequestPool(capacity)": "sim/test_substrate_primitives.py::test_add_tasks_matches_serial",
    "PrefetchStream(block)": "sim/test_substrate_primitives.py::test_interleaved_kinds_resync",
}


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _items(node):
    """``(key, value node)`` per string key of a dict literal."""
    pairs = zip(node.keys, node.values) if isinstance(node, ast.Dict) else ()
    return [(k.value, v) for k, v in pairs if isinstance(k, ast.Constant) and isinstance(k.value, str)]


def _fed(tree, registry):
    """``(target, key)`` per string key given to a ``FEEDS`` dict in
    ``tree``: in its literal or by a subscript store."""
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and target.id in FEEDS:
                feed = FEEDS[target.id]
                if feed != REGISTRY:
                    yield from ((feed, key) for key, _ in _items(node.value))
                    continue
                for name, params in _items(node.value):
                    yield from ((registry.get(name), key) for key, _ in _items(params))
            elif (isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name)
                  and target.value.id in FEEDS and isinstance(target.slice, ast.Constant)):
                yield FEEDS[target.value.id], target.slice.value


def setters(trees, defined=frozenset()):
    """``(callee, args, keywords)`` per setter in ``trees``, resolved to the
    name it reaches; ``defined`` names what ``src/repro`` defines."""
    registry = {key: value.id for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == REGISTRY for t in node.targets)
                for key, value in _items(node.value) if isinstance(value, ast.Name)}
    for tree in trees:
        owner = {call: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for call in ast.walk(cls) if isinstance(call, ast.Call)}
        for node in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            callee = _callee(node)
            callee = owner.get(node) if callee == "cls" else callee
            func = next((i for i, a in enumerate(node.args)
                         if isinstance(a, ast.Name) and a.id in defined), None)
            if isinstance(node.func, ast.Subscript) and getattr(node.func.value, "id", None) == REGISTRY:
                yield from ((entry, [], node.keywords) for entry in registry.values())
            elif callee not in defined and func is not None:
                yield node.args[func].id, node.args[func + 1:], node.keywords
            else:
                yield callee, node.args, node.keywords
        for target, key in _fed(tree, registry):
            yield target, [], [ast.keyword(arg=key, value=ast.Constant(None))]


def chosen(trees, classes):
    """``{"Class.field", ...}`` set in ``trees``, for ``{class: fields}``."""
    out = set()
    for callee, _, keywords in setters(trees):
        owners = [callee] if callee in classes else list(classes) if callee == "replace" else []
        for kw in keywords:
            if kw.arg and not (
                    isinstance(kw.value, ast.Attribute) and kw.value.attr == kw.arg):
                out |= {f"{c}.{kw.arg}" for c in owners if kw.arg in classes[c]}
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
    """The keys of ``params`` (see :func:`defaulted`) no setter in ``trees``
    passes; ``defined`` names what ``src/repro`` defines."""
    keywords, widest = {}, {}
    for callee, args, kws in setters(trees, defined):
        keywords.setdefault(callee, set()).update(kw.arg for kw in kws if kw.arg)
        width = float("inf") if any(isinstance(a, ast.Starred) for a in args) else len(args)
        widest[callee] = max(widest.get(callee, 0), width)
    return {key for key, (name, param, position) in params.items()
            if param not in keywords.get(name, ())
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
    # A keyword counts for the class the call constructs, or any through replace.
    tree = ast.parse("class SystemConfig:\n    knob: int = 1\nclass ModelConfig:\n    knob: int = 1\n"
                     "ModelConfig(knob=2)")
    assert unset(tree.body[:2], [tree], {}) == (["SystemConfig.knob"], [])
    assert unset(tree.body[:2], [ast.parse("replace(cfg, knob=4)")], {}) == ([], [])
    assert unset(tree.body[:2], [ast.parse("make_agent(knob=4)\ndict(knob=4)")], {}) == (
        ["ModelConfig.knob", "SystemConfig.knob"], [])
    # A key sets a field only in the dict that feeds its class.
    tree = ast.parse("class DDPGConfig:\n    param_noise_sigma: float = 0.05\n"
                     "class PolicyConfig:\n    rollout_batch: int = 1\n"
                     "policy_payload = {'param_noise_sigma': sigma, 'rollout_batch': 2}")
    assert unset(tree.body[:2], [tree], {}) == (
        ["DDPGConfig.param_noise_sigma", "PolicyConfig.rollout_batch"], [])
    assert unset(tree.body[:2], [ast.parse("policy_overrides = {}\npolicy_overrides['rollout_batch'] = 2\n"
                                           "d = {'param_noise_sigma': 0.1}")], {}) == (
        ["DDPGConfig.param_noise_sigma"], [])


def test_the_parameter_guard_fires():
    src = ast.parse(
        "def f(a, b=1, *, c=2): pass\n"
        "class Box:\n"
        "    def __init__(self, size=3, fill=0): pass\n"
        "    def grow(self, by=2): pass\n"
        "    def __eq__(self, other=None): pass\n"
        "    @classmethod\n"
        "    def empty(cls): return cls(fill=1)\n")
    # Nothing passes anything: every defaulted parameter but the dunder's.
    assert idle_params([src], [], {}) == (
        ["Box(fill)", "Box(size)", "f(b)", "f(c)", "grow(by)"], [])
    # cls() builds its own class; a forwarder passes what follows the function.
    callers = ast.parse("run_once(bench, f, 0, 5, c=3)\nBox(4)\nx.grow(by=1)")
    assert idle_params([src], [src, callers], {}) == ([], [])
    # A position counts past self; a row whose parameter is passed is stale.
    assert idle_params([src], [ast.parse("Box(4)")], {"Box(size)": "", "f(b)": ""}) == (
        ["Box(fill)", "f(c)", "grow(by)"], ["Box(size)"])
    # A keyword to a function defined in src counts for that function only,
    # one to an opaque call for nothing.
    assert idle_params([src], [ast.parse("f(0, fill=1)\nrun_once(by=1)\ndict(size=1)")], {}) == (
        ["Box(fill)", "Box(size)", "f(b)", "f(c)", "grow(by)"], [])


def test_document_keys_set_nothing():
    """A retired setting's key, or a payload's, is no caller; a feed's is."""
    src = ast.parse(
        "class Actor:\n    def __init__(self, state_scale=100.0, output_mixing=0.02): pass\n"
        "def fig5(seed=0, model_epochs=60, tracer=None): pass\n"
        "def fig6(dataset='msd', seed=0): pass\n")
    documents = ast.parse(
        "_RETIRED = {'policy.ddpg': {'state_scale': 100.0, 'output_mixing': 0.02}}\n"
        "state = {'seed': 0}\nstate['dataset'] = 'ligo'\n")
    assert idle_params([src], [documents], {}) == (
        ["Actor(output_mixing)", "Actor(state_scale)", "fig5(model_epochs)", "fig5(seed)",
         "fig5(tracer)", "fig6(dataset)", "fig6(seed)"], [])
    feeds = ast.parse(
        "EXPERIMENTS = {'fig5': fig5, 'fig6': fig6}\n"
        "QUICK_PARAMS = {'fig5': {'model_epochs': 2}}\n"
        "EXPERIMENTS[name](seed=seed, tracer=tracer)\n"
        "run_once(bench, fig6, 'ligo')\n")
    assert idle_params([src], [feeds], {}) == (["Actor(output_mixing)", "Actor(state_scale)"], [])
