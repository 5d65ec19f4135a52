"""Every config field is a setting somebody sets (ROADMAP, design aim): AST
only, a field of the five config dataclasses is set by keyword (``replace``
too) or override-dict key in ``src/repro`` or ``benchmarks/`` (``x=cfg.x``
only forwards), or is a ``LEVERS`` row naming the test that sets it.  A
keyword passed to a config class's own constructor sets that class's field
only; one passed to a ``COLLISIONS`` constructor sets none.  A row whose
field gained a customer or is gone fails.  Lenient by name, not flaky."""

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
    # Until ROADMAP item 14 deletes the field with the cluster.
    "SystemConfig.node_capacity": "sim/test_system_config.py::test_explicit_capacity_wins",
    "SystemConfig.num_nodes": "sim/test_system_config.py::test_budget_floor",
    "SystemConfig.startup_delay_range": "sim/test_system.py::test_single_request_traverses_full_dag",
    "SystemConfig.tds_replicas": "sim/test_serial_differential.py::test_serial_path_equals_reference",
}


# Constructors that are not config classes but take a keyword named like
# a config field: what they are passed sets no config field.
COLLISIONS = {"Cluster"}


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def chosen(trees, classes):
    """``{"Class.field", ...}`` set in ``trees``, for ``{class: fields}``."""
    def named(name, owners):
        return {f"{c}.{name}" for c in owners if name in classes[c]}

    out = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            callee = _callee(node)
            owners = ([callee] if callee in classes
                      else [] if callee in COLLISIONS else list(classes))
            for kw in node.keywords:
                if kw.arg and not (
                        isinstance(kw.value, ast.Attribute) and kw.value.attr == kw.arg):
                    out |= named(kw.arg, owners)
        keys = (node.keys if isinstance(node, ast.Dict) else [node.slice]
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) else [])
        for key in keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                out |= named(key.value, classes)
    return out


def fields(classes):
    return {c.name: {n.target.id for n in c.body if isinstance(n, ast.AnnAssign)}
            for c in classes}


def unset(classes, trees, levers):
    declared = fields(classes)
    idle = {f"{c}.{n}" for c, names in declared.items() for n in names} - chosen(trees, declared)
    return sorted(idle - set(levers)), sorted(set(levers) - idle)


def test_every_field_is_set_somewhere():
    src = REPO / "src/repro"
    classes = [node for path, names in CONFIGS.items() for node in ast.parse((src / path).read_text()).body
               if isinstance(node, ast.ClassDef) and node.name in names]
    trees = [ast.parse(p.read_text()) for p in [*src.rglob("*.py"), *(REPO / "benchmarks").rglob("*.py")]]
    assert unset(classes, trees, LEVERS) == ([], [])
    declared = fields(classes)
    for qual, (path, _, name) in ((q, t.partition("::")) for q, t in LEVERS.items()):
        tree = ast.parse((REPO / "tests" / path).read_text())
        assert name in {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}, name
        assert qual in chosen([tree], declared), name


def test_the_guard_fires():
    tree = ast.parse("class SystemConfig:\n    knob: int = 1\n    used: int = 2\nSystemConfig(used=3, knob=cfg.knob)")
    assert unset([tree.body[0]], [tree], {}) == (["SystemConfig.knob"], [])
    assert unset([tree.body[0]], [tree], {"SystemConfig.used": ""}) == (["SystemConfig.knob"], ["SystemConfig.used"])
    # A keyword counts for the class the call constructs, and for no
    # class when the callee is a known collision.
    tree = ast.parse("class SystemConfig:\n    knob: int = 1\nclass ModelConfig:\n    knob: int = 1\n"
                     "ModelConfig(knob=2)\nCluster(knob=3)")
    assert unset(tree.body[:2], [tree], {}) == (["SystemConfig.knob"], [])
    assert unset(tree.body[:2], [ast.parse("replace(cfg, knob=4)")], {}) == ([], [])
