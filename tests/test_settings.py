"""Every config field is a setting somebody sets (ROADMAP, design aim): AST
only, a field of the five config dataclasses is set by keyword (``replace``
too) or override-dict key in ``src/repro`` or ``benchmarks/`` (``x=cfg.x``
only forwards), or is a ``LEVERS`` row naming the test that sets it.  A row
whose field gained a customer or is gone fails.  Lenient by name, not flaky."""

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
    "SystemConfig.num_nodes": "sim/test_system_config.py::test_budget_floor",
    "SystemConfig.startup_delay_range": "sim/test_system.py::test_single_request_traverses_full_dag",
    "SystemConfig.tds_replicas": "sim/test_serial_differential.py::test_serial_path_equals_reference",
}


def chosen(trees):
    names = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.keyword) and not (
                isinstance(node.value, ast.Attribute) and node.value.attr == node.arg):
            names.add(node.arg)
        keys = (node.keys if isinstance(node, ast.Dict) else [node.slice]
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) else [])
        names |= {key.value for key in keys if isinstance(key, ast.Constant)}
    return names


def unset(classes, trees, levers):
    idle = {f"{c.name}.{n.target.id}" for c in classes for n in c.body
            if isinstance(n, ast.AnnAssign) and n.target.id not in chosen(trees)}
    return sorted(idle - set(levers)), sorted(set(levers) - idle)


def test_every_field_is_set_somewhere():
    src = REPO / "src/repro"
    classes = [node for path, names in CONFIGS.items() for node in ast.parse((src / path).read_text()).body
               if isinstance(node, ast.ClassDef) and node.name in names]
    trees = [ast.parse(p.read_text()) for p in [*src.rglob("*.py"), *(REPO / "benchmarks").rglob("*.py")]]
    assert unset(classes, trees, LEVERS) == ([], [])
    for qual, (path, _, name) in ((q, t.partition("::")) for q, t in LEVERS.items()):
        tree = ast.parse((REPO / "tests" / path).read_text())
        assert name in {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}, name
        assert qual.partition(".")[2] in chosen([tree]), name


def test_the_guard_fires():
    tree = ast.parse("class SystemConfig:\n    knob: int = 1\n    used: int = 2\nSystemConfig(used=3, knob=cfg.knob)")
    assert unset([tree.body[0]], [tree], {}) == (["SystemConfig.knob"], [])
    assert unset([tree.body[0]], [tree], {"SystemConfig.used": ""}) == (["SystemConfig.knob"], ["SystemConfig.used"])
