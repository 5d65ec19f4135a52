"""The serial/batch pair registry: every vectorised substrate path is declared.

PR 7 introduced the batched substrate's twins (``add_workflows``,
``add_tasks``, ``publish_many``, ``push_many``); this suite pins that the
set *registered* via ``@batched_pair`` is exactly :data:`EXPECTED_PAIRS`
and that each entry names the test proving its equivalence.  The
training side has no twins: each of its functions takes one ``(K, ...)``
block and serial callers pass K=1, held to the pre-change serial bodies
by tests/rl/test_serial_policy_oracle.py.
"""

import importlib

import numpy as np
import pytest

from repro.core.reward import reward_eq1
from repro.analysis.sanitizer import sanitized
from repro.rl.noise import OrnsteinUhlenbeckNoise
from repro.sim.queueing import IndexFifo
from repro.sim.requests import RequestPool
from repro.utils.batchpairs import registered_pairs
from repro.utils.rng import RngStream

_SIM = "tests.sim.test_substrate_primitives"

#: Every registered pair, by registry key: the batch twin's name and the
#: ``module:Class.test`` that pins its row-k equality with the serial
#: twin.  The registry must equal this table exactly, so a new
#: ``@batched_pair`` cannot land without an equivalence test.
EXPECTED_PAIRS = {
    "repro.sim.requests.RequestPool.add_workflow": (
        "add_workflows",
        f"{_SIM}:TestRequestPool.test_add_workflows_matches_serial"),
    "repro.sim.requests.RequestPool.add_task": (
        "add_tasks",
        f"{_SIM}:TestRequestPool.test_add_tasks_matches_serial"),
    "repro.sim.microservice.BatchedMicroservice.publish": (
        "publish_many",
        f"{_SIM}:TestPublishMany.test_matches_serial_publishes"),
    "repro.sim.queueing.IndexFifo.push": (
        "push_many",
        f"{_SIM}:TestIndexFifo.test_push_many_matches_serial_pushes"),
}


def _stream(seed):
    return RngStream("pairs", np.random.SeedSequence(seed))


def _resolve(module_name, qualname):
    """``module.Class.attr`` looked up on the imported module, or None."""
    target = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part, None)
    return target


class TestRegistryCompleteness:
    def test_registry_equals_the_expected_table(self):
        importlib.import_module("repro.sim")  # registers the sim-side pairs
        pairs = {
            key: pair for key, pair in registered_pairs().items()
            if key.startswith("repro.")  # other test modules register too
        }
        assert set(pairs) == set(EXPECTED_PAIRS)
        for key, (batch_name, _) in EXPECTED_PAIRS.items():
            assert pairs[key].batch_name == batch_name

    def test_every_pair_names_an_existing_equivalence_test(self):
        for key, (_, test_ref) in EXPECTED_PAIRS.items():
            module_name, _, qualname = test_ref.partition(":")
            assert callable(
                _resolve(module_name, qualname)
            ), f"{key}: no such test {test_ref}"

    def test_both_twins_of_every_pair_exist(self):
        """A typo in ``@batched_pair("serial")`` registers a pair whose
        serial twin is not there; nothing else would notice."""
        importlib.import_module("repro.sim")
        pairs = registered_pairs()
        for key in EXPECTED_PAIRS:
            pair = pairs[key]
            for qualname in (pair.serial_qualname, pair.batch_qualname):
                assert callable(
                    _resolve(pair.module, qualname)
                ), f"{key}: {pair.module}.{qualname} does not resolve"

    def test_registry_records_scope_correctly(self):
        pair = registered_pairs()["repro.sim.queueing.IndexFifo.push"]
        assert pair.module == "repro.sim.queueing"
        assert pair.serial_qualname == "IndexFifo.push"
        assert pair.batch_qualname == "IndexFifo.push_many"

    def test_decorated_functions_carry_pair_metadata(self):
        assert IndexFifo.push_many.__repro_batch_pair__.serial_name == "push"
        assert (
            RequestPool.add_tasks.__repro_batch_pair__.serial_name
            == "add_task"
        )


class TestGuardedDtypeStability:
    """The training side left the registry; its dtype and batch-shape
    contracts still hold with the sanitizer active."""

    def test_reward_batch_dtype_is_stable_across_calls(self):
        with sanitized():
            for wip in (
                np.arange(9).reshape(3, 3),  # integer WIP counts
                _stream(30).uniform(0.0, 0.2, size=(3, 3)),
            ):
                assert reward_eq1(wip).dtype == np.float64

    def test_ou_batch_rejects_k_above_one_through_the_guard(self):
        noise = OrnsteinUhlenbeckNoise(3, sigma=0.2)
        with sanitized():
            with pytest.raises(ValueError, match="rollout_batch"):
                noise.sample(2, 3, _stream(32))
