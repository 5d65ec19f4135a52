"""The heuristic allocators against their numpy-array bodies, bit for bit.

Generated windows — WIP with many ties and occasional bursts, random
publish and completion counts — go through each allocator and through
its verbatim array twin in ``reference_allocators.py``; every allocation
must have the same bytes and dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import HeftAllocator, ProportionalToWipAllocator
from repro.baselines.base import largest_remainder_allocation
from repro.baselines.drs import DrsAllocator
from repro.baselines.autoscaler import HpaAllocator
from repro.baselines.static_alloc import UniformAllocator
from repro.sim.metrics import WindowObservation

from tests.baselines.reference_allocators import (
    ReferenceDrs,
    ReferenceHpa,
    ReferenceUniform,
    reference_check,
    reference_largest_remainder_allocation,
)
from tests.conftest import make_ligo_env, make_msd_env


def same(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def windows(env, rng, count):
    """(wip, observation) pairs; the first window has no observation."""
    names = env.system.ensemble.task_names()
    observation = None
    for k in range(count):
        wip = rng.integers(0, 4, len(names)).astype(np.float64)
        if rng.random() < 0.3:
            wip[rng.integers(len(names))] += rng.integers(20, 400)
        yield wip, observation
        # Quiet windows too: equal rates make DRS's marginal gains tie.
        publishes = int(rng.choice([0, 3, 60]))
        observation = WindowObservation(
            index=k,
            start_time=30.0 * k,
            end_time=30.0 * (k + 1),
            wip=wip,
            allocation=np.zeros(len(names), dtype=np.int64),
            reward=1.0 - float(wip.sum()),
            task_publishes={
                n: int(rng.integers(0, publishes + 1))
                for n in names
                if rng.random() < 0.7
            },
            task_completions={
                n: int(rng.integers(0, 60)) for n in names if rng.random() < 0.7
            },
        )


ENVS = [
    (make_msd_env, 14),
    (make_msd_env, 5),
    (make_ligo_env, 30),
    (make_ligo_env, 120),
]


@pytest.mark.parametrize("make_env, budget", ENVS)
@pytest.mark.parametrize(
    "allocator, reference",
    [
        (UniformAllocator, ReferenceUniform),
        (DrsAllocator, ReferenceDrs),
        (HpaAllocator, ReferenceHpa),
        # Caps the default parameters never reach.
        (
            lambda: HpaAllocator(0.9, min_replicas=0, scale_up_limit=6.0),
            lambda: ReferenceHpa(0.9, min_replicas=0, scale_up_limit=6.0),
        ),
    ],
    ids=["uniform", "drs", "hpa", "hpa-wide"],
)
def test_allocations_match_the_array_code(make_env, budget, allocator, reference):
    env = make_env(consumer_budget=budget, with_arrivals=False)
    ours, theirs = allocator(), reference()
    for a in (ours, theirs):
        a.bind(env)
        a.reset()
    rng = np.random.default_rng(budget)
    for episode in range(4):
        for wip, observation in windows(env, rng, 40):
            assert same(
                ours.allocate(wip, observation),
                theirs.allocate(wip, observation),
            )
        ours.reset()
        theirs.reset()


@pytest.mark.parametrize("make_env, budget", ENVS)
def test_weighted_allocators_match_the_array_code(make_env, budget):
    env = make_env(consumer_budget=budget, with_arrivals=False)
    heft, wip_allocator = HeftAllocator(), ProportionalToWipAllocator()
    heft.bind(env)
    wip_allocator.bind(env)
    for wip, observation in windows(env, np.random.default_rng(budget), 80):
        assert same(
            heft.allocate(wip, observation),
            reference_check(heft, reference_largest_remainder_allocation(
                (wip + heft.smoothing) * heft._ranks, budget
            )),
        )
        assert same(
            wip_allocator.allocate(wip, observation),
            reference_check(wip_allocator, reference_largest_remainder_allocation(
                wip + wip_allocator.smoothing, budget
            )),
        )


@given(
    st.lists(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]), st.floats(-5, 1e6)),
        min_size=1,
        max_size=12,
    ),
    st.integers(0, 200),
)
@settings(max_examples=100, deadline=None)
def test_largest_remainder_matches_the_array_code(weights, budget):
    assert same(
        largest_remainder_allocation(np.array(weights), budget),
        reference_largest_remainder_allocation(np.array(weights), budget),
    )
