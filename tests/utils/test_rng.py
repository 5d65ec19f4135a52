"""Tests for seeded RNG streams."""

import numpy as np
import pytest

from repro.utils.rng import (
    ReproducibilityWarning,
    RngStream,
    fallback_stream,
    spawn_rngs,
)


class TestSpawnRngs:
    def test_creates_one_stream_per_name(self):
        streams = spawn_rngs(0, ["a", "b", "c"])
        assert set(streams) == {"a", "b", "c"}
        assert all(isinstance(s, RngStream) for s in streams.values())

    def test_same_seed_reproduces_draws(self):
        first = spawn_rngs(42, ["x"])["x"].uniform(size=10)
        second = spawn_rngs(42, ["x"])["x"].uniform(size=10)
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self):
        first = spawn_rngs(1, ["x"])["x"].uniform(size=10)
        second = spawn_rngs(2, ["x"])["x"].uniform(size=10)
        assert not np.array_equal(first, second)

    def test_streams_are_independent(self):
        streams = spawn_rngs(0, ["a", "b"])
        a = streams["a"].uniform(size=100)
        b = streams["b"].uniform(size=100)
        assert not np.array_equal(a, b)


class TestFork:
    def test_fork_names_are_hierarchical(self):
        root = spawn_rngs(0, ["root"])["root"]
        child = root.fork("child")
        assert child.name == "root/child"

    def test_fork_is_deterministic_given_order(self):
        def draws():
            root = spawn_rngs(7, ["r"])["r"]
            return root.fork("a").normal(size=5)

        assert np.array_equal(draws(), draws())

    def test_forks_differ_from_parent(self):
        root = spawn_rngs(0, ["r"])["r"]
        child = root.fork("c")
        assert not np.array_equal(root.uniform(size=20), child.uniform(size=20))

    @pytest.mark.no_sanitize  # deliberately re-uses a fork label
    def test_same_seed_and_label_sequence_reproduces_children(self):
        def draws():
            root = spawn_rngs(123, ["r"])["r"]
            return [
                root.fork("model").normal(size=8),
                root.fork("policy").normal(size=8),
                root.fork("model").normal(size=8),  # re-used label
            ]

        first, second = draws(), draws()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_different_labels_give_distinct_streams(self):
        root = spawn_rngs(0, ["r"])["r"]
        a = root.fork("actor").uniform(size=50)
        b = root.fork("critic").uniform(size=50)
        assert not np.array_equal(a, b)

    @pytest.mark.no_sanitize  # deliberately re-uses a fork label
    def test_repeated_label_gives_fresh_distinct_stream(self):
        root = spawn_rngs(9, ["r"])["r"]
        first = root.fork("layer").normal(size=30)
        second = root.fork("layer").normal(size=30)
        assert not np.array_equal(first, second)

    def test_grandchildren_are_deterministic(self):
        def leaf():
            root = spawn_rngs(31, ["r"])["r"]
            return root.fork("mid").fork("leaf").uniform(size=10)

        assert np.array_equal(leaf(), leaf())


class TestFallbackStream:
    def test_warns_and_returns_fixed_seed_stream(self):
        with pytest.warns(ReproducibilityWarning, match="explicit RngStream"):
            first = fallback_stream("dense")
        with pytest.warns(ReproducibilityWarning):
            second = fallback_stream("dense")
        assert np.array_equal(first.uniform(size=10), second.uniform(size=10))

    def test_component_constructors_warn_without_rng(self):
        from repro.nn.layers import Dense

        with pytest.warns(ReproducibilityWarning):
            Dense(3, 2)

    def test_component_constructors_silent_with_rng(self):
        import warnings

        from repro.nn.layers import Dense

        rng = RngStream("t", np.random.SeedSequence(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ReproducibilityWarning)
            Dense(3, 2, rng=rng)


class TestDistributionPassthroughs:
    def test_exponential_mean(self, rng):
        samples = rng.exponential(scale=2.0, size=20_000)
        assert abs(samples.mean() - 2.0) < 0.1

    def test_integers_bounds(self, rng):
        samples = rng.integers(3, 8, size=1000)
        assert samples.min() >= 3
        assert samples.max() < 8

    def test_choice_without_replacement_unique(self, rng):
        picked = rng.choice(10, size=10, replace=False)
        assert sorted(picked.tolist()) == list(range(10))

    def test_permutation_is_permutation(self, rng):
        perm = rng.permutation(25)
        assert sorted(perm.tolist()) == list(range(25))
