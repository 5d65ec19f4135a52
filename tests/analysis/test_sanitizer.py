"""The runtime sanitizer: contracts asserted on the running program.

Checks activation/deactivation hygiene (the patches must always come
off), fork-label collision detection, emit-schema validation, and the
bookkeeping counters the CI matrix entry reports.
"""

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import SanitizerError, sanitized
from repro.utils.batchpairs import batched_pair, registered_pairs
from repro.telemetry.sinks import MemorySink
from repro.telemetry.tracer import Tracer
from repro.utils.rng import RngStream


@pytest.fixture(autouse=True)
def _always_deactivate():
    """Never leak patches into other tests, whatever a test does."""
    yield
    sanitizer.deactivate()


def fresh_stream(name="root", seed=7):
    return RngStream(name, np.random.SeedSequence(seed))


def fresh_tracer():
    sink = MemorySink()
    tracer = Tracer(sink, clock=lambda: 0.0)
    return tracer, sink


@pytest.mark.no_sanitize  # manages activation/deactivation itself
class TestActivation:
    def test_activate_and_deactivate_restore_methods(self):
        original_fork = RngStream.fork
        original_write = Tracer.write
        sanitizer.activate()
        assert sanitizer.is_active()
        assert RngStream.fork is not original_fork
        assert Tracer.write is not original_write
        sanitizer.deactivate()
        assert not sanitizer.is_active()
        assert RngStream.fork is original_fork
        assert Tracer.write is original_write

    def test_activate_is_idempotent(self):
        sanitizer.activate()
        patched = RngStream.fork
        sanitizer.activate()  # must not re-wrap the wrapper
        assert RngStream.fork is patched
        sanitizer.deactivate()
        assert not sanitizer.is_active()

    def test_context_manager_scopes_activation(self):
        assert not sanitizer.is_active()
        with sanitized() as state:
            assert sanitizer.is_active()
            assert state.violations == 0
        assert not sanitizer.is_active()

    def test_sanitize_requested_reads_env(self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_FLAG, raising=False)
        assert not sanitizer.sanitize_requested()
        monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
        assert sanitizer.sanitize_requested()
        monkeypatch.setenv(sanitizer.ENV_FLAG, "0")
        assert not sanitizer.sanitize_requested()


class TestForkCollisions:
    def test_duplicate_label_same_parent_raises(self):
        with sanitized() as state:
            root = fresh_stream()
            root.fork("model")
            with pytest.raises(SanitizerError, match="fork-label collision"):
                root.fork("model")
            assert state.violations == 1

    def test_distinct_labels_pass(self):
        with sanitized() as state:
            root = fresh_stream()
            root.fork("actor/net")
            root.fork("critic/net")
            assert state.violations == 0
            assert state.fork_names["root/actor/net"] == 1

    def test_same_label_on_different_parents_passes(self):
        with sanitized():
            fresh_stream("a", 1).fork("net")
            fresh_stream("b", 2).fork("net")

    def test_collision_error_is_an_assertion(self):
        with sanitized():
            root = fresh_stream()
            root.fork("x")
            with pytest.raises(AssertionError):
                root.fork("x")

    def test_registry_resets_between_scopes(self):
        with sanitized():
            root = fresh_stream()
            root.fork("model")
        with sanitized():
            # Same instance, new scope: the per-instance registry was
            # cleared on reset, so the label is available again.
            root2 = fresh_stream()
            root2.fork("model")

    def test_forked_children_draw_identically_to_unsanitized(self):
        bare = fresh_stream().fork("child").normal(size=16)
        with sanitized():
            checked = fresh_stream().fork("child").normal(size=16)
        assert np.array_equal(bare, checked)


class TestEmitValidation:
    def test_valid_record_passes_and_counts(self):
        tracer, sink = fresh_tracer()
        with sanitized() as state:
            tracer.emit("metric", name="loss", value=0.5, step=1)
            assert state.records_validated == 1
        assert len(sink.records) == 1

    def test_unknown_kind_raises(self):
        tracer, _ = fresh_tracer()
        with sanitized() as state:
            with pytest.raises(SanitizerError, match="emit-schema"):
                tracer.emit("not-a-kind", value=1)
            assert state.violations == 1

    def test_field_drift_raises(self):
        tracer, _ = fresh_tracer()
        with sanitized():
            with pytest.raises(SanitizerError):
                tracer.emit("metric", name="loss", bogus=1)

    def test_disabled_tracer_is_not_validated(self):
        tracer, sink = fresh_tracer()
        tracer.enabled = False
        with sanitized() as state:
            tracer.emit("not-a-kind", value=1)  # dropped, not validated
            assert state.records_validated == 0
        assert sink.records == []


def _double(x):
    return 2.0 * x


@batched_pair("_double")
def _double_batch(xs):
    return 2.0 * xs


@batched_pair("_double")
def _double_batch_inplace(xs):
    xs *= 2.0
    return xs


def _scale(x, promote):
    out = 2.0 * x
    return np.float64(out) if promote else out


@batched_pair("_scale")
def _scale_batch(xs, promotes):
    out = 2.0 * xs
    return out.astype(np.float64) if promotes else out


class TestBatchPairGuard:
    """The runtime twin of the B1 family: registered batch functions are
    routed through a guard that hashes array arguments and pins result
    dtypes while the sanitizer is active."""

    def test_clean_call_passes_and_counts(self):
        xs = np.arange(4, dtype=np.float32)
        with sanitized() as state:
            out = _double_batch(xs)
            key = f"{__name__}._double"
            assert state.pair_calls[key] == 1
        assert np.array_equal(out, 2.0 * xs)

    def test_guarded_result_matches_unguarded(self):
        xs = np.linspace(0.0, 1.0, 8, dtype=np.float32)
        bare = _double_batch(xs)
        with sanitized():
            checked = _double_batch(xs)
        assert np.array_equal(bare, checked)
        assert bare.dtype == checked.dtype

    def test_argument_mutation_raises(self):
        xs = np.arange(4, dtype=np.float32)
        with sanitized() as state:
            with pytest.raises(SanitizerError, match="batch-pair mutation"):
                _double_batch_inplace(xs)
            assert state.violations == 1

    def test_mixed_dtype_arguments_raise(self):
        with sanitized():
            with pytest.raises(SanitizerError, match="dtype mix"):
                _scale_batch(
                    np.arange(3, dtype=np.float32),
                    np.zeros(1, dtype=np.float64),
                )

    def test_result_dtype_drift_raises(self):
        # The mix is the point: this fixture provokes the guard.
        xs32 = np.arange(3, dtype=np.float32)
        with sanitized():
            _scale_batch(xs32, False)  # pins float32 for the key
            with pytest.raises(SanitizerError, match="dtype drift"):
                _scale_batch(xs32, True)

    def test_dtype_pin_resets_between_scopes(self):
        xs32 = np.arange(3, dtype=np.float32)
        with sanitized():
            _scale_batch(xs32, False)
        with sanitized():
            # Fresh scope, fresh pin: promoting is fine if consistent.
            _scale_batch(xs32, True)

    @pytest.mark.no_sanitize  # the point is the guard being absent
    def test_inactive_sanitizer_passes_straight_through(self):
        xs = np.arange(4, dtype=np.float32)
        out = _double_batch_inplace(xs)  # mutation unchecked when off
        assert out is xs

    def test_registry_records_local_pairs(self):
        pairs = registered_pairs()
        key = f"{__name__}._double"
        assert key in pairs
        assert pairs[key].batch_name in (
            "_double_batch",
            "_double_batch_inplace",
        )
        assert f"{__name__}._scale" in pairs
