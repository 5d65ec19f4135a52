"""The runtime sanitizer: contracts asserted on the running program.

Checks activation/deactivation hygiene (the patches must always come
off), fork-label collision detection, emit-schema validation, and the
bookkeeping counters the CI matrix entry reports.
"""

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import SanitizerError, sanitized
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
    tracer = Tracer(sink)
    tracer.bind_clock(lambda: 0.0)
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
