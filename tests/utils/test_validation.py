"""Tests for argument-validation helpers."""

import pytest

from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    isclose_zero,
    require,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 1.5) == 1.5

    @pytest.mark.parametrize("value", [0, -1, -0.001])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", value)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_non_negative("x", -1e-9)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_non_negative("x", float("nan"))


class TestCheckInRange:
    def test_inclusive_bounds_accept_endpoints(self):
        assert check_in_range("x", 0.0, 0.0, 1.0) == 0.0
        assert check_in_range("x", 1.0, 0.0, 1.0) == 1.0

    def test_exclusive_bounds_reject_endpoints(self):
        with pytest.raises(ValueError):
            check_in_range("x", 0.0, 0.0, 1.0, inclusive=(False, True))
        with pytest.raises(ValueError):
            check_in_range("x", 1.0, 0.0, 1.0, inclusive=(True, False))

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range("x", 2.0, 0.0, 1.0)


class TestIscloseZero:
    def test_exact_zero(self):
        assert isclose_zero(0.0)

    def test_tiny_residual_counts_as_zero(self):
        assert isclose_zero(1e-15)
        assert isclose_zero(-1e-15)

    def test_meaningful_values_are_not_zero(self):
        assert not isclose_zero(1e-6)
        assert not isclose_zero(-0.5)


class TestRequire:
    def test_passes_silently_when_true(self):
        require(True, "never raised")

    def test_raises_runtime_error_with_message(self):
        with pytest.raises(RuntimeError, match="invariant.*no tag"):
            require(False, "no tag")

    def test_survives_optimized_mode(self):
        # Unlike assert, require() cannot be stripped: it is a plain call.
        import dis

        import repro.utils.validation as validation

        instructions = list(dis.get_instructions(validation.require))
        assert any(i.opname == "RAISE_VARARGS" for i in instructions)
