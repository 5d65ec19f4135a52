"""Small argument-validation helpers used across the library.

These raise early with actionable messages instead of letting bad
configuration propagate into the simulator or the learning code.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "check_integral",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "isclose_zero",
    "require",
]

#: Default tolerance for :func:`isclose_zero`; generous enough to absorb
#: accumulated float error in window statistics, far below any physical
#: quantity the simulator tracks (seconds, requests, containers).
ZERO_EPS = 1e-12


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0`` (NaN fails); return it for chaining."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    inclusive: Tuple[bool, bool] = (True, True),
) -> float:
    """Require ``value`` in the interval [low, high] (bounds per ``inclusive``)."""
    low_ok = value >= low if inclusive[0] else value > low
    high_ok = value <= high if inclusive[1] else value < high
    if not (low_ok and high_ok):
        lo_b = "[" if inclusive[0] else "("
        hi_b = "]" if inclusive[1] else ")"
        raise ValueError(
            f"{name} must lie in {lo_b}{low}, {high}{hi_b}, got {value!r}"
        )
    return value


def check_integral(name: str, values: np.ndarray) -> list:
    """Require whole numbers: a NaN, an infinity or a fraction in
    ``values`` raises.  Integer arrays pass unexamined.  Returns
    ``values.tolist()``, for the caller's own checks of a short vector."""
    counts = values.tolist()
    if values.dtype.kind not in "biu" and not all(
        float(c).is_integer() for c in values.flat
    ):
        raise ValueError(f"{name} must be integral and finite: {values}")
    return counts


def isclose_zero(value: float) -> bool:
    """True when ``abs(value) <= ZERO_EPS``.

    Use this instead of ``value == 0.0``: exact float equality silently
    misbehaves once a quantity has been through any arithmetic, and the
    static-analysis pass (rule S101) rejects it in library code.
    """
    return abs(value) <= ZERO_EPS


def require(condition: bool, message: str) -> None:
    """Raise :class:`RuntimeError` when an internal invariant fails.

    Unlike ``assert``, this check survives ``python -O`` — use it for
    invariants and budget/constraint checks in library code (the
    static-analysis pass, rule S103, rejects bare asserts there).
    """
    if not condition:
        raise RuntimeError(f"internal invariant violated: {message}")
