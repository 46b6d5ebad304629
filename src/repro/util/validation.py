"""Input-validation helpers with uniform, informative error messages.

These raise ``ValueError`` with the offending name and value so a failure
deep inside a 200-trace sweep points directly at the bad parameter.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "check_all_in_range",
    "check_all_positive",
    "check_finite",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
]


def check_finite(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is a finite number."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def check_positive(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is finite and > 0."""
    value = check_finite(value, name)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is finite and >= 0."""
    value = check_finite(value, name)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is in [0, 1]."""
    value = check_finite(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_in_range(value: float, name: str, low: float, high: float) -> float:
    """Raise ``ValueError`` unless ``low <= value <= high``."""
    value = check_finite(value, name)
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def check_all_positive(values: np.ndarray, name: str) -> None:
    """Array form of :func:`check_positive`: its error for the first bad element."""
    bad = ~(np.isfinite(values) & (values > 0))
    if bad.any():
        check_positive(values.flat[int(np.argmax(bad))], name)


def check_all_in_range(values: np.ndarray, name: str, low: float, high: float) -> None:
    """Array form of :func:`check_in_range`: its error for the first bad element."""
    bad = ~(np.isfinite(values) & (values >= low) & (values <= high))
    if bad.any():
        check_in_range(values.flat[int(np.argmax(bad))], name, low, high)
