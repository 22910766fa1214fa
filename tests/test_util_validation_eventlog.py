"""Tests for repro.util.validation."""

import pytest

from repro.util.validation import (
    ValidationError,
    require,
    require_in,
    require_non_negative,
    require_positive,
    require_probability,
)


def test_require_passes_and_fails():
    require(True, "fine")
    with pytest.raises(ValidationError, match="broken"):
        require(False, "broken")


def test_require_positive():
    require_positive(1, "x")
    with pytest.raises(ValidationError):
        require_positive(0, "x")


def test_require_non_negative():
    require_non_negative(0, "x")
    with pytest.raises(ValidationError):
        require_non_negative(-1, "x")


def test_require_probability():
    require_probability(0.5, "p")
    with pytest.raises(ValidationError):
        require_probability(1.5, "p")


def test_require_in():
    require_in("a", {"a", "b"}, "opt")
    with pytest.raises(ValidationError):
        require_in("c", {"a", "b"}, "opt")

