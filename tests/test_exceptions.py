"""Unit tests for the exception hierarchy."""

import pytest

from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ConvergenceError,
    ReproError,
    ShapeError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            CheckpointError,
            ConfigurationError,
            ConvergenceError,
            ShapeError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_configuration_error_is_value_error(self):
        """Callers using plain ValueError handling still catch us."""
        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(ShapeError, ValueError)

    def test_runtime_family(self):
        assert issubclass(ConvergenceError, RuntimeError)

    @pytest.mark.parametrize("exc", [CheckpointError, ConvergenceError])
    def test_failures_are_runtime_not_value_errors(self, exc):
        assert issubclass(exc, RuntimeError)
        assert not issubclass(exc, ValueError)

    def test_catch_all(self):
        with pytest.raises(ReproError):
            raise CheckpointError("boom")
