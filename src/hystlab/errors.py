"""Exception types shared across the package."""

from __future__ import annotations


class HystlabError(Exception):
    """Base class for all package-specific errors."""


class NetlistError(HystlabError):
    """Raised when netlist text cannot be parsed or validated.

    Carries the 1-based line number when the offending line is known.
    """

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ModelError(HystlabError):
    """Raised for inconsistent device model parameters."""


class ConvergenceError(HystlabError):
    """Raised when the nonlinear solver fails to converge.

    ``stage`` names the last continuation strategy attempted and
    ``residual`` holds the worst nodal current residual seen there.
    """

    def __init__(self, message: str, stage: str = "", residual: float = float("nan")):
        super().__init__(message)
        self.stage = stage
        self.residual = residual


class ConfigError(HystlabError):
    """Raised for invalid circuit-generator configuration."""


class MeasurementError(HystlabError):
    """Raised when a waveform or sweep lacks the feature being measured."""


class ExtractionError(HystlabError):
    """Raised when a circuit is missing an element an extractor relies on."""


class SingularityError(HystlabError):
    """Raised when an analytic expression divides by a vanishing factor."""


class DomainError(HystlabError):
    """Raised when an analytic expression leaves its real-valued domain.

    ``value`` is the offending quantity (for example a negative radicand).
    """

    def __init__(self, message: str, value: float = float("nan")):
        super().__init__(message)
        self.value = value
