"""Exception types and violation records shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class StylemixError(Exception):
    """Base class for all package-specific errors."""


class MalformedInputError(StylemixError):
    """An input (text, matrix, pattern, subset or size) is malformed or out of range."""


class ValidationError(StylemixError):
    """An instance failed validation.

    Carries the full list of violations so callers can report every
    problem at once instead of fixing them one by one.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"instance validation failed: {lines}")


class InfeasiblePlanError(StylemixError):
    """A candidate plan violates instance constraints."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"plan is infeasible: {lines}")


class InfeasibleError(StylemixError):
    """No feasible allocation exists (or none could be found).

    ``certificate`` is set when a structural witness is available, e.g.
    a cut whose lower bounds exceed the capacity that can reach it.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class BudgetExceededError(StylemixError):
    """Search ran out of its pattern or time budget before finding a plan."""


class VerificationError(StylemixError):
    """A built-in self-check produced an unexpected verdict."""


@dataclass(frozen=True)
class Violation:
    """One validation failure.

    Attributes:
        code: Stable machine-readable tag, e.g. ``"min_exceeds_planned"``.
        subject: Identifier of the offending article, store, or field.
        message: Human-readable description of the problem.
    """

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"
