"""Exception types shared across the package.

Each class carries the CLI exit code it ends a command with, `exit_code`,
so that failures surface with a stable, scriptable status (the README's
exit-code table lists them).
"""


class RevodeError(Exception):
    """Base class for all package-specific failures; each subclass sets
    `exit_code`."""

    exit_code: int


class ConfigurationError(RevodeError):
    """Bad user input: unknown fields, out-of-range values, impossible grids."""

    exit_code = 2


class IntegrationError(RevodeError):
    """Numerical integration produced a non-finite state or hit a singularity."""

    exit_code = 3

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


class UnsupportedSystemError(RevodeError):
    """Operation is not defined for the given system kind."""

    exit_code = 2


class ShapeError(RevodeError):
    """Autodiff primitive called with incompatible operand shapes."""

    exit_code = 5


class EncodingError(RevodeError):
    """Encoder cannot produce a latent state (e.g. an agent has no observations)."""

    exit_code = 2


class RolloutDivergedError(IntegrationError):
    """Latent ODE rollout left the finite range."""


class NonFiniteGradientError(RevodeError):
    """Backward pass produced NaN or Inf gradients."""

    exit_code = 4


class TrainingDivergedError(RevodeError):
    """Optimization produced a non-finite loss or gradient and cannot continue."""

    exit_code = 4


class DatasetFormatError(RevodeError):
    """Dataset file violates the JSONL schema."""

    exit_code = 2


class ArtifactMismatchError(RevodeError):
    """Stored artifact (checkpoint, dataset) is inconsistent with expectations."""

    exit_code = 5
