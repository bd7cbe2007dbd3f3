"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: usage errors -> 1, data/format errors
-> 2, numeric failures -> 3.
"""


class NevoError(Exception):
    """Base class for all package errors."""


class ShapeMismatchError(NevoError):
    """Tensor shapes do not compose for the requested operation."""


class LabelError(NevoError):
    """A class label is outside the valid range."""


class DataFormatError(NevoError):
    """A data file (IDX, NPY, CIFAR binary) is malformed."""


class ChecksumError(DataFormatError):
    """Stored and computed checksums disagree."""


class CheckpointFormatError(DataFormatError):
    """A checkpoint, or a ring or run-directory file, fails validation."""


class ConfigError(NevoError):
    """Configuration is invalid; message carries a JSON-pointer path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")

    @classmethod
    def check(cls, *checks):
        """Raise for the first (ok, path, message) whose ok is false."""
        for ok, path, message in checks:
            if not ok:
                raise cls(path, message)


class MissingArtifactError(NevoError):
    """A required file, run, or ring entry is absent."""


class UnsupportedCorruptionError(NevoError):
    """Corruption kind has no native generator; use precomputed NPY files."""


class PopulationError(NevoError):
    """Population violates a structural constraint (size, seeding)."""


class NumericError(NevoError):
    """Numerical failure (NaN/Inf) during training or evolution."""


class TrainingDiverged(NumericError):
    """Loss or gradient became non-finite; carries partial results."""

    def __init__(self, message: str, ring=None, history=None):
        self.ring = ring
        self.history = history
        super().__init__(message)
