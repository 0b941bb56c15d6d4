"""Exception types shared across the package."""


class FlowplugError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(FlowplugError):
    """Shapes or lengths of inputs do not match what an operation expects."""


class NumericError(FlowplugError):
    """A computation produced a non-finite (NaN or infinite) value."""


class ConfigError(FlowplugError):
    """A configuration value is invalid or an unknown key was supplied."""


class DatasetError(FlowplugError):
    """A dataset file or in-memory dataset is malformed or degenerate."""


class UndefinedResultError(FlowplugError):
    """The requested statistic is undefined for the given input."""


class TrainingDivergedError(FlowplugError):
    """Training hit a non-finite loss or gradient; the message names the
    epoch and batch, and for a gradient the first non-finite parameter."""


class WorkerError(FlowplugError):
    """The training worker process died, or failed outside the numerics."""


class CheckpointError(FlowplugError):
    """Base class for checkpoint load failures."""


class CorruptCheckpointError(CheckpointError):
    """Checkpoint file cannot be parsed."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not recognized."""


class CheckpointShapeError(CheckpointError):
    """Checkpoint parameter shapes are inconsistent."""
