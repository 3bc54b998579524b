"""Exception hierarchy for qcorr.

Every failure mode callers are expected to branch on gets its own class;
generic misuse raises ValidationError (a ValueError subclass).
"""


class QcorrError(Exception):
    """Base class for all qcorr errors."""


class ValidationError(QcorrError, ValueError):
    """Invalid argument, configuration value, or domain-object state."""


class SpecSizeError(ValidationError):
    """Correlator specification too large for the requested evaluation route."""


class FactorizationInapplicableError(QcorrError):
    """Factorized evaluation requested for a model outside its preconditions.

    Raised when the ensemble model is not unital (use chain_correlator
    instead) or a channel has nonzero phase backaction.
    """


class IntegrationDivergedError(QcorrError):
    """Trajectory integration produced a non-finite state."""

    def __init__(self, step_index, trajectory_index=None):
        self.step_index = step_index
        self.trajectory_index = trajectory_index
        where = f"step {step_index}"
        if trajectory_index is not None:
            where += f", trajectory {trajectory_index}"
        super().__init__(f"integration diverged at {where}")


class ConfigError(QcorrError, ValueError):
    """Configuration file failed schema validation; message names the field."""


class RecordFormatError(QcorrError):
    """Base class for record-file format errors."""


class MagicMismatchError(RecordFormatError):
    """File does not start with the record-container magic bytes."""


class VersionMismatchError(RecordFormatError):
    """Record container has an unsupported format version."""


class TruncatedRecordError(RecordFormatError):
    """Record container payload length is inconsistent with its header."""


class EstimateMismatchError(QcorrError, ValueError):
    """Estimates computed from different specifications cannot be merged."""
