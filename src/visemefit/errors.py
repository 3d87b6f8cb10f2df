"""Exception taxonomy. The CLI maps these onto exit codes."""


class VisemefitError(Exception):
    """Base class for package errors."""


class DataError(VisemefitError):
    """Malformed or inconsistent input data: parse failures, non-finite
    values, topology mismatches, unmapped phonemes, bad configuration."""


class NumericError(VisemefitError):
    """Numerical failure: behind-camera projection, non-finite loss or
    gradient, degenerate optimization state."""


class UsageError(VisemefitError):
    """Command-line misuse."""
