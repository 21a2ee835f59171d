"""Exception types, and the integer and warning rules, shared across the package."""

import warnings

import numpy as np

__all__ = [
    "ValidationError",
    "ConfigurationError",
    "ScheduleError",
    "RecommendationError",
    "ParseError",
    "ReferentialError",
]

_REGISTRY: dict = {}  # the process's: shows each warning text once


class ValidationError(ValueError):
    """A declarative object (spec, schedule, config) violates an invariant.

    ``field`` names the offending entry when one can be singled out.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


class ConfigurationError(ValueError):
    """A runtime parameter is outside its admissible range."""


class ScheduleError(ValidationError):
    """An elimination schedule is malformed or leaves an empty phase."""


class RecommendationError(RuntimeError):
    """A recommendation rule was asked to decide on insufficient data."""


class ParseError(ValueError):
    """A structured input file is malformed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ReferentialError(ValueError):
    """Cross-file identifiers do not agree."""


def _check_integer(value, name: str, low: int | None = None) -> int:
    """A count, seed or stream path part as an int: it must be an int or numpy
    integer, not a bool or a float (a float is not truncated), at least ``low``
    when given, and an int64. A stream maps an int64 to the uint64 word of its
    two's complement, so each int64 names one stream and no other int does."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigurationError(f"{name} must be >= {low}, got {value}")
    if not -(1 << 63) <= int(value) < 1 << 63:
        raise ConfigurationError(f"{name} {value} outside [-2**63, 2**63)")
    return int(value)


def _check_integers(values, name: str) -> np.ndarray:
    """Ints as a new int64 array. Unless the array is of a signed int dtype, each entry passes
    the integer rule: a float, bool or other entry is refused, not cast, as is a uint64 of 2**63."""
    arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    ints = arr if arr.dtype.kind == "i" else np.frompyfunc(lambda value: _check_integer(value, name), 1, 1)(arr)
    return np.array(ints, dtype=np.int64)


def _read_text(path, kind: str) -> str:
    """The text of the ``kind`` input file at ``path``. A directory raises
    ConfigurationError and bytes that are not UTF-8 raise ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except IsADirectoryError:
        raise ConfigurationError(f"{kind} {str(path)!r} is a directory, not a file") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{kind} is not UTF-8 text: {exc}") from None


def _warn(message: str, module: str, registry: dict | None = None, category=UserWarning) -> None:
    """Warn at a module's name and line 0 rather than at a source file and
    line, so stderr depends on neither the checkout nor line numbers; like
    ``warnings.warn``, the default action shows each text once per registry,
    the process's unless the caller passes its own."""
    warnings.warn_explicit(message, category, module, 0, registry=_REGISTRY if registry is None else registry)
