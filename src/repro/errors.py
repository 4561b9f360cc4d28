"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """A data-dependence graph is malformed or an operation on it is invalid."""


class SchedulingError(ReproError):
    """The modulo scheduler could not produce a legal schedule."""


class RecurrenceError(SchedulingError):
    """No II up to the search's limit meets the recurrence bound: a
    dependence cycle is still positive there."""


class TransformError(ReproError):
    """A DDG transformation (MDC / DDGT / unrolling) failed or is illegal."""


class SimulationError(ReproError):
    """The cycle-level simulator reached an inconsistent state."""


class CheckError(ReproError):
    """A checker found a real problem: the protocol model and the
    simulator disagreed, or a compiled schedule failed verification."""


class ConfigError(ReproError):
    """A machine or workload configuration is invalid."""


class WorkloadError(ReproError):
    """A workload/benchmark descriptor is invalid or unknown."""
