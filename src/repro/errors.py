"""Exception hierarchy for the ``repro`` library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  Subclasses are grouped per subsystem;
raising a built-in ``ValueError``/``TypeError`` is reserved for plain
argument-validation errors at public API boundaries (see
``repro.utils.validation``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A configuration object is internally inconsistent.

    Raised by the ``validate()`` methods of the dataclasses in
    :mod:`repro.config`, e.g. when the number of requested landmarks
    exceeds the number of available nodes.
    """


class TopologyError(ReproError):
    """A topology could not be generated or is structurally invalid."""


class DisconnectedTopologyError(TopologyError):
    """A generated or supplied topology graph is not connected.

    All RTT computations assume finite shortest-path distances between
    every pair of placed nodes, so a disconnected graph is unusable.
    """


class PlacementError(TopologyError):
    """Caches/server could not be placed on the topology.

    Typically the topology has fewer candidate nodes than the requested
    number of edge caches.
    """


class ProbingError(ReproError):
    """An RTT probe was issued against an unknown or unreachable node."""


class LandmarkSelectionError(ReproError):
    """A landmark set could not be constructed.

    For instance the potential-landmark multiplier ``M`` demands more
    potential landmarks than there are edge caches.
    """


class ClusteringError(ReproError):
    """Clustering failed (bad K, empty input, non-convergence guard)."""


class EmbeddingError(ReproError):
    """A coordinate embedding (GNP / Vivaldi) failed to converge or was
    given inconsistent dimensions."""


class WorkloadError(ReproError):
    """A workload/trace could not be generated, parsed, or validated."""


class TraceFormatError(WorkloadError):
    """A trace file violates the on-disk record format."""


class SimulationError(ReproError):
    """The discrete event simulation reached an inconsistent state."""


class SchemeError(ReproError):
    """A group-formation scheme was mis-invoked (e.g. clustering before
    landmarks were selected)."""


class SchedulerError(ReproError):
    """A parallel task fan failed in the runtime layer itself.

    Raised by :class:`repro.runtime.scheduler.TaskScheduler` when a work
    unit cannot be completed for *infrastructure* reasons — a worker
    crashed and its retry budget is exhausted, a per-task deadline kept
    expiring, or the task payload/result is not picklable.  Exceptions
    raised *by* the task function itself propagate unwrapped, exactly as
    a serial run would raise them.

    ``task_index``, ``qualname``, ``attempts``, and ``last_error`` are
    carried as attributes so callers (and tests) can act on the failing
    unit without parsing the message.
    """

    def __init__(
        self,
        message: str,
        task_index: int = -1,
        qualname: str = "",
        attempts: int = 0,
        last_error: str = "",
    ) -> None:
        super().__init__(message)
        self.task_index = task_index
        self.qualname = qualname
        self.attempts = attempts
        self.last_error = last_error


class JournalError(ReproError):
    """A task journal could not be read/written, or a work-unit payload
    is not content-keyable (see :mod:`repro.runtime.journal`)."""


class RegistryError(ReproError):
    """The run registry is missing, corrupt, or a run reference did not
    resolve (see :mod:`repro.obs.registry`)."""
