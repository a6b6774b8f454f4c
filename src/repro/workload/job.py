"""Job records.

A :class:`Job` is the paper's ``w_i`` tuple with full lifecycle state.
Batch jobs carry ``(num, dur, arr, scount)`` and dedicated (interactive)
jobs carry ``(num, dur, start)`` — see the Notations box.  We keep a
single class with a :class:`JobKind` discriminator because dedicated
jobs *become* batch jobs when their start time arrives (Algorithm 3,
``Move_Dedicated_Head_To_Batch_Head``).

Runtime-elasticity semantics pinned here:

- ``estimate`` is the user-estimated execution time (SWF field 9, the
  paper's ``dur``).  Schedulers see only estimates; the kill-by time is
  ``start + estimate``.
- ``actual`` is the true compute demand (SWF field 4).  By default the
  generator sets ``actual == estimate`` (the paper's model draws one
  runtime per job); an over-estimation factor ablation separates them.
- Elastic Control Commands mutate *both*: an ET/RT changes the user's
  declared requirement and the work actually done, shifting the
  kill-by time on-the-fly (§III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class JobKind(Enum):
    """Batch jobs are placed by the scheduler; dedicated jobs are rigid."""

    BATCH = "batch"
    DEDICATED = "dedicated"


class JobState(Enum):
    """Lifecycle of a job inside a simulation."""

    PENDING = "pending"  # exists in the workload, not yet submitted
    QUEUED = "queued"  # in W^b or W^d
    RUNNING = "running"  # in A, holding processors
    FINISHED = "finished"  # released its processors
    CANCELLED = "cancelled"  # withdrawn from the queue before starting
    FAILED = "failed"  # fault-injected failure with retries exhausted

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class Job:
    """A parallel job (the paper's ``w^b`` / ``w^d`` tuple).

    Attributes:
        job_id: Unique identifier (SWF field 1).
        submit: Arrival time into the system (``arr``; SWF field 2).
        num: Requested processors (``num``; SWF field 8).
        estimate: Current user-estimated runtime (``dur``; SWF field 9).
            Mutable at runtime through ECCs.
        actual: Actual compute demand; defaults to ``estimate``.
        kind: Batch or dedicated.
        requested_start: Rigid start time for dedicated jobs (CWF field
            19); ``None`` for batch jobs.
        scount: Skip count — number of scheduling cycles the job was
            skipped at the head of the queue (Delayed-LOS, §III-A).
        ecc_count: Number of ECCs applied so far (a per-job cap may be
            enforced by the ECC processor).
        cancel_at: Optional user cancellation instant (SWF status 5
            jobs).  A job still queued then is withdrawn; a running job
            is terminated at that instant.
        min_procs / pref_procs / max_procs: Optional malleability range
            (docs/malleability.md).  ``None`` on all three (the
            default) marks the job *rigid* — exactly the paper's model,
            and byte-identical behaviour for every existing workload.
            When any is set the missing ones default to ``num`` and the
            scheduler-initiated malleability layer may resize the job
            within ``[min_procs, max_procs]`` at runtime; ``pref_procs``
            is the size the job would ideally run at.
    """

    job_id: int
    submit: float
    num: int
    estimate: float
    actual: Optional[float] = None
    kind: JobKind = JobKind.BATCH
    requested_start: Optional[float] = None
    scount: int = 0
    ecc_count: int = 0
    cancel_at: Optional[float] = None

    # Malleability range (None on all three = rigid, the default).
    min_procs: Optional[int] = None
    pref_procs: Optional[int] = None
    max_procs: Optional[int] = None

    # Lifecycle (filled in by the simulation runner).
    state: JobState = JobState.PENDING
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    killed: bool = False  # terminated at kill-by before actual completed
    #: Times the job failed (fault injection / eviction) and re-entered
    #: the batch queue; 0 on the fault-free path.
    requeues: int = 0
    #: Instant of the latest requeue (None before any failure); this is
    #: the job's *effective arrival* for queue-ordering purposes.
    requeued_at: Optional[float] = None

    # Immutable originals, for metrics and round-tripping.
    original_estimate: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.num <= 0:
            raise ValueError(f"job {self.job_id}: num must be positive, got {self.num}")
        if self.estimate <= 0:
            raise ValueError(
                f"job {self.job_id}: estimate must be positive, got {self.estimate}"
            )
        if self.submit < 0:
            raise ValueError(f"job {self.job_id}: negative submit time {self.submit}")
        if self.actual is None:
            self.actual = self.estimate
        if self.actual < 0:
            raise ValueError(f"job {self.job_id}: negative actual runtime {self.actual}")
        if self.cancel_at is not None and self.cancel_at < self.submit:
            raise ValueError(
                f"job {self.job_id}: cancel_at {self.cancel_at} precedes submit {self.submit}"
            )
        if self.kind is JobKind.DEDICATED:
            if self.requested_start is None:
                raise ValueError(f"dedicated job {self.job_id} needs a requested_start")
            if self.requested_start < self.submit:
                raise ValueError(
                    f"job {self.job_id}: requested_start {self.requested_start} precedes "
                    f"submit {self.submit}"
                )
        elif self.requested_start is not None:
            raise ValueError(f"batch job {self.job_id} must not set requested_start")
        if (
            self.min_procs is not None
            or self.pref_procs is not None
            or self.max_procs is not None
        ):
            if self.min_procs is None:
                self.min_procs = self.num
            if self.max_procs is None:
                self.max_procs = self.num
            if self.pref_procs is None:
                self.pref_procs = self.num
            if self.min_procs <= 0:
                raise ValueError(
                    f"job {self.job_id}: min_procs must be positive, got {self.min_procs}"
                )
            if not self.min_procs <= self.pref_procs <= self.max_procs:
                raise ValueError(
                    f"job {self.job_id}: malleability range must satisfy "
                    f"min <= pref <= max, got {self.min_procs} <= "
                    f"{self.pref_procs} <= {self.max_procs}"
                )
            if not self.min_procs <= self.num <= self.max_procs:
                raise ValueError(
                    f"job {self.job_id}: num {self.num} outside malleability "
                    f"range [{self.min_procs}, {self.max_procs}]"
                )
        if not self.original_estimate:
            self.original_estimate = self.estimate

    # Checkpoints pickle every live job: a positional tuple of the
    # field values (in declaration order) is ~40% smaller than the
    # default slot-name dict and faster to write and read.
    def __getstate__(self) -> tuple:
        return (
            self.job_id, self.submit, self.num, self.estimate, self.actual,
            self.kind, self.requested_start, self.scount, self.ecc_count,
            self.cancel_at, self.min_procs, self.pref_procs, self.max_procs,
            self.state, self.start_time, self.finish_time, self.killed,
            self.requeues, self.requeued_at, self.original_estimate,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.job_id, self.submit, self.num, self.estimate, self.actual,
            self.kind, self.requested_start, self.scount, self.ecc_count,
            self.cancel_at, self.min_procs, self.pref_procs, self.max_procs,
            self.state, self.start_time, self.finish_time, self.killed,
            self.requeues, self.requeued_at, self.original_estimate,
        ) = state

    # ------------------------------------------------------------------
    # Scheduler-visible quantities
    # ------------------------------------------------------------------
    @property
    def is_dedicated(self) -> bool:
        """Whether the job is rigid in its start time."""
        return self.kind is JobKind.DEDICATED

    @property
    def is_malleable(self) -> bool:
        """Whether the job declared a processor range (docs/malleability.md).

        Rigid jobs (all three range fields ``None``, the default) are
        never touched by the scheduler-initiated malleability layer.
        """
        return self.min_procs is not None

    def effective_runtime(self) -> float:
        """Time the job will actually occupy processors once started.

        Jobs overrunning their estimate are killed at the kill-by time
        (backfill semantics), so occupancy is ``min(actual, estimate)``.
        """
        assert self.actual is not None
        return min(self.actual, self.estimate)

    def kill_by(self) -> float:
        """Scheduled termination instant (requires the job be running)."""
        if self.start_time is None:
            raise ValueError(f"job {self.job_id} has not started")
        return self.start_time + self.estimate

    def residual(self, now: float) -> float:
        """Scheduler-visible remaining runtime (the paper's ``res``).

        Based on the estimate, as in EASY/LOS: the scheduler cannot see
        the actual runtime of a running job.
        """
        if self.start_time is None:
            raise ValueError(f"job {self.job_id} has not started")
        return max(0.0, self.start_time + self.estimate - now)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def wait_time(self) -> float:
        """Queueing delay ``start - submit`` (requires job started)."""
        if self.start_time is None:
            raise ValueError(f"job {self.job_id} never started")
        return self.start_time - self.submit

    def runtime(self) -> float:
        """Realized runtime ``finish - start`` (requires job finished)."""
        if self.start_time is None or self.finish_time is None:
            raise ValueError(f"job {self.job_id} did not complete")
        return self.finish_time - self.start_time

    def effective_arrival(self) -> float:
        """When the job last entered the batch queue.

        The original submission for never-failed jobs; the latest
        requeue instant otherwise.  FIFO queue ordering is defined on
        this quantity so requeued jobs rejoin at the tail without
        violating the Notations-box arrival invariant.
        """
        return self.requeued_at if self.requeued_at is not None else self.submit

    def dedicated_delay(self) -> float:
        """How late a dedicated job started relative to its rigid start.

        Zero for on-time starts.  Only meaningful for dedicated jobs.
        """
        if self.requested_start is None or self.start_time is None:
            raise ValueError(f"job {self.job_id} is not a started dedicated job")
        return max(0.0, self.start_time - self.requested_start)

    def copy_for_run(self) -> "Job":
        """Fresh copy with pristine lifecycle state.

        Experiments run the *same* workload under several schedulers;
        each run gets independent mutable copies.
        """
        return Job(
            job_id=self.job_id,
            submit=self.submit,
            num=self.num,
            estimate=self.original_estimate,
            actual=self.actual,
            kind=self.kind,
            requested_start=self.requested_start,
            cancel_at=self.cancel_at,
            min_procs=self.min_procs,
            pref_procs=self.pref_procs,
            max_procs=self.max_procs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "D" if self.is_dedicated else "B"
        return (
            f"Job#{self.job_id}[{tag} num={self.num} est={self.estimate:.0f} "
            f"arr={self.submit:.0f} {self.state}]"
        )


__all__ = ["Job", "JobKind", "JobState"]
