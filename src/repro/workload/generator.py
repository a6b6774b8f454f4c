"""The CWF workload generator (paper §IV-C/§IV-D, Figure 3).

Composes the statistical pieces into a complete heterogeneous, elastic
workload:

- arrival times from the Lublin arrival process (``β_arr`` is the load
  knob),
- sizes from the two-stage uniform BlueGene/P model (``P_S`` knob),
- runtimes from the size-correlated hyper-Gamma (Table I),
- a job is dedicated with probability ``P_D``; its rigid requested
  start time is ``submit + Exp(mean)``,
- ET commands injected with probability ``P_E`` and RT with ``P_R``
  per job; amounts are exponential (§IV-D, last paragraph).

The output :class:`Workload` is a value object: experiments copy jobs
per run so one generated workload can be scheduled by all algorithms
under identical conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.workload.cwf import CWFRecord, write_cwf
from repro.workload.distributions import exponential
from repro.workload.ecc import ECC, ECCKind
from repro.workload.job import Job, JobKind
from repro.workload.load import offered_load
from repro.workload.lublin import LublinConfig, LublinModel
from repro.workload.twostage import TwoStageSizeConfig, TwoStageSizeModel


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the CWF workload generator.

    Attributes:
        n_jobs: Jobs per experiment (the paper's ``N_J = 500``).
        machine_size: Simulated machine size ``M`` (320).
        size: Two-stage uniform size model parameters (``P_S`` inside).
        lublin: Runtime + arrival parameters (Tables I–II); the size
            part of the Lublin config is unused here because sizes come
            from the two-stage model.
        p_dedicated: The paper's ``P_D``.
        dedicated_start_mean: Mean of the exponential offset between a
            dedicated job's submission and its rigid requested start.
        p_extend / p_reduce: The paper's ``P_E`` / ``P_R`` ECC
            injection probabilities (0.2 / 0.1 in §IV-D when elastic).
        ecc_amount_mean: Mean of the exponential ET/RT amount, as a
            fraction of the job's estimated runtime.  Relative amounts
            keep commands meaningful across the wide runtime range.
        ecc_issue_mean_fraction: Mean (fraction of estimate) of the
            exponential delay after submission at which an ECC is
            issued.
        estimate_factor: User over-estimation factor; estimates are
            ``actual * estimate_factor`` (1.0 = perfect estimates, the
            paper's model; 2.0 reproduces Mu'alem's observation).
        integral_times: Round arrivals/runtimes to whole seconds, as
            SWF logs are integral.
    """

    n_jobs: int = 500
    machine_size: int = 320
    size: TwoStageSizeConfig = field(default_factory=TwoStageSizeConfig)
    lublin: LublinConfig = field(default_factory=LublinConfig)
    p_dedicated: float = 0.0
    dedicated_start_mean: float = 3600.0
    p_extend: float = 0.0
    p_reduce: float = 0.0
    #: Probability a job is user-cancelled (SWF status-5 behaviour);
    #: the cancellation instant is submit + Exp(cancel_mean_fraction
    #: x estimate), so short-queued jobs usually run before it fires.
    p_cancel: float = 0.0
    cancel_mean_fraction: float = 2.0
    ecc_amount_mean: float = 0.5
    ecc_issue_mean_fraction: float = 0.5
    estimate_factor: float = 1.0
    integral_times: bool = True

    def __post_init__(self) -> None:
        if self.n_jobs < 0:
            raise ValueError(f"n_jobs must be non-negative, got {self.n_jobs}")
        if self.machine_size < self.size.max_size():
            raise ValueError(
                f"machine size {self.machine_size} cannot fit the largest "
                f"generated job ({self.size.max_size()})"
            )
        for name in ("p_dedicated", "p_extend", "p_reduce", "p_cancel"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.estimate_factor < 1.0:
            raise ValueError(
                f"estimate_factor must be >= 1 (estimates bound runtimes), "
                f"got {self.estimate_factor}"
            )
        for name in (
            "dedicated_start_mean",
            "ecc_amount_mean",
            "ecc_issue_mean_fraction",
            "cancel_mean_fraction",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def with_beta_arr(self, beta_arr: float) -> "GeneratorConfig":
        """Copy with a different arrival-rate (load) knob."""
        return replace(self, lublin=self.lublin.with_beta_arr(beta_arr))

    def with_p_small(self, p_small: float) -> "GeneratorConfig":
        """Copy with a different ``P_S`` (packing-properties knob)."""
        return replace(self, size=replace(self.size, p_small=p_small))


@dataclass
class Workload:
    """A generated (or loaded) workload ready for simulation."""

    jobs: List[Job]
    eccs: List[ECC] = field(default_factory=list)
    machine_size: int = 320
    granularity: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        self.jobs.sort(key=lambda j: (j.submit, j.job_id))
        self.eccs.sort(key=lambda e: (e.issue_time, e.job_id))

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def batch_jobs(self) -> List[Job]:
        """Jobs scheduled flexibly by the scheduler."""
        return [j for j in self.jobs if not j.is_dedicated]

    @property
    def dedicated_jobs(self) -> List[Job]:
        """Jobs with rigid requested start times."""
        return [j for j in self.jobs if j.is_dedicated]

    def offered_load(self) -> float:
        """The paper's Load formula over this workload."""
        return offered_load(self.jobs, self.machine_size)

    def fresh_jobs(self) -> List[Job]:
        """Pristine job copies for one simulation run."""
        return [job.copy_for_run() for job in self.jobs]

    def scale_arrivals(self, factor: float) -> "Workload":
        """New workload with arrival times multiplied by ``factor``.

        This is how [7] (and the paper's Figure 1) varies load on a
        fixed log: stretching inter-arrival gaps lowers load, while
        sizes and runtimes — the packing properties — stay untouched.
        Dedicated start, cancellation and ECC offsets are preserved
        relative to submission.
        """
        if factor <= 0:
            raise ValueError(f"arrival scale factor must be positive, got {factor}")
        scaled = []
        for job in self.jobs:
            start = None
            if job.requested_start is not None:
                start = job.submit * factor + (job.requested_start - job.submit)
            cancel = None
            if job.cancel_at is not None:
                # Preserve the queue-side patience relative to submission.
                cancel = job.submit * factor + (job.cancel_at - job.submit)
            scaled.append(
                Job(
                    job_id=job.job_id,
                    submit=job.submit * factor,
                    num=job.num,
                    estimate=job.original_estimate,
                    actual=job.actual,
                    kind=job.kind,
                    requested_start=start,
                    cancel_at=cancel,
                )
            )
        # Shift ECCs like the dedicated start, keeping their delay after
        # submission: adding submit * (factor - 1) to the issue time can
        # put a command issued at its job's submit instant one ulp
        # before the scaled submission, which CWF files may not hold.
        submit = {job.job_id: job.submit for job in self.jobs}
        eccs = [
            ECC(
                job_id=e.job_id,
                issue_time=(
                    submit[e.job_id] * factor + (e.issue_time - submit[e.job_id])
                ),
                kind=e.kind,
                amount=e.amount,
            )
            for e in self.eccs
        ]
        return Workload(
            jobs=scaled,
            eccs=eccs,
            machine_size=self.machine_size,
            granularity=self.granularity,
            description=f"{self.description} (arrivals x{factor:g})".strip(),
        )

    def to_cwf(self, target: Union[str, Path]) -> None:
        """Write the workload (submissions + ECCs) as a CWF file."""
        records: List[tuple[float, int, CWFRecord]] = []
        for job in self.jobs:
            records.append((job.submit, 0, CWFRecord.from_job(job)))
        for ecc in self.eccs:
            records.append((ecc.issue_time, 1, CWFRecord.from_ecc(ecc)))
        records.sort(key=lambda item: (item[0], item[1], item[2].job_id))
        write_cwf(
            (record for _, _, record in records),
            target,
            header=[
                f"Cloud Workload Format; {len(self.jobs)} jobs, {len(self.eccs)} ECCs",
                f"MaxProcs: {self.machine_size}",
                self.description or "generated by repro.workload.generator",
            ],
        )


class JobDraw(NamedTuple):
    """One synthetic job's draws that do not depend on ``β_arr``.

    Offsets are relative to the job's submission, which only its
    arrival fixes; :meth:`CWFWorkloadGenerator.assemble` adds them.
    """

    num: int
    actual: float
    estimate: float
    #: Rounded delay from submission to cancellation (None = never).
    cancel_offset: Optional[float]
    #: Rounded delay from submission to a dedicated job's requested
    #: start (None = batch job).
    start_offset: Optional[float]
    #: ``(kind, amount, unrounded issue delay)`` per ECC, ET before RT.
    eccs: Tuple[Tuple[ECCKind, float, float], ...]


class _LoadTerm(NamedTuple):
    """Just what :func:`~repro.workload.load.offered_load` reads of a job."""

    submit: float
    num: int
    runtime: float

    def effective_runtime(self) -> float:
        return self.runtime


class CWFWorkloadGenerator:
    """Synthesizes :class:`Workload` objects from a :class:`GeneratorConfig`.

    Generation is two steps: :meth:`draw_jobs` draws everything but the
    arrivals, and :meth:`assemble` places those draws at an arrival
    list.  Only arrivals depend on the load knob ``β_arr``, so load
    calibration draws jobs once and resamples arrivals per probe.
    """

    def __init__(self, config: GeneratorConfig = GeneratorConfig()) -> None:
        self.config = config
        self._sizes = TwoStageSizeModel(config.size)
        self._lublin = LublinModel(config.lublin)

    # ------------------------------------------------------------------
    def generate(self, rng: np.random.Generator) -> Workload:
        """Draw one complete workload."""
        # Independent substreams: job attributes and ECCs are identical
        # across load-knob (beta_arr) probes, so calibration sweeps one
        # smooth dimension (see LublinModel.sample_gap).
        arrival_rng, attr_rng, ecc_rng = substreams(rng)
        draws = self.draw_jobs(attr_rng, ecc_rng)
        return self.assemble(draws, self.sample_arrivals(arrival_rng))

    def sample_arrivals(self, rng: np.random.Generator) -> List[float]:
        """The workload's arrival instants (the only ``β_arr``-dependent draw)."""
        return self._lublin.sample_arrivals(self.config.n_jobs, rng)

    def draw_jobs(
        self, attr_rng: np.random.Generator, ecc_rng: np.random.Generator
    ) -> List[JobDraw]:
        """Every job's ``β_arr``-independent draws, in job-id order."""
        return [self._draw_job(attr_rng, ecc_rng) for _ in range(self.config.n_jobs)]

    def _draw_job(
        self, attr_rng: np.random.Generator, ecc_rng: np.random.Generator
    ) -> JobDraw:
        """Draw one job's attributes (from ``attr_rng``) and ECCs (``ecc_rng``)."""
        cfg = self.config
        size = self._sizes.sample(attr_rng)
        actual = self._round_time(self._lublin.sample_runtime(size, attr_rng))
        estimate = self._round_time(actual * cfg.estimate_factor)
        cancel_offset = None
        if cfg.p_cancel > 0.0 and attr_rng.random() < cfg.p_cancel:
            cancel_offset = self._round_time(
                exponential(cfg.cancel_mean_fraction * actual, attr_rng)
            )
        start_offset = None
        if attr_rng.random() < cfg.p_dedicated:
            start_offset = self._round_time(
                exponential(cfg.dedicated_start_mean, attr_rng)
            )
        commands = []
        for kind, probability in (
            (ECCKind.EXTEND_TIME, cfg.p_extend),
            (ECCKind.REDUCE_TIME, cfg.p_reduce),
        ):
            if probability <= 0.0 or ecc_rng.random() >= probability:
                continue
            amount = self._round_time(
                exponential(cfg.ecc_amount_mean * estimate, ecc_rng)
            )
            delay = exponential(cfg.ecc_issue_mean_fraction * estimate, ecc_rng)
            commands.append((kind, amount, delay))
        return JobDraw(size, actual, estimate, cancel_offset, start_offset, tuple(commands))

    def assemble(self, draws: Sequence[JobDraw], arrivals: Sequence[float]) -> Workload:
        """The workload whose ``i``-th job arrives at ``arrivals[i]``."""
        cfg = self.config
        jobs: List[Job] = []
        eccs: List[ECC] = []
        for index, (arrival, draw) in enumerate(zip(arrivals, draws), start=1):
            job, commands = self._build_job(index, arrival, draw)
            jobs.append(job)
            eccs.extend(commands)
        return Workload(
            jobs=jobs,
            eccs=eccs,
            machine_size=cfg.machine_size,
            granularity=cfg.size.granularity,
            description=(
                f"CWF synthetic: N={cfg.n_jobs} P_S={cfg.size.p_small:g} "
                f"P_D={cfg.p_dedicated:g} P_E={cfg.p_extend:g} P_R={cfg.p_reduce:g} "
                f"beta_arr={cfg.lublin.beta_arr:g}"
            ),
        )

    def _build_job(
        self, job_id: int, arrival: float, draw: JobDraw
    ) -> Tuple[Job, List[ECC]]:
        """Place one job's draws at its arrival: the job and its ECCs."""
        submit = self._submit(arrival)
        dedicated = draw.start_offset is not None
        job = Job(
            job_id=job_id,
            submit=submit,
            num=draw.num,
            estimate=draw.estimate,
            actual=draw.actual,
            kind=JobKind.DEDICATED if dedicated else JobKind.BATCH,
            requested_start=submit + draw.start_offset if dedicated else None,
            cancel_at=None if draw.cancel_offset is None else submit + draw.cancel_offset,
        )
        eccs = [
            ECC(
                job_id=job_id,
                issue_time=self._round_time(submit + delay),
                kind=kind,
                amount=amount,
            )
            for kind, amount, delay in draw.eccs
        ]
        return job, eccs

    def offered_load(self, draws: Sequence[JobDraw], arrivals: Sequence[float]) -> float:
        """``assemble(draws, arrivals).offered_load()`` without building jobs.

        Feeds :func:`~repro.workload.load.offered_load` the same values
        in the same ``(submit, job_id)`` order as the assembled
        workload's sorted job list, so the result is bitwise equal.
        """
        terms = [
            _LoadTerm(self._submit(arrival), draw.num, min(draw.actual, draw.estimate))
            for arrival, draw in zip(arrivals, draws)
        ]
        terms.sort(key=lambda term: term.submit)  # stable: ties keep job-id order
        return offered_load(terms, self.config.machine_size)

    # ------------------------------------------------------------------
    def _round_time(self, value: float) -> float:
        if self.config.integral_times:
            return float(max(1, round(value)))
        return float(value)

    def _submit(self, arrival: float) -> float:
        return float(round(arrival)) if self.config.integral_times else arrival


def substreams(
    rng: np.random.Generator,
) -> Tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """The ``(arrivals, attributes, ECCs)`` substreams a workload draws from.

    Spawning mutates ``rng``, so a caller that needs the streams of one
    seed twice re-seeds a fresh generator each time.
    """
    arrival_rng, attr_rng, ecc_rng = rng.spawn(3)
    return arrival_rng, attr_rng, ecc_rng


__all__ = ["CWFWorkloadGenerator", "GeneratorConfig", "JobDraw", "Workload", "substreams"]
