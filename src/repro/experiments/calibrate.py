"""Load calibration: find the β_arr hitting a target offered load.

The paper varies Load in [0.5, 1] by varying ``β_arr`` in
[0.4101, 0.6101] (Table II).  Offered load is monotonically
*decreasing* in ``β_arr`` (larger β → longer inter-arrival gaps), so a
bisection on the generated workload's measured load converges quickly.
Calibration is per (generator config, seed): each plotted point in §V
is a single seeded run whose measured load is the x-coordinate.

Only the arrivals depend on ``β_arr``, so the job draws are made once
and each probe samples arrivals alone; the workload is assembled once,
for the returned ``β_arr``.  Every probe measures exactly the load the
full workload would have at that ``β_arr``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple

import numpy as np

from repro.workload.generator import (
    CWFWorkloadGenerator,
    GeneratorConfig,
    Workload,
    substreams,
)


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one calibration."""

    beta_arr: float
    achieved_load: float
    workload: Workload


class _Probe(NamedTuple):
    """The load one ``β_arr`` gives, with what it takes to assemble it."""

    beta_arr: float
    load: float
    generator: CWFWorkloadGenerator
    arrivals: List[float]


def calibrate_beta_arr(
    config: GeneratorConfig,
    target_load: float,
    seed: int,
    *,
    low: float = 0.25,
    high: float = 1.2,
    tolerance: float = 0.02,
    max_iterations: int = 40,
) -> CalibrationResult:
    """Bisect ``β_arr`` until the generated workload's load ≈ target.

    Args:
        config: Generator configuration (its ``β_arr`` is overridden).
        target_load: Desired offered load (e.g. 0.9).
        seed: Workload seed — the same seed is used at every probe so
            the search is deterministic and the returned workload is
            exactly the one whose load was measured.
        low / high: β_arr bracket.  Load decreases with β_arr, so
            ``low`` yields the highest load.
        tolerance: Acceptable |achieved − target|.
        max_iterations: Bisection budget.

    Returns:
        The calibrated β_arr, the achieved load, and the workload.

    Raises:
        ValueError: when the target lies outside the bracket's
            achievable range.
    """
    if target_load <= 0:
        raise ValueError(f"target load must be positive, got {target_load}")

    _, attr_rng, ecc_rng = substreams(np.random.default_rng(seed))
    draws = CWFWorkloadGenerator(config).draw_jobs(attr_rng, ecc_rng)

    def probe(beta_arr: float) -> _Probe:
        generator = CWFWorkloadGenerator(config.with_beta_arr(beta_arr))
        arrival_rng, _, _ = substreams(np.random.default_rng(seed))
        arrivals = generator.sample_arrivals(arrival_rng)
        return _Probe(beta_arr, generator.offered_load(draws, arrivals), generator, arrivals)

    def result(found: _Probe) -> CalibrationResult:
        workload = found.generator.assemble(draws, found.arrivals)
        return CalibrationResult(found.beta_arr, found.load, workload)

    at_low = probe(low)
    if target_load >= at_low.load:
        if abs(at_low.load - target_load) <= tolerance:
            return result(at_low)
        raise ValueError(
            f"target load {target_load:.3f} exceeds the achievable maximum "
            f"{at_low.load:.3f} at beta_arr={low}; widen the bracket"
        )
    at_high = probe(high)
    if target_load <= at_high.load:
        if abs(at_high.load - target_load) <= tolerance:
            return result(at_high)
        raise ValueError(
            f"target load {target_load:.3f} is below the achievable minimum "
            f"{at_high.load:.3f} at beta_arr={high}; widen the bracket"
        )

    best = at_low
    for _ in range(max_iterations):
        mid = probe(0.5 * (low + high))
        if abs(mid.load - target_load) < abs(best.load - target_load):
            best = mid
        if abs(mid.load - target_load) <= tolerance:
            return result(mid)
        if mid.load > target_load:
            low = mid.beta_arr  # too much load -> slow arrivals down
        else:
            high = mid.beta_arr
    return result(best)


__all__ = ["CalibrationResult", "calibrate_beta_arr"]
