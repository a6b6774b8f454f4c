"""Tests for load calibration."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.calibrate import CalibrationResult, calibrate_beta_arr
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.twostage import TwoStageSizeConfig


@pytest.fixture(scope="module")
def config():
    return GeneratorConfig(n_jobs=120)


class TestCalibration:
    @pytest.mark.parametrize("target", [0.6, 0.9])
    def test_hits_target_within_tolerance(self, config, target):
        result = calibrate_beta_arr(config, target, seed=3, tolerance=0.02)
        assert result.achieved_load == pytest.approx(target, abs=0.025)
        assert result.workload.offered_load() == pytest.approx(result.achieved_load)

    def test_deterministic(self, config):
        a = calibrate_beta_arr(config, 0.8, seed=5)
        b = calibrate_beta_arr(config, 0.8, seed=5)
        assert a.beta_arr == b.beta_arr
        assert a.achieved_load == b.achieved_load

    def test_monotone_beta_vs_load(self, config):
        low = calibrate_beta_arr(config, 0.5, seed=7)
        high = calibrate_beta_arr(config, 0.95, seed=7)
        # Higher load needs faster arrivals (smaller beta_arr).
        assert high.beta_arr < low.beta_arr

    def test_unreachable_high_target_rejected(self, config):
        with pytest.raises(ValueError, match="achievable maximum"):
            calibrate_beta_arr(config, 50.0, seed=1, low=0.5, high=0.9)

    def test_unreachable_low_target_rejected(self, config):
        with pytest.raises(ValueError, match="achievable minimum"):
            calibrate_beta_arr(config, 0.001, seed=1, low=0.4, high=0.6)

    def test_nonpositive_target_rejected(self, config):
        with pytest.raises(ValueError, match="positive"):
            calibrate_beta_arr(config, 0.0, seed=1)

    def test_paper_beta_range_brackets_paper_loads(self):
        """Table II: β_arr in [0.4101, 0.6101] should span loads well
        around the paper's [0.5, 1] interval for the paper's workload
        (N=500, P_S mixes)."""
        config = GeneratorConfig(n_jobs=300)
        result_low = calibrate_beta_arr(config, 0.5, seed=11)
        result_high = calibrate_beta_arr(config, 1.0, seed=11)
        # The calibrated knobs land in a plausible neighbourhood of the
        # paper's range (we don't pin exact values — different draws).
        assert 0.3 <= result_high.beta_arr < result_low.beta_arr <= 1.0


# ----------------------------------------------------------------------
# Oracle: the full-regeneration bisection
# ----------------------------------------------------------------------
def _reference_measured_load(config, beta_arr, seed):
    generator = CWFWorkloadGenerator(config.with_beta_arr(beta_arr))
    workload = generator.generate(np.random.default_rng(seed))
    return workload.offered_load(), workload


def _reference_calibrate(
    config, target_load, seed, *, low=0.25, high=1.2, tolerance=0.02, max_iterations=40
):
    """Bisection that regenerates the whole workload at every probe."""
    load_at_low, wl_low = _reference_measured_load(config, low, seed)
    if target_load >= load_at_low:
        assert abs(load_at_low - target_load) <= tolerance, "outside the bracket"
        return CalibrationResult(low, load_at_low, wl_low)
    load_at_high, wl_high = _reference_measured_load(config, high, seed)
    if target_load <= load_at_high:
        assert abs(load_at_high - target_load) <= tolerance, "outside the bracket"
        return CalibrationResult(high, load_at_high, wl_high)
    best = CalibrationResult(low, load_at_low, wl_low)
    for _ in range(max_iterations):
        mid = 0.5 * (low + high)
        load, workload = _reference_measured_load(config, mid, seed)
        if abs(load - target_load) < abs(best.achieved_load - target_load):
            best = CalibrationResult(mid, load, workload)
        if abs(load - target_load) <= tolerance:
            return CalibrationResult(mid, load, workload)
        if load > target_load:
            low = mid
        else:
            high = mid
    return best


def _job_fields(workload):
    return [
        (j.job_id, j.submit, j.num, j.estimate, j.actual, j.kind,
         j.requested_start, j.cancel_at)
        for j in workload.jobs
    ]


def _ecc_fields(workload):
    return [(e.job_id, e.issue_time, e.kind, e.amount) for e in workload.eccs]


def _assert_identical(got, want):
    assert got.beta_arr == want.beta_arr
    assert got.achieved_load == want.achieved_load
    assert _job_fields(got.workload) == _job_fields(want.workload)
    assert _ecc_fields(got.workload) == _ecc_fields(want.workload)
    assert got.workload.description == want.workload.description
    assert got.workload.offered_load() == got.achieved_load


ORACLE_CONFIGS = {
    "batch": GeneratorConfig(n_jobs=150, size=TwoStageSizeConfig(p_small=0.2)),
    "heterogeneous": GeneratorConfig(n_jobs=150, p_dedicated=0.5),
    "elastic": GeneratorConfig(
        n_jobs=150, p_dedicated=0.3, p_extend=0.2, p_reduce=0.1, p_cancel=0.1
    ),
}


class TestArrivalOnlyProbesMatchFullRegeneration:
    @pytest.mark.parametrize("integral_times", [True, False])
    @pytest.mark.parametrize("kind", sorted(ORACLE_CONFIGS))
    @pytest.mark.parametrize("target,seed", [(0.55, 2), (0.8, 4), (0.97, 6)])
    def test_identical_to_reference(self, kind, integral_times, target, seed):
        config = replace(ORACLE_CONFIGS[kind], integral_times=integral_times)
        _assert_identical(
            calibrate_beta_arr(config, target, seed=seed),
            _reference_calibrate(config, target, seed),
        )

    def test_best_probe_when_budget_runs_out(self):
        config = ORACLE_CONFIGS["elastic"]
        kwargs = dict(tolerance=1e-9, max_iterations=4)
        _assert_identical(
            calibrate_beta_arr(config, 0.8, seed=3, **kwargs),
            _reference_calibrate(config, 0.8, 3, **kwargs),
        )

    @pytest.mark.parametrize("end", ["low", "high"])
    @pytest.mark.parametrize("kind", sorted(ORACLE_CONFIGS))
    def test_bracket_end_hits_target(self, kind, end):
        config = ORACLE_CONFIGS[kind]
        bracket = {"low": 0.45, "high": 0.6}
        target, _ = _reference_measured_load(config, bracket[end], 5)
        got = calibrate_beta_arr(config, target, seed=5, **bracket)
        assert got.beta_arr == bracket[end]
        _assert_identical(got, _reference_calibrate(config, target, 5, **bracket))
