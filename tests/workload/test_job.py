"""Unit tests for job records and lifecycle quantities."""

from __future__ import annotations

import pytest

from repro.workload.job import Job, JobKind, JobState
from tests.conftest import batch_job, dedicated_job


class TestValidation:
    def test_defaults(self):
        job = batch_job(1, submit=5.0, num=64, estimate=100.0)
        assert job.actual == 100.0  # defaults to the estimate
        assert job.state is JobState.PENDING
        assert job.kind is JobKind.BATCH
        assert job.original_estimate == 100.0
        assert not job.is_dedicated

    @pytest.mark.parametrize("num", [0, -5])
    def test_nonpositive_size_rejected(self, num):
        with pytest.raises(ValueError, match="num must be positive"):
            Job(job_id=1, submit=0.0, num=num, estimate=10.0)

    def test_nonpositive_estimate_rejected(self):
        with pytest.raises(ValueError, match="estimate must be positive"):
            Job(job_id=1, submit=0.0, num=1, estimate=0.0)

    def test_negative_submit_rejected(self):
        with pytest.raises(ValueError, match="negative submit"):
            Job(job_id=1, submit=-1.0, num=1, estimate=10.0)

    def test_dedicated_requires_requested_start(self):
        with pytest.raises(ValueError, match="requested_start"):
            Job(job_id=1, submit=0.0, num=1, estimate=10.0, kind=JobKind.DEDICATED)

    def test_dedicated_start_before_submit_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            Job(
                job_id=1,
                submit=10.0,
                num=1,
                estimate=10.0,
                kind=JobKind.DEDICATED,
                requested_start=5.0,
            )

    def test_batch_with_requested_start_rejected(self):
        with pytest.raises(ValueError, match="must not set requested_start"):
            Job(job_id=1, submit=0.0, num=1, estimate=10.0, requested_start=5.0)


class TestSchedulerQuantities:
    def test_effective_runtime_is_min_of_actual_and_estimate(self):
        overrun = batch_job(1, estimate=100.0, actual=150.0)
        assert overrun.effective_runtime() == 100.0  # killed at kill-by
        early = batch_job(2, estimate=100.0, actual=60.0)
        assert early.effective_runtime() == 60.0

    def test_kill_by_and_residual(self):
        job = batch_job(1, estimate=100.0)
        job.start_time = 50.0
        assert job.kill_by() == 150.0
        assert job.residual(now=80.0) == 70.0
        assert job.residual(now=200.0) == 0.0  # clamped

    def test_residual_requires_started(self):
        with pytest.raises(ValueError, match="has not started"):
            batch_job(1).residual(0.0)

    def test_kill_by_requires_started(self):
        with pytest.raises(ValueError, match="has not started"):
            batch_job(1).kill_by()


class TestMetrics:
    def test_wait_and_runtime(self):
        job = batch_job(1, submit=10.0, estimate=100.0)
        job.start_time = 35.0
        job.finish_time = 135.0
        assert job.wait_time() == 25.0
        assert job.runtime() == 100.0

    def test_wait_requires_started(self):
        with pytest.raises(ValueError, match="never started"):
            batch_job(1).wait_time()

    def test_dedicated_delay(self):
        job = dedicated_job(1, submit=0.0, requested_start=100.0)
        job.start_time = 130.0
        assert job.dedicated_delay() == 30.0
        job.start_time = 100.0
        assert job.dedicated_delay() == 0.0

    def test_dedicated_delay_rejects_batch(self):
        job = batch_job(1)
        job.start_time = 1.0
        with pytest.raises(ValueError, match="dedicated"):
            job.dedicated_delay()


class TestCopyForRun:
    def test_copy_resets_lifecycle(self):
        job = batch_job(1, estimate=100.0)
        job.start_time = 5.0
        job.finish_time = 105.0
        job.state = JobState.FINISHED
        job.scount = 4
        job.ecc_count = 2
        clone = job.copy_for_run()
        assert clone.state is JobState.PENDING
        assert clone.start_time is None and clone.finish_time is None
        assert clone.scount == 0 and clone.ecc_count == 0
        assert clone.job_id == job.job_id and clone.num == job.num

    def test_copy_restores_original_estimate_after_ecc(self):
        job = batch_job(1, estimate=100.0)
        job.estimate = 250.0  # mutated by an ET command
        clone = job.copy_for_run()
        assert clone.estimate == 100.0

    def test_copy_preserves_dedication(self):
        job = dedicated_job(3, requested_start=77.0)
        clone = job.copy_for_run()
        assert clone.is_dedicated and clone.requested_start == 77.0


class TestMalleabilityRange:
    def test_default_is_rigid(self):
        job = batch_job(1, num=64)
        assert not job.is_malleable
        assert job.min_procs is None and job.max_procs is None

    def test_partial_range_is_completed_with_num(self):
        job = Job(job_id=1, submit=0.0, num=64, estimate=10.0, min_procs=32)
        assert job.is_malleable
        assert (job.min_procs, job.pref_procs, job.max_procs) == (32, 64, 64)

    def test_max_alone_fills_the_rest(self):
        job = Job(job_id=1, submit=0.0, num=64, estimate=10.0, max_procs=128)
        assert (job.min_procs, job.pref_procs, job.max_procs) == (64, 64, 128)

    def test_nonpositive_min_rejected(self):
        with pytest.raises(ValueError, match="min_procs must be positive"):
            Job(job_id=1, submit=0.0, num=64, estimate=10.0, min_procs=0)

    def test_unordered_range_rejected(self):
        with pytest.raises(ValueError, match="min <= pref <= max"):
            Job(
                job_id=1,
                submit=0.0,
                num=64,
                estimate=10.0,
                min_procs=32,
                pref_procs=256,
                max_procs=128,
            )

    def test_num_outside_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            Job(
                job_id=1,
                submit=0.0,
                num=16,
                estimate=10.0,
                min_procs=32,
                max_procs=128,
            )

    def test_copy_for_run_carries_the_range(self):
        job = Job(
            job_id=1,
            submit=0.0,
            num=64,
            estimate=10.0,
            min_procs=32,
            pref_procs=96,
            max_procs=128,
        )
        clone = job.copy_for_run()
        assert clone.is_malleable
        assert (clone.min_procs, clone.pref_procs, clone.max_procs) == (32, 96, 128)


class TestPickleState:
    """Checkpoints pickle jobs as positional tuples of their fields."""

    @staticmethod
    def _non_default_job() -> Job:
        job = Job(
            job_id=7, submit=1.5, num=64, estimate=100.0, actual=80.0,
            kind=JobKind.DEDICATED, requested_start=2.0, scount=3, ecc_count=2,
            cancel_at=50.0, min_procs=32, pref_procs=64, max_procs=128,
            original_estimate=90.0,
        )
        job.state = JobState.RUNNING
        job.start_time = 3.0
        job.finish_time = 9.0
        job.killed = True
        job.requeues = 1
        job.requeued_at = 2.5
        return job

    def test_state_tuple_covers_every_field_in_order(self):
        import dataclasses

        job = self._non_default_job()
        names = [f.name for f in dataclasses.fields(Job)]
        assert job.__getstate__() == tuple(getattr(job, name) for name in names)

    def test_round_trip_keeps_every_non_default_value(self):
        import dataclasses
        import pickle

        job = self._non_default_job()
        for f in dataclasses.fields(Job):
            if f.default is not dataclasses.MISSING:
                assert getattr(job, f.name) != f.default, f.name
        restored = pickle.loads(pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL))
        assert restored == job
        for f in dataclasses.fields(Job):
            assert getattr(restored, f.name) == getattr(job, f.name), f.name
        assert restored.kind is JobKind.DEDICATED and restored.state is JobState.RUNNING

    def test_shared_job_stays_shared(self):
        import pickle

        job = self._non_default_job()
        first, second = pickle.loads(pickle.dumps([job, job]))
        assert first is second
