"""Tests for the algorithm registry (Table III)."""

from __future__ import annotations

import pytest

from repro.core.dedicated import EasyBackfillDedicated, LOSDedicated
from repro.core.delayed_los import DelayedLOS
from repro.core.easy import EasyBackfill
from repro.core.hybrid_los import HybridLOS
from repro.core.los import LOS
from repro.core.registry import ALGORITHMS, READS_MAX_SKIP_COUNT, make_scheduler
from repro.experiments.runner import SimulationRunner

#: The twelve rows of Table III.
TABLE_III = [
    ("EASY", "Batch", False),
    ("EASY-D", "Heterogeneous", False),
    ("EASY-E", "Batch", True),
    ("EASY-DE", "Heterogeneous", True),
    ("LOS", "Batch", False),
    ("LOS-D", "Heterogeneous", False),
    ("LOS-E", "Batch", True),
    ("LOS-DE", "Heterogeneous", True),
    ("Delayed-LOS", "Batch", False),
    ("Hybrid-LOS", "Heterogeneous", False),
    ("Delayed-LOS-E", "Batch", True),
    ("Hybrid-LOS-E", "Heterogeneous", True),
]


class TestTableIII:
    def test_all_twelve_algorithms_present(self):
        for name, _, _ in TABLE_III:
            assert name in ALGORITHMS

    @pytest.mark.parametrize("name,workload,ecc", TABLE_III)
    def test_scope_matches_table(self, name, workload, ecc):
        scheduler = make_scheduler(name)
        assert scheduler.handles_dedicated == (workload == "Heterogeneous")
        assert scheduler.elastic == ecc
        assert scheduler.name == name  # canonical registry spelling

    def test_extra_baselines_available(self):
        assert not make_scheduler("FCFS").handles_dedicated
        assert not make_scheduler("CONSERVATIVE").elastic


class TestConstruction:
    def test_classes(self):
        assert isinstance(make_scheduler("EASY"), EasyBackfill)
        assert isinstance(make_scheduler("EASY-D"), EasyBackfillDedicated)
        assert isinstance(make_scheduler("LOS"), LOS)
        assert isinstance(make_scheduler("LOS-D"), LOSDedicated)
        assert isinstance(make_scheduler("Delayed-LOS"), DelayedLOS)
        assert isinstance(make_scheduler("Hybrid-LOS"), HybridLOS)

    def test_cs_reaches_delayed_and_hybrid(self):
        assert make_scheduler("Delayed-LOS", max_skip_count=12).max_skip_count == 12
        assert make_scheduler("Hybrid-LOS", max_skip_count=12).max_skip_count == 12

    def test_cs_pinned_for_los_family(self):
        # LOS's behaviour IS C_s = 0; the knob must not leak into it.
        assert make_scheduler("LOS", max_skip_count=12).max_skip_count == 0
        assert make_scheduler("LOS-D", max_skip_count=12).max_skip_count == 0

    def test_lookahead_propagates(self):
        assert make_scheduler("LOS", lookahead=25).lookahead == 25
        assert make_scheduler("Delayed-LOS", lookahead=None).lookahead is None

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="EASY-DE"):
            make_scheduler("NOPE")

    def test_instances_are_fresh(self):
        a = make_scheduler("Delayed-LOS")
        b = make_scheduler("Delayed-LOS")
        assert a is not b


class TestSkipCountDeclaration:
    """``READS_MAX_SKIP_COUNT`` is what lets ``execute_runs`` simulate
    a C_s-blind algorithm once per C_s sweep; a wrong entry would hand
    back another run's metrics."""

    FIXTURES = ("small_batch_workload", "small_hetero_workload", "small_elastic_workload")

    @staticmethod
    def _runs(name, workload):
        return [
            SimulationRunner(workload, make_scheduler(name, max_skip_count=cs)).run()
            for cs in (1, 20)
        ]

    def test_declares_delayed_hybrid_and_adaptive(self):
        assert READS_MAX_SKIP_COUNT == {
            "Delayed-LOS", "Delayed-LOS-E", "Hybrid-LOS", "Hybrid-LOS-E",
            "ADAPTIVE", "ADAPTIVE-E",
        }

    @pytest.mark.parametrize(
        "name", sorted(set(ALGORITHMS) - READS_MAX_SKIP_COUNT)
    )
    def test_blind_algorithms_ignore_cs(self, name, request):
        for fixture in self.FIXTURES:
            workload = request.getfixturevalue(fixture)
            if workload.dedicated_jobs and not make_scheduler(name).handles_dedicated:
                continue
            at_1, at_20 = self._runs(name, workload)
            assert at_1 == at_20, (name, fixture)

    @pytest.mark.parametrize("name", ["Delayed-LOS", "Hybrid-LOS"])
    def test_reading_algorithms_react_to_cs(self, name, request):
        differs = []
        for fixture in self.FIXTURES:
            workload = request.getfixturevalue(fixture)
            if workload.dedicated_jobs and not make_scheduler(name).handles_dedicated:
                continue
            at_1, at_20 = self._runs(name, workload)
            differs.append(at_1 != at_20)
        assert any(differs), name
