"""Committed golden traces: the trace writer's bytes must never drift.

Each fixture is a full JSONL trace of a 300-job elastic heterogeneous
workload (dedicated jobs, ET/RT commands, cancellations) run with pset
faults, job failures and decision records.  The test regenerates the
run and requires the file to match byte for byte, apart from the
``repro_version`` stamp in the header, so any change to record payloads
or to their encoding shows up here.

Regenerate the fixtures (only when a trace change is intended)::

    PYTHONPATH=src python -m tests.obs.test_trace_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import __version__
from repro.core.registry import make_scheduler
from repro.experiments.runner import SimulationRunner
from repro.faults import FaultConfig
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig

FIXTURES = Path(__file__).parent / "fixtures"
POLICIES = ("Hybrid-LOS-E", "EASY-DE")


def golden_path(policy: str) -> Path:
    return FIXTURES / f"golden_elastic_{policy}.jsonl"


def _workload():
    config = GeneratorConfig(
        n_jobs=300,
        p_dedicated=0.3,
        p_extend=0.2,
        p_reduce=0.1,
        p_cancel=0.05,
        integral_times=False,
    )
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(2012))


def write_golden_run(policy: str, path: Path) -> None:
    """Run ``policy`` on the golden workload, tracing into ``path``."""
    workload = _workload()
    span = max(job.submit for job in workload.jobs)
    faults = FaultConfig(
        mtbf=span / 15, mttr=1800.0, seed=5, p_job_fail=0.02, poison_jobs=(7,)
    )
    SimulationRunner(
        workload,
        make_scheduler(policy),
        trace_out=path,
        decisions=True,
        faults=faults,
    ).run()


def _without_version(raw: bytes) -> bytes:
    header, _, body = raw.partition(b"\n")
    meta = json.loads(header)
    meta["meta"].pop("repro_version")
    return json.dumps(meta).encode() + b"\n" + body


@pytest.mark.parametrize("policy", POLICIES)
def test_trace_matches_golden_bytes(policy, tmp_path):
    path = tmp_path / "trace.jsonl"
    write_golden_run(policy, path)
    got = path.read_bytes()
    want = golden_path(policy).read_bytes()
    assert f'"repro_version":"{__version__}"'.encode() in got.partition(b"\n")[0]
    assert _without_version(got) == _without_version(want)


def test_golden_traces_cover_the_payload_types():
    """The fixtures exercise what the encoder must get exactly right."""
    kinds = set()
    types = set()
    for policy in POLICIES:
        lines = golden_path(policy).read_text(encoding="utf-8").splitlines()[1:]
        for line in lines:
            record = json.loads(line)
            kinds.add(record["kind"])
            types.update(type(value).__name__ for value in record["data"].values())
    assert {"ecc", "cancel", "node-fail", "decision", "job-failed-permanently"} <= kinds
    assert {"int", "float", "str", "NoneType"} <= types


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    for name in POLICIES:
        write_golden_run(name, golden_path(name))
        print(golden_path(name))
