"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py`` (one at a time, serially); not meant to be run by
hand.  Modes:

``prepare``  build the inputs for a seed into ``<work>/inputs`` and write
             ``<work>/params.json``.
``setup``    import, read inputs and build the runner, then stop: a
             set-up probe.
``measure``  set up, run the measured phase, check the outputs.

Writes one JSON result to ``--result``.  ``setup_s`` runs from
``--spawn-t`` (the parent's ``time.monotonic()`` just before it started
this process, on the same system-wide clock) to the end of set-up.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _layer_metrics(tracer, counters) -> dict:
    """Per-layer metrics from the tracer's totals and run telemetry."""
    s = tracer.stats

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits, misses = counters.get("dp_cache_hits", 0), counters.get("dp_cache_misses", 0)
    cycles, elided = counters.get("schedule_cycles", 0), counters.get("cycles_elided", 0)
    return {
        "core.dp.calls": s["core.dp"].calls,
        "core.dp.self_s": s["core.dp"].self_s,
        "core.dp.cells": counters.get("dp_cells", 0),
        "core.dp.cache_hit_ratio": ratio(hits, hits + misses),
        "core.cycle.calls": s["core.cycle"].calls,
        "core.cycle.self_s": s["core.cycle"].self_s,
        "core.profile.self_s": s["core.profile"].self_s,
        "core.easy.backfill_start_ratio": ratio(
            counters.get("backfill_starts", 0), counters.get("backfill_attempts", 0)
        ),
        "core.elastic.calls": s["core.elastic"].calls,
        "core.elastic.self_s": s["core.elastic"].self_s,
        "experiments.runner.self_s": s["experiments.runner"].self_s,
        "experiments.runner.cycles": cycles,
        "experiments.runner.elided_ratio": ratio(elided, cycles + elided),
        "sim.self_s": s["sim"].self_s,
        "sim.events": counters.get("events_processed", 0),
        "sim.scheduled": s["sim"].calls,
        "queues.calls": s["queues"].calls,
        "queues.self_s": s["queues"].self_s,
        "queues.mean_depth": ratio(s["queues"].extra.get("items", 0), s["queues"].calls),
        "cluster.calls": s["cluster"].calls,
        "cluster.self_s": s["cluster"].self_s,
        "workload.generate.self_s": s["workload.generate"].self_s,
        "workload.generate.jobs": int(s["workload.generate"].extra.get("jobs", 0)),
        "workload.parse.records": int(s["workload.parse"].extra.get("records", 0)),
        "workload.parse.self_s": s["workload.parse"].self_s,
        "metrics.self_s": s["metrics"].self_s,
        "obs.trace.write_calls": s["obs.trace.write"].calls,
        "obs.trace.write_s": s["obs.trace.write"].self_s,
        "obs.trace.bytes": int(s["obs.trace.write"].extra.get("bytes", 0)),
        "obs.trace.read_s": s["obs.trace.read"].self_s,
        "durable.save.calls": s["durable.save"].calls,
        "durable.save_s": s["durable.save"].self_s,
        "durable.bytes": int(s["durable.save"].extra.get("bytes", 0)),
        "durable.load_s": s["durable.load"].self_s,
        "faults.calls": s["faults"].calls,
        "faults.self_s": s["faults"].self_s,
    }


def _make_tracer(trace: bool, plant: str, counters: dict):
    """A tracer over every layer (``trace``) or only the planted one."""
    from layers import LayerTracer

    def runner_hook(stats, args, metrics) -> None:
        snapshot = metrics.telemetry
        if snapshot is not None:
            for name, value in snapshot.counters.items():
                counters[name] = counters.get(name, 0) + value
        counters["events_processed"] = (
            counters.get("events_processed", 0) + metrics.events_processed
        )

    def jobs_hook(stats, args, result) -> None:
        jobs = getattr(result, "jobs", None)
        if jobs is not None:
            stats.add("jobs", len(jobs))

    def checkpoint_hook(stats, args, path) -> None:
        # The payload size: the header's wall-clock stamp varies in length.
        from repro.durable.atomic import read_header
        from repro.durable.checkpoint import CHECKPOINT_SCHEMA

        stats.add("bytes", read_header(path, magic=CHECKPOINT_SCHEMA)["size"])

    def trace_close_hook(stats, args, result) -> None:
        # The size of the trace file a TraceWriter just closed.
        name = getattr(getattr(args[0], "_fh", None), "name", None)
        if isinstance(name, str) and os.path.exists(name):
            stats.add("bytes", os.path.getsize(name))

    def parse_hook(stats, args, result) -> None:
        # A path argument re-enters with the open file; count that call.
        if not isinstance(args[0], (str, Path)):
            jobs, eccs = result
            stats.add("records", len(jobs) + len(eccs))

    plant_spec = None
    if plant:
        layer, delay = plant.split("=")
        per_item = delay.endswith("/item")
        plant_spec = {"layer": layer, "delay_s": float(delay.removesuffix("/item")),
                      "per_item": per_item}
    layers = None if trace else [plant_spec["layer"]]
    hooks = {
        "SimulationRunner.run": runner_hook,
        "CWFWorkloadGenerator.generate": jobs_hook,
        "generate_sdsc_like": jobs_hook,
        "parse_cwf_workload": parse_hook,
        "TraceWriter.close": trace_close_hook,
        "save_checkpoint": checkpoint_hook,
    }
    return LayerTracer(layers=layers, plant=plant_spec, on_return=hooks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("prepare", "setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spawn-t", type=float, default=_STARTED)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--plant", default="",
                        help="LAYER=DELAY_S busy-wait per entry, or LAYER=DELAY_S/item "
                             "per item of the called queue")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = args.work / "inputs"
    if args.mode == "prepare":
        import repro  # noqa: F401  (compiles the package once, before any timing)

        inputs.mkdir(parents=True, exist_ok=True)
        params = workload.prepare(args.seed, inputs)
        (args.work / "params.json").write_text(json.dumps(params, sort_keys=True))
        args.result.write_text(json.dumps({"ok": True}))
        return 0

    params = json.loads((args.work / "params.json").read_text())
    counters: dict = {}
    tracer = None
    if args.trace or args.plant:
        import repro  # noqa: F401  (the wrappers patch loaded modules)

        tracer = _make_tracer(bool(args.trace), args.plant, counters).install()
    try:
        state = workload.setup(params, inputs, args.out)
        setup_s = time.monotonic() - args.spawn_t
        result = {"setup_s": setup_s}
        if args.mode == "measure":
            cpu0, wall0 = _cpu_s(), time.perf_counter()
            result.update(workload.measure(state))
            result["wall_s"] = time.perf_counter() - wall0
            result["cpu_s"] = _cpu_s() - cpu0
            result["failures"] = workload.check(state, result)
    finally:
        if tracer is not None:
            tracer.restore()
    # Linux reports ru_maxrss in KiB.
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and args.trace:
        result["layers"] = _layer_metrics(tracer, counters)
    args.result.write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
