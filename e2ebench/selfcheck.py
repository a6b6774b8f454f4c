#!/usr/bin/env python3
"""Planted-slowdown self-check: does the benchmark see a slower layer, on
the workload that loads it and only there?

    python3 e2ebench/selfcheck.py --seed 0 --record e2ebench/records/selfcheck.json

For each (layer, heavy workload, light workload) in :data:`PAIRS` it
plants a busy-wait after every entry into the layer, through the same
wrappers the traced run uses (``layers.py``), sized so the heavy
workload's ``wall_s`` should grow by :data:`TARGET` times the bound.
(For the queue layer the delay is per queued item; see :data:`PAIRS`.)
It passes when:

1. the traced run shows the delay in that layer's self time;
2. the heavy workload's ``wall_s`` moves past the bound;
3. the same plant leaves the light workload's ``wall_s`` within it;
4. with the plant removed, the heavy ``wall_s`` is back within it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

from run import REPO_ROOT, Runner

#: (planted layer, its calls metric, its self-time metric, heavy, light,
#: per item).  Every workload enters the queue layer 20-60k times a
#: second, so a flat per-call delay moves all three; what sets
#: stream-replay apart from paper-repro is backlog depth (mean queue
#: length per call about 10x deeper), so the queue plant is per queued
#: item: an O(queue length) regression.
PAIRS = (
    ("core.dp", "core.dp.calls", "core.dp.self_s", "paper-repro", "stream-replay", False),
    ("queues", "queues.calls", "queues.self_s", "stream-replay", "paper-repro", True),
    ("obs.trace.write", "obs.trace.write_calls", "obs.trace.write_s",
     "elastic-durable", "paper-repro", False),
)
#: Planted growth of the heavy workload's wall_s, in units of the bound.
TARGET = 1.6
#: Rounds of the interleaved measurements; each label's wall_s is the
#: median over rounds, so host-speed drift hits every label alike.
ROUNDS = 3


def walls(runner: Runner, plants: Dict[str, str]) -> Dict[str, float]:
    """Median ``wall_s`` per label, running the labels interleaved."""
    seen: Dict[str, List[float]] = {label: [] for label in plants}
    for _ in range(ROUNDS):
        for label, plant in plants.items():
            rep = runner.child("measure", plant=plant)
            if "error" in rep or rep["failures"]:
                raise RuntimeError(f"{runner.workload} repetition failed: {rep}")
            seen[label].append(rep["wall_s"])
    return {label: median(values) for label, values in seen.items()}


def traced(runner: Runner, plant: str = "") -> Dict[str, float]:
    rep = runner.child("measure", trace=1, plant=plant)
    if "error" in rep or rep["failures"]:
        raise RuntimeError(f"{runner.workload} traced repetition failed: {rep}")
    return rep["layers"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)
    bound = next(m["bound"] for m in json.loads(
        (REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"] if m["name"] == "wall_s")

    root = REPO_ROOT / ".e2ebench_work" / f"selfcheck-{args.seed}"
    runners: Dict[str, Runner] = {}
    results: List[Dict] = []
    ok = True
    try:
        for layer, calls_metric, self_metric, heavy, light, per_item in PAIRS:
            for name in (heavy, light):
                if name not in runners:
                    (root / name).mkdir(parents=True, exist_ok=True)
                    runners[name] = Runner(name, args.seed, root / name,
                                           time.monotonic() + 3600)
                    if "error" in runners[name].child("prepare"):
                        raise RuntimeError(f"{name}: prepare failed")
            h, l = runners[heavy], runners[light]
            base_trace = traced(h)
            base = walls(h, {"base": ""})["base"]
            units = base_trace[calls_metric]
            if per_item:
                units *= base_trace[f"{layer}.mean_depth"]
            delay = TARGET * bound * base / units
            plant = f"{layer}={delay:.12f}" + ("/item" if per_item else "")
            planted_trace = traced(h, plant)
            heavy_walls = walls(h, {"base": "", "planted": plant, "removed": ""})
            light_walls = walls(l, {"base": "", "planted": plant})
            expected = units * delay
            seen = planted_trace[self_metric] - base_trace[self_metric]
            row = {
                "layer": layer, "heavy": heavy, "light": light, "delay_s": delay,
                "per_item": per_item, "layer_calls": base_trace[calls_metric],
                "delay_units": units,
                "self_s_added": seen, "self_s_expected": expected,
                "heavy_walls": heavy_walls, "light_walls": light_walls,
                "heavy_change": heavy_walls["planted"] / heavy_walls["base"] - 1,
                "removed_change": heavy_walls["removed"] / heavy_walls["base"] - 1,
                "light_change": light_walls["planted"] / light_walls["base"] - 1,
                "bound": bound,
            }
            row["checks"] = {
                "delay in layer self time": 0.75 <= seen / expected <= 1.25,
                "heavy wall_s past bound": row["heavy_change"] > bound,
                "light wall_s within bound": row["light_change"] <= bound,
                "removed wall_s within bound": abs(row["removed_change"]) <= bound,
            }
            ok &= all(row["checks"].values())
            results.append(row)
            print(f"{layer:16s} delay {delay * 1e6:8.4f} us x {units:.0f} "
                  f"{'items' if per_item else 'entries'}: "
                  f"self +{seen:.2f}s (expected {expected:.2f}s); "
                  f"{heavy} {row['heavy_change']:+.1%}, removed {row['removed_change']:+.1%}; "
                  f"{light} {row['light_change']:+.1%}; "
                  f"{'PASS' if all(row['checks'].values()) else 'FAIL'} {row['checks']}",
                  flush=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps({
            "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "seed": args.seed, "target": TARGET, "pairs": results, "pass": ok,
        }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
