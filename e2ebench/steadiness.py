#!/usr/bin/env python3
"""Steadiness check: run the benchmark once per seed, serially, and report
each end-to-end metric's median, quartiles and spread.

    python3 e2ebench/steadiness.py --workloads paper-repro stream-replay \\
        --seeds 0 1 2 3 4 5 6 7 8 9 --record e2ebench/records/set-a.json

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; it must
stay below a third of the metric's bound in ``BENCHMARK.json`` (the
``setup_s`` spread is reported but not bounded).  ``--compare`` checks a
second record against a first: every median may be worse by at most the
metric's bound (it fails otherwise), and one better by more than the
bound is flagged as "apart".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def spec() -> Dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int) -> Dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])["provenance"]
    result["elapsed_s"] = time.monotonic() - started
    result["stderr_tail"] = proc.stderr.strip().splitlines()[-1:]
    return result


def summarize(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    parser.add_argument("--record", type=Path, help="write the runs and summary here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"),
                        help="compare the medians of two records instead of running")
    args = parser.parse_args(argv)
    bench = spec()
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    if args.compare:
        first, second = (json.loads(p.read_text())["summary"] for p in args.compare)
        ok = True
        for workload, metrics in second.items():
            for name, s in metrics.items():
                m, base = bounds[name], first[workload][name]["median"]
                change = (s["median"] - base) / base if base else 0.0
                worse = change if m["better"] == "lower" else -change
                if worse > m["bound"]:
                    verdict = "WORSE"
                elif abs(change) > m["bound"]:
                    verdict = "better, apart"
                else:
                    verdict = "ok"
                ok &= verdict != "WORSE"
                print(f"{workload:16s} {name:16s} {base:12.4f} -> {s['median']:12.4f} "
                      f"({change:+.2%}, bound {m['bound']:.0%}) {verdict}")
        return 0 if ok else 1

    record: Dict = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                    "seconds": bench["run_seconds"], "seeds": args.seeds,
                    "runs": {}, "summary": {}}
    steady = True
    for workload in args.workloads:
        runs = [one_run(workload, seed, bench["run_seconds"]) for seed in args.seeds]
        record["runs"][workload] = runs
        record["summary"][workload] = {}
        if not all(run["correct"] for run in runs):
            steady = False
            print(f"{workload}: a run was not correct", file=sys.stderr)
        for name, m in bounds.items():
            s = summarize([run["metrics"][name]["value"] for run in runs])
            record["summary"][workload][name] = s
            limit = m["bound"] / 3
            verdict = "-" if name == "setup_s" else ("ok" if s["spread"] < limit else "NOISY")
            steady &= verdict != "NOISY"
            print(f"{workload:16s} {name:16s} median {s['median']:12.4f} "
                  f"q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} spread {s['spread']:7.2%} "
                  f"(< {limit:.2%}) {verdict}", flush=True)
    record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
