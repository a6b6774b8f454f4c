#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: one command, one workload.

    python3 e2ebench/run.py --workload paper-repro --seed 0 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed`` (untimed), then runs
repetitions of it one at a time, each in a fresh serial interpreter
(``REPRO_JOBS=1``, run cache off), until ``--seconds`` of measurement
are used up.  Every repetition's outputs are checked.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over
repetitions); ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of ``layers.py`` plus
``trace.overhead_ratio``.  The line before it is the run's provenance.
See ``e2ebench/NOTES.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("paper-repro", "stream-replay", "elastic-durable")
#: Set-up-only processes per run, on top of each repetition's own set-up.
SETUP_PROBES = 3
#: Hard cap on one run: children still running at this point are killed.
RUN_BUDGET_S = 170.0
MIB = 1024.0 * 1024.0

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "jobs_per_s": "1/s",
    "peak_rss_mib": "MiB", "output_mib": "MiB", "ok_share": "ratio",
    "sim.utilization": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_JOBS"] = "1"
    env["REPRO_WARM_POOL"] = "0"
    env["PYTHONHASHSEED"] = "0"
    for name in ("REPRO_CACHE", "REPRO_NO_MEMO", "REPRO_TRACE_VALIDATE"):
        env.pop(name, None)
    return env


def provenance(workload: str, seed: int, params: Dict) -> Dict:
    """Where a result came from: code, host, toolchain and inputs."""
    sha = "unknown"
    if (REPO_ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(REPO_ROOT)).encode() + b"\0")
        src.update(path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "git_sha": sha, "src_sha256": src.hexdigest(), "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy_version, "workload": workload, "seed": seed, "params": params,
    }


class Runner:
    """Starts the repetition processes of one run, one at a time."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = child_env()

    def child(self, mode: str, trace: int = 0, plant: str = "") -> Dict:
        """Run one child; returns its result or ``{"error": ...}``."""
        self.count += 1
        result = self.work / f"result-{self.count}.json"
        out = self.work / f"out-{self.count}"
        cmd = [sys.executable, str(BENCH_DIR / "rep.py"), mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--work", str(self.work), "--out", str(out), "--result", str(result),
               "--trace", str(trace)]
        if plant:
            cmd += ["--plant", plant]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return {"error": "run budget exhausted"}
        try:
            proc = subprocess.run(
                cmd + ["--spawn-t", repr(time.monotonic())], cwd=REPO_ROOT,
                env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} timed out"}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0 or not result.is_file():
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
            return {"error": f"{mode} exited {proc.returncode}: " + " | ".join(tail)}
        data = json.loads(result.read_text())
        result.unlink()
        return data


def measure_loop(runner: Runner, seconds: float, traced: bool) -> List[Dict]:
    """Repetitions (or untraced/traced pairs) until ``seconds`` are used.

    At least one; another starts only if it should end within budget.
    A failed repetition ends the loop: the program is broken.
    """
    reps: List[Dict] = []
    started = time.monotonic()
    while True:
        reps.append(runner.child("measure"))
        if traced and "error" not in reps[-1]:
            reps.append(runner.child("measure", trace=1))
        if "error" in reps[-1]:
            return reps
        elapsed = time.monotonic() - started
        rounds = len(reps) // (2 if traced else 1)
        if elapsed + elapsed / rounds > seconds:
            return reps


#: Outcomes every repetition of one seed must reproduce exactly.  Not
#: output bytes: checkpoint headers carry a wall-clock stamp.
OUTCOME_KEYS = ("digest", "jobs", "utilization", "mean_wait_s")


def judge(reps: List[Dict]) -> List[Dict]:
    """Mark each repetition ok or failed; all ok ones must agree exactly."""
    reference: Optional[Dict] = None
    for rep in reps:
        if "error" in rep:
            rep["ok"] = False
            print(f"repetition failed: {rep['error']}", file=sys.stderr)
            continue
        if rep["failures"]:
            print(f"check failed: {rep['failures']}", file=sys.stderr)
        outcome = {key: rep[key] for key in OUTCOME_KEYS}
        reference = reference or outcome
        differ = [key for key in OUTCOME_KEYS if outcome[key] != reference[key]]
        rep["ok"] = not rep["failures"] and not differ
        if differ:
            print(f"repetition disagrees with the first one on {differ}", file=sys.stderr)
    return reps


def end_to_end(reps: List[Dict], probes: List[Dict]) -> Dict[str, float]:
    ok = [rep for rep in reps if rep["ok"]] or [{
        "setup_s": 0.0, "wall_s": 0.0, "cpu_s": 0.0, "jobs": 0, "peak_rss_mib": 0.0,
        "output_bytes": 0, "utilization": 0.0, "mean_wait_s": 0.0,
    }]
    setups = [p["setup_s"] for p in probes if "error" not in p] + [r["setup_s"] for r in ok]
    return {
        "setup_s": median(setups),
        "wall_s": median(r["wall_s"] for r in ok),
        "cpu_s": median(r["cpu_s"] for r in ok),
        "jobs_per_s": median(r["jobs"] / r["wall_s"] if r["wall_s"] else 0.0 for r in ok),
        "peak_rss_mib": median(r["peak_rss_mib"] for r in ok),
        "output_mib": median(r["output_bytes"] / MIB for r in ok),
        "ok_share": sum(rep["ok"] for rep in reps) / len(reps),
        "sim.utilization": ok[0]["utilization"],
    }


def per_layer(plain: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    """Counts from the first traced repetition (they must repeat), times
    as medians, and the traced/untraced wall-time ratio."""
    good = [rep for rep in traced if rep["ok"]]
    if not good:
        return {}
    first = good[0]["layers"]
    for rep in good[1:]:
        for name, value in rep["layers"].items():
            if per_layer_unit(name) != "s" and value != first[name]:
                rep["ok"] = False
                print(f"traced count {name} did not repeat", file=sys.stderr)
    metrics = {
        name: median(rep["layers"][name] for rep in good) if per_layer_unit(name) == "s"
        else value
        for name, value in first.items()
    }
    walls = [rep["wall_s"] for rep in plain if rep["ok"]]
    metrics["trace.overhead_ratio"] = (
        median(rep["wall_s"] for rep in good) / median(walls) if walls else 0.0
    )
    # Deterministic per seed but spread widely across seeds, so it is
    # reported here, where no bound applies.
    metrics["sim.mean_wait_s"] = good[0]["mean_wait_s"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # On SIGTERM unwind normally: subprocess.run kills and reaps the
    # running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {REPO_ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    work = REPO_ROOT / ".e2ebench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work, deadline)
        prepared = runner.child("prepare")
        if "error" in prepared:
            print(prepared["error"], file=sys.stderr)
            return 1
        params = json.loads((work / "params.json").read_text())
        if args.trace:
            probes: List[Dict] = []
        else:
            probes = [runner.child("setup") for _ in range(SETUP_PROBES)]
        reps = judge(measure_loop(runner, args.seconds, bool(args.trace)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if args.trace:
        plain, traced = reps[0::2], reps[1::2]
        values = per_layer(plain, traced)
        units = {name: per_layer_unit(name) for name in values}
        units["trace.overhead_ratio"] = "ratio"
    else:
        values = end_to_end(reps, probes)
        units = END_TO_END_UNITS
    failed = sum(not rep["ok"] for rep in reps)
    walls = ", ".join(f"{rep['wall_s']:.3f}" for rep in reps if "wall_s" in rep)
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions, wall_s [{walls}]",
          file=sys.stderr)
    print(json.dumps({"provenance": provenance(args.workload, args.seed, params)}))
    print(json.dumps({
        "correct": failed == 0 and bool(values),
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
