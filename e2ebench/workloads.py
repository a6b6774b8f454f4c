"""The benchmark's workloads: input generation, the measured phase, and
the output checks of each.

Every workload has four steps, each called from :mod:`rep` in a fresh
interpreter:

``prepare(seed, inputs)``
    Builds the inputs from the seed before any timing starts and
    returns the workload parameters (recorded as provenance).
``setup(params, inputs, out)``
    Imports, input read and runner build: everything up to the first
    simulated event.  Timed as ``setup_s``.
``measure(state)``
    The measured phase.  Returns the completed-job count, the simulated
    statistics, and a digest of the outputs that every repetition of
    one seed must reproduce exactly.
``check(state, result)``
    Output checks run after timing; returns a list of failures.

Only the public ``repro`` API is used, so the benchmark measures the
program as a user drives it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from statistics import fmean
from typing import Any, Dict, List

#: Directory of the benchmark; the repository root is its parent.
BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\0")
    return h.hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


#: Lublin arrival knob the generated logs start from (about load 0.9);
#: :func:`at_load` then stretches arrivals to the exact target.
BETA_ARR = 0.51


def at_load(workload, target: float):
    """``workload`` with arrivals scaled so its offered load is ``target``.

    A fixed ``β_arr`` still gives logs whose load varies by seed (0.86 to
    0.92 at 100k jobs), and wait times near saturation follow the load
    steeply; pinning the load keeps every seed the same kind of run.
    """
    for _ in range(3):
        workload = workload.scale_arrivals(workload.offered_load() / target)
    return workload


# ----------------------------------------------------------------------
# paper-repro: the full reproduction a user waits for
# ----------------------------------------------------------------------
class PaperRepro:
    """All 9 figures and 4 tables at 500 jobs/point, serial, no cache.

    Seed ``s`` shifts every figure's default seed by ``1000 * s``, so
    seed 0 is exactly ``examples/paper_reproduction.py`` and must
    render byte-identical reports to ``reproduction_output/``.
    """

    name = "paper-repro"
    N_JOBS = 500

    def prepare(self, seed: int, inputs: Path) -> Dict[str, Any]:
        # Inputs are generated inside the figures: generation and
        # calibration are part of the run a user waits for.
        return {"n_jobs_per_point": self.N_JOBS, "seed_offset": 1000 * seed,
                "figures": 9, "tables": 4, "cache": "off", "jobs": 1}

    def setup(self, params: Dict[str, Any], inputs: Path, out: Path) -> Dict[str, Any]:
        import importlib.util

        from repro.experiments import figures, tables

        spec = importlib.util.spec_from_file_location(
            "paper_reproduction", REPO_ROOT / "examples" / "paper_reproduction.py"
        )
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        return {"params": params, "out": out, "figures": figures, "tables": tables,
                "render": example.render_sweep}

    def measure(self, state: Dict[str, Any]) -> Dict[str, Any]:
        out = state["out"]
        f, t, render = state["figures"], state["tables"], state["render"]
        n, off = state["params"]["n_jobs_per_point"], state["params"]["seed_offset"]
        sweeps: Dict[str, Any] = {}
        reports: Dict[str, str] = {}
        sweeps["fig1"] = f.figure1(n_jobs=n, seed=1 + off)
        reports["fig1"] = render(sweeps["fig1"], "Figure 1: EASY vs LOS (SDSC-like)")
        sweeps["fig5"] = f.figure5(n_jobs=n, seed=5 + off)
        reports["fig5"] = render(sweeps["fig5"], "Figure 5: C_s sweep, P_S=0.5")
        sweeps["fig6"] = f.figure6(n_jobs=n, seed=6 + off)
        reports["fig6"] = render(sweeps["fig6"], "Figure 6: C_s sweep, P_S=0.8")
        fig7 = sweeps["fig7"] = f.figure7(n_jobs=n, seed=7 + off)
        reports["fig7"] = render(fig7, "Figure 7: Load sweep, P_S=0.2")
        for label, sweep in f.figure8(n_jobs=n, seed=8 + off).items():
            sweeps[f"fig8_{label}"] = sweep
            reports[f"fig8_{label}"] = render(sweep, f"Figure 8: Load sweep, {label}")
        fig9 = sweeps["fig9"] = f.figure9(n_jobs=n, seed=9 + off)
        reports["fig9"] = render(fig9, "Figure 9: heterogeneous, P_D=0.5, P_S=0.2")
        sweeps["fig10"] = f.figure10(n_jobs=n, seed=10 + off)
        reports["fig10"] = render(sweeps["fig10"], "Figure 10: heterogeneous, P_D=0.9, P_S=0.5")
        fig11 = f.figure11(n_jobs=n, seed=11 + off)
        sweeps["fig11_batch"], sweeps["fig11_hetero"] = fig11["batch"], fig11["heterogeneous"]
        reports["fig11_batch"] = render(fig11["batch"], "Figure 11 (batch, elastic)")
        reports["fig11_hetero"] = render(fig11["heterogeneous"], "Figure 11 (heterogeneous, elastic)")
        tables = [
            ("table4", t.improvement_table(fig7, "Delayed-LOS", ["LOS", "EASY"]),
             t.PAPER_TABLE_IV, "Table IV: Delayed-LOS over LOS/EASY"),
            ("table5", t.improvement_table(fig9, "Hybrid-LOS", ["LOS-D", "EASY-D"]),
             t.PAPER_TABLE_V, "Table V: Hybrid-LOS over LOS-D/EASY-D"),
            ("table6", t.improvement_table(fig11["batch"], "Delayed-LOS-E", ["LOS-E", "EASY-E"]),
             t.PAPER_TABLE_VI, "Table VI: Delayed-LOS-E over LOS-E/EASY-E"),
            ("table7", t.improvement_table(fig11["heterogeneous"], "Hybrid-LOS-E",
                                           ["LOS-DE", "EASY-DE"]),
             t.PAPER_TABLE_VII, "Table VII: Hybrid-LOS-E over LOS-DE/EASY-DE"),
        ]
        from repro.metrics.report import format_comparison_table

        for key, measured, paper, title in tables:
            reports[key] = (
                format_comparison_table(f"{title} — measured", measured)
                + "\n\n"
                + format_comparison_table(f"{title} — paper", dict(paper))
            )
        out.mkdir(parents=True, exist_ok=True)
        for key, text in reports.items():
            (out / f"{key}.txt").write_text(text + "\n", encoding="utf-8")
        runs = [run for sweep in sweeps.values() for series in sweep.series.values()
                for run in series]
        return {
            "jobs": sum(run.n_jobs for run in runs),
            "runs": len(runs),
            "utilization": fmean(run.utilization for run in runs),
            "mean_wait_s": fmean(run.mean_wait for run in runs),
            "digest": _digest(*(
                (out / f"{key}.txt").read_bytes() for key in sorted(reports)
            )),
            "output_bytes": _dir_bytes(out),
        }

    def check(self, state: Dict[str, Any], result: Dict[str, Any]) -> List[str]:
        out = state["out"]
        failures = []
        if result["jobs"] <= 0:
            failures.append("no jobs completed")
        if state["params"]["seed_offset"] == 0:
            reference = REPO_ROOT / "reproduction_output"
            for path in sorted(out.glob("*.txt")):
                ref = reference / path.name
                if not ref.is_file() or ref.read_bytes() != path.read_bytes():
                    failures.append(f"{path.name} differs from reproduction_output/")
            if len(list(out.glob("*.txt"))) != len(list(reference.glob("*.txt"))):
                failures.append("report count differs from reproduction_output/")
        return failures


# ----------------------------------------------------------------------
# stream-replay: archive-scale SWF replay through the streaming engine
# ----------------------------------------------------------------------
class StreamReplay:
    """A 100k-job synthetic SWF log replayed as a stream under EASY."""

    name = "stream-replay"
    N_JOBS = 100_000
    LOAD = 0.9
    P_SMALL = 0.5
    ALGORITHM = "EASY"

    def prepare(self, seed: int, inputs: Path) -> Dict[str, Any]:
        import numpy as np

        from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
        from repro.workload.swf import SWFRecord
        from repro.workload.twostage import TwoStageSizeConfig

        config = GeneratorConfig(
            n_jobs=self.N_JOBS, size=TwoStageSizeConfig(p_small=self.P_SMALL)
        ).with_beta_arr(BETA_ARR)
        workload = at_load(
            CWFWorkloadGenerator(config).generate(np.random.default_rng(seed)), self.LOAD
        )
        with open(inputs / "replay.swf", "w", encoding="utf-8") as fh:
            fh.write(f"; MaxProcs: {workload.machine_size}\n")
            for job in workload.jobs:
                fh.write(SWFRecord.from_job(job).to_line() + "\n")
        return {"n_jobs": len(workload.jobs), "p_small": self.P_SMALL,
                "offered_load": workload.offered_load(), "beta_arr": BETA_ARR,
                "algorithm": self.ALGORITHM, "online": True, "retain_records": False}

    def setup(self, params: Dict[str, Any], inputs: Path, out: Path) -> Dict[str, Any]:
        from repro.core.registry import make_scheduler
        from repro.experiments.runner import SimulationRunner
        from repro.workload.streaming import stream_swf_workload

        stream = stream_swf_workload(inputs / "replay.swf")
        runner = SimulationRunner(
            stream, make_scheduler(params["algorithm"]), online=True, retain_records=False
        )
        return {"params": params, "out": out, "runner": runner}

    def measure(self, state: Dict[str, Any]) -> Dict[str, Any]:
        out = state["out"]
        metrics = state["runner"].run()
        summary = metrics.online
        out.mkdir(parents=True, exist_ok=True)
        text = json.dumps(summary.as_row(), sort_keys=True)
        (out / "online_summary.json").write_text(text + "\n", encoding="utf-8")
        return {
            "jobs": summary.n_jobs,
            "utilization": metrics.utilization,
            "mean_wait_s": summary.mean_wait,
            "digest": _digest(text.encode()),
            "output_bytes": _dir_bytes(out),
        }

    def check(self, state: Dict[str, Any], result: Dict[str, Any]) -> List[str]:
        expected = state["params"]["n_jobs"]
        if result["jobs"] != expected:
            return [f"completed {result['jobs']} jobs, the log has {expected}"]
        return []


# ----------------------------------------------------------------------
# elastic-durable: traced, checkpointed elastic runs with faults
# ----------------------------------------------------------------------
class ElasticDurable:
    """A 10k-job elastic heterogeneous CWF file under two policies, with
    pset faults, a JSONL trace with decision records, checkpoints every
    10k events, a resume from the middle checkpoint, and a read-back of
    the trace through the analytics oracle."""

    name = "elastic-durable"
    N_JOBS = 10_000
    LOAD = 0.9
    POLICIES = ("Hybrid-LOS-E", "EASY-DE")
    CHECKPOINT_EVERY = 10_000
    NODE_FAILURES = 20
    MTTR_S = 3600.0

    def prepare(self, seed: int, inputs: Path) -> Dict[str, Any]:
        from repro.experiments.calibrate import calibrate_beta_arr
        from repro.workload.generator import GeneratorConfig
        from repro.workload.twostage import TwoStageSizeConfig

        # Calibrated at full size rather than scaled with at_load():
        # Workload.scale_arrivals can move an ECC issued at its job's
        # submit instant one ulp before the submission, and the CWF
        # parser then rejects the file.
        config = GeneratorConfig(
            n_jobs=self.N_JOBS, size=TwoStageSizeConfig(p_small=0.5),
            p_dedicated=0.3, p_extend=0.2, p_reduce=0.1,
        )
        calibration = calibrate_beta_arr(config, self.LOAD, seed=seed, tolerance=0.002)
        workload = calibration.workload
        workload.to_cwf(inputs / "elastic.cwf")
        span = max(job.submit for job in workload.jobs) - min(job.submit for job in workload.jobs)
        return {
            "n_jobs": len(workload.jobs), "n_eccs": len(workload.eccs),
            "machine_size": workload.machine_size, "p_small": 0.5, "p_dedicated": 0.3,
            "p_extend": 0.2, "p_reduce": 0.1, "offered_load": workload.offered_load(),
            "beta_arr": calibration.beta_arr, "policies": list(self.POLICIES),
            "fault_mtbf_s": span / self.NODE_FAILURES, "fault_mttr_s": self.MTTR_S,
            "fault_seed": seed, "checkpoint_every_events": self.CHECKPOINT_EVERY,
        }

    def _runner(self, state: Dict[str, Any], policy: str, trace: Path):
        from repro.core.registry import make_scheduler
        from repro.experiments.runner import SimulationRunner
        from repro.faults import FaultConfig
        from repro.workload.generator import Workload

        params = state["params"]
        jobs, eccs = state["parsed"]
        workload = Workload(jobs=jobs, eccs=eccs, machine_size=params["machine_size"])
        faults = FaultConfig(mtbf=params["fault_mtbf_s"], mttr=params["fault_mttr_s"],
                             seed=params["fault_seed"])
        return SimulationRunner(workload, make_scheduler(policy), trace_out=trace,
                                decisions=True, faults=faults)

    def setup(self, params: Dict[str, Any], inputs: Path, out: Path) -> Dict[str, Any]:
        from repro.workload.cwf import parse_cwf_workload

        state: Dict[str, Any] = {"params": params, "out": out}
        state["parsed"] = parse_cwf_workload(inputs / "elastic.cwf")
        state["first"] = self._runner(state, self.POLICIES[0], state["out"] / "p0" / "trace.jsonl")
        return state

    def measure(self, state: Dict[str, Any]) -> Dict[str, Any]:
        from repro.durable.checkpoint import CheckpointConfig, list_checkpoints, resume
        from repro.obs.analytics import validate_trace_file

        out = state["out"]
        per_policy = []
        for index, policy in enumerate(self.POLICIES):
            pdir = out / f"p{index}"
            trace = pdir / "trace.jsonl"
            runner = state.pop("first") if index == 0 else self._runner(state, policy, trace)
            ckpt_dir = pdir / "checkpoints"
            metrics = runner.run(checkpoint=CheckpointConfig(
                dir=ckpt_dir, every_events=self.CHECKPOINT_EVERY, keep=0))
            checkpoints = list_checkpoints(ckpt_dir)
            middle = checkpoints[len(checkpoints) // 2]
            resumed_trace = pdir / "trace_resumed.jsonl"
            shutil.copyfile(trace, resumed_trace)
            resumed = resume(middle, trace_out=resumed_trace)
            validate_trace_file(str(trace), metrics)
            per_policy.append({"policy": policy, "metrics": metrics, "resumed": resumed,
                               "checkpoints": len(checkpoints), "trace": trace,
                               "resumed_trace": resumed_trace})
        state["per_policy"] = per_policy
        runs = [entry["metrics"] for entry in per_policy]
        return {
            "jobs": sum(run.n_jobs for run in runs),
            "utilization": fmean(run.utilization for run in runs),
            "mean_wait_s": fmean(run.mean_wait for run in runs),
            "node_failures": sum(run.node_failures for run in runs),
            "digest": _digest(*(
                entry["trace"].read_bytes() for entry in per_policy
            )),
            "output_bytes": _dir_bytes(out),
        }

    def check(self, state: Dict[str, Any], result: Dict[str, Any]) -> List[str]:
        failures = []
        for entry in state["per_policy"]:
            policy = entry["policy"]
            if entry["checkpoints"] < 2:
                failures.append(f"{policy}: only {entry['checkpoints']} checkpoints")
            if entry["resumed"] != entry["metrics"]:
                failures.append(f"{policy}: resumed RunMetrics differ from the full run")
            if entry["resumed_trace"].read_bytes() != entry["trace"].read_bytes():
                failures.append(f"{policy}: resumed trace bytes differ from the full run")
        if result["node_failures"] <= 0:
            failures.append("no node failures were injected")
        return failures


WORKLOADS = {w.name: w for w in (PaperRepro(), StreamReplay(), ElasticDurable())}
