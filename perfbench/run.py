"""odmrsim benchmark: seeded workloads of real ``odmr`` commands.

Run from the repository root:

    python3 perfbench/run.py --workload map_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick

One run generates the workload's inputs from the shipped ``configs/`` and
the seed, runs the workload in a fresh worker subprocess
(perfbench/worker.py), which also checks its outputs, and then times
set-up in fresh interpreters.  It
prints the metrics by name and unit; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  ``--quick`` runs every workload on tiny
inputs and checks the output schema and metric names, never the speed.

Standard library only in this process (numpy only in the worker);
pytest-benchmark is not used.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import gen  # noqa: E402

SETUP_RUNS = 4
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 170.0
REQUIRED = [
    "src/odmrsim/cli.py",
    "configs/sensitivity_map_quenched.json",
    "configs/sensitivity_map_annealed.json",
    "configs/field_steps_tracking.json",
    "configs/shot_noise_tracking.json",
    "configs/spectrum_scan.json",
]

# argv: slot, then configs.  The interpreter first moves to allowed CPU
# number slot and unpins itself, so that samples alternate between vCPUs
# (see move_to_cpu in worker.py).
SETUP_CODE = """
import os, sys, time
if hasattr(os, "sched_getaffinity"):
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[int(sys.argv[1]) % len(cpus)]})
    os.sched_setaffinity(0, cpus)
t0 = time.perf_counter()
import odmrsim.cli
from odmrsim import load_config
for path in sys.argv[2:]:
    load_config(path)
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # Measure the default thread count users get, whatever the caller's shell sets.
    env.pop("ODMR_THREADS", None)
    return env


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run a child to completion; subprocess.run kills and reaps it on timeout."""
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1]} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = "\n".join((proc.stderr or proc.stdout).splitlines()[-15:])
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{tail}")
    return proc


def measure_setup(configs: list[str], runs: int) -> list[float]:
    """import odmrsim.cli plus load_config of the configs, in fresh interpreters.

    Called after the worker has imported the package, so compiled bytecode
    exists, as it does after an install.
    """
    return [
        float(run_child([sys.executable, "-c", SETUP_CODE, str(k), *configs]).stdout.split()[-1])
        for k in range(runs)
    ]


def measure_importtime(runs: int) -> dict:
    """Split of the import cost from ``python -X importtime``, medians over runs."""
    samples = {"numpy": [], "scipy.signal": [], "odmrsim": []}
    for _ in range(runs):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import odmrsim.cli"])
        own = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            if not self_us.strip().isdigit():
                continue  # the header line
            if name in ("numpy", "scipy.signal"):
                samples[name].append(int(cumulative_us) * 1e-6)
            elif name == "odmrsim" or name.startswith("odmrsim."):
                own += int(self_us)
        samples["odmrsim"].append(own * 1e-6)
    return {
        "setup.import.numpy_s": statistics.median(samples["numpy"] or [0.0]),
        "setup.import.scipy_signal_s": statistics.median(samples["scipy.signal"] or [0.0]),
        "setup.import.odmrsim_s": statistics.median(samples["odmrsim"]),
    }


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "harness": "stdlib + numpy; pytest-benchmark not used",
    }


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, quick: bool, spec: dict) -> dict:
    """One benchmark run; prints the human-readable lines and returns the result object."""
    for rel in REQUIRED:
        if not (ROOT / rel).is_file():
            raise BenchError(f"{rel} is missing: run from a checkout of the odmrsim repository")
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = scratch / f"work-{os.getpid()}-{workload}-{trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = gen.generate(ROOT, workload, seed, work / "inputs", quick=quick)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        print(f"workload {workload} seed {seed} trace {trace}{' quick' if quick else ''}")
        print(f"why: {spec['why'].get(workload, '')}")
        print("inputs per pass: " + json.dumps({**plan["size"], "commands": len(plan["commands"])}))
        print("machine: " + json.dumps(machine()))

        result_path = work / "result.json"
        argv = [
            sys.executable,
            str(BENCH / "worker.py"),
            str(plan_path),
            str(result_path),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ]
        if trace:
            argv += ["--spans", str(scratch / f"spans-{workload}.json")]
        run_child(argv)
        res = json.loads(result_path.read_text(encoding="utf-8"))
        metrics = {}
        if trace == 0:
            metrics["setup_s"] = statistics.median(measure_setup(plan["configs"], 1 if quick else SETUP_RUNS))
        else:
            metrics.update(measure_importtime(1 if quick else IMPORTTIME_RUNS))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [p["wall_s"] for p in res["passes"] if not p["traced"]]
    print(f"timed passes (untraced wall s): {', '.join(f'{w:.4f}' for w in walls)}")
    if trace == 0:
        metrics["wall_s"] = res["wall_s"]
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        print(f"wall_s = {res['wall_s']:.4f} s (median of {len(walls)} timed passes)")
        print(
            f"setup_s = {metrics['setup_s']:.4f} s (median of {1 if quick else SETUP_RUNS} fresh "
            f"interpreters: import odmrsim.cli + load_config of {len(plan['configs'])} configs)"
        )
        print(f"peak_rss_mb = {res['peak_rss_mb']:.1f} MB (ru_maxrss of the worker subprocess)")
    else:
        traced = [p["wall_s"] for p in res["passes"] if p["traced"]]
        print(f"traced passes (wall s): {', '.join(f'{w:.4f}' for w in traced)}")
        metrics.update(res["layer_metrics"])
        acc = res["accounting"]
        layers = acc["layer_self_s"]
        total = sum(layers.values())
        print(
            "layer self time (s), first traced pass: "
            + ", ".join(f"{k} {v:.4f}" for k, v in sorted(layers.items()))
        )
        print(
            f"accounting: layers + cli.self_s = {total:.4f} s for {acc['command_wall_s']:.4f} s of "
            f"command wall (ratio {total / acc['command_wall_s']:.3f}; above 1 only where "
            "map's pool threads overlap)"
        )
        print(f"counts repeat across traced passes: {res['counts_repeat']}")
        print(f"spans written to {scratch.name}/spans-{workload}.json")
    attempted, failed, refused = res["attempted"], res["failed"], res["refused"]
    print(
        f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g} (failed/attempted operations); "
        f"plus {refused}/{attempted} expected refusals (shot-noise NaN map cells, low-SNR NoPeakFound exits)"
    )
    for check in res["checks"]:
        print(f"check {check['name']}: {'PASS' if check['ok'] else 'MISS'}: {check['detail']}")
    for note in res["notes"]:
        print(f"failed: {note}")
    if quick:
        print("quick mode: correctness bands skipped, schema only")

    units = spec[trace]
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    correct = res["failed"] == 0 and all(c["ok"] for c in res["checks"]) and (
        trace == 0 or res["counts_repeat"]
    )
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def check_schema(out: dict, spec: dict, trace: int) -> list[str]:
    """Problems with one result object against the BENCHMARK.json contract."""
    problems = []
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(out)}")
    if not isinstance(out.get("correct"), bool):
        problems.append("correct is not a boolean")
    att, fail = out.get("attempted"), out.get("failed")
    if not (isinstance(att, int) and att >= 1 and isinstance(fail, int) and 0 <= fail <= att):
        problems.append(f"attempted {att!r} / failed {fail!r}")
    metrics = out.get("metrics", {})
    if set(metrics) != set(spec[trace]):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(spec[trace]))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if entry.get("unit") != spec[trace].get(name) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: unit or keys wrong")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def quick_check(spec: dict) -> int:
    problems = []
    for workload in gen.WORKLOADS:
        for trace in (0, 1):
            out = run_workload(workload, 1, 0.01, trace, True, spec)
            line = json.dumps(out)
            print(line)
            problems += [f"{workload} trace {trace}: {p}" for p in check_schema(json.loads(line), spec, trace)]
    for p in problems:
        print(f"quick: {p}", file=sys.stderr)
    print(f"quick self-check: {'FAILED' if problems else 'schema and metric names OK'}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="odmrsim benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs; schema check only")
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.quick:
            return quick_check(spec)
        if args.workload is None:
            parser.error("--workload is required unless --quick is given")
        out = run_workload(args.workload, args.seed, args.seconds, args.trace, False, spec)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
