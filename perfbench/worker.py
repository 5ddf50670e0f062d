"""Run one workload's passes in a fresh interpreter.

Started by run.py as its own subprocess, so that memory and set-up are
per workload.  Usage:

    python3 perfbench/worker.py PLAN_JSON RESULT_JSON --seconds S --trace 0|1 [--spans FILE]

It calls ``odmrsim.cli.main(argv)`` for each command of the plan, back to
back on one thread (a closed loop with one caller).  One untimed warm-up
pass comes first; then timed passes run until their summed wall time
reaches S.  Every pass uses the same inputs and seeds.  With --trace 1,
traced and untraced passes alternate and the result holds per-layer
metrics; end-to-end metrics come only from untraced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import odmrsim
import odmrsim.cli as cli
import odmrsim.signal_chain as signal_chain

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer as tracing  # noqa: E402

NT = 1e-9
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


# passes


def move_to_cpu(slot: int) -> None:
    """Move this thread to allowed CPU number slot (mod count), then unpin it.

    On a shared host each vCPU's speed differs and drifts by up to 1.5x,
    and a single-threaded process stays on one vCPU for a whole run, so
    whole runs would land in one speed mode.  Starting consecutive commands
    on alternating vCPUs samples both; the commands themselves run
    unpinned, and threads they start inherit the full CPU set.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[slot % len(CPUS)]})
        os.sched_setaffinity(0, CPUS)


def run_pass(plan: dict, directory: Path, slot: int = 0) -> dict:
    """Run every command once into directory; returns wall, CPU and exit codes.

    The wall time sums the commands' own times, leaving out the CPU moves
    between them.
    """
    sink = io.StringIO()
    codes = {}
    wall = 0.0
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for k, cmd in enumerate(plan["commands"]):
            out = str(directory / cmd["id"])
            move_to_cpu(slot + k)
            t0 = time.perf_counter()
            # Looked up on the module each time so an installed tracer applies.
            codes[cmd["id"]] = cli.main(cmd["argv"] + ["--out", out])
            wall += time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    return {"wall_s": wall, "cpu_s": cpu, "codes": codes}


def inspect_pass(plan: dict, directory: Path, codes: dict) -> dict:
    """Outcome of each operation in a finished pass, plus its manifest digests."""
    failed, refused, digests, notes = {}, {}, {}, []
    for cmd in plan["commands"]:
        cid, code = cmd["id"], codes[cmd["id"]]
        failed[cid], refused[cid] = 0, 0
        if code not in cmd["expect_exit"]:
            failed[cid] = cmd["ops"]
            notes.append(f"{cid}: exit {code}, expected {cmd['expect_exit']}")
            continue
        if code != 0:
            refused[cid] = cmd["ops"]
            continue
        manifest = directory / cid / "manifest.json"
        digests[cid] = odmrsim.load_manifest(manifest)["outputs"]
        if not all(odmrsim.verify_manifest(manifest).values()):
            failed[cid] = cmd["ops"]
            notes.append(f"{cid}: verify_manifest failed")
        elif cmd["kind"] == "map":
            nan_cells = json.loads((directory / cid / "argmin.json").read_text())["n_failed"]
            if cmd.get("nan_allowed"):
                refused[cid] = nan_cells
            else:
                failed[cid] = nan_cells
                if nan_cells:
                    notes.append(f"{cid}: {nan_cells} NaN cells on a noise-free grid")
    return {"failed": failed, "refused": refused, "digests": digests, "notes": notes}


# correctness checks (bands from tests/test_acceptance.py)


def _check(name, ok, detail, covers):
    return {"name": name, "ok": bool(ok), "detail": detail, "covers": list(covers)}


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _broadening(doc: dict):
    """Preset broadening with the config's lineshape overrides, and its PL rate."""
    preset = odmrsim.PRESETS[doc.get("sample_preset", {}).get("name", "quenched")]
    shape = doc.get("lineshape", {})
    fields = {f.name for f in dataclasses.fields(preset.broadening)}
    model = dataclasses.replace(
        preset.broadening, **{k: v for k, v in shape.items() if k in fields}
    )
    return model, shape.get("pl_rate_per_w", preset.pl_rate_per_w)


def _spin(doc: dict):
    return odmrsim.SpinParams(
        **{k: v for k, v in doc.get("spin", {}).items() if k != "hyperfine"}
    )


def predicted_sensitivity(doc: dict) -> float:
    """Shot-noise limit at the config's powers, as criterion 6 computes it."""
    model, rate_per_w = _broadening(doc)
    p_opt, p_rf = doc["sweep"]["p_opt_w"], doc["sweep"]["p_rf_w"]
    return odmrsim.shot_noise_sensitivity(
        float(odmrsim.saturated_fwhm(model, p_rf)),
        float(odmrsim.saturated_contrast(model, p_rf, p_opt)),
        p_opt * rate_per_w,
        g_factor=_spin(doc).g_factor,
    )


def check_map(plan, d: Path, codes: dict):
    if codes["map_quenched"] != 0:
        yield _check("c7_argmin", False, "noise-free quenched map did not finish", ["map_quenched"])
        return
    q = _json(d / "map_quenched" / "argmin.json")
    cell = lambda e: (e["p_opt_w"], e["p_rf_w"])  # noqa: E731
    sim, ana = cell(q["simulated"]), cell(q["analytic"])
    yield _check(
        "c7_argmin",
        sim == ana and q["n_failed"] == 0,
        f"noise-free quenched argmin cell {sim} vs analytic {ana}, "
        f"{q['n_failed']} NaN cells (criterion 7)",
        ["map_quenched"],
    )


def check_steps(plan, d: Path, codes: dict):
    for cmd in plan["commands"]:
        cid, kind = cmd["id"], cmd["check"]
        if codes[cid] != 0:
            continue  # already failed by its exit code
        payload = _json(d / cid / "steps.json")
        sens = payload["sensitivity_t_rthz"]
        resid = max(abs(r) for r in payload["residuals_t"])
        sens_ok = abs(sens - 49.5 * NT) <= 3.0 * NT
        text = f"{cid}: sensitivity {sens / NT:.2f} nT/rtHz (band 49.5 +/- 3), max step residual {resid / NT:.2f} nT"
        if kind == "c5":
            yield _check("c5_pinned", sens_ok and resid < 30 * NT, text + " (< 30, criterion 5)", [cid])
        elif kind == "c5_sensitivity":
            yield _check("c5_sensitivity_long", sens_ok, text + " (residual not gated)", [cid])
        elif kind == "c6":
            ratio = sens / predicted_sensitivity(_json(Path(cmd["config"])))
            yield _check(
                f"c6_ratio_{cid}",
                0.75 <= ratio <= 1.25,
                f"{cid}: measured/predicted {ratio:.3f} in [0.75, 1.25] (criterion 6)",
                [cid],
            )
        else:
            yield _check(f"diag_{cid}", True, text + " (diagnostic, not gated)", [])


def _transition_rows(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    for row in lines[1:]:
        yield dict(zip(header, row.split(",")))


def check_spectrum(plan, d: Path, codes: dict):
    by_id = {cmd["id"]: cmd for cmd in plan["commands"]}
    doc = _json(Path(by_id["spectrum_axial"]["config"]))
    params = _spin(doc)
    worst = 0.0
    for row in _transition_rows(d / "spectrum_axial" / "transitions.csv"):
        if row["label"] not in ("nu1", "nu2", "dark"):
            continue
        closed = odmrsim.axial_frequencies(params, float(row["bz_t"]))
        expected = getattr(closed, f"{row['label']}_hz")
        # 1 Hz floor keeps the exactly-zero dark line at B = 0 comparable.
        worst = max(worst, abs(float(row["frequency_hz"]) - expected) / max(abs(expected), 1.0))
    yield _check(
        "c2_axial",
        worst <= 1e-6,
        f"axial lines vs axial_frequencies: worst relative mismatch {worst:.2e} <= 1e-6 (criterion 2)",
        ["spectrum_axial"],
    )
    dq = max(
        (
            float(row["rel_strength"])
            for row in _transition_rows(d / "spectrum_tilted" / "transitions.csv")
            if row["label"] in ("m2_plus", "m2_minus")
        ),
        default=0.0,
    )
    yield _check(
        "dq_lines_tilted",
        dq > 1e-4,
        f"tilted scan double-quantum lines: max rel_strength {dq:.3g} > 1e-4",
        ["spectrum_tilted"],
    )
    errors, hi_ids, lo_exit = [], [], {0: 0, 1: 0}
    for cmd in plan["commands"]:
        truth = cmd.get("truth")
        if truth is None:
            continue
        code = codes[cmd["id"]]
        if truth["snr"] == 20.0:
            hi_ids.append(cmd["id"])
            if code == 0:
                got = _json(d / cmd["id"] / "fit.json")["fwhm_hz"]
                errors.append(abs(got - truth["fwhm_hz"]) / truth["fwhm_hz"])
        elif code in lo_exit:
            lo_exit[code] += 1
    median = statistics.median(errors) if errors else math.inf
    yield _check(
        "c4_fwhm",
        len(errors) == len(hi_ids) and median <= 0.02,
        f"{len(errors)}/{len(hi_ids)} SNR-20 fits, median FWHM error {median * 100:.2f}% <= 2% (criterion 4)",
        hi_ids,
    )
    yield _check(
        "diag_low_snr",
        True,
        f"low-SNR sweeps: {lo_exit[1]} NoPeakFound-class exits, {lo_exit[0]} fitted (diagnostic)",
        [],
    )


CHECKS = {"map_grid": check_map, "steps_tracking": check_steps, "spectrum_fit": check_spectrum}


# layer micro-timings through public calls


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _median_time(fn, reps: int) -> float:
    return statistics.median(_time(fn) for _ in range(reps))


def micro_timings(root: Path) -> dict:
    """Single-threaded ns/sample of the lock-in and shot noise, ns/value of format_float.

    Settings come from the shipped quenched map config, so the dwell block
    is the 2,500 samples a map cell demodulates at a time.
    """
    doc = _json(root / "configs" / "sensitivity_map_quenched.json")
    lock_doc, sweep = doc["lockin"], doc["sweep"]
    lock = odmrsim.LockInConfig(
        mode="am",
        mod_freq_hz=lock_doc["mod_freq_hz"],
        time_constant_s=lock_doc["time_constant_s"],
        sample_rate_hz=lock_doc["sample_rate_hz"],
    )
    rng = np.random.default_rng(0)
    dwell_n = round(sweep["dwell_s"] * lock.sample_rate_hz)
    dwell = odmrsim.TimeSeries(0.0, lock.dt_s, rng.normal(1.0, 0.01, dwell_n), "V")
    block = odmrsim.TimeSeries(0.0, lock.dt_s, rng.normal(1.0, 0.01, 1_000_000), "V")
    batch = 40

    def dwell_batch():
        for _ in range(batch):
            odmrsim.lockin_demodulate(dwell, lock)

    demod_dwell = _median_time(dwell_batch, 7) / (batch * dwell_n)
    demod_block = _median_time(lambda: odmrsim.lockin_demodulate(block, lock), 5) / block.values.size

    model, rate_per_w = _broadening(doc)
    scene = odmrsim.Scene(
        spin=_spin(doc),
        field=odmrsim.FieldVector(0.0, 0.0, doc["field"]["bz_t"]),
        broadening=model,
        detector=odmrsim.DetectorModel(),
        pl_rate_per_w=rate_per_w,
        p_opt_w=0.4,  # the config defaults, the quenched map's best cell
        p_rf_w=1.0,
    )
    plan = odmrsim.SweepPlan(sweep["f_start_hz"], sweep["f_stop_hz"], sweep["n_points"], sweep["dwell_s"])
    samples = (plan.n_points + 1) * dwell_n
    on, off = [], []
    for _ in range(7):
        on.append(_time(lambda: odmrsim.simulate_am_sweep(scene, plan, lock, seed=1, shot_noise=True)))
        off.append(_time(lambda: odmrsim.simulate_am_sweep(scene, plan, lock, seed=1, shot_noise=False)))
    shot = (statistics.median(on) - statistics.median(off)) / samples

    values = rng.uniform(-1e3, 1e3, 20_000).tolist()

    def format_all():
        for v in values:
            odmrsim.io_formats.format_float(v)

    fmt = _median_time(format_all, 5) / len(values)
    return {
        "signal_chain.demod.ns_per_sample.dwell": demod_dwell * 1e9,
        "signal_chain.demod.ns_per_sample.block": demod_block * 1e9,
        "signal_chain.shot.ns_per_sample": shot * 1e9,
        "io_formats.format.ns_per_value": fmt * 1e9,
    }


# entry point


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where to write the traced spans")
    args = parser.parse_args()
    plan = _json(Path(args.plan))
    ops = {c["id"]: c["ops"] for c in plan["commands"]}
    work = Path(args.plan).parent
    root = Path(__file__).resolve().parent.parent

    # Every pass writes into the same output directories, as a user who
    # reruns a command with the same --out does; fresh directories per
    # pass would add file-creation and deletion work that the shared disk
    # makes noisy.
    out = work / "out"
    run_pass(plan, out)

    passes, tracers, outcomes = [], [], []
    measured = 0.0
    first_digests = None
    while measured < args.seconds or (args.trace and len(tracers) == 0):
        traced = bool(args.trace) and len(passes) % 2 == 1
        tr = None
        if traced:
            tr = tracing.Tracer()
            tr.install(cli, signal_chain)
        try:
            result = run_pass(plan, out, slot=len(passes))
        finally:
            if tr is not None:
                tr.uninstall()
        result["traced"] = traced
        measured += result["wall_s"]
        passes.append(result)
        if tr is not None:
            tracers.append(tr)
        outcome = inspect_pass(plan, out, result["codes"])
        if first_digests is None:
            first_digests = outcome["digests"]
        for cid, digest in outcome["digests"].items():
            if first_digests.get(cid) != digest:
                outcome["failed"][cid] = ops[cid]
                outcome["notes"].append(f"{cid}: output digests differ from the first timed pass")
        outcomes.append(outcome)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = []
    if not plan["quick"]:
        try:
            checks = list(CHECKS[plan["workload"]](plan, out, passes[-1]["codes"]))
        except (OSError, KeyError, ValueError) as exc:
            checks = [_check("outputs_readable", False, f"{type(exc).__name__}: {exc}", [c["id"] for c in plan["commands"]])]
    missed = {cid for c in checks if not c["ok"] for cid in c["covers"]}
    attempted = failed = refused = 0
    for outcome in outcomes:
        for cid, n in ops.items():
            attempted += n
            failed += n if cid in missed else outcome["failed"][cid]
            refused += 0 if cid in missed else outcome["refused"][cid]
    notes = sorted({note for o in outcomes for note in o["notes"]})

    untraced = [p for p in passes if not p["traced"]]
    result = {
        "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "traced": p["traced"]} for p in passes],
        "attempted": attempted,
        "failed": failed,
        "refused": refused,
        "checks": checks,
        "notes": notes,
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        per_pass = [tracing.layer_metrics(tr) for tr in tracers]
        metrics = {}
        for name in per_pass[0][0]:
            values = [m[name] for m, _ in per_pass]
            metrics[name] = statistics.median(values)
        counts_repeat = all(
            m[name] == per_pass[0][0][name]
            for m, _ in per_pass
            for name in m
            if not name.endswith(("_s", "ns_per_sample", "us_per_call"))
        )
        metrics.update(micro_timings(root))
        metrics["proc.cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
        metrics["trace.overhead_s"] = statistics.median(
            p["wall_s"] for p in passes if p["traced"]
        ) - result["wall_s"]
        result["layer_metrics"] = metrics
        result["counts_repeat"] = counts_repeat
        result["accounting"] = per_pass[0][1]
        if args.spans:
            tracing.dump(
                [s for tr in tracers for s in tr.spans],
                args.spans,
                {"workload": plan["workload"], "seed": plan["seed"]},
            )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
