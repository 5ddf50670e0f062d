"""Seeded input generator for the odmrsim benchmark.

Reads the shipped ``configs/*.json`` (never modifies them) and writes each
workload's derived configs and sweep CSVs into a scratch directory.  The
result is a plan: the ``odmr`` commands to run (without ``--out``), what
each command is expected to do, the truth values the correctness checks
compare against, and the workload's input size.  Standard library only,
so generating inputs costs the measured program nothing.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("map_grid", "steps_tracking", "spectrum_fit")

# Shipped staircase of field_steps_tracking.json spans 7 x 500 nT; the
# generated 32-step schedule stays inside that span, where the linearised
# FM discriminator readout is calibrated.
SHIPPED_STAIR_SPAN_T = 7 * 500e-9

# Fit sweeps reuse the geometry of acceptance criterion 4: 201 points over
# 95-101 MHz.  Noise sigma is amplitude / SNR.
FIT_POINTS = 201
FIT_F_START_HZ = 95e6
FIT_F_STOP_HZ = 101e6
FIT_AMPLITUDE_V = 4e-4
FIT_OFFSET_V = 1e-5
FIT_DC_V = 0.0635


def _load(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / name).read_text(encoding="utf-8"))


def _write_config(out: Path, name: str, doc: dict) -> str:
    path = out / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _program_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _command(cid, argv, ops, kind, expect_exit=(0,), **extra) -> dict:
    return {
        "id": cid,
        "argv": argv,
        "ops": ops,
        "kind": kind,
        "expect_exit": list(expect_exit),
        **extra,
    }


def _am_samples(cfg: dict) -> int:
    """Detector samples of one simulated AM sweep (lead-in dwell included)."""
    lock, sweep = cfg["lockin"], cfg["sweep"]
    dwell_n = round(sweep["dwell_s"] * lock["sample_rate_hz"])
    return (sweep["n_points"] + 1) * dwell_n


def _map_grid(root: Path, out: Path, rng: random.Random, quick: bool) -> dict:
    quenched = _load(root, "sensitivity_map_quenched.json")
    annealed = _load(root, "sensitivity_map_annealed.json")
    annealed["detector"]["shot_noise"] = True
    annealed["sweep"]["grid"].update(n_opt=10, n_rf=10)
    if quick:
        quenched["sweep"]["grid"].update(n_opt=3, n_rf=3)
        annealed["sweep"]["grid"].update(n_opt=2, n_rf=2)
    commands, configs, cells, samples = [], [], 0, 0
    for cid, doc in (("map_quenched", quenched), ("map_annealed_shot", annealed)):
        path = _write_config(out, cid, doc)
        configs.append(path)
        grid = doc["sweep"]["grid"]
        n = grid["n_opt"] * grid["n_rf"]
        cells += n
        samples += n * _am_samples(doc)
        argv = ["map", "--config", path, "--seed", str(_program_seed(rng)), "--svg"]
        # Shot-noise cells whose fit finds no peak become NaN rows by
        # design; only the noise-free grid must have none.
        commands.append(
            _command(cid, argv, n, "map", nan_allowed=doc["detector"]["shot_noise"])
        )
    return {
        "commands": commands,
        "configs": configs,
        "size": {
            "grid_cells": cells,
            "detector_samples": samples,
            "fitted_sweeps": cells,
            "field_points": cells,
        },
    }


def _steps_tracking(root: Path, out: Path, rng: random.Random, quick: bool) -> dict:
    field_doc = _load(root, "field_steps_tracking.json")
    shot_doc = _load(root, "shot_noise_tracking.json")
    long_doc = json.loads(json.dumps(field_doc))
    long_doc["schedule"]["n_steps"] = 32
    long_doc["schedule"]["step_t"] = SHIPPED_STAIR_SPAN_T / 31 * rng.uniform(0.5, 1.0)
    if quick:
        for doc in (field_doc, shot_doc, long_doc):
            doc["schedule"].update(n_steps=2, step_period_s=6.0)
    paths = {
        "field": _write_config(out, "steps_field", field_doc),
        "shot": _write_config(out, "steps_shot", shot_doc),
        "long": _write_config(out, "steps_long", long_doc),
    }
    docs = {"field": field_doc, "shot": shot_doc, "long": long_doc}
    # Seed 0 of each shipped schedule is the input the acceptance suite
    # pins criteria 5 and 6 on; the other seeds come from the bench seed.
    runs = [
        ("steps_field_s0", "field", 0, "c5"),
        ("steps_field_a", "field", _program_seed(rng), "diag"),
        ("steps_field_b", "field", _program_seed(rng), "diag"),
        ("steps_shot_s0", "shot", 0, "c6"),
        ("steps_shot_a", "shot", _program_seed(rng), "c6"),
        ("steps_shot_b", "shot", _program_seed(rng), "c6"),
        ("steps_long", "long", _program_seed(rng), "c5_sensitivity"),
    ]
    commands, samples = [], 0
    for cid, key, seed, check in runs:
        sched = docs[key]["schedule"]
        rate = docs[key]["lockin"]["sample_rate_hz"]
        samples += round(sched["n_steps"] * sched["step_period_s"] * rate)
        argv = ["steps", "--config", paths[key], "--seed", str(seed), "--svg"]
        commands.append(_command(cid, argv, 1, "steps", check=check, config=paths[key]))
    return {
        "commands": commands,
        "configs": list(paths.values()),
        "size": {
            "grid_cells": 0,
            "detector_samples": samples,
            "fitted_sweeps": 0,
            # _line_table solves the bias field and +-1 uT around it.
            "field_points": 3 * len(runs),
        },
    }


def _write_sweep_csv(path: Path, rng: random.Random, center, fwhm, snr) -> None:
    half_sq = (0.5 * fwhm) ** 2
    sigma = FIT_AMPLITUDE_V / snr
    step = (FIT_F_STOP_HZ - FIT_F_START_HZ) / (FIT_POINTS - 1)
    rows = ["frequency_hz,lockin_v,dc_v"]
    for i in range(FIT_POINTS):
        f = FIT_F_START_HZ + i * step
        clean = FIT_OFFSET_V + FIT_AMPLITUDE_V * half_sq / ((f - center) ** 2 + half_sq)
        rows.append(f"{f!r},{clean + rng.gauss(0.0, sigma)!r},{FIT_DC_V!r}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _spectrum_fit(root: Path, out: Path, rng: random.Random, quick: bool) -> dict:
    scan = _load(root, "spectrum_scan.json")
    scan["sweep"].update(n_fields=3000, n_points=4001)
    scan["sweep"]["bz_stop_t"] = rng.uniform(2.5e-3, 3.5e-3)
    tilted = json.loads(json.dumps(scan))
    # A transverse field mixes the levels so the |dm| = 2 lines gain strength.
    tilted["field"]["bx_t"] = rng.uniform(2e-4, 4e-4)
    n_hi, n_lo = 1000, 200
    if quick:
        for doc in (scan, tilted):
            doc["sweep"].update(n_fields=20, n_points=101)
        n_hi, n_lo = 6, 3
    commands, configs = [], []
    for cid, doc in (("spectrum_axial", scan), ("spectrum_tilted", tilted)):
        path = _write_config(out, cid, doc)
        configs.append(path)
        argv = ["spectrum", "--config", path, "--seed", str(_program_seed(rng)), "--svg"]
        commands.append(_command(cid, argv, 1, "spectrum", config=path))
    sweeps = out / "sweeps"
    sweeps.mkdir()
    for k in range(n_hi + n_lo):
        high = k < n_hi
        center = rng.uniform(97e6, 99e6)
        fwhm = rng.uniform(0.9e6, 1.3e6)
        # Low-SNR sweeps sit at or below the fit's 2-sigma amplitude gate,
        # so most end in NoPeakFound (exit 1), which is their expected result.
        snr = 20.0 if high else rng.uniform(0.3, 1.0)
        csv = sweeps / f"sweep_{k:04d}.csv"
        _write_sweep_csv(csv, rng, center, fwhm, snr)
        commands.append(
            _command(
                f"fit_{k:04d}",
                ["fit", str(csv)],
                1,
                "fit",
                expect_exit=(0,) if high else (0, 1),
                truth={"center_hz": center, "fwhm_hz": fwhm, "snr": snr},
            )
        )
    n_fields = sum(doc["sweep"]["n_fields"] for doc in (scan, tilted))
    return {
        "commands": commands,
        "configs": configs,
        "size": {
            "grid_cells": 0,
            "detector_samples": 0,
            "fitted_sweeps": n_hi + n_lo,
            # Each spectrum also solves its configured field once for synthesis.
            "field_points": n_fields + 2,
        },
    }


_GENERATORS = {
    "map_grid": _map_grid,
    "steps_tracking": _steps_tracking,
    "spectrum_fit": _spectrum_fit,
}


def generate(root: Path, workload: str, seed: int, out: Path, quick: bool = False) -> dict:
    """Write a workload's inputs under out and return its plan."""
    rng = random.Random(f"odmrsim-bench/{workload}/{seed}")
    out.mkdir(parents=True, exist_ok=True)
    plan = _GENERATORS[workload](root, out, rng, quick)
    plan.update(workload=workload, seed=seed, quick=quick)
    return plan
