"""Command line front end.

Subcommands
-----------
spectrum  Noise-free transition table and synthesized ODMR spectrum.
fit       Lorentzian fit of a recorded sweep CSV.
map       Simulated sensitivity map over an optical/RF power grid.
steps     FM tracking of a stepped axial field, with step statistics.

Every command writes its outputs plus a manifest.json holding the fully
defaulted configuration, the seed and SHA-256 digests of each output.
Each command computes its results first and then writes its files, and
then the manifest of them, as temporary files in --out (see _publish);
they are renamed into place, manifest.json last, only when all of them
were written.  A run that fails before removing or renaming a file in
--out leaves --out as it was.
Exit codes: 0 success, 1 domain error (bad data, no peak, out of range),
2 usage, config or file format error.

The map command runs its grid cells in chunks, in grid order, each cell
with its own generator seeded by (seed, i, j) for grid indexes i and j.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import math
import os
import shutil
import stat
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    analyze_steps,
    build_sensitivity_map,
    LorentzFit,
    fit_lorentzian,
    fit_lorentzian_rows,
    map_argmin,
    odmr_contrast,
    shot_noise_sensitivity,
    _median,
)
from .config import ConfigDoc, load_config
from .errors import FormatError, IoFailure, NoPeakFound, OdmrError
from .errors import ScheduleMismatch, SchemaViolation
from .io_formats import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    csv_chunks,
    load_manifest,
    load_sweep,
    write_json_record,
    write_map_csv,
    write_run_manifest,
    _bare,
    _write_text,
)
from .lineshape import synthesize_odmr
from .signal_chain import (
    FieldTimeline,
    Scene,
    photon_rate,
    simulate_am_cells,
    simulate_fm_tracking,
    step_windows,
    _dwell_layout,
)
from .spin_model import scan_transitions
from .svgplot import heatmap, line_plot

TRANSITIONS_HEADER = "bz_t,label,lower_m,upper_m,frequency_hz,rel_strength"


@contextlib.contextmanager
def _publish(args, cfg: ConfigDoc, t0: float):
    """Move a run's files into --out once the run has written all of them.

    Yields stage(name), the path to write output name to: a temporary file
    beside its target in --out.  When the block succeeds, the manifest of
    the staged files is staged too; then the files to be replaced and the
    other files the old manifest lists (bare names only) are removed and
    each staged file is renamed onto its name, the manifest last, so a
    manifest in --out always describes the files beside it.  This is the
    one code that renames files into --out.  A directory where the run
    writes a file is refused before anything in --out changes.  On any
    failure the staged files are removed; an old manifest that became the
    new one's stage goes back with its own bytes if no old file was
    removed yet; and --out (with any parents) is removed if this run
    created it.  An OSError becomes IoFailure.
    """
    # Temporary files beside their targets, not a staging directory, and
    # old files removed before the renames.  On ext4 (2-vCPU shared host)
    # making a file or a directory costs 0.08-0.4 ms, freeing and taking a
    # disk block (a rewrite after O_TRUNC) about 0.035 ms and an unlink or a
    # rename 0.005-0.03 ms, of a 1.2-1.4 ms `odmr fit` rerun: so the old
    # manifest, when it is a plain file of one link, becomes the new one's
    # stage, which _write_text overwrites in place, and its bytes (about
    # 2 KB, read in 5.5 us) are kept until the old files go.  Paths are
    # plain strings, --out normalised once as pathlib spells it.
    out_dir = os.fspath(Path(args.out))
    created = [] if os.path.exists(out_dir) else [
        p for p in (Path(out_dir), *Path(out_dir).parents) if not p.exists()
    ]
    manifest = os.path.join(out_dir, MANIFEST_NAME)
    staged = {}
    kept = None

    def stage(name: str) -> str:
        staged[name] = os.path.join(out_dir, f".{name}.tmp")
        return staged[name]

    try:
        os.makedirs(out_dir, exist_ok=True)
        yield stage
        outputs = dict(staged)
        manifest_stage = stage(MANIFEST_NAME)
        # One read of --out answers which names are present and which are
        # directories, from the entries' own types.
        with os.scandir(out_dir) as entries:
            present = {entry.name: entry for entry in entries}
        for name in staged:
            if name in present and present[name].is_dir(follow_symlinks=False):
                path = os.path.join(out_dir, name)
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        # A directory that holds nothing but this run's names and their
        # stages has no file that an old manifest could list and this run
        # not replace: its manifest is not read.
        ours = {*staged, *(f".{n}.tmp" for n in staged)}
        listed = {}
        if present.keys() - ours:
            with contextlib.suppress(FormatError):
                listed = load_manifest(manifest)["outputs"]
        stale = [
            n
            for n in listed
            if n in present and n not in ours and _bare(n) and not present[n].is_dir()
        ]
        if MANIFEST_NAME in present:
            old = present[MANIFEST_NAME].stat(follow_symlinks=False)
            if stat.S_ISREG(old.st_mode) and old.st_nlink == 1:
                with open(manifest, "rb") as fh:
                    kept = fh.read()
                os.replace(manifest, manifest_stage)
                del present[MANIFEST_NAME]
        write_run_manifest(
            manifest_stage,
            command=args.command,
            seed=args.seed,
            config_json=cfg.manifest_json,
            outputs=outputs,
            duration_s=time.perf_counter() - t0,
        )
        for name in (*staged, *stale):
            if name in present:
                os.unlink(os.path.join(out_dir, name))
                kept = None
        for name, path in staged.items():
            os.rename(path, os.path.join(out_dir, name))
    except BaseException as exc:
        if kept is not None:
            with contextlib.suppress(OSError):
                if Path(manifest_stage).read_bytes() != kept:
                    Path(manifest_stage).write_bytes(kept)
                os.replace(manifest_stage, manifest)
        for path in staged.values():
            with contextlib.suppress(OSError):
                os.unlink(path)
        if created:
            shutil.rmtree(created[-1], ignore_errors=True)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write to {out_dir}: {exc}") from exc
        raise


def cmd_spectrum(args, cfg: ConfigDoc, t0: float) -> int:
    scene = cfg.scene()
    bz_values = np.linspace(
        cfg.sweep.bz_start_t, cfg.sweep.bz_stop_t, cfg.sweep.n_fields
    )
    table = scan_transitions(scene.spin, cfg.field, bz_values)

    spectrum = synthesize_odmr(
        scene.lines(),
        scene.broadening,
        scene.p_rf_w,
        scene.p_opt_w,
        cfg.sweep.frequencies(),
    )
    with _publish(args, cfg, t0) as stage:
        rows = csv_chunks(
            TRANSITIONS_HEADER, bz_values[table.field_index], table.label,
            table.lower_m, table.upper_m, table.frequency_hz, table.rel_strength,
        )
        _write_text(stage("transitions.csv"), rows)
        _write_text(
            stage("spectrum.csv"),
            csv_chunks("frequency_hz,contrast", spectrum.frequency_hz, spectrum.values),
        )
        if args.svg:
            line_plot(
                spectrum.frequency_hz / 1e6,
                spectrum.values,
                stage("spectrum.svg"),
                title="ODMR spectrum",
                x_label="frequency (MHz)",
                y_label="contrast",
            )
    print(
        f"spectrum: {table.label.size} transition rows, "
        f"{spectrum.frequency_hz.size} samples -> {Path(args.out)}"
    )
    return 0


def cmd_fit(args, cfg: ConfigDoc, t0: float) -> int:
    record = load_sweep(args.sweep_csv)
    fit = fit_lorentzian(record)
    dc_v = record.dc_v[~np.isnan(record.dc_v)]
    dc = float(_median(dc_v)) if dc_v.size else math.nan
    contrast = None
    if math.isfinite(dc) and dc > 0:
        # A DC level so small that the ratio overflows gives none either.
        contrast = odmr_contrast(fit, dc)
        contrast = contrast if math.isfinite(contrast) else None

    payload = {
        "format_version": FORMAT_VERSION,
        "source": os.path.basename(args.sweep_csv),
        "center_hz": fit.center_hz,
        "center_ci_hz": list(fit.center_ci_hz),
        "fwhm_hz": fit.fwhm_hz,
        "fwhm_ci_hz": list(fit.fwhm_ci_hz),
        "amplitude_v": fit.amplitude,
        "offset_v": fit.offset,
        "rss": fit.rss,
        "n_iter": fit.n_iter,
        "stop_test": fit.stop_test,
        "dc_v": dc if math.isfinite(dc) else None,
        "contrast": contrast,
    }
    with _publish(args, cfg, t0) as stage:
        write_json_record(payload, stage("fit.json"))
        if args.svg:
            line_plot(
                record.frequency_hz / 1e6,
                fit.evaluate(record.frequency_hz),
                stage("fit.svg"),
                title=(
                    f"lorentzian fit: center {fit.center_hz / 1e6:.4f} MHz, "
                    f"fwhm {fit.fwhm_hz / 1e3:.1f} kHz"
                ),
                x_label="frequency (MHz)",
                y_label="lock-in (V)",
            )
    contrast_txt = "n/a" if contrast is None else f"{contrast:.4g}"
    print(
        f"fit: center {fit.center_hz / 1e6:.4f} MHz, "
        f"fwhm {fit.fwhm_hz / 1e3:.2f} kHz, contrast {contrast_txt}"
    )
    return 0


# A map runs in chunks of consecutive cells in grid order, each chunk's
# arrays about this many cells x points, so no array scales with the grid
# times the points.  On the shipped 41-point maps (2-vCPU host) 4,096 ran
# about 10% faster but peaked 0.5 MB higher, and 1,024 about 15% slower.
_MAP_CHUNK_VALUES = 2048


def _simulated_map(cfg: ConfigDoc, scene: Scene, p_opts, p_rfs, seed):
    """fwhm_hz, contrast and rate_hz, (n_opt, n_rf) each; NaN where a cell fails.

    Cell (i, j) is simulated at p_opts[i] and p_rfs[j], with its own
    generator seeded by (seed, i, j), and fitted; a chunk of cells runs as
    one stack from simulation to fit.
    """
    maps = np.full((3, p_opts.size, p_rfs.size), math.nan)
    flat = maps.reshape(3, -1)
    freqs = cfg.sweep.frequencies()
    size = max(1, _MAP_CHUNK_VALUES // cfg.sweep.n_points)
    for first in range(0, flat.shape[1], size):
        i, j = np.divmod(np.arange(first, min(first + size, flat.shape[1])), p_rfs.size)
        seeds = None
        if cfg.detector.shot_noise:
            seeds = [(seed, int(a), int(b)) for a, b in zip(i, j)]
        lockin, dc = simulate_am_cells(
            scene, cfg.sweep, cfg.lockin, p_opts[i], p_rfs[j], seeds
        )
        fits = fit_lorentzian_rows(freqs, lockin)
        # The readings are in units of each cell's unmodulated photon rate.
        dc = _median(dc)
        rate = photon_rate(scene.pl_rate_per_w, p_opts[i]) * dc
        for k, (fit, dc_k, rate_k) in enumerate(zip(fits, dc, rate)):
            # A dark or negative DC reading has no shot-noise sensitivity.
            if isinstance(fit, LorentzFit) and rate_k > 0:
                contrast = odmr_contrast(fit, dc_k)
                flat[:, first + k] = fit.fwhm_hz, contrast, rate_k
    return maps


def cmd_map(args, cfg: ConfigDoc, t0: float) -> int:
    grid = cfg.sweep.grid
    if grid is None:
        raise SchemaViolation("sweep.grid: required by the map command")
    if cfg.lockin.mode != "am":
        raise SchemaViolation("lockin.mode: map command needs 'am'")
    if cfg.sweep.n_points < 5:
        raise SchemaViolation(
            "sweep.n_points: the map command fits four parameters to each "
            "cell and needs at least 5 points"
        )
    try:
        _dwell_layout(cfg.sweep, cfg.lockin)
    except ValueError as exc:
        raise SchemaViolation(f"sweep.{exc}") from None
    scene = cfg.scene()
    p_opts = grid.p_opt_values()
    p_rfs = grid.p_rf_values()

    fwhm, contrast, rate = _simulated_map(cfg, scene, p_opts, p_rfs, args.seed)
    eta = shot_noise_sensitivity(fwhm, contrast, rate, g_factor=cfg.spin.g_factor)
    n_failed = int(np.count_nonzero(~np.isfinite(eta)))
    if n_failed == eta.size:
        raise NoPeakFound("no map cell produced a fittable resonance")
    simulated = (fwhm, contrast, rate, eta)
    best = map_argmin(p_opts, p_rfs, simulated)

    analytic = build_sensitivity_map(
        cfg.lineshape,
        cfg.lineshape.pl_rate_per_w,
        p_opts,
        p_rfs,
        g_factor=cfg.spin.g_factor,
    )
    payload = {
        "format_version": FORMAT_VERSION,
        "simulated": best,
        "analytic": map_argmin(p_opts, p_rfs, analytic),
        "n_cells": eta.size,
        "n_failed": n_failed,
    }
    with _publish(args, cfg, t0) as stage:
        write_map_csv(p_opts, p_rfs, simulated, stage("map.csv"))
        write_json_record(payload, stage("argmin.json"))
        if args.svg:
            heatmap(
                p_opts,
                p_rfs,
                eta.T,
                stage("map.svg"),
                title="sensitivity (T per sqrt Hz)",
                x_label="optical power (W)",
                y_label="RF power (W)",
            )
    print(
        f"map: {p_opts.size}x{p_rfs.size} cells, best "
        f"{best['eta_t_rthz'] * 1e9:.3f} nT/sqrt(Hz) at "
        f"p_opt {best['p_opt_w']:.3g} W, p_rf {best['p_rf_w']:.3g} W"
    )
    return 0


def cmd_steps(args, cfg: ConfigDoc, t0: float) -> int:
    if cfg.lockin.mode != "fm":
        raise SchemaViolation("lockin.mode: steps command needs 'fm'")
    scene = cfg.scene()
    sched = cfg.schedule
    duration = sched.step_period_s * sched.n_steps
    try:
        n_total = cfg.lockin.samples(duration, "step_period_s x n_steps")
    except ValueError as exc:
        raise SchemaViolation(f"schedule.{exc}") from None
    timeline = FieldTimeline.staircase(
        bias_t=cfg.field.bz_t,
        step_t=sched.step_t,
        period_s=sched.step_period_s,
        n_steps=sched.n_steps,
    )
    # Every step must keep two samples after its settling discard.
    try:
        windows = step_windows(timeline, n_total, cfg.lockin)
    except ScheduleMismatch as exc:
        raise SchemaViolation(f"schedule.step_period_s: {exc}") from None
    if args.svg and sched.output_decimation >= n_total:
        raise SchemaViolation(
            f"schedule.output_decimation: {sched.output_decimation} leaves "
            f"fewer than two of the run's {n_total} samples to plot"
        )

    result = simulate_fm_tracking(
        timeline,
        scene,
        cfg.lockin,
        duration,
        seed=args.seed,
        shot_noise=cfg.detector.shot_noise,
        field_noise_step_sigma_t=sched.field_noise_step_sigma_t,
        decimation=sched.output_decimation,
    )
    t = cfg.lockin.dt_s * np.arange(0, n_total, sched.output_decimation)
    est = result.field_estimate
    # The detector gain enters only here, on the volts steps writes; in
    # place, so the kept series is not held twice.
    lockin = scene.in_volts(result.lockin, out=result.lockin)
    slope = float(scene.in_volts(result.slope_per_hz))
    # Each level repeated over its step's rows; a step ends with its window.
    rows_to_end = [-(-i1 // sched.output_decimation) for _, i1 in windows]
    true = np.repeat(timeline.bz_t, np.diff([0, *rows_to_end]))

    payload = {
        "format_version": FORMAT_VERSION,
        **analyze_steps(result.step_means_t, result.step_stds_t, timeline, cfg.lockin),
        "carrier_hz": result.carrier_hz,
        "slope_v_per_hz": slope,
        "gamma_eff_hz_per_t": result.gamma_eff_hz_per_t,
        "field_noise_sigma_in_t": result.field_noise_sigma_in_t,
    }
    with _publish(args, cfg, t0) as stage:
        _write_text(
            stage("tracking.csv"),
            csv_chunks("t_s,bz_true_t,bz_est_t,lockin_v", t, true, est, lockin),
        )
        write_json_record(payload, stage("steps.json"))
        if args.svg:
            line_plot(
                t,
                est * 1e6,
                stage("tracking.svg"),
                title="tracked field",
                x_label="time (s)",
                y_label="field (uT)",
            )
    print(
        f"steps: pooled std {payload['pooled_std_t'] * 1e9:.2f} nT, "
        f"sensitivity {payload['sensitivity_t_rthz'] * 1e9:.2f} nT/sqrt(Hz)"
    )
    return 0


def _seed(text: str) -> int:
    """--seed: a non-negative integer, as numpy's seeding takes."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return int(text)


def _add_common(sub, with_hyperfine: bool = True) -> None:
    sub.add_argument(
        "--config", default=None, help="JSON configuration file (defaults apply)"
    )
    sub.add_argument(
        "--seed", type=_seed, default=0, help="random seed (non-negative)"
    )
    sub.add_argument(
        "--out", default=".", help="output directory (created if missing)"
    )
    sub.add_argument(
        "--svg", action="store_true", help="also write an SVG plot"
    )
    if with_hyperfine:
        sub.add_argument(
            "--no-hyperfine",
            action="store_true",
            help="drop the hyperfine satellites (sets spin.hyperfine_rel_amp to 0)",
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The odmr parser, built on first use and shared by later main() calls.

    parse_args returns a fresh namespace each call and the parser keeps no
    parsed state, so sharing it is safe; building it costs about 1 ms.
    """
    parser = argparse.ArgumentParser(
        prog="odmr",
        description="CW ODMR magnetometry simulator for S=3/2 defects",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spectrum = sub.add_parser(
        "spectrum",
        help="transition table and noise-free spectrum",
        description=(
            "Write transitions.csv (line positions against axial field) and "
            "spectrum.csv (synthesized contrast spectrum at the configured "
            "field and powers)."
        ),
    )
    _add_common(p_spectrum)
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_fit = sub.add_parser(
        "fit",
        help="Lorentzian fit of a sweep CSV",
        description=(
            "Fit a Lorentzian plus offset to a sweep CSV (columns "
            "frequency_hz,lockin_v,dc_v) and write fit.json."
        ),
    )
    p_fit.add_argument("sweep_csv", help="sweep CSV file to fit")
    _add_common(p_fit, with_hyperfine=False)
    p_fit.set_defaults(func=cmd_fit)

    p_map = sub.add_parser(
        "map",
        help="sensitivity map over a power grid",
        description=(
            "Run one simulated AM sweep per grid cell (sweep.grid in the "
            "config), fit each, and write map.csv plus argmin.json with the "
            "best simulated and analytic cells."
        ),
    )
    _add_common(p_map)
    p_map.set_defaults(func=cmd_map)

    p_steps = sub.add_parser(
        "steps",
        help="FM tracking of a stepped field",
        description=(
            "Track a field staircase (schedule section) with the FM "
            "discriminator and write tracking.csv plus steps.json with "
            "per-step statistics."
        ),
    )
    _add_common(p_steps)
    p_steps.set_defaults(func=cmd_steps)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        t0 = time.perf_counter()
        cfg = load_config(args.config)
        if getattr(args, "no_hyperfine", False):
            cfg = replace(cfg, spin=replace(cfg.spin, hyperfine_rel_amp=0.0))
        return args.func(args, cfg, t0)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OdmrError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
