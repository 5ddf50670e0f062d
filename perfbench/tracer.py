"""Outside-in tracer for the odmrsim benchmark.

Spans are recorded around calls into each layer from outside the program:
the tracer replaces names at the import sites the command code resolves at
call time, so no file under ``src/`` changes.

* ``odmrsim.cli.main`` opens one command span per ``odmr`` command.
* Every odmrsim function imported into ``odmrsim.cli`` gets a span whose
  layer is the module it comes from; ``format_float`` is only counted,
  because ``steps`` calls it 76.8k times per command.
* ``eigenlevels``, ``transitions`` and ``synthesize_odmr`` as imported into
  ``odmrsim.signal_chain`` (used by ``Scene.lines`` and the AM sweep) get
  spans too, so the spin model and lineshape are separated from the lock-in.

A span holds its name, layer, start, end, parent span and command id.  The
parent stack is per thread; a span opened on an empty stack in a worker
thread (the ``map`` pool) takes the open command span as its parent.
Spans stay in memory until ``dump`` writes them once.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from collections import defaultdict

SIGNAL_CHAIN_SITES = ("eigenlevels", "transitions", "synthesize_odmr")
WRITERS = ("_write_text", "write_json_record", "write_map_csv")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "command", "thread", "info")

    def __init__(self, name, layer, parent, command):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.command = command
        self.thread = threading.get_ident()
        self.info = None
        self.start = time.perf_counter()
        self.end = self.start


def _probe(fn):
    """Return f(args, kwargs, result) -> info dict for the calls that carry counts."""
    name = fn.__name__
    sig = inspect.signature(fn)

    def bound(args, kwargs):
        return sig.bind(*args, **kwargs).arguments

    if name == "simulate_am_sweep":

        def am(a, k, r):
            b = bound(a, k)
            dwell_n = round(b["plan"].dwell_s * b["cfg"].sample_rate_hz)
            return {"samples": (b["plan"].n_points + 1) * dwell_n}

        return am
    if name == "simulate_fm_tracking":

        def fm(a, k, r):
            b = bound(a, k)
            return {"samples": round(b["duration_s"] * b["cfg"].sample_rate_hz)}

        return fm
    if name == "fit_lorentzian":
        return lambda a, k, r: {"n_iter": r.n_iter}
    if name == "load_sweep":
        return lambda a, k, r: {"rows": int(r.frequency_hz.size)}
    if name == "synthesize_odmr":
        return lambda a, k, r: {"points": int(r.frequency_hz.size)}
    if name in WRITERS:
        return lambda a, k, r: {"bytes": os.path.getsize(r)}
    if name == "write_run_manifest":
        return lambda a, k, r: {
            "bytes_hashed": sum(o["bytes"] for o in r.outputs.values())
        }
    if name in ("line_plot", "heatmap"):
        return lambda a, k, r: {"bytes": os.path.getsize(bound(a, k)["path"])}
    return None


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.format_calls = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._command: Span | None = None
        self._n_commands = 0
        self._restore = []

    # installation

    def install(self, cli, signal_chain) -> None:
        for name, obj in list(vars(cli).items()):
            module = getattr(obj, "__module__", "") or ""
            if not inspect.isfunction(obj) or not module.startswith("odmrsim."):
                continue
            if name == "main":
                self._replace(cli, name, self._command_wrapper(obj))
            elif name == "format_float":
                self._replace(cli, name, self._counter(obj))
            elif module != "odmrsim.cli":
                self._replace(cli, name, self._span_wrapper(obj))
        for name in SIGNAL_CHAIN_SITES:
            self._replace(signal_chain, name, self._span_wrapper(getattr(signal_chain, name)))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def _replace(self, module, name, wrapper) -> None:
        self._restore.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    # wrappers

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, layer) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._command
        span = Span(name, layer, parent, self._n_commands)
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def _span_wrapper(self, fn):
        layer = fn.__module__.split(".", 1)[1]
        probe = _probe(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(fn.__name__, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info = {"error": type(exc).__name__}
                raise
            finally:
                self._close(span)
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        return traced

    def _command_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(argv=None):
            self._n_commands += 1
            span = self._open(f"main:{argv[0] if argv else ''}", "cli")
            self._command = span
            try:
                code = fn(argv)
            finally:
                self._close(span)
                self._command = None
            span.info = {"exit": code}
            return code

        return traced

    def _counter(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.format_calls += 1
            return fn(*args, **kwargs)

        return counted


def dump(spans, path, extra: dict) -> None:
    """Write spans once, parents as indices into the span list."""
    index = {id(s): i for i, s in enumerate(spans)}
    rows = [
        [
            s.name,
            s.layer,
            s.start,
            s.end,
            None if s.parent is None else index[id(s.parent)],
            s.command,
            s.thread,
            s.info,
        ]
        for s in spans
    ]
    doc = dict(extra)
    doc["fields"] = ["name", "layer", "start", "end", "parent", "command", "thread", "info"]
    doc["spans"] = rows
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[tuple[Span, float]]:
    """Each span's duration minus the union of its children's intervals.

    The union matters for command spans of ``map``, whose children run
    concurrently in the pool threads.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return [
        (s, (s.end - s.start) - _covered(children[id(s)], s.start, s.end))
        for s in spans
    ]


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer counts and self times of one traced pass.

    Returns (metrics, accounting); accounting holds the self time of every
    layer and the summed wall time of the command spans.
    """
    timed = self_times(tracer.spans)
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    for span, own in timed:
        by_name[span.name].append((span, own))
        layer_self[span.layer] += own

    def group(*names):
        return [item for n in names for item in by_name.get(n, [])]

    def self_s(items):
        return sum(own for _, own in items)

    def info_sum(items, key):
        return sum((s.info or {}).get(key, 0) for s, _ in items)

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    commands = [item for item in timed if item[0].layer == "cli"]
    eigen = group("eigenlevels")
    spin = [item for item in timed if item[0].layer == "spin_model"]
    shape = [item for item in timed if item[0].layer == "lineshape"]
    am = group("simulate_am_sweep")
    fm = group("simulate_fm_tracking")
    fits = group("fit_lorentzian")
    fit_ok = [s.info["n_iter"] for s, _ in fits if s.info and "n_iter" in s.info]
    writes = group(*WRITERS)
    reads = group("load_sweep")
    manifests = group("write_run_manifest")
    plots = group("line_plot", "heatmap")

    metrics = {
        "cli.commands": len(commands),
        "cli.self_s": self_s(commands),
        "spin_model.calls": len(eigen),
        "spin_model.self_s": self_s(spin),
        "spin_model.us_per_call": per(self_s(spin), len(eigen), 1e6),
        "lineshape.calls": len(shape),
        "lineshape.points": info_sum(shape, "points"),
        "lineshape.self_s": self_s(shape),
        "signal_chain.am_sweep.calls": len(am),
        "signal_chain.am_sweep.samples": info_sum(am, "samples"),
        "signal_chain.am_sweep.self_s": self_s(am),
        "signal_chain.am_sweep.ns_per_sample": per(self_s(am), info_sum(am, "samples"), 1e9),
        "signal_chain.fm_tracking.calls": len(fm),
        "signal_chain.fm_tracking.samples": info_sum(fm, "samples"),
        "signal_chain.fm_tracking.self_s": self_s(fm),
        "signal_chain.fm_tracking.ns_per_sample": per(self_s(fm), info_sum(fm, "samples"), 1e9),
        "analysis.fit.calls": len(fits),
        "analysis.fit.failed": len(fits) - len(fit_ok),
        "analysis.fit.iters_mean": per(sum(fit_ok), len(fit_ok), 1.0),
        "analysis.fit.self_s": self_s(fits),
        "analysis.steps.self_s": self_s(group("analyze_steps")),
        "analysis.sensitivity_map.self_s": self_s(group("build_sensitivity_map")),
        "io_formats.config.self_s": self_s(group("load_config")),
        "io_formats.read.rows": info_sum(reads, "rows"),
        "io_formats.read.self_s": self_s(reads),
        "io_formats.write.bytes": info_sum(writes, "bytes"),
        "io_formats.write.self_s": self_s(writes),
        "io_formats.format.calls": tracer.format_calls,
        "io_formats.manifest.bytes_hashed": info_sum(manifests, "bytes_hashed"),
        "io_formats.manifest.self_s": self_s(manifests),
        "svgplot.calls": len(plots),
        "svgplot.bytes": info_sum(plots, "bytes"),
        "svgplot.self_s": self_s(plots),
    }
    accounting = {
        "command_wall_s": sum(s.end - s.start for s, _ in commands),
        "layer_self_s": dict(layer_self),
    }
    return metrics, accounting
