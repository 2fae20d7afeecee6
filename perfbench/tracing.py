"""Per-layer tracing of one ``fiberlink run`` from outside the program.

``Tracer.patched()`` wraps, for the duration of one run, the public functions
that ``fiberlink.scenario`` and ``fiberlink.io`` call, plus the validation of
the two series containers.  Every wrapped call records a span (key, start,
end, parent) in memory; ``metrics()`` turns the spans into the per-layer
metrics.  A layer's time is its self time: its spans' durations minus the
parts their child spans cover, so nested calls (``write_adev_csv`` calling
``write_lines``) are not counted twice.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import time
import tracemalloc

# Metric name -> unit, in the order reported.
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.load_s": "s",
    "cli.self_s": "s",
    "scenario.self_s": "s",
    "noise.synth_s": "s",
    "noise.synth_calls": "count",
    "noise.samples": "count",
    "noise.synth_peak_mb": "MB",
    "control.servo_s": "s",
    "control.servo_calls": "count",
    "control.servo_samples": "count",
    "control.servo_peak_mb": "MB",
    "control.suppression_s": "s",
    "control.suppression_calls": "count",
    "control.suppression_fft_len": "count",
    "link.chain_s": "s",
    "link.chain_calls": "count",
    "link.chain_samples": "count",
    "stability.welch_s": "s",
    "stability.welch_calls": "count",
    "stability.welch_segments": "count",
    "stability.adev_s": "s",
    "stability.adev_calls": "count",
    "stability.adev_points": "count",
    "comb.chain_s": "s",
    "comb.chain_calls": "count",
    "comb.gates": "count",
    "io.psd_write_s": "s",
    "io.gates_write_s": "s",
    "io.adev_write_s": "s",
    "io.other_write_s": "s",
    "io.files_written": "count",
    "io.rows_written": "count",
    "io.bytes_written": "B",
    "series.validate_s": "s",
    "series.validate_calls": "count",
    "series.elements_validated": "count",
    "trace.overhead_s": "s",
}

# Counters aggregated by maximum over calls; all others are summed.
_MAX_COUNTERS = {"control.suppression_fft_len", "noise.synth_peak_mb",
                 "control.servo_peak_mb"}
# Span keys whose calls are counted as ``<key>_calls``.
_COUNTED_CALLS = {"noise.synth", "control.servo", "control.suppression", "link.chain",
                  "stability.welch", "stability.adev", "comb.chain", "series.validate"}
# Span keys whose calls run under tracemalloc, reported as ``<key>_peak_mb``.
_PEAK_KEYS = {"noise.synth", "control.servo"}
_IO_WRITERS = {"io.psd_write", "io.gates_write", "io.adev_write"}
# ``write_lines`` spans are charged to the writer that called them.
_LINES_KEY = "io.lines"


def _chain_samples(args, result):
    return {"link.chain_samples": len(args["x"])}


def _fft_len(args, result):
    return {"control.suppression_fft_len": len(args["x"])}


def _samples_out(args, result):
    return {"noise.samples": result.samples.size}


def _servo(args, result):
    return {"control.servo_samples": len(args["n1"])}


def _welch(args, result):
    n, segment = len(args["x"]), int(args["segment"])
    step = segment - int(args["overlap"] * segment)
    return {"stability.welch_segments": (n - segment) // step + 1}


def _adev(args, result):
    return {"stability.adev_points": len(result)}


def _gates(args, result):
    return {"comb.gates": len(result)}


def _lines(args, result):
    return {"io.files_written": 1, "io.rows_written": len(args["lines"]),
            "io.bytes_written": os.path.getsize(args["path"])}


def _validated(args, result):
    return {"series.elements_validated": args["self"].samples.size}


def _targets():
    """``(owner, attribute, span key, work counter)`` for every wrapped call."""
    from fiberlink import cli, scenario, series
    from fiberlink import io as fio
    return [
        (cli, "run", "scenario.self", None),
        (scenario, "component_rng", "noise.synth", None),
        (scenario, "gen_power_law_phase", "noise.synth", _samples_out),
        (scenario, "gen_bursts", "noise.synth", _samples_out),
        (scenario, "gen_diurnal", "noise.synth", _samples_out),
        (scenario, "run_closed_loop", "control.servo", _servo),
        (scenario, "loop_suppression", "control.suppression", _fft_len),
        (scenario, "measurement_lowpass", "link.chain", _chain_samples),
        (scenario, "sample_every", "link.chain", _chain_samples),
        (scenario, "to_radians", "link.chain", _chain_samples),
        (scenario, "psd_welch", "stability.welch", _welch),
        (scenario, "allan_deviation", "stability.adev", _adev),
        (scenario, "allan_deviation_phase", "stability.adev", _adev),
        (scenario, "rep_rate_lock", "comb.chain", None),
        (scenario, "count_chain", "comb.chain", _gates),
        (scenario, "stability_budget", "comb.chain", None),
        (scenario, "absolute_freq_estimate", "comb.chain", None),
        (fio, "write_psd_csv", "io.psd_write", None),
        (fio, "write_measurement_csv", "io.gates_write", None),
        (fio, "write_adev_csv", "io.adev_write", None),
        (fio, "write_lines", _LINES_KEY, _lines),
        (series.PhaseSeries, "__post_init__", "series.validate", _validated),
        (series.FracFreqSeries, "__post_init__", "series.validate", _validated),
    ]


class Tracer:
    """Spans of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, key, fn, *args, work=None, **kwargs):
        """Call ``fn`` inside a span; ``work(bound_args, result)`` gives its counters."""
        span = {"id": len(self.spans), "key": key,
                "parent": self._stack[-1] if self._stack else None, "work": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        peak = key in _PEAK_KEYS and not tracemalloc.is_tracing()
        if peak:
            tracemalloc.start()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            if peak:
                span["work"][key + "_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
        if work is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            span["work"].update(work(bound.arguments, result))
        return result

    def _wrap(self, key, fn, work):
        def wrapper(*args, **kwargs):
            return self.call(key, fn, *args, work=work, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, key, work in _targets():
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(key, fn, work))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def _charge_key(self, span):
        if span["key"] != _LINES_KEY:
            return span["key"]
        parent = span["parent"]
        parent_key = self.spans[parent]["key"] if parent is not None else None
        return parent_key if parent_key in _IO_WRITERS else "io.other_write"

    def metrics(self):
        """Per-layer metrics of the recorded spans (``setup.*`` and
        ``trace.overhead_s`` are measured elsewhere)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out = {name: 0 for name in PER_LAYER_UNITS
               if not name.startswith(("setup.", "trace."))}
        for span in self.spans:
            key = self._charge_key(span)
            out[key + "_s"] += span["end"] - span["start"] - covered[span["id"]]
            if key in _COUNTED_CALLS:
                out[key + "_calls"] += 1
            for name, value in span["work"].items():
                out[name] = max(out[name], value) if name in _MAX_COUNTERS else out[name] + value
        return out

    def dump(self):
        """Spans as plain records, times relative to the first span's start."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [dict(span, start=span["start"] - t0, end=span["end"] - t0)
                for span in self.spans]
