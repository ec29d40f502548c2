"""Span tracing of the program's layers, recorded from outside the program.

The tracer wraps public functions where their callers look them up: every
binding of a function in any ``farrowsync`` module is replaced, because a
module that did ``from .signals import sample_pair`` holds its own name for
it and patching ``farrowsync.signals.sample_pair`` alone would trace nothing
there.  ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, trial, work, error]``: times from
``perf_counter``, the index of the enclosing span (-1 at top level), the
trial it belongs to (-1 during set-up), a dict of work counts computed from
the call's arguments and result, and the exception type if the call raised.
Spans stay in memory and are written out when the run ends.

Trial ids: a closed-loop call ``c`` of a workload with ``T`` trials per call
owns trials ``c*T .. c*T+T-1``.  Campaigns build one signal model per trial
before anything else, so the ``k``-th model span of a call opens trial
``c*T + k``; spans before it belong to trial ``c*T``.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _tone_samples(args, kwargs, out) -> dict:
    # Both channels evaluate every tone at every sample.
    model = _arg(args, kwargs, 0, "model")
    return {"tone_samples": 2 * model.n_tones * _arg(args, kwargs, 2, "n_total")}


def _macs(args, kwargs, out) -> dict:
    # Steady-state branch filtering: (L+1) filters of N_G+1 taps per output sample.
    x1 = _arg(args, kwargs, 0, "x1")
    bank = _arg(args, kwargs, 1, "bank")
    return {"macs": (len(x1) - bank.order) * (bank.degree + 1) * (bank.order + 1)}


def _iterations(args, kwargs, out) -> dict:
    return {"iterations": len(out.records), "delay_exceeded": sum(bool(r.delay_exceeded) for r in out.records)}


def _bank(args, kwargs, out) -> dict:
    spec = _arg(args, kwargs, 0, "spec")
    return {"bank": f"L{spec.degree}_N{spec.order}"}


def _csv_bytes(args, kwargs, out) -> dict:
    return {"csv_bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


#: (span name, defining module, public function, work counter)
LAYERS = (
    ("signals.sample_pair", "signals", "sample_pair", _tone_samples),
    ("signals.make_model", "signals", "make_ofdm", None),
    ("signals.make_model", "signals", "make_bandpass_noise", None),
    ("signals.make_model", "signals", "make_multisine", None),
    ("signals.ofdm_demodulate", "signals", "ofdm_demodulate", None),
    ("farrow.subfilter", "farrow", "compute_subfilter_outputs", _macs),
    ("farrow.output", "farrow", "farrow_output", None),
    ("estimation.estimate", "estimation", "estimate", _iterations),
    ("estimation.newton_step", "estimation", "newton_step", None),
    ("estimation.ils_step", "estimation", "ils_step", None),
    ("estimation.ils_normal_matrix", "estimation", "ils_normal_matrix", None),
    ("design.design_bank", "design", "design_bank", _bank),
    ("metrics.nmse", "metrics", "nmse", None),
    ("metrics.qam_demod_ber", "metrics", "qam_demod_ber", None),
    ("harness", "harness", "run_experiment", None),
    ("harness.write_csv", "harness", "write_csv", _csv_bytes),
)

PACKAGE = "farrowsync"
MODEL_SPAN = "signals.make_model"
SETUP = -1  # trial id of set-up spans
PROBE = -2  # trial id of the bank-design probe


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.trial = SETUP
        self._stack: list[int] = []
        self._call_base = -1
        self._models = 0
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def begin_call(self, call: int, trials_per_call: int) -> None:
        self._call_base = call * trials_per_call
        self._models = 0
        self.trial = self._call_base

    def end_call(self) -> None:
        self._call_base = -1
        self.trial = SETUP

    def _wrap(self, name: str, fn, work):
        spans, stack = self.spans, self._stack
        opens_trial = name == MODEL_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if opens_trial and self._call_base >= 0:
                self.trial = self._call_base + self._models
                self._models += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trial, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if work is not None:
                rec[5] = work(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
        self.missing = []
        for name, module, attr, work in LAYERS:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(name, original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines (a frontier run holds over 100 000)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def design_probe(tracer: Tracer, design) -> None:
    """Design, traced, every frontier bank that set-up did not.

    The campaigns design only the canonical bank in set-up; the probe lets
    every workload report a design time for each frontier entry.
    """
    done = {rec[5]["bank"] for rec in tracer.spans if rec[0] == "design.design_bank" and rec[5]}
    with tracer.installed():
        tracer.trial = PROBE
        try:
            for _, degree, order in design.ERROR_FRONTIER:
                if f"L{degree}_N{order}" not in done:
                    design.design_bank(design.DesignSpec(degree=degree, order=order))
        finally:
            tracer.trial = SETUP


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            covered[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - covered[i] for i, rec in enumerate(spans)]


# Per-layer metrics: (name, unit, better).  `.calls` counts per closed-loop
# call, `.self_s` is self time per trial, work counts are per trial.
_PER_CALL_COUNTS = (
    "signals.sample_pair",
    "farrow.subfilter",
    "farrow.output",
    "estimation.newton_step",
    "estimation.ils_step",
    "metrics.nmse",
    "metrics.qam_demod_ber",
)


def per_layer_spec(frontier) -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports, in print order."""
    spec = [
        ("signals.sample_pair.calls", "1/call", "lower"),
        ("signals.sample_pair.self_s", "s/trial", "lower"),
        ("signals.sample_pair.tone_samples", "1/trial", "lower"),
        ("signals.make_model.self_s", "s/trial", "lower"),
        ("signals.ofdm_demodulate.self_s", "s/trial", "lower"),
        ("farrow.subfilter.calls", "1/call", "lower"),
        ("farrow.subfilter.self_s", "s/trial", "lower"),
        ("farrow.subfilter.macs", "1/trial", "lower"),
        ("farrow.subfilter.calls_per_trial", "1/trial", "lower"),
        ("farrow.output.calls", "1/call", "lower"),
        ("farrow.output.self_s", "s/trial", "lower"),
        ("estimation.estimate.self_s", "s/trial", "lower"),
        ("estimation.newton_step.calls", "1/call", "lower"),
        ("estimation.newton_step.self_s", "s/trial", "lower"),
        ("estimation.ils_step.calls", "1/call", "lower"),
        ("estimation.ils_step.self_s", "s/trial", "lower"),
        ("estimation.ils_normal_matrix.self_s", "s/trial", "lower"),
        ("estimation.iterations", "1/trial", "lower"),
        ("estimation.singular", "1/trial", "lower"),
        ("estimation.delay_exceeded_ratio", "ratio", "lower"),
        ("design.design_bank.self_s", "s", "lower"),
    ]
    spec += [(f"design.design_bank.L{degree}_N{order}_s", "s", "lower") for _, degree, order in frontier]
    spec += [
        ("metrics.nmse.calls", "1/call", "lower"),
        ("metrics.nmse.self_s", "s/trial", "lower"),
        ("metrics.qam_demod_ber.calls", "1/call", "lower"),
        ("metrics.qam_demod_ber.self_s", "s/trial", "lower"),
        ("harness.self_s", "s/trial", "lower"),
        ("harness.write_csv.self_s", "s/trial", "lower"),
        ("harness.csv_bytes", "B/trial", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return spec


def layer_values(spans: list[list], calls: int, trials: int, overhead: float) -> dict[str, float]:
    """Per-layer figures from the spans of one traced run.

    Spans of trial -1 come from set-up (bank design, input generation and
    the warm-up call), spans of trial -2 from the bank-design probe, and the
    rest from ``calls`` timed calls holding ``trials`` trials.
    ``design.design_bank.self_s`` covers set-up; the per-bank figures take
    the first design of each bank, in set-up or in the probe.  All other
    figures come from the timed calls, and a layer that did not run there
    reports 0.
    """
    selfs = self_times(spans)
    values: dict[str, float] = {}
    count: dict[str, int] = {}
    self_total: dict[str, float] = {}
    work: dict[str, float] = {}
    design_self = 0.0
    estimates = singular = 0
    for rec, own in zip(spans, selfs):
        name, start, end, _, trial, counts, error = rec
        if trial < 0:
            if name == "design.design_bank":
                if trial == SETUP:
                    design_self += own
                if counts:
                    values.setdefault(f"design.design_bank.{counts['bank']}_s", end - start)
            continue
        count[name] = count.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + own
        for key, n in (counts or {}).items():
            work[key] = work.get(key, 0) + n
        if name == "estimation.estimate":
            estimates += 1
            singular += error == "SingularSystemError"
    for name, _, _, _ in LAYERS:
        values[f"{name}.self_s"] = self_total.get(name, 0.0) / trials
    for name in _PER_CALL_COUNTS:
        values[f"{name}.calls"] = count.get(name, 0) / calls
    values["signals.sample_pair.tone_samples"] = work.get("tone_samples", 0) / trials
    values["farrow.subfilter.macs"] = work.get("macs", 0) / trials
    values["farrow.subfilter.calls_per_trial"] = count.get("farrow.subfilter", 0) / trials
    values["estimation.iterations"] = work.get("iterations", 0) / trials
    values["estimation.singular"] = singular / trials
    records = work.get("iterations", 0)
    values["estimation.delay_exceeded_ratio"] = work.get("delay_exceeded", 0) / records if records else 0.0
    values["design.design_bank.self_s"] = design_self
    values["harness.self_s"] = self_total.get("harness", 0.0) / trials
    values["harness.csv_bytes"] = work.get("csv_bytes", 0) / trials
    values["trace.overhead"] = overhead
    return values
