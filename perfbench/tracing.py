"""Spans around the package's public functions, for the traced run.

The tracer wraps each function listed in TARGETS and rebinds every name
bound to it in every loaded cavityqft module (analysis, for example,
imports compile_timeline and scipy's minimize by name).  A target missing
from the package is reported as absent instead of failing the run.

Spans (name, start, end, parent, request id) stay in memory; a span's self
time is its duration minus the time covered by its child spans.  Calls to
cavity.controlled_phase, a leaf evaluated hundreds of times per Stark-shift
solve, are summed into per-name totals and into their parent span rather
than kept one span each, so that a run's spans fit in memory.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict


def _apply_gate_variant(args, kwargs):
    state = args[0] if args else kwargs["state"]
    return "density" if state.density else "pure"


def _apply_gate_count(tracer, name, fn, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    tracer.counters[name + ".amps"] += state.data.size


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _stark_count(tracer, name, fn, args, kwargs, result):
    bound = _signature(fn).bind(*args, **kwargs).arguments
    tracer.keys[name].add((bound.get("params"), bound.get("k")))


def _minimize_count(tracer, name, fn, args, kwargs, result):
    tracer.counters[name + ".nfev"] += int(result.nfev)


def _compile_count(tracer, name, fn, args, kwargs, result):
    tracer.counters["scheduler.events"] += len(result.events)


def _validate_count(tracer, name, fn, args, kwargs, result):
    timeline = args[0] if args else kwargs["timeline"]
    tracer.counters[name + ".events"] += len(timeline.events)


# (span name, module, attribute, options)
TARGETS = [
    ("cavity.solve_stark_shift", "cavityqft.cavity", "solve_stark_shift", {"count": _stark_count}),
    ("cavity.controlled_phase", "cavityqft.cavity", "controlled_phase", {"leaf": True}),
    ("cavity.phase_curve", "cavityqft.cavity", "phase_curve", {}),
    ("analysis.solve_gate_losses", "cavityqft.analysis", "solve_gate_losses", {}),
    ("analysis.total_distance", "cavityqft.analysis", "total_distance", {}),
    ("analysis.max_photons", "cavityqft.analysis", "max_photons", {}),
    ("analysis.sweep_success", "cavityqft.analysis", "sweep_success", {}),
    ("analysis.simulate_noisy_protocol", "cavityqft.analysis", "simulate_noisy_protocol", {}),
    ("analysis.trace_distance", "cavityqft.analysis", "trace_distance", {}),
    ("analysis.validate_bound_small_n", "cavityqft.analysis", "validate_bound_small_n", {}),
    (
        "analysis.brute_force_postselection_distance",
        "cavityqft.analysis",
        "brute_force_postselection_distance",
        {},
    ),
    ("analysis.oracle.minimize", "cavityqft.analysis", "minimize", {"count": _minimize_count}),
    (
        "circuit.apply_gate",
        "cavityqft.circuit",
        "apply_gate",
        {"variant": _apply_gate_variant, "count": _apply_gate_count},
    ),
    ("circuit.simulate_program", "cavityqft.circuit", "simulate_program", {}),
    ("circuit.build_qft_program", "cavityqft.circuit", "build_qft_program", {}),
    ("circuit.dephasing_channel", "cavityqft.circuit", "dephasing_channel", {}),
    ("circuit.noisy_hadamard", "cavityqft.circuit", "noisy_hadamard", {}),
    ("circuit.lossy_reflection", "cavityqft.circuit", "lossy_reflection", {}),
    ("scheduler.compile_timeline", "cavityqft.scheduler", "compile_timeline", {"count": _compile_count}),
    ("scheduler.validate_timeline", "cavityqft.scheduler", "validate_timeline", {"count": _validate_count}),
    ("scheduler.timeline_to_program", "cavityqft.scheduler", "timeline_to_program", {}),
    ("scheduler.timeline_to_csv", "cavityqft.scheduler", "timeline_to_csv", {}),
    ("cli.main", "cavityqft.cli", "main", {}),
]

# Span fields, kept as lists for compactness.
NAME, START, END, PARENT, REQUEST, LEAF_TIME = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.request = -1
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.absent: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.request, 0.0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self.stack.pop()

    def leaf(self, name: str, seconds: float) -> None:
        self.leaf_calls[name] += 1
        self.leaf_time[name] += seconds
        if self.stack:
            self.spans[self.stack[-1]][LEAF_TIME] += seconds

    def wrap(self, name, fn, leaf=False, variant=None, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if leaf:
                start = tracer.clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.leaf(name, tracer.clock() - start)
            span_name = f"{name}[{variant(args, kwargs)}]" if variant else name
            index = tracer.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if count is not None:
                count(tracer, span_name, fn, args, kwargs, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Rebind every cavityqft name bound to a target to its wrapper."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "cavityqft" or key.startswith("cavityqft."))
        ]
        for name, module_name, attr, options in TARGETS:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            wrapper = self.wrap(name, original, **options)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def restore(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [span[LEAF_TIME] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [span[END] - span[START] - c for span, c in zip(self.spans, covered)]

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self seconds)."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for span, t in zip(self.spans, self.self_times()):
            calls[span[NAME]] += 1
            self_s[span[NAME]] += t
        for name in self.leaf_calls:
            calls[name] += self.leaf_calls[name]
            self_s[name] += self.leaf_time[name]
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path: str) -> None:
        """Dump the spans as CSV: name, start, end, parent, request, self_s."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,request,self_s\n")
            for span, t in zip(self.spans, self.self_times()):
                fh.write(
                    f"{span[NAME]},{span[START]!r},{span[END]!r},{span[PARENT]},"
                    f"{span[REQUEST]},{t!r}\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# per-layer metric name -> unit, in the order they are reported
UNITS = {
    "cavity.solve_stark_shift.calls": "count",
    "cavity.solve_stark_shift.self_s": "s",
    "cavity.solve_stark_shift.useful_ratio": "ratio",
    "cavity.controlled_phase.calls": "count",
    "cavity.controlled_phase.self_s": "s",
    "cavity.phase_curve.self_s": "s",
    "analysis.solve_gate_losses.calls": "count",
    "analysis.solve_gate_losses.self_s": "s",
    "analysis.total_distance.calls": "count",
    "analysis.total_distance.self_s": "s",
    "analysis.max_photons.calls": "count",
    "analysis.max_photons.self_s": "s",
    "analysis.sweep_success.self_s": "s",
    "circuit.apply_gate.calls_pure": "count",
    "circuit.apply_gate.self_s_pure": "s",
    "circuit.apply_gate.amps_per_s_pure": "computed-amp/s",
    "circuit.simulate_program.self_s": "s",
    "circuit.build_qft_program.self_s": "s",
    "circuit.apply_gate.calls_density": "count",
    "circuit.apply_gate.self_s_density": "s",
    "circuit.apply_gate.amps_per_s_density": "computed-amp/s",
    "circuit.dephasing_channel.calls": "count",
    "circuit.dephasing_channel.self_s": "s",
    "circuit.noisy_hadamard.calls": "count",
    "circuit.noisy_hadamard.self_s": "s",
    "circuit.lossy_reflection.calls": "count",
    "circuit.lossy_reflection.self_s": "s",
    "analysis.simulate_noisy_protocol.calls": "count",
    "analysis.simulate_noisy_protocol.self_s": "s",
    "analysis.trace_distance.calls": "count",
    "analysis.trace_distance.self_s": "s",
    "analysis.validate_bound_small_n.calls": "count",
    "analysis.validate_bound_small_n.self_s": "s",
    "analysis.brute_force_postselection_distance.calls": "count",
    "analysis.brute_force_postselection_distance.self_s": "s",
    "analysis.oracle.minimize_calls": "count",
    "analysis.oracle.nfev": "count",
    "scheduler.compile_timeline.self_s": "s",
    "scheduler.validate_timeline.self_s": "s",
    "scheduler.timeline_to_program.self_s": "s",
    "scheduler.timeline_to_csv.self_s": "s",
    "scheduler.events": "count",
    "scheduler.validate_timeline.events_per_s": "1/s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
}


# metrics not named after the span they are computed from
_SOURCES = {
    "analysis.oracle.minimize_calls": "analysis.oracle.minimize",
    "analysis.oracle.nfev": "analysis.oracle.minimize",
    "scheduler.events": "scheduler.compile_timeline",
    "cli.output_bytes": "cli.main",
}


def _source(metric: str) -> str | None:
    """The TARGETS span name a per-layer metric is computed from."""
    if metric in _SOURCES:
        return _SOURCES[metric]
    return next((name for name, *_ in TARGETS if metric.startswith(name + ".")), None)


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict[str, dict]:
    """Every per-layer metric; those of absent targets are marked absent.

    output_bytes, the size of the CLI outputs, is measured outside the spans.
    """
    totals = tracer.totals()
    c = tracer.counters

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    values = {}
    for name, *_ in TARGETS:
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.self_s"] = self_s(name)
    stark = "cavity.solve_stark_shift"
    values[f"{stark}.useful_ratio"] = _ratio(len(tracer.keys[stark]), calls(stark))
    for variant in ("pure", "density"):
        span = f"circuit.apply_gate[{variant}]"
        values[f"circuit.apply_gate.calls_{variant}"] = calls(span)
        values[f"circuit.apply_gate.self_s_{variant}"] = self_s(span)
        values[f"circuit.apply_gate.amps_per_s_{variant}"] = _ratio(c[span + ".amps"], self_s(span))
    values["analysis.oracle.minimize_calls"] = calls("analysis.oracle.minimize")
    values["analysis.oracle.nfev"] = c["analysis.oracle.minimize.nfev"]
    values["scheduler.events"] = c["scheduler.events"]
    values["scheduler.validate_timeline.events_per_s"] = _ratio(
        c["scheduler.validate_timeline.events"], self_s("scheduler.validate_timeline")
    )
    values["cli.output_bytes"] = output_bytes

    out = {}
    for metric, unit in UNITS.items():
        if _source(metric) in tracer.absent:
            out[metric] = {"value": 0, "unit": unit, "absent": True}
        else:
            value = values[metric]
            out[metric] = {"value": int(value) if unit in ("count", "B") else value, "unit": unit}
    return out
