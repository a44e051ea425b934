"""Spans around the calls into each layer of ris_mcrb, from outside it.

A span is the time spent inside one wrapped call: name, start, end, the
span that was open when it started (its parent), the invocation, and the
grid point (spacing, size) being evaluated. ``Tracer.install`` replaces a
public function at every ``ris_mcrb`` module attribute bound to it, so a
caller that imported the name into its own module is wrapped too. A
target that no longer exists is skipped; its metrics then read zero.

``layer_metrics`` derives self times (a span's duration minus the part
its child spans cover) and counts from a list of span records.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (span name, module, attribute). Attributes with a dot are methods.
TARGETS = [
    ("cli.main", "ris_mcrb.cli", "main"),
    ("experiments.run", "ris_mcrb.experiments", "run_bias_vs_spacing"),
    ("experiments.run", "ris_mcrb.experiments", "run_crlb_vs_spacing"),
    ("experiments.run", "ris_mcrb.experiments", "run_mc_rmse"),
    ("experiments.run", "ris_mcrb.experiments", "run_lb_vs_power"),
    ("experiments.run", "ris_mcrb.experiments", "run_impedance_sweep"),
    ("experiments.csv", "ris_mcrb.experiments", "emit_csv"),
    ("experiments.csv", "ris_mcrb.experiments", "csv_text"),
    ("scenario.load", "ris_mcrb.scenario", "load_scenario_file"),
    ("scenario.load", "ris_mcrb.scenario", "default_scenario"),
    ("scenario.with_overrides", "ris_mcrb.scenario", "Scenario.with_overrides"),
    ("scenario.ris_radiators", "ris_mcrb.scenario", "Scenario.ris_radiators"),
    ("impedance.build_set", "ris_mcrb.impedance", "build_impedance_set"),
    ("impedance.matrix", "ris_mcrb.impedance", "impedance_matrix"),
    ("impedance.coupling", "ris_mcrb.impedance", "coupling_vector"),
    ("channel.sample_loads", "ris_mcrb.channel", "sample_loads"),
    ("channel.model_pair", "ris_mcrb.channel", "model_pair"),
    ("channel.build_B", "ris_mcrb.channel", "build_B"),
    ("channel.realify", "ris_mcrb.channel", "realify"),
    ("bounds.bias", "ris_mcrb.bounds", "bias_trace"),
    ("bounds.inverse_gram", "ris_mcrb.bounds", "inverse_gram_trace"),
    ("bounds.mc", "ris_mcrb.bounds", "mc_rmse"),
]

_SWEEP = "wall_s, cpu_s on spacing-sweep"
_FLAT_MC = "flat on power-mc"
# (name, unit, better, which end-to-end metric it should move, on which
# workload). BENCHMARK.json lists the same names and units.
LAYER_METRICS = [
    ("impedance.self_s", "s", "lower", f"{_SWEEP}; {_FLAT_MC}"),
    ("impedance.matrix.self_s", "s", "lower", f"{_SWEEP}; {_FLAT_MC}"),
    ("impedance.matrix.calls", "count", "lower", f"{_SWEEP}; {_FLAT_MC}"),
    ("impedance.coupling.self_s", "s", "lower", f"{_SWEEP}; {_FLAT_MC}"),
    ("impedance.coupling.calls", "count", "lower", f"{_SWEEP}; {_FLAT_MC}"),
    ("impedance.pairs", "count", "lower", f"{_SWEEP}; {_FLAT_MC}"),
    ("impedance.failed", "count", "lower", "failed rows on every workload"),
    ("channel.self_s", "s", "lower",
     f"wall_s on large-ris and spacing-sweep; {_FLAT_MC}"),
    ("channel.build_B.aware.self_s", "s", "lower",
     "wall_s and peak_rss_mb on large-ris, wall_s on spacing-sweep"),
    ("channel.build_B.unaware.self_s", "s", "lower",
     "wall_s on large-ris and spacing-sweep"),
    ("channel.build_B.calls", "count", "lower",
     "wall_s on large-ris and spacing-sweep"),
    ("channel.solves", "count", "lower",
     "wall_s on large-ris and spacing-sweep"),
    ("channel.realify.self_s", "s", "lower",
     "wall_s on large-ris and spacing-sweep"),
    ("channel.sample_loads.self_s", "s", "lower",
     "wall_s on large-ris and spacing-sweep"),
    ("channel.failed", "count", "lower", "failed rows on every workload"),
    ("bounds.self_s", "s", "lower", "wall_s on power-mc and spacing-sweep"),
    ("bounds.mc.self_s", "s", "lower",
     "wall_s, cpu_s on power-mc; zero elsewhere"),
    ("bounds.mc.trials", "count", "higher",
     "fixed by the workload; a change means different work"),
    ("bounds.bias.self_s", "s", "lower", "wall_s on spacing-sweep, large-ris"),
    ("bounds.inverse_gram.self_s", "s", "lower", "wall_s on spacing-sweep"),
    ("bounds.calls", "count", "lower", "wall_s on spacing-sweep"),
    ("bounds.failed", "count", "lower", "failed rows on every workload"),
    ("scenario.self_s", "s", "lower", "setup_s and the rest of wall_s"),
    ("experiments.self_s", "s", "lower", "the rest of wall_s"),
    ("experiments.csv_s", "s", "lower", "the rest of wall_s"),
    ("experiments.rows", "count", "higher",
     "fixed by the workload; a change means different work"),
    ("cli.self_s", "s", "lower", "setup_s and the rest of wall_s"),
    ("trace.overhead_s", "s", "lower",
     "none: traced minus untraced wall_s of the same pass pair"),
    ("trace.coverage", "ratio", "higher",
     "none: share of traced wall_s inside spans below cli and runners"),
]

# span count field -> metric it adds to
_COUNTS = {"pairs": "impedance.pairs", "solves": "channel.solves",
           "trials": "bounds.mc.trials", "rows": "experiments.rows"}


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _annotate(name, args, kwargs, result):
    """Span name refinement and work counts, from the call itself. A count
    whose argument or result is missing (the signature changed) is left out
    rather than failing the traced call."""
    counts = {}
    if name == "impedance.matrix":
        elements = _arg(args, kwargs, 0, "elements")
        if elements is not None:
            counts["pairs"] = len(elements) * (len(elements) + 1) // 2
    elif name == "impedance.coupling":
        elements = _arg(args, kwargs, 1, "elements")
        if elements is not None:
            counts["pairs"] = len(elements)
    elif name == "channel.build_B":
        aware = _arg(args, kwargs, 2, "z_ss_mutual") is not None
        name += ".aware" if aware else ".unaware"
        if hasattr(result, "shape"):
            counts["solves"] = int(result.shape[0])
    elif name == "bounds.mc":
        trials = _arg(args, kwargs, 5, "trials")
        if trials is not None:
            counts["trials"] = int(trials)
    elif name == "experiments.run" and hasattr(result, "rows"):
        counts["rows"] = len(result.rows)
    return name, counts


class Tracer:
    """Collects spans in memory once installed; one per child process."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[dict] = []
        self.point = None          # grid point set by Scenario.with_overrides
        self._points = {}          # id(model) -> point, for later bounds calls
        self._stack: list[int] = []

    def install(self) -> None:
        wrapped = {}
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                func = getattr(owner, method, None) if owner else None
                if func is None:
                    continue
                setattr(owner, method, self._wrap(name, func))
                continue
            func = getattr(module, attr, None)
            if func is None or id(func) in wrapped:
                continue
            wrapped[id(func)] = self._wrap(name, func)
            # every ris_mcrb module that bound this function by name
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "ris_mcrb" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, key, wrapped[id(func)])

    def _wrap(self, name, func):
        tracer = self

        @functools.wraps(func)
        def span(*args, **kwargs):
            record = {"id": len(tracer.spans), "name": name,
                      "parent": tracer._stack[-1] if tracer._stack else None,
                      "invocation": tracer.invocation, "failed": False,
                      "point": tracer._point_of(name, args)}
            tracer.spans.append(record)
            tracer._stack.append(record["id"])
            result = None
            record["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException:
                record["failed"] = True
                raise
            finally:
                record["end"] = time.perf_counter()
                tracer._stack.pop()
                tracer._finish(record, args, kwargs, result)

        return span

    def _finish(self, record, args, kwargs, result):
        name, counts = _annotate(record["name"], args, kwargs, result)
        record["name"] = name
        record.update(counts)
        if name == "scenario.with_overrides" and result is not None \
                and "ris_spacing_over_lambda" in kwargs:
            self.point = {"d_over_lambda": kwargs["ris_spacing_over_lambda"],
                          "size": f"{result.ris.n1}x{result.ris.n2}"}
        if name == "channel.model_pair" and isinstance(result, tuple):
            for model in result[:2]:
                self._points[id(model)] = self.point

    def _point_of(self, name, args):
        # Bounds calls of a power sweep run after all points are built, so
        # they find their point through the model they are given.
        if name.startswith("bounds.") and args:
            return self._points.get(id(args[0]), self.point)
        return self.point


def merge(span_lists) -> list[dict]:
    """Concatenate span lists from separate processes, renumbering ids so
    they stay unique (each process numbers its spans from 0)."""
    out: list[dict] = []
    for spans in span_lists:
        base = len(out)
        for s in spans:
            s["id"] += base
            if s["parent"] is not None:
                s["parent"] += base
            out.append(s)
    return out


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span: duration minus its children's durations."""
    out = [s["end"] - s["start"] for s in spans]
    by_id = {s["id"]: i for i, s in enumerate(spans)}
    for s in spans:
        if s["parent"] is not None:
            out[by_id[s["parent"]]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metric values (name -> number) from one pass's spans.

    Calls and failures count spans entered from another layer, so a
    failure that propagates through nested spans of one layer counts once.
    """
    m = {name: 0 for name, unit, _, _ in LAYER_METRICS
         if not name.startswith("trace.")}
    by_id = {s["id"]: s for s in spans}
    for s, self_s in zip(spans, self_times(spans)):
        name = s["name"]
        layer = name.split(".")[0]
        m["experiments.csv_s" if name == "experiments.csv"
          else f"{layer}.self_s"] += self_s
        if f"{name}.self_s" in m:
            m[f"{name}.self_s"] += self_s
        for count, metric in _COUNTS.items():
            m[metric] += s.get(count, 0)
        if name in ("impedance.matrix", "impedance.coupling"):
            m[f"{name}.calls"] += 1
        elif name.startswith("channel.build_B"):
            m["channel.build_B.calls"] += 1
        parent = by_id.get(s["parent"])
        entry = parent is None or parent["name"].split(".")[0] != layer
        if entry and layer == "bounds":
            m["bounds.calls"] += 1
        if entry and s["failed"] and f"{layer}.failed" in m:
            m[f"{layer}.failed"] += 1
    return m


def point_breakdown(spans: list[dict]) -> dict:
    """Self time per layer for each (invocation, size, spacing) point."""
    out: dict = {}
    for s, self_s in zip(spans, self_times(spans)):
        point = s["point"]
        if point is None:
            continue
        key = f"{s['invocation']} {point['size']} d={point['d_over_lambda']:g}"
        layers = out.setdefault(key, {})
        layer = s["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    return out
