"""Span recorder that times mfgkit's layers from outside the package.

`Recorder.install` wraps the public functions of each module (the names in its
`__all__`, plus `MeasureFlow.view` and the CLI's artifact writers) and rebinds
every module global that referred to the original, so calls between modules
go through the wrapper too. Spans and counts live in memory until `dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("core", "measure", "hamiltonian", "hjb", "fp", "mfg", "oracle",
          "particle", "cost", "cli")
# cli has no __all__; these are its entry points and artifact writers
CLI_FUNCTIONS = ("main", "run", "write_checkpoint", "read_checkpoint",
                 "_write_field_csv", "read_field_csv", "parse_config_file")
# spans that only dispatch to the layers; coverage counts what runs beneath them
ENTRY_SPANS = frozenset({"cli.main", "cli.run"})


def _work(size_of):
    """Counter from a call's bound arguments, robust to positional/keyword use."""
    def count(sig, args, kwargs, result):
        return size_of(sig.bind(*args, **kwargs).arguments, result)
    return count


COUNTERS = {
    "hjb.solve_hjb": ("hjb.node_steps", _work(
        lambda a, r: a["grid"].nt * a["grid"].n_nodes)),
    "fp.solve_fp": ("fp.node_steps", _work(
        lambda a, r: a["grid"].nt * a["grid"].n_nodes)),
    "particle.simulate": ("particle.path_steps", _work(
        lambda a, r: a["n"] * a["grid"].nt)),
    "mfg.solve_mfg": ("mfg.outer_iterations", _work(
        lambda a, r: r[2].iterations_used)),
}


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, index of the enclosing span or -1]
        self.counts = Counter()
        self._open = []

    def wrap(self, name: str, fn):
        spans, open_, counts = self.spans, self._open, self.counts
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if counter:
                counts[counter[0]] += counter[1](sig, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"mfgkit.{layer}")
                   for layer in LAYERS}
        importlib.import_module("mfgkit.catalog")
        wrapped = {}
        for layer, mod in modules.items():
            names = CLI_FUNCTIONS if layer == "cli" else mod.__all__
            for attr in names:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = self.wrap(f"{layer}.{attr.lstrip('_')}", fn)
        for name, mod in list(sys.modules.items()):
            if name == "mfgkit" or name.startswith("mfgkit."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrapped:
                        setattr(mod, attr, wrapped[id(value)])
        flow = modules["core"].MeasureFlow
        flow.view = self.wrap("core.MeasureFlow.view", flow.view)

    def totals(self, t0: float, t1: float) -> "Totals":
        """Per-name inclusive and self seconds and calls inside [t0, t1], and
        the share of [t0, t1] covered by spans below the entry spans."""
        tot = Totals(self.counts)
        child = defaultdict(float)
        clipped = []
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            d = max(min(end, t1) - max(start, t0), 0.0)
            clipped.append(d)
            if parent >= 0:
                child[parent] += d
            if t0 <= start < t1:
                tot.calls[name] += 1
            tot.incl[name] += d
            if name not in ENTRY_SPANS and (
                    parent < 0 or self.spans[parent][0] in ENTRY_SPANS):
                covered += d
        for i, span in enumerate(self.spans):
            tot.excl[span[0]] += clipped[i] - child[i]
        tot.coverage = covered / (t1 - t0) if t1 > t0 else 0.0
        return tot

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


class Totals:
    def __init__(self, counts):
        self.incl = defaultdict(float)
        self.excl = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter(counts)
        self.coverage = 0.0


def _per(num: float, den: float, scale: float) -> float:
    return num / den * scale if den else 0.0


# per-layer metric -> (unit, better, value from Totals); trace.overhead_s is
# the one metric the parent computes, from untraced and traced wall times
LAYER_METRICS = {
    "mfg.solve_mfg.s": ("s", "lower", lambda t: t.incl["mfg.solve_mfg"]),
    "mfg.outer_iterations": ("count", "lower", lambda t: t.counts["mfg.outer_iterations"]),
    "mfg.pde_residual.s": ("s", "lower", lambda t: t.incl["mfg.pde_residual"]),
    "mfg.feedback_policy.s": ("s", "lower", lambda t: t.incl["mfg.feedback_policy"]),
    "hjb.solve_hjb.self_s": ("s", "lower", lambda t: t.excl["hjb.solve_hjb"]),
    "hjb.solve_hjb.calls": ("count", "lower", lambda t: t.calls["hjb.solve_hjb"]),
    "hjb.us_per_node_step": ("us", "lower", lambda t: _per(
        t.incl["hjb.solve_hjb"], t.counts["hjb.node_steps"], 1e6)),
    "fp.solve_fp.self_s": ("s", "lower", lambda t: t.excl["fp.solve_fp"]),
    "fp.us_per_node_step": ("us", "lower", lambda t: _per(
        t.incl["fp.solve_fp"], t.counts["fp.node_steps"], 1e6)),
    "hamiltonian.minimize_H.s": ("s", "lower", lambda t: t.incl["hamiltonian.minimize_H"]),
    "hamiltonian.minimize_H.calls": ("count", "lower", lambda t: t.calls["hamiltonian.minimize_H"]),
    "hamiltonian.check_assumptions.s": ("s", "lower", lambda t: t.incl["hamiltonian.check_assumptions"]),
    "measure.flow_distance.s": ("s", "lower", lambda t: t.incl["measure.flow_distance"]),
    "measure.flow_regularity.s": ("s", "lower", lambda t: t.incl["measure.flow_regularity"]),
    "measure.histogram_density.s": ("s", "lower", lambda t: t.incl["measure.histogram_density"]),
    "measure.d1_grid.calls": ("count", "lower", lambda t: t.calls["measure.d1_grid"]),
    "core.interpolate_field.s": ("s", "lower", lambda t: t.incl["core.interpolate_field"]),
    "core.interpolate_field.calls": ("count", "lower", lambda t: t.calls["core.interpolate_field"]),
    "core.MeasureFlow.view.calls": ("count", "lower", lambda t: t.calls["core.MeasureFlow.view"]),
    "particle.simulate.self_s": ("s", "lower", lambda t: t.excl["particle.simulate"]),
    "particle.simulate.calls": ("count", "lower", lambda t: t.calls["particle.simulate"]),
    "particle.ns_per_path_step": ("ns", "lower", lambda t: _per(
        t.incl["particle.simulate"], t.counts["particle.path_steps"], 1e9)),
    "particle.compare_law.self_s": ("s", "lower", lambda t: t.excl["particle.compare_law"]),
    "cost.evaluate_cost.self_s": ("s", "lower", lambda t: t.excl["cost.evaluate_cost"]),
    "cost.evaluate_cost.calls": ("count", "lower", lambda t: t.calls["cost.evaluate_cost"]),
    "cost.verify_optimality.s": ("s", "lower", lambda t: t.incl["cost.verify_optimality"]),
    "oracle.lq_riccati_value.s": ("s", "lower", lambda t: t.incl["oracle.lq_riccati_value"]),
    "cli.write_field_csv.s": ("s", "lower", lambda t: t.incl["cli.write_field_csv"]),
    "cli.write_checkpoint.s": ("s", "lower", lambda t: t.incl["cli.write_checkpoint"]),
    "cli.write_checkpoint.calls": ("count", "lower", lambda t: t.calls["cli.write_checkpoint"]),
    "cli.artifact_bytes": ("bytes", "lower", lambda t: t.counts["cli.artifact_bytes"]),
    "trace.span_coverage": ("ratio", "higher", lambda t: t.coverage),
    "trace.overhead_s": ("s", "lower", None),
}
