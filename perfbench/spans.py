"""External span recorder for the qbagents benchmark.

The recorder times calls into the library from outside: it replaces module
attributes with wrappers for the length of a traced pass and restores them
afterwards.  Nothing under ``src/`` knows it exists.

Wrappers sit on the names that callers actually look up.  The library binds
its collaborators with ``from ... import``, so ``interaction.bayes_update`` is
a separate binding from ``inference.bayes_update``; wrapping only the
defining module would miss every call made from the step loop.  When one
function is reached through several bindings, each binding gets a wrapper
under the same span name.

Each span carries a name, start, end, parent span and run id (the index of
the benchmark operation it belongs to).  Spans stay in memory and are written
out when the pass ends.  A span's self time is its duration minus the time
its child spans cover; the code is single threaded, so children nest inside
their parent and their durations simply add.
"""

from __future__ import annotations

import gzip
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOT = "bench.op"


def _points(arr) -> int:
    """Number of parameter points in a points argument."""
    shape = np.shape(arr)
    return int(shape[0]) if len(shape) >= 2 else 1


# (span name, module name, attribute, argument index of a points array or None)
TARGETS = (
    ("scenarios.parse_config", "scenarios", "parse_config", None),
    ("scenarios.build_runtime", "scenarios", "build_runtime", None),
    ("scenarios.batch", "scenarios", "batch", None),
    ("interaction.run", "scenarios", "run", None),
    ("rng.agent_streams", "interaction", "agent_streams", None),
    ("interaction.sample_outcome", "interaction", "sample_outcome", None),
    ("agents.choose_action", "interaction", "choose_action", None),
    ("agents.predictive", "agents", "predictive", None),
    ("agents.broadcast_point", "interaction", "broadcast_point", None),
    ("postulate.likelihood_values", "inference", "likelihood_values", 3),
    ("postulate.likelihood_matrix", "agents", "likelihood_matrix", 2),
    ("postulate.apply_postulate", "interaction", "apply_postulate", None),
    ("postulate.ref_probs_of_points", "interaction", "ref_probs_of_points", 1),
    ("postulate.ref_probs_of_points", "postulate", "ref_probs_of_points", 1),
    ("quantum.sic_probs_from_bloch", "postulate", "sic_probs_from_bloch", 0),
    ("quantum.trace_distance", "interaction", "trace_distance", None),
    ("inference.bayes_update", "interaction", "bayes_update", None),
    ("inference.maybe_resample", "interaction", "maybe_resample", None),
    ("inference.log_posterior_density", "inference", "log_posterior_density", 1),
    ("inference.posterior_summary", "interaction", "posterior_summary", None),
    ("inference.posterior_summary", "inference", "posterior_summary", None),
    ("core_math.as_prob_vector", "agents", "as_prob_vector", None),
    ("core_math.as_prob_vector", "postulate", "as_prob_vector", None),
    ("trace_io.emit_trace", "trace_io", "emit_trace", None),
    ("trace_io.emit_plot_data", "trace_io", "emit_plot_data", None),
    ("agreement.verify_appendix_claims", "agreement", "verify_appendix_claims", None),
    ("agreement.kolmogorov_contraction_check", "agreement",
     "kolmogorov_contraction_check", None),
    ("agreement.chi", "agreement", "chi", None),
    ("agreement.mean_contraction_gap", "agreement", "mean_contraction_gap", None),
)

LAYERS = tuple(dict.fromkeys(name for name, *_ in TARGETS))
POINT_LAYERS = tuple(dict.fromkeys(name for name, _m, _a, arg in TARGETS
                                   if arg is not None))
MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in LAYERS))


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_pct", f"{layer}.calls"]
        if layer in POINT_LAYERS:
            names.append(f"{layer}.points")
    names += [f"module.{m}.self_pct" for m in MODULES]
    names += ["inference.resample.events", "inference.ess_frac_p50",
              "trace_io.bytes", "trace_io.files", "bench.op.self_pct",
              "trace.spans", "trace.overhead_s", "trace.overhead_pct"]
    return names


class SpanRecorder:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self, modules: dict):
        self.modules = modules  # module name -> module, for the targets
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.run_ids: list[int] = []
        self.run_id = 0
        self._stack: list[int] = []
        self.resample_events = 0
        self.ess_fracs: list[float] = []
        self.io_bytes = 0
        self.io_files = 0
        self.points: dict[str, int] = {}

    def call(self, name, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.run_ids.append(self.run_id)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self.starts[idx] = start
            self._stack.pop()

    def wrap(self, name: str, fn, points_arg):
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, args, kwargs)
            self._count(name, args, out, points_arg)
            return out
        return wrapper

    def _count(self, name, args, out, points_arg):
        if points_arg is not None:
            self.points[name] = self.points.get(name, 0) + _points(args[points_arg])
        if name == "inference.maybe_resample" and out.points is not args[0].points:
            self.resample_events += 1
        elif name == "inference.bayes_update" and not (out.grid or out.atoms):
            self.ess_fracs.append(out.ess() / out.n)
        elif name.startswith("trace_io.emit"):
            self.io_bytes += sum(os.path.getsize(p) for p in out.values())
            self.io_files += len(out)

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, mod_name, attr, points_arg in TARGETS:
                module = self.modules[mod_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, points_arg))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(names, self seconds) per span."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=dur.size)
        return np.asarray(self.names), dur - covered

    def write(self, path: str):
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="utf8", compresslevel=1) as fh:
            fh.write("span,name,run_id,parent,start_s,end_s\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.run_ids[i]},{self.parents[i]},"
                         f"{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f}\n")

    def layer_table(self) -> dict:
        """Per-layer self seconds, shares of the root spans and call counts."""
        names, self_s = self.self_times()
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        total = float(dur[names == ROOT].sum()) if names.size else 0.0
        table = {}
        for layer in LAYERS + (ROOT,):
            mask = names == layer
            secs = float(self_s[mask].sum())
            table[layer] = {"self_s": secs, "calls": int(mask.sum()),
                            "self_pct": 100.0 * secs / total if total else 0.0,
                            "points": self.points.get(layer, 0)}
        return {"total_s": total, "layers": table}


def layer_metrics(recorder: SpanRecorder, untraced, traced) -> tuple[dict, dict]:
    """Per-layer metrics as {name: (value, unit)}, and the layer table.

    ``untraced`` and ``traced`` are the samples of the same operations run
    back to back without and with the wrappers.  The overhead in seconds is
    the raw difference; the overhead share compares each run's wall time over
    its probe time, so that drift in machine speed between the two cancels.
    """
    table = recorder.layer_table()
    layers = table["layers"]
    values = {}
    for layer in LAYERS:
        row = layers[layer]
        values[f"{layer}.self_pct"] = (row["self_pct"], "%")
        values[f"{layer}.calls"] = (row["calls"], "count")
        if layer in POINT_LAYERS:
            values[f"{layer}.points"] = (row["points"], "count")
    for module in MODULES:
        pct = sum(layers[layer]["self_pct"] for layer in LAYERS
                  if layer.split(".")[0] == module)
        values[f"module.{module}.self_pct"] = (pct, "%")
    ess = float(np.median(recorder.ess_fracs)) if recorder.ess_fracs else 0.0
    values["inference.resample.events"] = (recorder.resample_events, "count")
    values["inference.ess_frac_p50"] = (ess, "ratio")
    values["trace_io.bytes"] = (recorder.io_bytes, "B")
    values["trace_io.files"] = (recorder.io_files, "count")
    values["bench.op.self_pct"] = (layers[ROOT]["self_pct"], "%")
    values["trace.spans"] = (len(recorder.names), "count")
    rel_untraced = sum(s.wall / s.probe for s in untraced)
    rel_traced = sum(s.wall / s.probe for s in traced)
    values["trace.overhead_s"] = (sum(s.wall for s in traced)
                                  - sum(s.wall for s in untraced), "s")
    values["trace.overhead_pct"] = (100.0 * (rel_traced - rel_untraced) / rel_untraced, "%")
    return values, table
