"""Trace persistence: per-step CSV, JSON summary, and plot-data files.

All floats are written with 17 significant digits so that reruns of the same
(config, seed) produce byte-identical files.  Each CSV is formatted through
one ``%`` row template per table, on rows taken from whole arrays.

Files emitted per run (prefix = scenario id):

* ``<prefix>_steps.csv``: one row per interaction with per-agent action,
  outcome, posterior mean and std components, ellipsoid semi-major axis, and
  the scenario metrics.
* ``<prefix>_summary.json``: config echo plus initial and final summaries.
* ``<prefix>_<agent>_curve.csv``: grid agents; posterior weights at snapshot
  steps (columns ``theta, w_step0, w_step...``).
* ``<prefix>_<agent>_cloud.csv``: ball agents; final particle cloud.
* ``<prefix>_<agent>_axes.csv``: ball agents; ellipsoid axis lengths every
  ``summary_interval`` steps.
* ``<prefix>_<agent>_path.csv``: ball agents; the walk of the posterior mean.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .interaction import Trace

FLOAT = "%.17g"  # the ``%`` form of f"{float(x):.17g}", byte for byte


def write_table(path: str, header: list[str], formats: list[str], rows) -> str:
    """Write ``header`` and then each row (a tuple) through one ``%`` row
    template joined from the cell ``formats``: ``FLOAT`` for numbers, ``%s``
    for labels and integers."""
    template = ",".join(formats) + "\n"
    with open(path, "w", encoding="utf8") as fh:
        fh.write(",".join(header) + "\n" + "".join(map(template.__mod__, rows)))
    return path


def _float_table(path: str, header: list[str], *columns) -> str:
    rows = map(tuple, np.column_stack(columns).tolist())
    return write_table(path, header, [FLOAT] * len(header), rows)


def _step_table(trace: Trace) -> tuple[list[str], list[str], list[tuple]]:
    agent_ids = []
    dims = {}
    for rec in trace.records[:1]:
        for a in rec.agents:
            if a is not None:
                agent_ids.append(a.agent_id)
                dims[a.agent_id] = len(a.mean)
    if not trace.records:
        agent_ids = list(trace.initial)
        dims = {aid: len(s["mean"]) for aid, s in trace.initial.items()}
    header, formats = ["step"], ["%s"]
    for aid in agent_ids:
        header += [f"{aid}_action", f"{aid}_outcome"]
        header += [f"{aid}_mean_{k}" for k in range(dims[aid])]
        header += [f"{aid}_std_{k}" for k in range(dims[aid])]
        header += [f"{aid}_semi_major", f"{aid}_ess"]
        formats += ["%s", "%s"] + [FLOAT] * (2 * dims[aid] + 2)
    metric_keys = sorted(trace.records[0].metrics) if trace.records else []
    header += metric_keys
    formats += [FLOAT] * len(metric_keys)
    rows = []
    for rec in trace.records:
        row = [rec.step]
        for a in rec.agents:
            if a is not None:
                row += [a.action, a.outcome, *a.mean, *a.std, a.semi_major, a.ess]
        row += [rec.metrics[k] for k in metric_keys]
        rows.append(tuple(row))
    return header, formats, rows


def emit_trace(trace: Trace, out_dir: str) -> dict[str, str]:
    """Write the per-step CSV and the JSON summary; returns emitted paths."""
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, trace.scenario)
    paths = {"steps": write_table(f"{prefix}_steps.csv", *_step_table(trace))}
    summary = {
        "scenario": trace.scenario,
        "seed": trace.seed,
        "mode": trace.mode,
        "n_steps": len(trace.records),
        "config": trace.config,
        "initial": trace.initial,
        "final": trace.final,
    }
    paths["summary"] = f"{prefix}_summary.json"
    with open(paths["summary"], "w", encoding="utf8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def emit_plot_data(trace: Trace, out_dir: str) -> dict[str, str]:
    """Write curve, cloud, axes, and mean-path files; returns emitted paths."""
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, trace.scenario)
    interval = int(trace.config.get("summary_interval", 10) or 10)
    paths: dict[str, str] = {}

    for aid, snapshots in trace.curves.items():
        header = ["theta"] + [f"w_step{step}" for step, _g, _w in snapshots]
        paths[f"curve:{aid}"] = _float_table(
            f"{prefix}_{aid}_curve.csv", header,
            snapshots[0][1], *(w for _s, _g, w in snapshots))

    for aid, (points, weights) in trace.clouds.items():
        header = [f"x_{k}" for k in range(points.shape[1])] + ["weight"]
        paths[f"cloud:{aid}"] = _float_table(
            f"{prefix}_{aid}_cloud.csv", header, points, weights)

    n_steps = len(trace.records)
    for k, first in enumerate(trace.records[0].agents if trace.records else ()):
        if first is None or len(first.mean) != 3:
            continue
        aid = first.agent_id
        walk = [(rec.step, rec.agents[k]) for rec in trace.records]
        paths[f"axes:{aid}"] = write_table(
            f"{prefix}_{aid}_axes.csv",
            ["step", "semi_major", "std_0", "std_1", "std_2"], ["%s"] + [FLOAT] * 4,
            [(step, a.semi_major, *a.std) for step, a in walk
             if step % interval == 0 or step == n_steps])
        paths[f"path:{aid}"] = write_table(
            f"{prefix}_{aid}_path.csv", ["step", "mean_0", "mean_1", "mean_2"],
            ["%s"] + [FLOAT] * 3, [(step, *a.mean) for step, a in walk])
    return paths


def emit_batch(result, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{result.scenario}_batch.json")
    with open(path, "w", encoding="utf8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
