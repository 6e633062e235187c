"""Trace persistence: per-step CSV, JSON summary, and plot-data files.

All floats are written with 17 significant digits so that reruns of the same
(config, seed) produce byte-identical files.

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

from .interaction import Trace


def format_float(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: str, header: list[str], rows) -> str:
    with open(path, "w", encoding="utf8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return path


def _step_columns(trace: Trace) -> tuple[list[str], list[list[str]]]:
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
    header = ["step"]
    for aid in agent_ids:
        header += [f"{aid}_action", f"{aid}_outcome"]
        header += [f"{aid}_mean_{k}" for k in range(dims[aid])]
        header += [f"{aid}_std_{k}" for k in range(dims[aid])]
        header += [f"{aid}_semi_major", f"{aid}_ess"]
    metric_keys = sorted(trace.records[0].metrics) if trace.records else []
    header += metric_keys
    rows = []
    for rec in trace.records:
        row = [str(rec.step)]
        for a in rec.agents:
            if a is None:
                continue
            row += [a.action, str(a.outcome)]
            row += [format_float(x) for x in a.mean]
            row += [format_float(x) for x in a.std]
            row += [format_float(a.semi_major), format_float(a.ess)]
        row += [format_float(rec.metrics[k]) for k in metric_keys]
        rows.append(row)
    return header, rows


def emit_trace(trace: Trace, out_dir: str) -> dict[str, str]:
    """Write the per-step CSV and the JSON summary; returns emitted paths."""
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, trace.scenario)
    header, rows = _step_columns(trace)
    paths = {"steps": _write_csv(f"{prefix}_steps.csv", header, rows)}
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
        grid = snapshots[0][1]
        header = ["theta"] + [f"w_step{step}" for step, _g, _w in snapshots]
        rows = []
        for i in range(grid.size):
            rows.append([format_float(grid[i])]
                        + [format_float(w[i]) for _s, _g, w in snapshots])
        paths[f"curve:{aid}"] = _write_csv(f"{prefix}_{aid}_curve.csv", header, rows)

    for aid, (points, weights) in trace.clouds.items():
        dim = points.shape[1]
        header = [f"x_{k}" for k in range(dim)] + ["weight"]
        rows = [[format_float(v) for v in points[i]] + [format_float(weights[i])]
                for i in range(points.shape[0])]
        paths[f"cloud:{aid}"] = _write_csv(f"{prefix}_{aid}_cloud.csv", header, rows)

    slot_index = {}
    for rec in trace.records[:1]:
        for a in rec.agents:
            if a is not None:
                slot_index[a.agent_id] = len(a.mean)
    for aid, dim in slot_index.items():
        if dim != 3:
            continue
        axes_rows = []
        path_rows = []
        for rec in trace.records:
            a = next(x for x in rec.agents if x is not None and x.agent_id == aid)
            path_rows.append([str(rec.step)] + [format_float(v) for v in a.mean])
            if rec.step % interval == 0 or rec.step == len(trace.records):
                axes_rows.append([str(rec.step), format_float(a.semi_major)]
                                 + [format_float(v) for v in a.std])
        paths[f"axes:{aid}"] = _write_csv(
            f"{prefix}_{aid}_axes.csv",
            ["step", "semi_major", "std_0", "std_1", "std_2"], axes_rows)
        paths[f"path:{aid}"] = _write_csv(
            f"{prefix}_{aid}_path.csv",
            ["step", "mean_0", "mean_1", "mean_2"], path_rows)
    return paths


def emit_batch(result, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{result.scenario}_batch.json")
    with open(path, "w", encoding="utf8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
