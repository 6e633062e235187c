"""The benchmark's four workloads: their inputs, their operations and the
checks that every output is correct.

Two properties drive the cost of qbagents: the kind of belief ensemble (a
10,001-point grid or 10,000 Bloch particles refreshed by resample-move) and
the run length relative to the fixed per-run costs (config validation,
runtime building, trace emission).  The workloads vary both, and keep each
module that a later change is likely to optimise busy in one workload and
idle in another:

* ``grid_pair_batch``: ``batch`` of ``classical_pair`` at registry size.  The
  grid engine; resample-move, ``quantum`` and ``trace_io`` do no work.
* ``particle_pair_batch``: ``batch`` of ``quantum_pair_biasedZ`` at registry
  size.  The particle engine; Bob's non-flat utility means the choice cannot
  be skipped.
* ``run_emit_short``: the ``qbagents run`` call sequence on short runs, so
  fixed per-run costs (setup and emission) dominate.
* ``appendix_verify``: ``verify_appendix_claims`` at the CLI defaults, the only
  path into ``agreement``.

An operation is one timed unit of work.  Each returns the raw output; the
checks run outside the timed region and compare it with a reference the
benchmark computes itself.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

# Seeds per batch call.  More than one seed per call keeps the batch runner's
# loop in the measurement, so replica batching across seeds would show.
BATCH_SEEDS = 2
# Steps of each run_emit_short run: short enough that setup and emission
# dominate (registry sizes are 1000 and 500 steps).
SHORT_STEPS = 10
# Tolerance of the grid posterior mean against the conjugate Beta mean.
CONJUGATE_TOL = 3.0


@dataclass
class OpResult:
    """What the checks made of one operation."""

    runs: int
    steps: int = 0
    errors: list = field(default_factory=list)
    problems: dict = field(default_factory=dict)  # run index -> first problem

    @property
    def failed(self) -> int:
        return min(len(self.problems), self.runs)


# ---------------------------------------------------------------------------
# Output checks.  Each returns {run index: problem} and is empty when the
# output is correct.

def check_pair_1d(result) -> dict:
    """``batch`` of a 1-D pair: no errors, ``mean_gap`` equals the gap of the
    final means, and both means lie in [0, 1]."""
    problems = {}
    if result.aggregates.get("n_errors") != 0:
        problems[-1] = f"batch reports n_errors={result.aggregates.get('n_errors')}"
    for i, row in enumerate(result.rows):
        if "error" in row:
            problems[i] = f"seed {row['seed']}: {row['error']}"
            continue
        means = [s["mean"][0] for s in row["final_summaries"].values()]
        gap = row["final_metrics"]["mean_gap"]
        if len(means) != 2 or not all(0.0 <= m <= 1.0 for m in means):
            problems[i] = f"seed {row['seed']}: final means {means} outside [0, 1]"
        elif abs(gap - abs(means[0] - means[1])) > 1e-12:
            problems[i] = (f"seed {row['seed']}: mean_gap {gap!r} is not "
                           f"|{means[0]!r} - {means[1]!r}|")
    return problems


def _clip_to_ball(r: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(r)
    return r / norm if norm > 1.0 else r


def check_pair_ball(result) -> dict:
    """``batch`` of a qubit pair: no errors, final means inside the Bloch
    ball, and ``mean_trace_distance`` equal to half the distance between the
    norm-clipped final means."""
    problems = {}
    if result.aggregates.get("n_errors") != 0:
        problems[-1] = f"batch reports n_errors={result.aggregates.get('n_errors')}"
    for i, row in enumerate(result.rows):
        if "error" in row:
            problems[i] = f"seed {row['seed']}: {row['error']}"
            continue
        means = [np.asarray(s["mean"], dtype=float)
                 for s in row["final_summaries"].values()]
        dist = row["final_metrics"]["mean_trace_distance"]
        if len(means) != 2 or any(np.linalg.norm(m) > 1.0 + 1e-9 for m in means):
            problems[i] = f"seed {row['seed']}: a final mean lies outside the Bloch ball"
            continue
        expected = 0.5 * np.linalg.norm(_clip_to_ball(means[0]) - _clip_to_ball(means[1]))
        if abs(dist - expected) > 1e-9:
            problems[i] = (f"seed {row['seed']}: mean_trace_distance {dist!r}, "
                           f"expected {expected!r}")
    return problems


def check_emitted_run(trace, steps_path: str, n_steps: int, n_grid: int) -> list[str]:
    """The steps CSV has ``n_steps`` rows and parses back to the trace's
    means; a grid learner's means match the conjugate ``(h+1)/(n+2)`` within
    ``CONJUGATE_TOL/sqrt(n_grid)`` at every step."""
    with open(steps_path, newline="", encoding="utf8") as fh:
        header, *rows = csv.reader(fh)
    if len(rows) != n_steps or len(trace.records) != n_steps:
        return [f"{len(rows)} CSV rows and {len(trace.records)} records, "
                f"expected {n_steps}"]
    col = {name: k for k, name in enumerate(header)}
    problems = []
    heads = 0
    for row, rec in zip(rows, trace.records):
        for agent in rec.agents:
            if agent is None:
                continue
            parsed = tuple(float(row[col[f"{agent.agent_id}_mean_{k}"]])
                           for k in range(len(agent.mean)))
            if parsed != agent.mean:
                problems.append(f"step {rec.step}: CSV means {parsed} != trace {agent.mean}")
        learner = rec.agents[0]
        if trace.scenario == "coin_tomography":
            heads += learner.outcome == 0
            conjugate = (heads + 1) / (rec.step + 2)
            if abs(learner.mean[0] - conjugate) > CONJUGATE_TOL / math.sqrt(n_grid):
                problems.append(f"step {rec.step}: mean {learner.mean[0]!r} vs "
                                f"conjugate {conjugate!r}")
        if problems:
            break
    return problems


def check_appendix(rows) -> dict:
    """All four appendix claims pass."""
    problems = {}
    if len(rows) != 4:
        problems[-1] = f"{len(rows)} claim rows, expected 4"
    for i, row in enumerate(rows):
        if not row["passed"]:
            problems[i] = f"FAIL {row['claim']} (margin {row['margin']!r})"
    return problems


# ---------------------------------------------------------------------------
# Workloads

class Workload:
    """A named set of inputs, the timed operation on them and its check."""

    name = ""
    why = ""
    runs_per_op = 1
    steps_per_run = 0
    repeats_first = False  # run operation 0 again after the window

    def __init__(self, qb, seed: int, scratch: str):
        self.qb = qb
        self.seed = seed
        self.scratch = scratch

    def setup_body(self) -> str:
        """Python run after ``import qbagents`` in a fresh interpreter to time
        set-up: parse, validation and ``build_runtime`` of the first config."""
        raise NotImplementedError

    def warmup(self):
        """An untimed small operation so lazy set-up finishes before timing."""
        raise NotImplementedError

    def prepare(self, i: int):
        """Untimed inputs of operation ``i``."""
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def check(self, inputs, output) -> OpResult:
        raise NotImplementedError

    def cleanup(self, inputs):
        """Release what ``prepare`` or ``run`` left behind."""

    def expected_split(self, values: dict) -> tuple[str, bool]:
        """The layer split this workload was chosen for, and whether the
        traced per-layer ``values`` ({metric: number}) show it."""
        raise NotImplementedError


def _layer_shares(values: dict) -> dict:
    return {k[:-len(".self_pct")]: v for k, v in values.items()
            if k.endswith(".self_pct") and not k.startswith(("module.", "bench."))}


class _BatchWorkload(Workload):
    scenario = ""
    runs_per_op = BATCH_SEEDS
    final_metric = ""

    def config_text(self, seed: int) -> str:
        sc = self.qb.scenarios
        return sc.emit_config(sc.default_config(self.scenario, seed))

    def setup_body(self) -> str:
        return f"scenarios.build_runtime(scenarios.parse_config({self.config_text(self.seed)!r}))"

    @property
    def steps_per_run(self) -> int:
        return self.qb.scenarios.REGISTRY[self.scenario].default.n_steps

    def warmup(self):
        sc = self.qb.scenarios
        sc.batch(replace(sc.parse_config(self.config_text(self.seed)), n_steps=5), 1)

    def prepare(self, i: int):
        return self.config_text(self.seed + i * BATCH_SEEDS)

    def run(self, text):
        # As ``qbagents batch`` does: parse the config text, then run the seeds.
        sc = self.qb.scenarios
        return sc.batch(sc.parse_config(text), BATCH_SEEDS)

    def check(self, text, result) -> OpResult:
        done = [r for r in result.rows if "error" not in r]
        return OpResult(runs=BATCH_SEEDS, steps=self.steps_per_run * len(done),
                        errors=[r["final_metrics"][self.final_metric] for r in done],
                        problems=self.checker(result))


class GridPairBatch(_BatchWorkload):
    name = "grid_pair_batch"
    why = ("batch of classical_pair at registry size: the grid engine, with "
           "resample-move, quantum and trace_io idle")
    scenario = "classical_pair"
    final_metric = "mean_gap"

    checker = staticmethod(check_pair_1d)

    def expected_split(self, values):
        idle = ("inference.resample.events", "quantum.sic_probs_from_bloch.calls",
                "trace_io.bytes")
        return ("resample events, SIC embeddings and trace bytes are all 0",
                all(values[k] == 0 for k in idle))


class ParticlePairBatch(_BatchWorkload):
    name = "particle_pair_batch"
    why = ("batch of quantum_pair_biasedZ at registry size: 10,000-particle "
           "resample-move and SIC embedding, nothing written to disk")
    scenario = "quantum_pair_biasedZ"
    final_metric = "mean_trace_distance"

    checker = staticmethod(check_pair_ball)

    def expected_split(self, values):
        shares = _layer_shares(values)
        moving = ("inference.maybe_resample", "inference.log_posterior_density",
                  "quantum.sic_probs_from_bloch")
        combined = sum(shares.pop(k) for k in moving)
        return (f"resample-move plus SIC embedding ({combined:.1f} %) is the "
                "largest share of self time", combined > max(shares.values()))


@dataclass
class EmitInputs:
    index: int
    texts: tuple
    out_dir: str


class RunEmitShort(Workload):
    """One operation is a pair of ``qbagents run`` call sequences on the same
    seed: ``coin_tomography`` (grid, curve file), then ``qubit_tomography``
    (particles, cloud/axes/path files).  Timing the pair keeps the median off
    the gap between the two scenarios' run times.

    Operation 0 is run again after the timed window, and under tracing; its
    steps CSVs must come out byte-identical each time.
    """

    name = "run_emit_short"
    why = ("short coin and qubit tomography runs from config text to written "
           "files: fixed costs of set-up and trace emission dominate")
    scenarios = ("coin_tomography", "qubit_tomography")
    runs_per_op = 2
    steps_per_run = SHORT_STEPS
    repeats_first = True

    def __init__(self, qb, seed: int, scratch: str):
        super().__init__(qb, seed, scratch)
        self.first_steps: list[bytes] | None = None

    def config_text(self, scenario: str, seed: int) -> str:
        sc = self.qb.scenarios
        return sc.emit_config(replace(sc.default_config(scenario, seed),
                                      n_steps=SHORT_STEPS))

    def setup_body(self) -> str:
        text = self.config_text(self.scenarios[0], self.seed)
        return f"scenarios.build_runtime(scenarios.parse_config({text!r}))"

    def warmup(self):
        inputs = self.prepare(0)
        try:
            self.run(inputs)
        finally:
            self.cleanup(inputs)

    def prepare(self, i: int) -> EmitInputs:
        texts = tuple(self.config_text(s, self.seed + i) for s in self.scenarios)
        return EmitInputs(i, texts, tempfile.mkdtemp(prefix="emit-", dir=self.scratch))

    def run(self, inputs: EmitInputs):
        # The calls ``qbagents run`` makes, one output directory per scenario.
        sc, io = self.qb.scenarios, self.qb.trace_io
        traces = []
        for k, text in enumerate(inputs.texts):
            out = os.path.join(inputs.out_dir, str(k))
            trace = sc.run_config(sc.parse_config(text))
            paths = io.emit_trace(trace, out)
            paths.update(io.emit_plot_data(trace, out))
            traces.append((trace, paths))
        return traces

    def check(self, inputs, traces) -> OpResult:
        n_grid = self.qb.core_math.DEFAULT_GRID_POINTS
        result = OpResult(runs=self.runs_per_op)
        for k, (trace, paths) in enumerate(traces):
            problems = check_emitted_run(trace, paths["steps"], SHORT_STEPS, n_grid)
            if problems:
                result.problems[k] = problems[0]
                continue
            result.steps += SHORT_STEPS
            result.errors.append(trace.final["last_metrics"]["dist_to_source"])
        if inputs.index == 0:
            steps = []
            for _trace, paths in traces:
                with open(paths["steps"], "rb") as fh:
                    steps.append(fh.read())
            if self.first_steps is None:
                self.first_steps = steps
            for k, (old, new) in enumerate(zip(self.first_steps, steps)):
                if old != new:
                    result.problems[k] = (f"{self.scenarios[k]} seed {self.seed}: "
                                          "steps CSV differs from the first run")
        return result

    def cleanup(self, inputs):
        shutil.rmtree(inputs.out_dir, ignore_errors=True)

    def expected_split(self, values):
        modules = {k: v for k, v in values.items() if k.startswith("module.")}
        share = modules["module.trace_io.self_pct"]
        return (f"trace_io ({share:.1f} %) is the largest module",
                share == max(modules.values()))


class AppendixVerify(Workload):
    name = "appendix_verify"
    why = ("verify_appendix_claims at the verify-appendix CLI defaults: the only "
           "path into agreement, dominated by Kolmogorov CDF grids")
    # The CLI defaults of ``qbagents verify-appendix``; only the seed of the
    # random Beta pairs comes from the workload seed.
    chi_max_n = 25
    kdist_max_n = 15
    pairs = 10_000

    def setup_body(self) -> str:
        return "from qbagents.agreement import verify_appendix_claims"

    def warmup(self):
        self.qb.agreement.verify_appendix_claims(chi_max_n=3, kdist_max_n=2,
                                                 n_beta_pairs=10, seed=self.seed)

    def prepare(self, i: int) -> int:
        return self.seed + i

    def run(self, seed: int):
        return self.qb.agreement.verify_appendix_claims(
            chi_max_n=self.chi_max_n, kdist_max_n=self.kdist_max_n,
            n_beta_pairs=self.pairs, seed=seed)

    def check(self, seed, rows) -> OpResult:
        return OpResult(runs=1, problems=check_appendix(rows))

    def expected_split(self, values):
        share = values["agreement.kolmogorov_contraction_check.self_pct"]
        return (f"kolmogorov_contraction_check takes most of the time ({share:.1f} %)",
                share > 50.0)


WORKLOADS = {w.name: w for w in (GridPairBatch, ParticlePairBatch, RunEmitShort,
                                 AppendixVerify)}
