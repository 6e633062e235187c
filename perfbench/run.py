"""The qbagents benchmark: one workload, one process, every output checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid_pair_batch --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in the
library.  ``--trace 1`` runs the same operations twice, untraced and then with
the span recorder installed, and reports the per-layer metrics together with
the recorder's own overhead (traced minus untraced wall time).

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 2 when the library cannot be found or imported; a run whose
outputs fail their checks still exits 0 and reports ``correct: false``.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads.  OpenBLAS is built for up to 64
# threads, the library runs small matrix products from one thread, and one
# thread stays at or below nproc on any machine.
BLAS_THREADS = "1"
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import special  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
SRC = ROOT_DIR / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS, OpResult  # noqa: E402

# End-to-end metrics printed on every untraced run, as in BENCHMARK.json.
END_TO_END = {"setup_s": "s", "run_rel_p50": "probe", "peak_rss_mb": "MB"}
SETUP_REPEATS = 8
MIN_OPS = 3
CHILD_TIMEOUT_S = 60

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import qbagents
from qbagents import scenarios
{body}
print(repr(time.perf_counter() - t0))
"""


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """The qbagents modules the benchmark calls; exits 2 when absent."""
    if not (SRC / "qbagents" / "__init__.py").is_file():
        fail(f"no qbagents package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        from qbagents import agents, agreement, core_math, inference, interaction
        from qbagents import postulate, scenarios, trace_io
    except ImportError as err:
        fail(f"cannot import qbagents: {err}")
    return SimpleNamespace(agents=agents, agreement=agreement, core_math=core_math,
                           inference=inference, interaction=interaction,
                           postulate=postulate, scenarios=scenarios,
                           trace_io=trace_io)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS)}


def setup_time(workload) -> float:
    """Seconds from a fresh interpreter's first line to a built runtime:
    cold ``import qbagents``, then the workload's set-up body."""
    code = SETUP_CHILD.format(src=str(SRC), body=workload.setup_body())
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT_DIR,
                         capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


class Probe:
    """A fixed reference computation that tracks the machine's speed.

    The machine is shared: its speed drifts by tens of percent over seconds,
    for wall and CPU time alike.  The probe mixes what the library does
    (vector arithmetic and reductions over 10,001 points, a 3x3
    eigendecomposition, regularized incomplete beta functions, Python loops,
    float formatting) and never changes with the library.  It is timed between operations and, every
    ``INTERVAL_S`` of an operation, from a timer signal inside it; an
    operation's wall time (less the probes inside it) divided by the mean
    probe time around and during it measures the library's speed with the
    machine's divided out.
    """

    REPEATS = 3
    INTERVAL_S = 0.25

    def __init__(self):
        rng = np.random.default_rng(20210617)
        self.points = rng.random((10_001, 3))
        self.weights = rng.random(10_001)

    def once(self) -> float:
        start = perf_counter()
        for _ in range(10):
            w = self.weights * (self.points @ np.array([0.25, 0.5, 0.25]))
            w /= w.sum()
            cov = (self.points * w[:, None]).T @ self.points
            np.linalg.eigh(cov)
        special.betainc(7.0, 5.0, self.weights)
        ",".join(f"{v:.17g}" for v in self.weights[:1000])
        total = 0
        for i in range(5000):
            total += i % 7
        return perf_counter() - start

    def time(self) -> float:
        return statistics.median(self.once() for _ in range(self.REPEATS))

    @contextmanager
    def sampling(self, times: list):
        """Append a probe time to ``times`` every ``INTERVAL_S`` of the block.

        Python runs signal handlers between bytecodes of the main thread, so
        a probe never interrupts a native call and touches no library state.
        """
        previous = signal.signal(signal.SIGALRM, lambda _sig, _frame: times.append(self.once()))
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class Sample:
    wall: float  # seconds, less the probes inside the operation
    cpu: float  # process CPU seconds, less the probes inside the operation
    probe: float  # mean probe seconds before, during and after
    result: OpResult


def measure(workload, probe: Probe, seconds: float, recorder=None):
    """Run operations 0, 1, ... for ``seconds``; returns the untraced samples,
    the traced samples and the set-up times.

    A probe is timed between consecutive operations.  A new operation starts
    only while it is expected to end inside ``seconds``, and at least
    ``MIN_OPS`` run.  With a recorder, each operation runs twice back to back,
    untraced then traced, so both see the same machine.  Set-up is timed
    ``SETUP_REPEATS`` times spread evenly over the run, so that its median
    spans the machine's slow and fast spells like the operations do.
    """
    untraced, traced, setups = [], [], []
    start = perf_counter()

    def setup_due() -> bool:
        return (len(setups) < SETUP_REPEATS
                and perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS)

    def timed(i, rec):
        nonlocal before
        wall, cpu, during, result = run_op(workload, i, rec, probe)
        after = probe.time()
        sample = Sample(wall, cpu, statistics.mean([before, after] + during), result)
        before = after
        return sample

    while True:
        if setup_due():
            setups.append(setup_time(workload))
            before = probe.time()
        if len(untraced) >= MIN_OPS:
            typical = sum(statistics.median(s.wall for s in samples)
                          for samples in (untraced, traced) if samples)
            if perf_counter() - start + typical > seconds:
                break
        i = len(untraced)
        untraced.append(timed(i, None))
        if recorder is not None:
            traced.append(timed(i, recorder))
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_time(workload))
    return untraced, traced, setups


def run_op(workload, i: int, recorder=None, probe=None):
    """Run, time and check operation ``i``; returns (wall s, cpu s, probe
    times inside it, OpResult)."""
    inputs = workload.prepare(i)
    during: list[float] = []
    sampling = probe.sampling(during) if probe is not None else nullcontext()
    try:
        cpu0, wall0 = process_time(), perf_counter()
        try:
            with sampling:
                if recorder is None:
                    output = workload.run(inputs)
                else:
                    recorder.run_id = i
                    with recorder.installed():
                        output = recorder.call(spans.ROOT, workload.run, (inputs,), {})
        finally:
            wall = perf_counter() - wall0 - sum(during)
            cpu = process_time() - cpu0 - sum(during)
        result = workload.check(inputs, output)
    except Exception as err:  # an operation that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        result = OpResult(runs=workload.runs_per_op, problems={-1: repr(err)})
    finally:
        workload.cleanup(inputs)
    return wall, cpu, during, result


def percentile_tail(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def summarize(samples: list[Sample], workload) -> dict:
    walls = [s.wall for s in samples]
    cpus = [s.cpu for s in samples]
    results = [s.result for s in samples]
    errors = [e for r in results for e in r.errors]
    attempted = sum(r.runs for r in results)
    failed = sum(r.failed for r in results)
    out = {
        "ops": len(samples), "attempted": attempted, "failed": failed,
        "wall_s": sum(walls), "cpu_s": sum(cpus),
        "run_ms_p50": 1e3 * statistics.median(walls),
        "cpu_ms_p50": 1e3 * statistics.median(cpus),
        "probe_ms_p50": 1e3 * statistics.median(s.probe for s in samples),
        "run_rel_p50": statistics.median(s.wall / s.probe for s in samples),
        "failed_ops_frac": failed / attempted,
        "problems": [p for r in results for p in r.problems.values()],
    }
    tail = percentile_tail(walls)
    if tail:
        out["tail"] = (tail[0], 1e3 * tail[1])
    if workload.steps_per_run:
        out["steps_per_s"] = sum(r.steps for r in results) / sum(walls)
    if errors:
        out["final_error_p50"] = statistics.median(errors)
    return out


def print_summary(name: str, stats: dict, setup_s: float | None, rss_mb: float):
    rows = []
    if setup_s is not None:
        rows.append(("setup_s", setup_s, "s"))
    if "steps_per_s" in stats:
        rows.append(("steps_per_s", stats["steps_per_s"], "1/s"))
    rows.append(("run_ms_p50", stats["run_ms_p50"], "ms"))
    if "tail" in stats:
        p, value = stats["tail"]
        rows.append((f"run_ms_p{p}", value, "ms"))
    rows.append(("cpu_ms_p50", stats["cpu_ms_p50"], "ms"))
    rows.append(("probe_ms_p50", stats["probe_ms_p50"], "ms"))
    rows.append(("run_rel_p50", stats["run_rel_p50"], "probe"))
    rows.append(("peak_rss_mb", rss_mb, "MB"))
    rows.append(("failed_ops_frac", stats["failed_ops_frac"], "ratio"))
    if "final_error_p50" in stats:
        rows.append(("final_error_p50", stats["final_error_p50"], "1"))
    print(f"[{name}] {stats['ops']} operations, {stats['attempted']} runs, "
          f"wall {stats['wall_s']:.3f} s, cpu {stats['cpu_s']:.3f} s "
          f"(cpu/wall {stats['cpu_s'] / stats['wall_s']:.3f})")
    if stats.get("tail", (0,))[0] < 90:
        print(f"  run_ms_p90: not reported, {stats['ops']} samples leave fewer "
              "than ten beyond it")
    for metric, value, unit in rows:
        print(f"  {metric:<16} {value:.6g} {unit}")
    for problem in stats["problems"][:5]:
        print(f"  FAILED CHECK: {problem}")


def print_layers(table: dict, values: dict):
    print(f"[layers] traced operations {table['total_s']:.3f} s; self time by layer:")
    rows = sorted(table["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for layer, row in rows:
        if row["calls"]:
            print(f"  {layer:<42} {row['self_s']:9.4f} s {row['self_pct']:6.2f} % "
                  f"{row['calls']:>9} calls")
    for name in ("inference.resample.events", "inference.ess_frac_p50",
                 "trace_io.bytes", "trace_io.files", "trace.spans",
                 "trace.overhead_s", "trace.overhead_pct"):
        value, unit = values[name]
        print(f"  {name:<42} {value:.6g} {unit}")
    modules = sorted(((k, v[0]) for k, v in values.items()
                      if k.startswith("module.")), key=lambda kv: -kv[1])
    print("[modules] " + ", ".join(f"{k[7:-9]} {v:.1f} %" for k, v in modules))


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    qb = load_library()
    OUT.mkdir(exist_ok=True)
    print("[env] " + json.dumps(environment(), sort_keys=True))
    workload = WORKLOADS[args.workload](qb, args.seed, str(OUT))
    print(f"[workload] {workload.name}: {workload.why}")

    workload.warmup()
    probe = Probe()
    recorder = spans.SpanRecorder(vars(qb)) if args.trace else None
    samples, traced, setups = measure(workload, probe, args.seconds, recorder)
    setup_s = statistics.median(setups)
    print(f"[setup] {len(setups)} cold starts: "
          + ", ".join(f"{t:.4f}" for t in setups) + " s")
    stats = summarize(samples, workload)
    print_summary(workload.name, stats, setup_s, rss_mb())
    attempted, failed = stats["attempted"], stats["failed"]
    if workload.repeats_first:
        repeat = run_op(workload, 0)[3]
        attempted += repeat.runs
        failed += repeat.failed
        for problem in repeat.problems.values():
            print(f"  FAILED CHECK (repeat of operation 0): {problem}")

    if recorder is not None:
        traced_stats = summarize(traced, workload)
        print_summary(workload.name + " traced", traced_stats, None, rss_mb())
        values, table = spans.layer_metrics(recorder, samples, traced)
        print_layers(table, values)
        statement, holds = workload.expected_split({k: v for k, (v, _u) in values.items()})
        print(f"[split] {'confirmed' if holds else 'NOT confirmed'}: {statement}")
        recorder.write(str(OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz"))
        attempted += traced_stats["attempted"]
        failed += traced_stats["failed"]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        values = {"setup_s": setup_s, "run_rel_p50": stats["run_rel_p50"],
                  "peak_rss_mb": rss_mb()}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
