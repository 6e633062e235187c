"""Command line interface.

Commands: ``run`` a scenario config, ``batch`` it over many seeds,
``verify-appendix`` for the closed-form agreement checks, and
``list-scenarios``.  The output directory resolves as: ``--out-dir`` flag,
then the ``QBAGENTS_OUT_DIR`` environment variable, then the config's
``out_dir``, then ``./runs``.  On failure a structured JSON error is printed
to stderr and the exit code is nonzero (2 for config problems, 3 for belief
polarization, 1 otherwise).
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import scenarios, trace_io
from .agreement import verify_appendix_claims
from .errors import ConfigError, ImpossibleOutcomeError, QBAgentsError

OUT_DIR_ENV = "QBAGENTS_OUT_DIR"


def _fail(code: int, payload: dict):
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(code)


def _resolve_out_dir(flag, config) -> str:
    return flag or os.environ.get(OUT_DIR_ENV) or config.out_dir or "runs"


def _load_config(path: str):
    try:
        with open(path, encoding="utf8") as fh:
            return scenarios.parse_config(fh.read())
    except ConfigError as err:
        _fail(2, {"error": "config", "violations": err.violations})
    except OSError as err:
        _fail(1, {"error": "io", "message": str(err)})


@click.group()
def main():
    """Simulate interacting Bayesian agents with classical or quantum postulates."""


@main.command("run")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", default=None, help="Output directory override.")
def run_cmd(config_path, out_dir):
    """Run one scenario and emit its trace and plot data."""
    config = _load_config(config_path)
    out = _resolve_out_dir(out_dir, config)
    try:
        trace = scenarios.run_config(config)
    except ConfigError as err:
        _fail(2, {"error": "config", "violations": err.violations})
    except ImpossibleOutcomeError as err:
        _fail(3, {"error": "impossible_outcome", "message": str(err),
                  "step": err.step, "agent": err.agent_id})
    except QBAgentsError as err:
        _fail(1, {"error": type(err).__name__, "message": str(err)})
    try:
        paths = trace_io.emit_trace(trace, out)
        paths.update(trace_io.emit_plot_data(trace, out))
    except OSError as err:
        _fail(1, {"error": "io", "message": str(err)})
    click.echo(json.dumps({"status": "ok", "paths": paths}, sort_keys=True))


@main.command("batch")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--seeds", "n_seeds", type=int, required=True,
              help="Number of seeded replicas.")
@click.option("--out-dir", default=None, help="Output directory override.")
def batch_cmd(config_path, n_seeds, out_dir):
    """Run a scenario over many seeds and aggregate the final metrics."""
    config = _load_config(config_path)
    out = _resolve_out_dir(out_dir, config)
    try:
        result = scenarios.batch(config, n_seeds)
    except ConfigError as err:
        _fail(2, {"error": "config", "violations": err.violations})
    except QBAgentsError as err:
        _fail(1, {"error": type(err).__name__, "message": str(err)})
    try:
        path = trace_io.emit_batch(result, out)
    except OSError as err:
        _fail(1, {"error": "io", "message": str(err)})
    click.echo(json.dumps({"status": "ok", "path": path,
                           "aggregates": result.aggregates}, sort_keys=True))


@main.command("verify-appendix")
@click.option("--chi-max-n", default=25, show_default=True, type=click.IntRange(min=1))
@click.option("--kdist-max-n", default=15, show_default=True, type=click.IntRange(min=1))
@click.option("--pairs", default=10_000, show_default=True, type=click.IntRange(min=1),
              help="Random Beta pairs for the mean-contraction check.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
def verify_appendix_cmd(chi_max_n, kdist_max_n, pairs, seed):
    """Numerically verify the closed-form agreement results."""
    rows = verify_appendix_claims(chi_max_n=chi_max_n, kdist_max_n=kdist_max_n,
                                  n_beta_pairs=pairs, seed=seed)
    all_ok = True
    for row in rows:
        status = "PASS" if row["passed"] else "FAIL"
        all_ok &= row["passed"]
        click.echo(f"{status}  {row['claim']}  (worst margin {row['margin']:.3e})")
    if not all_ok:
        sys.exit(1)


@main.command("list-scenarios")
def list_scenarios_cmd():
    """List the registered scenarios."""
    width = max(len(name) for name in scenarios.REGISTRY)
    for name, entry in scenarios.REGISTRY.items():
        click.echo(f"{name:<{width}}  {entry.description}")


if __name__ == "__main__":
    main()
