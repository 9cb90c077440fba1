"""Command-line entry points.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numeric
failure during training or evaluation.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import click

from .diffkit import load_checkpoint
from .errors import CldlabError, ConfigError, NonFiniteActivation
from .harness import (
    _ci_estimate,
    _eval_rows,
    _resolve_domains,
    config_from_dict,
    generate_artifacts,
    rows_csv,
    run_experiment,
    sweep as run_sweep,
    verify_suite,
)
from .metrics import tabulate


def _load_config(path: str, option: str = "--config"):
    """The JSON document at path; ConfigError(option) if there is none."""
    if not path:
        raise ConfigError(option, "required")
    if not os.path.exists(path):
        raise ConfigError(option, f"no file at {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(option, f"invalid JSON: {exc}") from exc
    return doc


def _exit_codes(fn):
    """Map the error taxonomy onto process exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except NonFiniteActivation as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(3)
        except CldlabError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


@click.group()
def main():
    """Synthetic domain-generalization lab: train, evaluate, verify."""


config_opt = click.option("--config", "config_path", type=str, default=None,
                          help="JSON experiment config.")
seed_opt = click.option("--seed", type=int, default=None,
                        help="Override the trainer seed.")
out_opt = click.option("--out", "out_dir", type=str, default=None,
                       help="Output directory (env CLDLAB_OUT wins).")
format_opt = click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                          default="csv", help="What to echo on stdout.")


@main.command()
@config_opt
@seed_opt
@out_opt
@_exit_codes
def generate(config_path, seed, out_dir):
    """Sample datasets and contrastive pairs to JSONL files."""
    cfg = config_from_dict(_load_config(config_path))
    for path in generate_artifacts(cfg, seed=seed, out_dir=out_dir):
        click.echo(path)


@main.command()
@config_opt
@seed_opt
@out_opt
@format_opt
@_exit_codes
def train(config_path, seed, out_dir, fmt):
    """Run one training experiment and persist CSV + JSON + checkpoint."""
    cfg = config_from_dict(_load_config(config_path))
    rec = run_experiment(cfg, seed=seed, out_dir=out_dir)
    with open(rec.summary_path if fmt == "json" else rec.csv_path, "r",
              encoding="utf-8") as fh:
        click.echo(fh.read().rstrip("\n"))


def _checkpoint_model(model_path: str):
    if not model_path:
        raise ConfigError("--model", "required")
    if not os.path.exists(model_path):
        raise ConfigError("--model", f"no file at {model_path!r}")
    return load_checkpoint(model_path)


@main.command(name="evaluate")
@config_opt
@click.option("--model", "model_path", type=str, default=None,
              help="Model checkpoint JSON written by train.")
@seed_opt
@out_opt
@format_opt
@_exit_codes
def evaluate_cmd(config_path, model_path, seed, out_dir, fmt):
    """Evaluate a checkpoint on the config's source and target domains.

    Rows are built and seeded as train builds its final rows."""
    cfg = config_from_dict(_load_config(config_path))
    model = _checkpoint_model(model_path)
    eff_seed = cfg.trainer.seed if seed is None else seed
    family, sources, target = _resolve_domains(cfg)
    [rows] = _eval_rows(model, family, [(cfg, "eval", "-")], sources, target,
                        0, eff_seed, [0.0])
    if fmt == "json":
        click.echo(json.dumps(rows, sort_keys=True, indent=1))
    else:
        click.echo(rows_csv(rows), nl=False)


@main.command(name="ci-index")
@config_opt
@click.option("--model", "model_path", type=str, default=None,
              help="Model checkpoint JSON written by train.")
@seed_opt
@format_opt
@_exit_codes
def ci_index_cmd(config_path, model_path, seed, fmt):
    """CI index of a checkpoint on each configured domain, as train writes
    its ci_index column: closed form under eval.exact, else Monte Carlo,
    seeded as train seeds it."""
    cfg = config_from_dict(_load_config(config_path))
    model = _checkpoint_model(model_path)
    eff_seed = cfg.trainer.seed if seed is None else seed
    family, sources, target = _resolve_domains(cfg)
    n_pairs = cfg.eval.ci_pairs if cfg.eval.ci_pairs > 0 else 2000
    table = tabulate(model, family)
    out = {}
    for dom in (*sources, target):
        est = _ci_estimate(table, family, cfg, dom, eff_seed, n_pairs)
        out[dom.domain_id] = {"value": est.value, "stderr": est.stderr,
                              "n_pairs": est.n_pairs, "style": est.style}
    if fmt == "json":
        click.echo(json.dumps(out, sort_keys=True, indent=1))
    else:
        click.echo("domain_id,ci_index,stderr,n_pairs,style")
        for did in sorted(out):
            e = out[did]
            click.echo(f"{did},{e['value']!r},{e['stderr']!r},"
                       f"{e['n_pairs']},{e['style']}")


@main.command()
@click.option("--family", "family_source", type=str, default=None,
              help="Fixture name (CANON-D, CANON-N) or family JSON path.")
@config_opt
@seed_opt
@out_opt
@_exit_codes
def verify(family_source, config_path, seed, out_dir):
    """Run the theorem suite; exit 1 if any applicable claim fails."""
    if family_source is None:
        if config_path is None:
            raise ConfigError("--family", "pass --family or --config")
        cfg = config_from_dict(_load_config(config_path))
        family_source = cfg.family
    report, path = verify_suite(family_source, out_dir=out_dir,
                                seed=0 if seed is None else seed)
    for claim in report.claims:
        click.echo(f"{claim.id}: {claim.status}")
    click.echo(f"report: {path}")
    if not report.all_pass:
        sys.exit(1)


@main.command(name="sweep")
@config_opt
@click.option("--grid", "grid_path", type=str, default=None,
              help="JSON object: dotted config path -> list of values.")
@out_opt
@_exit_codes
def sweep_cmd(config_path, grid_path, out_dir):
    """Cartesian sweep over config fields; one sweep.csv row per run."""
    base = _load_config(config_path)
    grid = _load_config(grid_path, "--grid") if grid_path else {}
    records = run_sweep(base, grid, out_dir=out_dir)
    for rec in records:
        click.echo(f"{rec.run_id}: {rec.csv_path}")


if __name__ == "__main__":
    main()
