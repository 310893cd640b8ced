"""Command-line interface.

Inputs are builtin names (see ``bidisklab examples list``) or JSON files
in the documented inner-function schema, admitted by ``require_inner``.
Exit codes: 0 success, 2 validation failure (``input rejected: <type>:
<message>``, naming NOT_INNER or UNSTABLE_DENOMINATOR, a bad schedule, or
a family ``generate_family`` refuses), 1 internal error.  Reports are
printed as aligned text tables unless ``--quiet`` and written as JSON when
``--out`` is given.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from . import agler as agler_mod
from . import experiments, serialize
from .inner import (
    InnerFunctionError,
    RationalInnerMatrix,
    builtin,
    builtin_descriptions,
    require_inner,
    verify_inner_exact,
    verify_inner_grid,
)
from .modelspace import _validate_schedule, decay_class, rank_sweep
from .taylor import expand


def _load_theta(source: str) -> RationalInnerMatrix:
    path = Path(source)
    if path.suffix == ".json" or path.exists():
        try:
            return serialize.theta_from_json(serialize.load_json(path))
        # a missing or unreadable file, JSON that does not parse, or data
        # that does not fit the schema; p(0, 0) = 0 is a ValueError
        except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            _reject(exc)
    try:
        return builtin(source)
    except KeyError as exc:
        raise click.UsageError(str(exc)) from exc


def _reject(exc: Exception):
    click.echo(f"input rejected: {type(exc).__name__}: {exc}")
    sys.exit(2)


def _require_inner(theta: RationalInnerMatrix) -> RationalInnerMatrix:
    try:
        return require_inner(theta)
    except InnerFunctionError as exc:
        _reject(exc)


def _parse_schedule(text: str):
    try:
        levels = [tuple(int(x) for x in part.split(","))
                  for part in text.split(";") if part.strip()]
    except ValueError:
        raise click.UsageError(f"cannot parse schedule {text!r}")
    if any(len(lv) != 2 for lv in levels):
        raise click.UsageError("schedule levels must be 'A,B' pairs")
    try:
        return _validate_schedule(levels)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _echo_table(rows, header):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    click.echo(fmt.format(*header))
    for r in rows:
        click.echo(fmt.format(*[str(x) for x in r]))


@click.group()
def main():
    """Numerical operator theory for rational inner functions on the bidisk."""


@main.group("examples")
def examples_group():
    """Builtin example functions."""


@examples_group.command("list")
def examples_list():
    """List builtin inner functions."""
    rows = [(name, desc) for name, desc in builtin_descriptions().items()]
    _echo_table(rows, ("name", "description"))


@main.group("inner")
def inner_group():
    """Innerness checks and Taylor expansion."""


@inner_group.command("check")
@click.argument("source")
@click.option("--grid", "grid_n", type=click.IntRange(min=2), default=None,
              help="Check on an N x N torus grid instead of exactly.")
@click.option("--exact", "exact", is_flag=True, default=False,
              help="Force the exact Laurent-coefficient check (default).")
@click.option("--quiet", "-q", is_flag=True, default=False)
def inner_check(source, grid_n, exact, quiet):
    """Verify that SOURCE is inner; exit 2 if not."""
    theta = _load_theta(source)
    checks = []
    if grid_n is not None:
        checks.append(verify_inner_grid(theta, grid_n))
    if exact or grid_n is None:
        checks.append(verify_inner_exact(theta))
    if not quiet:
        rows = [(c.method, "pass" if c.passed else "FAIL", f"{c.residual:.6e}",
                 c.reason or "-") for c in checks]
        _echo_table(rows, ("method", "status", "residual", "reason"))
    if not all(c.passed for c in checks):
        sys.exit(2)


@inner_group.command("expand")
@click.argument("source")
@click.option("--trunc", nargs=2, type=click.IntRange(min=0), required=True, metavar="A B")
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--quiet", "-q", is_flag=True, default=False)
def inner_expand(source, trunc, out_path, quiet):
    """Expand SOURCE into matrix Taylor coefficients up to degrees A, B.

    The decay column classifies the expansion at depth 40 or more, not the
    table at A, B, which may be too shallow to tell a polynomial from slow
    decay.
    """
    theta = _require_inner(_load_theta(source))
    A, B = trunc
    table = expand(theta, A, B)
    if not quiet:
        _echo_table([(theta.label, A, B, f"{table.tail_norm:.3e}",
                      decay_class(theta, [(A, B)]).value)],
                    ("label", "A", "B", "tail_norm", "decay"))
    if out_path:
        serialize.save_json(serialize.taylor_to_json(table), out_path)
        if not quiet:
            click.echo(f"wrote {out_path}")


@main.command("rank")
@click.argument("source")
@click.option("--schedule", default="4,4;6,6;8,8", show_default=True,
              help="Semicolon-separated truncation levels 'A,B'.")
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--quiet", "-q", is_flag=True, default=False)
def rank_cmd(source, schedule, out_path, quiet):
    """Sweep the self-commutator rank of the first compressed shift."""
    theta = _require_inner(_load_theta(source))
    levels = _parse_schedule(schedule)
    report = rank_sweep(theta, levels)
    if out_path:
        serialize.save_json(serialize.rank_report_to_json(report), out_path)
    if not quiet:
        rows = [(lv.A, lv.B, lv.dim_model, lv.rank,
                 " ".join(f"{s:.2e}" for s in lv.sigmas[:4]))
                for lv in report.levels]
        _echo_table(rows, ("A", "B", "dim_model", "rank", "top sigmas"))
        for warning in report.warnings:
            click.echo(f"warning: {warning}")
        stab = "NONE" if report.stabilized_rank is None else report.stabilized_rank
        click.echo(f"stabilized_rank: {stab}, verdict: {report.verdict.value}")


# the invariance test takes at least one z1-step, so A >= 1
_AGLER_TRUNC = (click.IntRange(min=1), click.IntRange(min=0))


@main.group("agler")
def agler_group():
    """Invariant subspaces and kernel decomposition checks."""


@agler_group.command("dims")
@click.argument("source")
@click.option("--trunc", nargs=2, type=_AGLER_TRUNC, default=(8, 8), show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--quiet", "-q", is_flag=True, default=False)
def agler_dims(source, trunc, out_path, quiet):
    """Dimensions of the wandering quotient spaces at truncation A, B."""
    theta = _require_inner(_load_theta(source))
    A, B = trunc
    spaces = agler_mod.agler_spaces(theta, A, B)
    payload = serialize.agler_summary_to_json(
        spaces.hkmax1.dim, spaces.hkmin2.dim, theta.det_deg, None)
    if out_path:
        serialize.save_json(payload, out_path)
    if not quiet:
        _echo_table([(theta.label, payload["dim_hkmax1"], payload["dim_hkmin2"],
                      tuple(payload["det_deg"]), payload["dims_match"])],
                    ("label", "dim_hkmax1", "dim_hkmin2", "det_deg", "dims_match"))


@agler_group.command("verify")
@click.argument("source")
@click.option("--trunc", nargs=2, type=_AGLER_TRUNC, default=(10, 10), show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=25, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--quiet", "-q", is_flag=True, default=False)
def agler_verify(source, trunc, samples, seed, out_path, quiet):
    """Check the two-kernel decomposition identity on sampled point pairs."""
    theta = _require_inner(_load_theta(source))
    A, B = trunc
    spaces = agler_mod.agler_spaces(theta, A, B)
    rng = np.random.default_rng(seed)

    def point():
        return tuple(0.7 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                     for _ in range(2))

    pairs = [(point(), point()) for _ in range(samples)]
    residual = agler_mod.agler_kernel_residual(theta, spaces, pairs)
    payload = serialize.agler_summary_to_json(
        spaces.hkmax1.dim, spaces.hkmin2.dim, theta.det_deg, residual)
    if out_path:
        serialize.save_json(payload, out_path)
    if not quiet:
        _echo_table([(theta.label, payload["dim_hkmax1"], payload["dim_hkmin2"],
                      f"{residual:.3e}", payload["dims_match"])],
                    ("label", "dim_hkmax1", "dim_hkmin2", "residual", "dims_match"))


@main.group("conjecture")
def conjecture_group():
    """Rank-degree conjecture batches."""


@conjecture_group.command("run")
@click.option("--kind", type=click.Choice(["diagonal", "product", "conjugated"]),
              required=True)
@click.option("--d", "dim", type=click.IntRange(min=1), default=2, show_default=True)
@click.option("--count", type=click.IntRange(min=1), default=25, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--schedule", default="4,4;6,6;8,8", show_default=True)
@click.option("--m1-cap", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--m2-cap", type=click.IntRange(min=0), default=2, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--quiet", "-q", is_flag=True, default=False)
def conjecture_run(kind, dim, count, seed, schedule, m1_cap, m2_cap, out_dir, quiet):
    """Generate a seeded family, sweep it, and persist records plus a CSV."""
    levels = _parse_schedule(schedule)
    try:
        family = experiments.generate_family(kind, count, d=dim, seed=seed,
                                             m1_cap=m1_cap, m2_cap=m2_cap)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    summary = experiments.run_batch(family, levels, out_dir=out_dir)
    if not quiet:
        rows = []
        for it in summary.items:
            if it.record is None:
                rows.append((it.label, "-", "-", "-", "ERROR"))
            else:
                r = it.record
                stab = ("NONE" if r.report.stabilized_rank is None
                        else r.report.stabilized_rank)
                rows.append((it.label, r.deg, r.det_deg, stab, r.verdict))
        _echo_table(rows, ("item", "deg", "det_deg", "stabilized", "verdict"))
        click.echo(f"verdicts: {summary.verdict_counts}")
        click.echo(f"summary: {summary.csv_path}")


def run(argv=None) -> int:
    """Entry point returning an exit code instead of raising SystemExit."""
    try:
        main.main(args=argv, standalone_mode=False)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 2
    except Exception as exc:  # internal failure
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        return 1


def entry():
    sys.exit(run())


if __name__ == "__main__":
    entry()
