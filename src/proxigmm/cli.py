"""Command-line interface.

Subcommands are thin adapters over the library: ``simulate`` reproduces
Monte Carlo table cells, ``estimate`` fits a dataset from CSV, ``select-k``
writes the moment-count loss curve, ``misspec`` and ``bspline-study`` run
the corresponding robustness studies. Exit codes: 0 success, 2 bad
configuration, 3 data problems, 4 numeric failure. Output files are plain
CSV/JSON with full-precision floats, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .bridges import OutcomeBridge
from .data import VariableRoles, load_csv
from .errors import (
    EmptyData,
    MissingColumn,
    NonBinaryTreatment,
    NonFiniteValue,
    ProxiGmmError,
    UnknownColumn,
)
from .selection import select_and_fit, select_k
from .sieve import SieveSpec
from .simulation import (
    BASELINES,
    DEFAULT_K_BAR,
    METHODS,
    MISSPEC_LEVELS,
    ScenarioConfig,
    k_histogram,
    run_replications,
    run_bspline_study,
    run_misspec_study,
    summarize,
)

_SIM_BRIDGE_DIM = OutcomeBridge.linear(1, 1).n_params  # simulated data: one w, one x
_DATA_ERRORS = (EmptyData, MissingColumn, NonBinaryTreatment, NonFiniteValue, UnknownColumn)

_SUMMARY_COLUMNS = (
    "scenario", "n", "method", "bias", "se", "rmse", "length", "length_median", "cp",
    "power", "reps_converged",
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _write_rows(path: str, header: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _summary_rows(summaries, *leading):
    """One row per summary, after the ``leading`` values."""
    for s in summaries:
        yield [
            *leading, s.scenario, s.n, s.method, s.abs_bias, s.sd, s.rmse,
            s.mean_ci_length, s.median_ci_length, s.coverage, s.power, s.reps_converged,
        ]


def _write_summary(out_dir: str, fmt: str, header: tuple[str, ...], rows) -> str:
    if fmt == "json":
        path = os.path.join(out_dir, "summary.json")
        payload = [dict(zip(header, row)) for row in rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        path = os.path.join(out_dir, "summary.csv")
        _write_rows(path, header, rows)
    return path


def _write_estimates(out_dir: str, records) -> str:
    path = os.path.join(out_dir, "estimates.csv")
    header = ("rep", "method", "tau_hat", "se_tau", "ci_lo", "ci_hi", "reject", "k_star", "error")
    _write_rows(path, header, ([r[c] for c in header] for r in records))
    return path


def _write_k_histogram(out_dir: str, records) -> str:
    path = os.path.join(out_dir, "k_histogram.csv")
    _write_rows(path, ("K", "count"), sorted(k_histogram(records).items()))
    return path


def _write_loss_curve(out_dir: str, diag) -> str:
    path = os.path.join(out_dir, "loss_curve.csv")
    _write_rows(path, ("K", "bias_term", "variance_term", "score", "chosen"), diag.rows())
    return path


def _roles(opts) -> VariableRoles:
    split = lambda s: tuple(part for part in s.split(",") if part) if s else ()
    return VariableRoles(
        outcome=opts.outcome,
        treatment=opts.treatment,
        proxies_z=split(opts.proxies_z),
        proxies_w=split(opts.proxies_w),
        covariates=split(opts.covariates),
    )


def _sieve_spec(opts) -> SieveSpec:
    return SieveSpec(family=opts.sieve, structure=opts.structure)


def _config_error(message: str) -> int:
    print(f"config error: {message}", file=sys.stderr)
    return 2


def _check_study_opts(opts, runs_gmm_div: bool) -> str | None:
    if opts.reps < 1:
        return f"reps must be at least 1, got {opts.reps}"
    if opts.n < 1:
        return f"n must be at least 1, got {opts.n}"
    if opts.threads < 1:
        return f"threads must be at least 1, got {opts.threads}"
    if runs_gmm_div and opts.kmax < _SIM_BRIDGE_DIM:
        return f"kmax must be at least the bridge dimension {_SIM_BRIDGE_DIM}, got {opts.kmax}"
    return None


def cmd_simulate(opts) -> int:
    if opts.methods.strip() == "all":
        methods = METHODS
    else:
        methods = tuple(m for m in opts.methods.split(",") if m)
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        return _config_error(f"methods: unknown {unknown}; choose from {METHODS}")
    if not methods:
        return _config_error("methods: none given")
    err = _check_study_opts(opts, "gmm-div" in methods)
    if err:
        return _config_error(err)
    config = ScenarioConfig(scenario=opts.scenario, n=opts.n)
    records = run_replications(
        config, methods, reps=opts.reps, base_seed=opts.seed,
        k_bar=opts.kmax, threads=opts.threads,
    )
    os.makedirs(opts.out_dir, exist_ok=True)
    paths = [
        _write_summary(
            opts.out_dir, opts.format, _SUMMARY_COLUMNS,
            _summary_rows(summarize(records, config)),
        ),
        _write_estimates(opts.out_dir, records),
    ]
    if "gmm-div" in methods:
        paths.append(_write_k_histogram(opts.out_dir, records))
    print("\n".join(paths))
    return 0


def cmd_estimate(opts) -> int:
    ds = load_csv(opts.data, _roles(opts))
    bridge = OutcomeBridge.linear(ds.w.shape[1], ds.x.shape[1])
    if opts.method == "gmm-div" and opts.kmax < bridge.n_params:
        return _config_error(
            f"kmax must be at least the bridge dimension {bridge.n_params}, got {opts.kmax}"
        )
    os.makedirs(opts.out_dir, exist_ok=True)
    if opts.method == "gmm-div":
        fit, diag = select_and_fit(ds, bridge, _sieve_spec(opts), opts.kmax)
        payload = json.loads(fit.to_json())
        payload["k_star"] = diag.k_star
        report = json.dumps(payload)
        _write_loss_curve(opts.out_dir, diag)
    else:
        report = BASELINES[opts.method](ds).to_json()
    path = os.path.join(opts.out_dir, "report.json")
    with open(path, "w") as fh:
        fh.write(report)
        fh.write("\n")
    print(report)
    return 0


def cmd_select_k(opts) -> int:
    ds = load_csv(opts.data, _roles(opts))
    bridge = OutcomeBridge.linear(ds.w.shape[1], ds.x.shape[1])
    if opts.kmax < bridge.n_params:
        return _config_error(
            f"kmax must be at least the bridge dimension {bridge.n_params}, got {opts.kmax}"
        )
    diag = select_k(ds, bridge, _sieve_spec(opts), opts.kmax)
    os.makedirs(opts.out_dir, exist_ok=True)
    path = _write_loss_curve(opts.out_dir, diag)
    print(path)
    print(f"selected K = {diag.k_star}")
    return 0


def cmd_misspec(opts) -> int:
    err = _check_study_opts(opts, runs_gmm_div=True)
    if err:
        return _config_error(err)
    summaries = run_misspec_study(
        level=opts.level, n=opts.n, reps=opts.reps, base_seed=opts.seed,
        k_bar=opts.kmax, threads=opts.threads,
    )
    os.makedirs(opts.out_dir, exist_ok=True)
    path = _write_summary(
        opts.out_dir, opts.format, ("level", *_SUMMARY_COLUMNS),
        _summary_rows(summaries, opts.level),
    )
    print(path)
    return 0


def cmd_bspline_study(opts) -> int:
    err = _check_study_opts(opts, runs_gmm_div=True)
    if err:
        return _config_error(err)
    results = run_bspline_study(
        n=opts.n, reps=opts.reps, base_seed=opts.seed,
        k_bar=opts.kmax, threads=opts.threads,
    )
    os.makedirs(opts.out_dir, exist_ok=True)
    rows = [
        row
        for family, summaries in results.items()
        for row in _summary_rows(summaries, family)
    ]
    path = _write_summary(opts.out_dir, opts.format, ("family", *_SUMMARY_COLUMNS), rows)
    print(path)
    return 0


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="input CSV path")
    parser.add_argument("--outcome", required=True)
    parser.add_argument("--treatment", required=True)
    parser.add_argument("--proxies-z", required=True, help="comma-separated column names")
    parser.add_argument("--proxies-w", required=True, help="comma-separated column names")
    parser.add_argument("--covariates", default="", help="comma-separated column names")
    parser.add_argument("--sieve", choices=("power", "bspline"), default="power")
    parser.add_argument("--structure", choices=("tensor", "additive"), default="tensor")
    parser.add_argument("--kmax", type=int, default=DEFAULT_K_BAR)


def _add_common_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_study_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=400)
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kmax", type=int, default=DEFAULT_K_BAR)
    parser.add_argument(
        "--threads", type=int, default=1,
        help="worker processes; records identical for any count (default 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxigmm",
        description="Proximal causal inference with data-driven moment selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a Monte Carlo study cell")
    p.add_argument("--scenario", choices=("I", "II"), default="I")
    p.add_argument("--methods", default=",".join(METHODS))
    _add_study_flags(p)
    _add_common_output(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="fit an effect estimate on a CSV dataset")
    _add_data_flags(p)
    p.add_argument("--method", choices=METHODS, default="gmm-div")
    _add_common_output(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("select-k", help="write the moment-count loss curve")
    _add_data_flags(p)
    _add_common_output(p)
    p.set_defaults(func=cmd_select_k)

    p = sub.add_parser("misspec", help="misspecified outcome-proxy study")
    p.add_argument("--level", choices=MISSPEC_LEVELS, required=True)
    _add_study_flags(p)
    _add_common_output(p)
    p.set_defaults(func=cmd_misspec)

    p = sub.add_parser("bspline-study", help="power-series vs B-spline comparison")
    _add_study_flags(p)
    _add_common_output(p)
    p.set_defaults(func=cmd_bspline_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    opts = parser.parse_args(argv)
    try:
        return opts.func(opts)
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ProxiGmmError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
