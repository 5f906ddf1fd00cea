"""Command-line interface.

Subcommands are thin adapters over the library: ``simulate`` reproduces
Monte Carlo table cells, ``estimate`` fits a dataset from CSV, ``select-k``
writes the moment-count loss curve, and ``misspec`` runs a scenario-II cell
with a distorted outcome proxy (``ScenarioConfig(distortion=...)``). Both
studies go through one runner (``_run_study``) over ``run_replications``.
Exit codes: 0 success, 2 bad configuration, 3 data problems, 4 numeric
failure. Output files are plain CSV/JSON with full-precision floats, so
repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from .bridges import OutcomeBridge
from .data import VariableRoles, load_csv
from .errors import (
    DimensionMismatch,
    EmptyData,
    MissingColumn,
    NonBinaryTreatment,
    NonFiniteValue,
    ProxiGmmError,
    UnknownColumn,
)
from .selection import select_and_fit, select_k
from .sieve import SieveSpec, family_size
from .simulation import (
    BASELINES,
    DEFAULT_K_BAR,
    METHODS,
    MISSPEC_LEVELS,
    RECORD_FIELDS,
    ScenarioConfig,
    _check_methods,
    k_histogram,
    run_replications,
    summarize,
)

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


def _json_value(value):
    """``value``, with a NaN or infinite float as None: JSON has no such numbers."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_summary(out_dir: str, fmt: str, header: tuple[str, ...], rows) -> str:
    if fmt == "json":
        path = os.path.join(out_dir, "summary.json")
        payload = [dict(zip(header, map(_json_value, row))) for row in rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        path = os.path.join(out_dir, "summary.csv")
        _write_rows(path, header, rows)
    return path


def _write_estimates(out_dir: str, records) -> str:
    path = os.path.join(out_dir, "estimates.csv")
    _write_rows(path, RECORD_FIELDS, ([r[c] for c in RECORD_FIELDS] for r in records))
    return path


def _write_k_histogram(out_dir: str, records) -> str:
    path = os.path.join(out_dir, "k_histogram.csv")
    _write_rows(path, ("K", "count"), sorted(k_histogram(records).items()))
    return path


def _write_loss_curve(out_dir: str, diag) -> str:
    path = os.path.join(out_dir, "loss_curve.csv")
    _write_rows(path, ("K", "bias_term", "variance_term", "score", "chosen"), diag.rows())
    return path


def _names(listed: str) -> tuple[str, ...]:
    """The names of a comma-separated list, each stripped, empty ones dropped."""
    return tuple(name for part in listed.split(",") if (name := part.strip()))


def _roles(opts) -> VariableRoles:
    # load_csv strips header cells, so every role name is stripped too.
    return VariableRoles(
        outcome=opts.outcome.strip(),
        treatment=opts.treatment.strip(),
        proxies_z=_names(opts.proxies_z),
        proxies_w=_names(opts.proxies_w),
        covariates=_names(opts.covariates),
    )


def _config_error(message: str) -> int:
    print(f"config error: {message}", file=sys.stderr)
    return 2


def _kmax_error(
    kmax: int, bridge: OutcomeBridge, n_vars: int, source: str = "kmax"
) -> str | None:
    """The config error for a moment cap below the bridge dimension, or above
    the size of the sieve over ``n_vars`` variables, if any. ``source`` names
    where the cap came from: the ``--kmax`` flag, the default or the sieve
    size."""
    if kmax < bridge.n_params:
        return f"{source} must be at least the bridge dimension {bridge.n_params}, got {kmax}"
    if kmax > (size := family_size(n_vars)):
        return f"kmax must be at most the {size} sieve terms, got {kmax}"
    return None


def _check_study_opts(opts, runs_gmm_div: bool) -> str | None:
    if opts.reps < 1:
        return f"reps must be at least 1, got {opts.reps}"
    if opts.n < 1:
        return f"n must be at least 1, got {opts.n}"
    if opts.threads < 1:
        return f"threads must be at least 1, got {opts.threads}"
    if opts.seed < 0:
        return f"seed must be non-negative, got {opts.seed}"
    if runs_gmm_div:
        # Simulated data has one proxy on each side and one covariate.
        return _kmax_error(opts.kmax, OutcomeBridge.linear(1, 1), 2)
    return None


def _run_study(opts, methods, scenario: str, distortion: str = "correct", **leading) -> int:
    """Run one study cell and write its summary, with the ``leading``
    columns first, its ``estimates.csv`` and, when it runs ``gmm-div``, its
    ``k_histogram.csv``."""
    err = _check_study_opts(opts, "gmm-div" in methods)
    if err:
        return _config_error(err)
    config = ScenarioConfig(scenario=scenario, n=opts.n, distortion=distortion)
    records = run_replications(
        config, methods, reps=opts.reps, base_seed=opts.seed,
        k_bar=opts.kmax, threads=opts.threads,
    )
    os.makedirs(opts.out_dir, exist_ok=True)
    paths = [
        _write_summary(
            opts.out_dir, opts.format, (*leading, *_SUMMARY_COLUMNS),
            _summary_rows(summarize(records, config), *leading.values()),
        ),
        _write_estimates(opts.out_dir, records),
    ]
    if "gmm-div" in methods:
        paths.append(_write_k_histogram(opts.out_dir, records))
    print("\n".join(paths))
    return 0


def cmd_simulate(opts) -> int:
    methods = METHODS if opts.methods.strip() == "all" else _names(opts.methods)
    if not methods:
        return _config_error("methods: none given")
    try:
        _check_methods(methods)
    except DimensionMismatch as exc:
        return _config_error(str(exc))
    return _run_study(opts, methods, opts.scenario)


def _load(opts):
    """The CSV's dataset and linear bridge, the moment cap (``--kmax``, or
    ``DEFAULT_K_BAR`` capped at the sieve size) and the config error of that
    cap, if any, which names where the cap came from."""
    ds = load_csv(opts.data, _roles(opts))
    bridge = OutcomeBridge.linear(ds.w.shape[1], ds.x.shape[1])
    n_vars = ds.z.shape[1] + ds.x.shape[1]
    size = family_size(n_vars)
    if opts.kmax is not None:
        kmax, source = opts.kmax, "kmax"
    elif DEFAULT_K_BAR <= size:
        kmax, source = DEFAULT_K_BAR, "the default kmax"
    else:
        kmax, source = size, "the sieve size over the data's z and x"
    return ds, bridge, kmax, _kmax_error(kmax, bridge, n_vars, source)


def cmd_estimate(opts) -> int:
    ds, bridge, kmax, err = _load(opts)
    if opts.method == "gmm-div" and err:
        return _config_error(err)
    os.makedirs(opts.out_dir, exist_ok=True)
    if opts.method == "gmm-div":
        fit, diag = select_and_fit(ds, bridge, SieveSpec(), kmax)
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
    ds, bridge, kmax, err = _load(opts)
    if err:
        return _config_error(err)
    diag = select_k(ds, bridge, SieveSpec(), kmax)
    os.makedirs(opts.out_dir, exist_ok=True)
    path = _write_loss_curve(opts.out_dir, diag)
    print(path)
    print(f"selected K = {diag.k_star}")
    return 0


def cmd_misspec(opts) -> int:
    return _run_study(opts, ("gmm-div", "pdr"), "II", opts.level, level=opts.level)


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="input CSV path")
    parser.add_argument("--outcome", required=True)
    parser.add_argument("--treatment", required=True)
    parser.add_argument("--proxies-z", required=True, help="comma-separated column names")
    parser.add_argument("--proxies-w", required=True, help="comma-separated column names")
    parser.add_argument("--covariates", default="", help="comma-separated column names")
    parser.add_argument("--kmax", type=int, help=f"default {DEFAULT_K_BAR}, or the sieve size if less")
    parser.add_argument("--out-dir", default=".")


def _add_study_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=400)
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kmax", type=int, default=DEFAULT_K_BAR)
    parser.add_argument(
        "--threads", type=int, default=1,
        help="worker processes; records identical for any count (default 1)",
    )
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


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
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="fit an effect estimate on a CSV dataset")
    _add_data_flags(p)
    p.add_argument("--method", choices=METHODS, default="gmm-div")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("select-k", help="write the moment-count loss curve")
    _add_data_flags(p)
    p.set_defaults(func=cmd_select_k)

    p = sub.add_parser("misspec", help="misspecified outcome-proxy study")
    p.add_argument("--level", choices=MISSPEC_LEVELS, required=True)
    _add_study_flags(p)
    p.set_defaults(func=cmd_misspec)

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
