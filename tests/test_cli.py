"""Command-line entry point: exit codes, reports, and reproducible outputs."""

from __future__ import annotations

import csv
import dataclasses
import json

import numpy as np
import pytest

from helpers import make_gaussian_dataset, write_csv
from proxigmm import (
    OutcomeBridge,
    ScenarioConfig,
    SieveSpec,
    VariableRoles,
    generate,
    load_csv,
    select_and_fit,
)
from proxigmm.cli import build_parser, main
from proxigmm.errors import SingularSystem
from proxigmm.sieve import family_size
from proxigmm.simulation import BASELINES, DEFAULT_K_BAR, METHODS

ROLES = VariableRoles(
    outcome="y", treatment="a", proxies_z=("z1",), proxies_w=("w1",), covariates=("x1",)
)


def _data_flags(path, proxies_w="w1", covariates="x1") -> list[str]:
    return [
        "--data", str(path), "--outcome", "y", "--treatment", "a",
        "--proxies-z", "z1", "--proxies-w", proxies_w, "--covariates", covariates,
    ]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "data.csv"
    write_csv(generate(ScenarioConfig("II", 300), 4, 0), str(path))
    return path


@pytest.mark.parametrize("method", METHODS)
def test_estimate_reports_the_library_estimate(method, csv_path, tmp_path):
    code = main(["estimate", *_data_flags(csv_path), "--method", method,
                 "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    ds = load_csv(str(csv_path), ROLES)
    if method == "gmm-div":
        bridge = OutcomeBridge.linear(1, 1)
        expected = select_and_fit(ds, bridge, SieveSpec(), DEFAULT_K_BAR)[0].tau_hat
    else:
        expected = BASELINES[method](ds).tau_hat
    assert report["tau_hat"] == expected


def test_unknown_method_is_a_config_error(tmp_path):
    code = main(["simulate", "--methods", "bogus", "--reps", "1", "--out-dir", str(tmp_path)])
    assert code == 2


def test_spaces_around_method_names_are_ignored(tmp_path):
    estimates = []
    for methods in ("rgmm,pdr", " rgmm, pdr "):
        out = tmp_path / f"out{len(estimates)}"
        code = main(["simulate", "--methods", methods, "--n", "200", "--reps", "2",
                     "--out-dir", str(out)])
        assert code == 0
        estimates.append((out / "estimates.csv").read_text())
    assert estimates[0] == estimates[1]


def test_a_method_named_twice_is_a_config_error(tmp_path, capsys):
    # Its records would be counted twice in the summary.
    out = tmp_path / "out"
    code = main(["simulate", "--methods", "rgmm,naive,rgmm", "--reps", "3",
                 "--out-dir", str(out)])
    assert code == 2
    assert "config error: methods ['rgmm'] are named more than once" in capsys.readouterr().err
    assert not out.exists()


def test_threads_default_ignores_the_environment(monkeypatch):
    monkeypatch.setenv("PROXIGMM_THREADS", "2")
    assert build_parser().parse_args(["simulate"]).threads == 1


def test_missing_column_is_a_data_error(csv_path, tmp_path):
    code = main(["estimate", *_data_flags(csv_path, proxies_w="w9"),
                 "--out-dir", str(tmp_path)])
    assert code == 3


@pytest.mark.parametrize("method", ["naive", "gmm-div"])
def test_spaces_around_role_names_are_ignored(method, tmp_path):
    # load_csv strips header cells, so the names given for them are
    # stripped too, in comma-separated lists as in single names.
    path = tmp_path / "data.csv"
    write_csv(make_gaussian_dataset(n=300, d_z=2), str(path))
    reports = []
    for y, a, z, w, x in (("y", "a", "z1,z2", "w1", "x1"), (" y", "a ", " z1, z2 ", " w1", "x1 ,")):
        out = tmp_path / f"out{len(reports)}"
        code = main(["estimate", "--data", str(path), "--outcome", y, "--treatment", a,
                     "--proxies-z", z, "--proxies-w", w, "--covariates", x,
                     "--method", method, "--out-dir", str(out)])
        assert code == 0
        reports.append((out / "report.json").read_text())
    assert reports[0] == reports[1]


def test_role_column_repeated_in_header_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "twice.csv"
    path.write_text("y,a,z1,w1,x1,y\n1.0,0,0.1,1.5,2.0,9.0\n")
    out = tmp_path / "out"
    assert main(["estimate", *_data_flags(path), "--out-dir", str(out)]) == 3
    assert "['y'] appear more than once" in capsys.readouterr().err
    assert not out.exists()


def test_column_repeated_within_a_role_is_a_data_error(csv_path, tmp_path, capsys):
    argv = ["estimate", "--data", str(csv_path), "--outcome", "y", "--treatment", "a",
            "--proxies-z", "z1,z1", "--proxies-w", "w1", "--covariates", "x1",
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "proxies_z lists a column more than once: ['z1']" in err
    assert "more than one role" not in err


def test_unequal_proxy_counts_are_a_numeric_failure(tmp_path, capsys):
    path = tmp_path / "two_z.csv"
    write_csv(make_gaussian_dataset(d_z=2, d_w=1), str(path))
    argv = ["estimate", "--data", str(path), "--outcome", "y", "--treatment", "a",
            "--proxies-z", "z1,z2", "--proxies-w", "w1", "--covariates", "x1",
            "--method", "rgmm", "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 4
    assert "need exactly 4 instruments" in capsys.readouterr().err


def test_constant_instrument_is_a_numeric_failure(csv_path, tmp_path):
    ds = load_csv(str(csv_path), ROLES)
    flat = tmp_path / "flat.csv"
    write_csv(dataclasses.replace(ds, z=np.ones_like(ds.z)), str(flat))
    code = main(["estimate", *_data_flags(flat), "--method", "gmm-div",
                 "--out-dir", str(tmp_path)])
    assert code == 4


def test_simulate_reruns_are_byte_identical(tmp_path):
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        argv = ["simulate", "--scenario", "I", "--n", "200", "--reps", "3", "--seed", "7",
                "--out-dir", str(out)]
        assert main(argv) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert set(outputs[0]) == {"summary.csv", "estimates.csv", "k_histogram.csv"}
    assert outputs[0] == outputs[1]
    rows = list(csv.DictReader(outputs[0]["estimates.csv"].decode().splitlines()))
    assert rows
    for row in rows:
        for col in ("tau_hat", "se_tau", "ci_lo", "ci_hi"):
            float(row[col])  # raises ValueError on a cell that is not a plain number


STUDIES = {
    "simulate": ["simulate", "--methods", "gmm-div", "--n", "200"],
    "misspec": ["misspec", "--level", "minor", "--n", "200"],
}

# Moment caps outside [bridge dimension, sieve size] and their errors, for
# data with one proxy on each side and one covariate: a bridge of 4
# parameters and a sieve of 2·4² terms.
BAD_KMAX = {
    3: "kmax must be at least the bridge dimension 4, got 3",
    40: "kmax must be at most the 32 sieve terms, got 40",
}


def test_summary_json_writes_null_where_no_replication_converged(monkeypatch, tmp_path):
    def always_singular(ds):
        raise SingularSystem("no estimate")

    monkeypatch.setitem(BASELINES, "naive", always_singular)
    argv = ["simulate", "--methods", "naive", "--n", "50", "--reps", "2",
            "--format", "json", "--out-dir", str(tmp_path)]
    assert main(argv) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    (row,) = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    assert row["reps_converged"] == 0
    estimates = ("bias", "se", "rmse", "length", "length_median", "cp", "power")
    assert {row[c] for c in estimates} == {None}


@pytest.mark.parametrize("command", ["estimate", "select-k"])
def test_format_is_a_usage_error_for_data_commands(command, csv_path, tmp_path, capsys):
    # Only the studies write a summary in a choice of format.
    with pytest.raises(SystemExit) as exit_:
        main([command, *_data_flags(csv_path), "--format", "json", "--out-dir", str(tmp_path)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("study", STUDIES)
def test_kmax_below_bridge_dimension_is_a_config_error(study, tmp_path, capsys):
    for kmax, message in BAD_KMAX.items():
        code = main([*STUDIES[study], "--reps", "1", "--kmax", str(kmax),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["estimate", "--method", "gmm-div"], ["select-k"]])
def test_kmax_below_bridge_dimension_of_data_is_a_config_error(
    command, csv_path, tmp_path, capsys
):
    out = tmp_path / "out"
    for kmax, message in BAD_KMAX.items():
        code = main([*command, *_data_flags(csv_path), "--kmax", str(kmax),
                     "--out-dir", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("study", STUDIES)
def test_negative_seed_is_a_config_error(study, tmp_path, capsys):
    code = main([*STUDIES[study], "--reps", "1", "--seed", "-1", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.fixture(scope="module")
def bare_csv_path(tmp_path_factory):
    """One z and one w proxy and no covariates: a sieve of 8 terms."""
    ds = generate(ScenarioConfig("II", 300), 4, 0)
    bare = dataclasses.replace(ds, x=np.empty((ds.n, 0)), x_names=())
    path = tmp_path_factory.mktemp("bare") / "bare.csv"
    write_csv(bare, str(path))
    return path


@pytest.mark.parametrize("command", [["estimate", "--method", "gmm-div"], ["select-k"]])
def test_default_kmax_is_capped_at_the_sieve_size(command, bare_csv_path, tmp_path):
    assert family_size(1) == 8 < DEFAULT_K_BAR
    argv = [*command, *_data_flags(bare_csv_path, covariates=""), "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    with open(tmp_path / "loss_curve.csv", newline="") as fh:
        assert max(int(row["K"]) for row in csv.DictReader(fh)) == 8
    if command[0] == "estimate":
        ds = load_csv(str(bare_csv_path), VariableRoles("y", "a", ("z1",), ("w1",)))
        expected = select_and_fit(ds, OutcomeBridge.linear(1, 0), SieveSpec(), 8)[0]
        assert json.loads((tmp_path / "report.json").read_text())["tau_hat"] == expected.tau_hat


@pytest.mark.parametrize("command", [["estimate", "--method", "gmm-div"], ["select-k"]])
def test_explicit_kmax_above_the_sieve_size_is_a_config_error(
    command, bare_csv_path, tmp_path, capsys
):
    argv = [*command, *_data_flags(bare_csv_path, covariates=""), "--kmax", str(DEFAULT_K_BAR),
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"kmax must be at most the 8 sieve terms, got {DEFAULT_K_BAR}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["estimate", "--method", "gmm-div"], ["select-k"]])
@pytest.mark.parametrize(
    "d_w, d_x, message",
    [
        (7, 0, "the sieve size over the data's z and x must be at least the bridge dimension 9, got 8"),
        (12, 1, f"the default kmax must be at least the bridge dimension 15, got {DEFAULT_K_BAR}"),
    ],
    ids=["sieve", "default"],
)
def test_default_kmax_below_the_bridge_dimension_names_no_flag(
    command, d_w, d_x, message, tmp_path, capsys
):
    # Without --kmax the cap is the default or the sieve size, so the
    # error names whichever falls short, not the flag.
    ds = make_gaussian_dataset(d_z=1, d_w=d_w, d_x=d_x)
    path = tmp_path / "wide.csv"
    write_csv(ds, str(path))
    flags = _data_flags(path, proxies_w=",".join(ds.w_names), covariates=",".join(ds.x_names))
    assert main([*command, *flags, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_kmax_is_not_checked_without_gmm_div(tmp_path):
    argv = ["simulate", "--methods", "naive", "--reps", "1", "--kmax", "3",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0


@pytest.mark.parametrize(
    "study, fmt",
    [("simulate", "csv"), ("simulate", "json"), ("misspec", "csv"), ("misspec", "json")],
)
def test_summary_reports_median_ci_length(study, fmt, tmp_path):
    argv = [*STUDIES[study], "--reps", "2", "--format", fmt, "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    if fmt == "json":
        rows = json.loads((tmp_path / "summary.json").read_text())
    else:
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    assert rows and all(np.isfinite(float(row["length_median"])) for row in rows)
    # Both studies also write every record and the K* histogram of gmm-div.
    summary = f"summary.{fmt}"
    assert {p.name for p in tmp_path.iterdir()} == {summary, "estimates.csv", "k_histogram.csv"}
    with open(tmp_path / "estimates.csv", newline="") as fh:
        estimates = list(csv.DictReader(fh))
    with open(tmp_path / "k_histogram.csv", newline="") as fh:
        histogram = list(csv.DictReader(fh))
    assert len(estimates) == 2 * len(rows)
    assert sum(int(row["count"]) for row in histogram) == 2
