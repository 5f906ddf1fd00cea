"""Command-line entry point: exit codes, reports, and reproducible outputs."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from proxigmm import (
    OutcomeBridge,
    ScenarioConfig,
    SieveSpec,
    VariableRoles,
    generate,
    load_csv,
    select_and_fit,
    write_csv,
)
from proxigmm.cli import main
from proxigmm.simulation import BASELINES, DEFAULT_K_BAR, METHODS

ROLES = VariableRoles(
    outcome="y", treatment="a", proxies_z=("z1",), proxies_w=("w1",), covariates=("x1",)
)


def _data_flags(path, proxies_w="w1") -> list[str]:
    return [
        "--data", str(path), "--outcome", "y", "--treatment", "a",
        "--proxies-z", "z1", "--proxies-w", proxies_w, "--covariates", "x1",
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


def test_missing_column_is_a_data_error(csv_path, tmp_path):
    code = main(["estimate", *_data_flags(csv_path, proxies_w="w9"),
                 "--out-dir", str(tmp_path)])
    assert code == 3


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
