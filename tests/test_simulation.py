"""Replication loop: thread-count invariance, study equivalences, method checks."""

from __future__ import annotations

import dataclasses
import math

import pytest

from proxigmm import ScenarioConfig, run_misspec_study, run_replications, run_study
from proxigmm.errors import DimensionMismatch
from proxigmm.simulation import METHODS


def _assert_same(a: list[dict], b: list[dict]) -> None:
    """Equal record lists, counting two NaNs (failed fits) as equal."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.keys() == rb.keys()
        for key, va in ra.items():
            vb = rb[key]
            if isinstance(va, float) and math.isnan(va):
                assert isinstance(vb, float) and math.isnan(vb), (key, ra, rb)
            else:
                assert va == vb, (key, ra, rb)


def _rows(summaries) -> list[dict]:
    return [dataclasses.asdict(s) for s in summaries]


def test_scenario_i_cell_reproduces_coverage_and_bias():
    # Fixed-seed 200-rep I/400 cell. Bands: nominal 0.95 coverage +- 3
    # binomial SDs (sqrt(0.95 * 0.05 / 200) ~ 0.015), and |bias| within 3
    # Monte Carlo SEs of the mean; the naive estimator ignores the
    # confounding and must undercover.
    reps = 200
    rows = run_study(
        ScenarioConfig("I", 400), methods=("naive", "rgmm", "gmm-div"), reps=reps, base_seed=0
    )
    cell = {row.method: row for row in rows}
    for method in ("rgmm", "gmm-div"):
        row = cell[method]
        assert row.reps_converged == reps
        assert 0.90 <= row.coverage <= 0.99, (method, row.coverage)
        assert row.abs_bias <= 3 * row.sd / math.sqrt(reps), (method, row.abs_bias, row.sd)
    assert cell["naive"].coverage <= 0.85


def test_records_identical_across_thread_counts():
    config = ScenarioConfig("II", 400)
    one = run_replications(config, METHODS, 4, 5, threads=1)
    two = run_replications(config, METHODS, 4, 5, threads=2)
    assert [(r["rep"], r["method"]) for r in one] == [
        (rep, m) for rep in range(4) for m in METHODS
    ]
    _assert_same(one, two)


def test_misspec_study_identical_across_thread_counts():
    one = run_misspec_study("moderate", n=400, reps=4, base_seed=3, threads=1)
    two = run_misspec_study("moderate", n=400, reps=4, base_seed=3, threads=2)
    _assert_same(_rows(one), _rows(two))


def test_correct_level_is_the_plain_scenario_ii_study():
    methods = ("gmm-div", "pdr")
    misspec = run_misspec_study("correct", n=400, reps=4, base_seed=3, methods=methods)
    plain = run_study(ScenarioConfig("II", 400), methods=methods, reps=4, base_seed=3)
    _assert_same(_rows(misspec), _rows(plain))


@pytest.mark.parametrize(
    "study",
    [
        lambda: run_replications(ScenarioConfig("I", 50), ("naive", "bogus"), 1, 0),
        lambda: run_misspec_study("minor", n=50, reps=1, methods=("bogus",)),
    ],
    ids=["run_replications", "run_misspec_study"],
)
def test_unknown_method_rejected(study):
    with pytest.raises(DimensionMismatch, match="bogus"):
        study()
