"""Replication loop: thread-count invariance, study equivalences, method checks,
and the frozen-design fit of the misspecification study."""

from __future__ import annotations

import dataclasses
import math

import pytest

from proxigmm import (
    OutcomeBridge,
    ScenarioConfig,
    SieveSpec,
    build_basis,
    estimate_upsilon,
    fit_initial,
    fit_with_weight,
    generate,
    joint_score,
    orthonormalize,
    regularize_moments,
    run_misspec_study,
    run_replications,
    run_study,
    select_k,
    summarize,
    transform_column,
)
from proxigmm import gmm, simulation
from proxigmm.errors import DimensionMismatch
from proxigmm.simulation import DEFAULT_K_BAR, METHODS


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


def test_median_ci_length_resists_fallback_reps():
    # II/800 seed 0 rep 17 is a pipw minimum-norm fallback with an SE in the
    # tens of thousands; it drags the mean CI length but not the median.
    config = ScenarioConfig("II", 800)
    records = run_replications(config, ("pipw",), 18, 0)
    assert max(r["se_tau"] for r in records) > 1e4
    (row,) = summarize(records, config)
    assert math.isfinite(row.median_ci_length)
    assert row.median_ci_length < 1e-3 * row.mean_ci_length


def test_frozen_design_fit_uses_the_floored_root_directly(monkeypatch):
    # Reference: the public two-step calls on the clean draw, then a fixed
    # weight fit on the distorted draw that eigendecomposes the floored
    # weight for its root. The frozen-design fit takes that root from the
    # decomposition, so the two agree to rounding.
    config, spec, bridge = ScenarioConfig("II", 800), SieveSpec(), OutcomeBridge.linear(1, 1)
    draws, want = [], []
    for rep in range(10):
        clean = generate(config, 0, rep)
        distorted = transform_column(clean, "w1", "moderate")
        k_star = select_k(clean, bridge, spec, DEFAULT_K_BAR).k_star
        basis = orthonormalize(build_basis(clean, spec, k_star))
        init = fit_initial(clean, basis, bridge)
        scores = joint_score(clean, basis, bridge, init.gamma_hat, init.tau_hat)
        decomp = regularize_moments(estimate_upsilon(scores))
        want.append(fit_with_weight(distorted, basis, bridge, decomp.floored_weight()))
        draws.append((clean, distorted))

    def refuse(*args, **kwargs):
        raise AssertionError("the floored weight needs no second decomposition")

    monkeypatch.setattr(gmm, "fit_with_weight", refuse)
    monkeypatch.setattr(simulation, "fit_with_weight", refuse, raising=False)
    for (clean, distorted), ref in zip(draws, want):
        got = simulation._frozen_design_fit(
            clean, distorted, spec, DEFAULT_K_BAR, gmm.DEFAULT_REL_THRESHOLD
        )
        assert got["k_star"] == ref.k
        assert got["tau_hat"] == pytest.approx(ref.tau_hat, rel=0, abs=1e-8)
        assert got["se_tau"] == pytest.approx(ref.se_tau, rel=1e-6)
