"""Reference estimators against algebraic oracles."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from helpers import make_gaussian_dataset
from proxigmm import (
    Dataset,
    EstimateReport,
    ScenarioConfig,
    TreatmentBridge,
    generate,
    naive_gformula,
    p2sls,
    pdr,
    pipw,
    rgmm,
)
from proxigmm import baselines
from proxigmm.errors import DimensionMismatch, ProxiGmmError
from proxigmm.simulation import BASELINES


class TestOracles:
    @pytest.mark.parametrize("fixture", ["scenario1_ds", "scenario2_ds"])
    def test_rgmm_equals_p2sls_when_just_identified(self, fixture, request):
        # With one z and one w both solve Z'(y - Xb) = 0 for regressors
        # (1, w, a, x) and instruments (1, z, a, x), and both sandwiches
        # reduce to the heteroskedasticity-robust just-identified IV form.
        ds = request.getfixturevalue(fixture)
        a, b = rgmm(ds), p2sls(ds)
        assert a.tau_hat == pytest.approx(b.tau_hat, rel=1e-10, abs=1e-12)
        assert a.se_tau == pytest.approx(b.se_tau, rel=1e-9)

    def test_naive_matches_lstsq_with_hc0(self, scenario2_ds):
        ds = scenario2_ds
        design = np.column_stack([np.ones(ds.n), ds.a, ds.w, ds.z, ds.x])
        beta, *_ = np.linalg.lstsq(design, ds.y, rcond=None)
        resid = ds.y - design @ beta
        bread = np.linalg.inv(design.T @ design)
        hc0 = bread @ (design.T @ (design * resid[:, None] ** 2)) @ bread
        report = naive_gformula(ds)
        np.testing.assert_allclose(report.aux["coefficients"], beta, rtol=1e-9, atol=1e-12)
        assert report.tau_hat == pytest.approx(beta[1], rel=1e-10)
        assert report.se_tau == pytest.approx(np.sqrt(hc0[1, 1]), rel=1e-9)

    @pytest.mark.parametrize(
        "scenario,n,rep",
        [*[("I", 400, rep) for rep in range(5)], ("II", 800, 17), ("II", 800, 35)],
    )
    def test_pdr_minus_pipw_is_the_weighted_imbalance(self, scenario, n, rep):
        # For the linear bridge h = (1, w, a, x) @ gamma, pdr's mean of
        # contrast + (-1)^(1-A) q (y - h) is pipw's mean of (-1)^(1-A) q y
        # minus gamma @ r(theta), with r(theta) = mean((-1)^(1-A) q (1, w,
        # a, x)) - e_a the balancing residual. This holds at any theta, so
        # also at the minimum-norm fallback of reps 17 and 35 at II/800.
        ds = generate(ScenarioConfig(scenario, n), 0, rep)
        ipw, dr = pipw(ds), pdr(ds)
        theta = ipw.aux["theta_hat"]
        np.testing.assert_array_equal(dr.aux["theta_hat"], theta)
        q = TreatmentBridge().q(ds.z, ds.a, ds.x, theta)
        sign = np.where(ds.a > 0.5, 1.0, -1.0)
        feats = np.column_stack([np.ones(ds.n), ds.w, ds.a, ds.x])
        e_a = np.zeros(feats.shape[1])
        e_a[1 + ds.w.shape[1]] = 1.0
        imbalance = (feats * (sign * q)[:, None]).mean(axis=0) - e_a
        gap = dr.tau_hat - ipw.tau_hat
        assert gap == pytest.approx(-dr.aux["gamma_hat"] @ imbalance, abs=1e-12)


@pytest.mark.parametrize("method", list(BASELINES))
def test_registry_entry_reports_its_name(method, scenario1_ds):
    report = BASELINES[method](scenario1_ds)
    assert isinstance(report, EstimateReport)
    assert report.method == method
    assert np.isfinite(report.tau_hat) and report.se_tau > 0


@pytest.mark.parametrize("estimator", [rgmm, pdr])
def test_outcome_bridge_needs_one_instrument_per_parameter(estimator):
    # Two z proxies and one w: five instruments (1, z1, z2, a, x) for the
    # four coefficients of the bridge over (1, w, a, x).
    ds = make_gaussian_dataset(d_z=2, d_w=1)
    with pytest.raises(DimensionMismatch, match="need exactly 4 instruments .* got 5"):
        estimator(ds)


@pytest.mark.parametrize("estimator", [pipw, pdr])
def test_reweighting_solver_keeps_overflow_silent(estimator):
    # In this replication the damped Newton search backtracks through
    # trial points whose residual norms overflow.
    ds = generate(ScenarioConfig("II", 800), 0, 17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = estimator(ds)
    assert np.isfinite(report.tau_hat)


def _outcome(estimator, ds):
    """A report's estimate, SE and treatment-bridge fit, or its error as recorded."""
    try:
        report = estimator(ds)
    except ProxiGmmError as exc:
        return f"{type(exc).__name__}: {exc}"
    return report.tau_hat, report.se_tau, report.aux["theta_hat"].tolist()


def test_pipw_and_pdr_share_one_treatment_solve(monkeypatch):
    base = make_gaussian_dataset()
    datasets = [
        generate(ScenarioConfig("II", 800), 0, 3),
        generate(ScenarioConfig("II", 800), 0, 17),  # minimum-norm fallback
        make_gaussian_dataset(d_z=2, d_w=1),  # pdr fails before its solve
        # Treated exactly where x1 > 0: the solve fails, pdr's outcome fit does not.
        Dataset(y=base.y, a=(base.x[:, 0] > 0).astype(float), z=base.z, w=base.w, x=base.x),
    ]
    alone = [{est: _outcome(est, ds) for est in (pipw, pdr)} for ds in datasets]
    assert alone[3][pipw] == alone[3][pdr] and alone[3][pipw].startswith("NoConvergence")
    assert alone[2][pipw] != alone[2][pdr]
    solved = []
    real = baselines._solve_treatment_bridge
    monkeypatch.setattr(
        baselines, "_solve_treatment_bridge", lambda ds: solved.append(ds) or real(ds)
    )
    for order in ((pipw, pdr), (pdr, pipw)):
        solved.clear()
        with baselines._one_treatment_solve_per_dataset():
            shared = [{est: _outcome(est, ds) for est in order} for ds in datasets]
        assert shared == alone
        assert [id(ds) for ds in solved] == [id(ds) for ds in datasets]
    solved.clear()
    _outcome(pipw, datasets[0])
    _outcome(pipw, datasets[0])
    assert len(solved) == 2  # outside the block every call solves
