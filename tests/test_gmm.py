"""Joint GMM machinery: scores, spectral regularization, fits, inference."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from proxigmm import (
    BasisMatrix,
    OutcomeBridge,
    ScenarioConfig,
    SieveSpec,
    build_basis,
    confidence_interval,
    estimate_upsilon,
    fit_initial,
    fit_optimal,
    fit_with_weight,
    generate,
    joint_score,
    orthonormalize,
    regularize_moments,
    rgmm,
    true_bridge_params,
    variance,
    wald_test,
)
from proxigmm import gmm
from proxigmm.errors import SingularVariance, TooFewMoments
from proxigmm.gmm import WALD_CRITICAL_5PCT

GAMMA_STAR, _ = true_bridge_params()


def _basis(ds, k):
    return orthonormalize(build_basis(ds, SieveSpec(), k))


def _single_row_dataset():
    from proxigmm import Dataset

    return Dataset(y=[3.0], a=[1.0], z=[[0.7]], w=[[2.0]], x=[[0.5]])


class TestJointScore:
    def test_single_observation_oracle(self):
        ds = _single_row_dataset()
        bridge = OutcomeBridge.linear(1, 1)
        raw = BasisMatrix(
            u=np.array([[1.0, 2.0]]),
            whitening=np.eye(2),
            term_names=("1", "t"),
            spec=SieveSpec(),
        )
        gamma = np.array([0.5, 1.0, 0.25, -1.0])
        # h = 0.5 + 2.0 + 0.25 - 0.5 = 2.25, residual = 0.75, contrast = 0.25
        scores = joint_score(ds, raw, bridge, gamma, tau=0.6)
        np.testing.assert_allclose(scores, [[0.75, 1.5, 0.35]], atol=1e-12)
        assert scores.shape == (1, 3)

    def test_contrast_column_centers_exactly_at_mean_contrast(self, scenario1_ds, linear_bridge):
        basis = _basis(scenario1_ds, 6)
        gamma = np.array([0.1, 1.2, 0.4, 1.5])
        tau = float(linear_bridge.contrast(scenario1_ds.w, scenario1_ds.x, gamma).mean())
        scores = joint_score(scenario1_ds, basis, linear_bridge, gamma, tau)
        np.testing.assert_allclose(scores[:, -1], np.zeros(scenario1_ds.n), atol=1e-14)

    def test_upsilon_matches_direct_product(self, scenario1_ds, linear_bridge):
        basis = _basis(scenario1_ds, 5)
        scores = joint_score(scenario1_ds, basis, linear_bridge, GAMMA_STAR, 0.5)
        direct = scores.T @ scores / scenario1_ds.n
        np.testing.assert_allclose(estimate_upsilon(scores), direct, atol=1e-14)


class TestRegularizeMoments:
    def test_near_null_direction_dropped_from_count(self):
        decomp = regularize_moments(np.diag([1.0, 1.0, 1e-12]), rel_threshold=1e-8)
        assert decomp.k1 == 2
        assert decomp.threshold_used == pytest.approx(1e-8)

    def test_identity_keeps_every_direction(self):
        decomp = regularize_moments(np.eye(7), rel_threshold=1e-8)
        assert decomp.k1 == 7

    def test_duplicated_moment_adds_no_retained_direction(self, scenario1_ds, linear_bridge):
        basis = _basis(scenario1_ds, 4)
        scores = joint_score(scenario1_ds, basis, linear_bridge, GAMMA_STAR, 0.5)
        plain = estimate_upsilon(scores)
        doubled = np.column_stack([scores, scores[:, 0]])
        upsilon = doubled.T @ doubled / scenario1_ds.n
        assert regularize_moments(upsilon).k1 == regularize_moments(plain).k1

    def test_structurally_constant_contrast_direction_floored(self, scenario1_ds, linear_bridge):
        # a bridge whose contrast has no parameter dependence across units
        # yields a zero-variance contrast score at tau equal to the mean
        # contrast, so one direction always falls below the floor
        basis = _basis(scenario1_ds, 4)
        scores = joint_score(scenario1_ds, basis, linear_bridge, GAMMA_STAR, 0.5)
        decomp = regularize_moments(estimate_upsilon(scores))
        assert decomp.k1 == scores.shape[1] - 1

    def test_floored_weight_inverts_well_conditioned_part(self):
        decomp = regularize_moments(np.diag([4.0, 1.0, 1e-12]), rel_threshold=1e-8)
        w = decomp.floored_weight()
        np.testing.assert_allclose(w[:2, :2], np.diag([0.25, 1.0]), atol=1e-9)
        assert w[2, 2] == pytest.approx(1.0 / (4.0 * 1e-8))

    def test_floored_weight_sqrt_squares_to_weight(self):
        decomp = regularize_moments(np.diag([4.0, 1.0, 1e-12]))
        half = decomp.floored_weight_sqrt()
        np.testing.assert_allclose(half.T @ half, decomp.floored_weight(), rtol=1e-10)

    def test_zero_covariance_rejected(self):
        with pytest.raises(TooFewMoments):
            regularize_moments(np.zeros((3, 3)))


class TestExactlyIdentified:
    def test_initial_optimal_and_plain_gmm_agree(self, scenario1_ds, linear_bridge):
        basis = _basis(scenario1_ds, 4)
        f_init = fit_initial(scenario1_ds, basis, linear_bridge)
        f_opt = fit_optimal(scenario1_ds, basis, linear_bridge)
        f_rgmm = rgmm(scenario1_ds, linear_bridge)
        assert f_init.tau_hat == pytest.approx(f_opt.tau_hat, abs=1e-8)
        assert f_init.tau_hat == pytest.approx(f_rgmm.tau_hat, abs=1e-8)
        np.testing.assert_allclose(f_init.gamma_hat, f_opt.gamma_hat, atol=1e-8)

    def test_moments_are_zeroed(self, scenario1_ds, linear_bridge):
        basis = _basis(scenario1_ds, 4)
        fit = fit_optimal(scenario1_ds, basis, linear_bridge)
        assert fit.objective_value < 1e-16
        scores = joint_score(scenario1_ds, basis, linear_bridge, fit.gamma_hat, fit.tau_hat)
        np.testing.assert_allclose(scores.mean(axis=0), np.zeros(5), atol=1e-10)


class TestNoiselessRecovery:
    def test_initial_fit_recovers_true_bridge(self, scenario1_ds, linear_bridge):
        exact = replace(
            scenario1_ds, y=linear_bridge.h(scenario1_ds.w, scenario1_ds.a, scenario1_ds.x, GAMMA_STAR)
        )
        fit = fit_initial(exact, _basis(exact, 6), linear_bridge)
        np.testing.assert_allclose(fit.gamma_hat, GAMMA_STAR, atol=1e-8)
        assert fit.tau_hat == pytest.approx(0.5, abs=1e-8)

    def test_optimal_fit_rejects_degenerate_covariance(self, scenario1_ds, linear_bridge):
        # an identically zero outcome zeroes every score, so the moment
        # covariance has no positive eigenvalue to anchor the floor
        silent = replace(scenario1_ds, y=np.zeros(scenario1_ds.n))
        with pytest.raises(TooFewMoments):
            fit_optimal(silent, _basis(silent, 6), linear_bridge)


class TestFitProperties:
    def test_outcome_scale_equivariance(self, scenario2_ds, linear_bridge):
        basis = _basis(scenario2_ds, 8)
        base = fit_optimal(scenario2_ds, basis, linear_bridge)
        doubled = fit_optimal(replace(scenario2_ds, y=2.0 * scenario2_ds.y), basis, linear_bridge)
        assert doubled.tau_hat == pytest.approx(2.0 * base.tau_hat, rel=1e-6)
        assert doubled.se_tau == pytest.approx(2.0 * base.se_tau, rel=1e-6)

    def test_weight_scale_invariance(self, scenario1_ds, linear_bridge):
        basis = _basis(scenario1_ds, 6)
        w = np.eye(7)
        a = fit_with_weight(scenario1_ds, basis, linear_bridge, w)
        b = fit_with_weight(scenario1_ds, basis, linear_bridge, 5.0 * w)
        assert a.tau_hat == pytest.approx(b.tau_hat, rel=1e-10)
        assert a.se_tau == pytest.approx(b.se_tau, rel=1e-10)

    def test_whitening_invariance_of_optimal_fit(self, scenario2_ds, linear_bridge, rng):
        raw = build_basis(scenario2_ds, SieveSpec(), 9)
        scale = np.diag(0.5 + rng.random(9) * 4.0)
        rescaled = BasisMatrix(
            u=raw.u @ scale,
            whitening=raw.whitening @ scale,
            term_names=raw.term_names,
            spec=raw.spec,
        )
        a = fit_optimal(scenario2_ds, orthonormalize(raw), linear_bridge)
        b = fit_optimal(scenario2_ds, orthonormalize(rescaled), linear_bridge)
        assert a.tau_hat == pytest.approx(b.tau_hat, abs=1e-7)
        assert a.se_tau == pytest.approx(b.se_tau, abs=1e-7)

    def test_variance_matrix_symmetric_positive(self, scenario2_ds, linear_bridge):
        fit = fit_optimal(scenario2_ds, _basis(scenario2_ds, 8), linear_bridge)
        np.testing.assert_allclose(fit.v_hat, fit.v_hat.T, atol=1e-10)
        assert np.all(np.linalg.eigvalsh(fit.v_hat) > 0)
        assert fit.se_tau > 0

    def test_deterministic_across_calls(self, scenario2_ds, linear_bridge):
        basis = _basis(scenario2_ds, 12)
        a = fit_optimal(scenario2_ds, basis, linear_bridge)
        b = fit_optimal(scenario2_ds, basis, linear_bridge)
        assert a.tau_hat == b.tau_hat
        assert a.se_tau == b.se_tau

    def test_variance_refresh_is_idempotent(self, scenario1_ds, linear_bridge):
        basis = _basis(scenario1_ds, 6)
        fit = fit_optimal(scenario1_ds, basis, linear_bridge)
        again = variance(fit, scenario1_ds, basis, linear_bridge)
        assert again.se_tau == pytest.approx(fit.se_tau, rel=1e-12)

    def test_report_serialization_keys(self, scenario1_ds, linear_bridge):
        import json

        fit = fit_optimal(scenario1_ds, _basis(scenario1_ds, 6), linear_bridge)
        payload = json.loads(fit.to_json())
        for key in ("tau_hat", "se_tau", "ci95", "gamma_hat", "se_gamma", "k", "k1", "n"):
            assert key in payload
        assert payload["k"] == 6
        assert payload["n"] == scenario1_ds.n


class TestContinuousUpdatePolish:
    @pytest.fixture(scope="class")
    def polished_case(self):
        # K* sits at the cap of 12 in this heteroskedastic cell, so the
        # polish runs, and in this replication it moves the estimates.
        ds = generate(ScenarioConfig("II", 800), 0, 0)
        return ds, _basis(ds, 12), OutcomeBridge.linear(1, 1)

    def test_stencil_is_exact_on_a_quadratic(self, rng):
        p = 5
        root = rng.normal(size=(p, p))
        a, b = root @ root.T + np.eye(p), rng.normal(size=p)
        x = rng.normal(size=p)

        def quadratic(v):
            return float(0.5 * v @ a @ v + b @ v)

        grad, hess = gmm._central_differences(quadratic, x, np.full(p, 0.1), quadratic(x))
        np.testing.assert_allclose(grad, b + a @ x, atol=1e-9)
        np.testing.assert_allclose(hess, a, atol=1e-9)

    def test_non_finite_start_costs_one_evaluation(self, polished_case, monkeypatch):
        ds, basis, bridge = polished_case
        calls = []

        def infinite(*args):
            def objective(beta):
                calls.append(1)
                return float("inf")

            return objective

        monkeypatch.setattr(gmm, "_continuous_update_objective", infinite)
        start = np.ones(bridge.n_params + 1)
        beta, value = gmm._refine_continuous_update(ds, basis, bridge, start, 1e-8)
        assert beta is start and value == float("inf")
        assert len(calls) == 1

    def test_objective_evaluations_bounded(self, polished_case, monkeypatch):
        ds, basis, bridge = polished_case
        build = gmm._continuous_update_objective
        calls = []

        def counted(*args):
            objective = build(*args)

            def wrapped(beta):
                calls.append(1)
                return objective(beta)

            return wrapped

        monkeypatch.setattr(gmm, "_continuous_update_objective", counted)
        fit_optimal(ds, basis, bridge)
        p = bridge.n_params + 1
        assert 0 < len(calls) <= 2 * p * p + 2 * p + 1 + gmm._POLISH_BACKTRACKS

    def test_polish_lowers_the_continuous_update_objective(self, polished_case):
        ds, basis, bridge = polished_case
        init = fit_initial(ds, basis, bridge)
        scores = joint_score(ds, basis, bridge, init.gamma_hat, init.tau_hat)
        decomp = regularize_moments(estimate_upsilon(scores))
        two_step, _, _ = gmm._solve_linear(ds, basis.u, bridge, decomp.floored_weight_sqrt())
        fit = fit_optimal(ds, basis, bridge)
        polished = np.r_[fit.gamma_hat, fit.tau_hat]
        assert not np.array_equal(polished, two_step)
        objective = gmm._continuous_update_objective(ds, basis, bridge, gmm.DEFAULT_REL_THRESHOLD)
        assert objective(polished) < objective(two_step)
        assert fit.objective_value == objective(polished)


class TestInference:
    def test_confidence_interval_oracle(self, scenario1_ds, linear_bridge):
        fit = fit_optimal(scenario1_ds, _basis(scenario1_ds, 4), linear_bridge)
        synthetic = replace(fit, tau_hat=0.5, se_tau=0.1)
        lo, hi = confidence_interval(synthetic)
        assert lo == pytest.approx(0.304, abs=5e-4)
        assert hi == pytest.approx(0.696, abs=5e-4)
        assert hi - lo == pytest.approx(2 * 1.959963984540054 * 0.1, rel=1e-12)

    def test_interval_level_adjusts(self, scenario1_ds, linear_bridge):
        fit = fit_optimal(scenario1_ds, _basis(scenario1_ds, 4), linear_bridge)
        lo95, hi95 = confidence_interval(fit, level=0.95)
        lo90, hi90 = confidence_interval(fit, level=0.90)
        assert hi90 - lo90 < hi95 - lo95

    def test_wald_statistic_and_decision(self, scenario1_ds, linear_bridge):
        fit = fit_optimal(scenario1_ds, _basis(scenario1_ds, 4), linear_bridge)
        synthetic = replace(fit, tau_hat=0.5, se_tau=0.2)
        stat, reject = wald_test(synthetic)
        assert stat == pytest.approx(2.5, rel=1e-12)
        assert reject
        stat0, reject0 = wald_test(synthetic, null_tau=0.5)
        assert stat0 == 0.0
        assert not reject0

    def test_wald_critical_value_is_two_sided_5pct(self):
        assert WALD_CRITICAL_5PCT == pytest.approx(1.959963984540054, rel=1e-12)

    def test_zero_se_rejected(self, scenario1_ds, linear_bridge):
        fit = fit_optimal(scenario1_ds, _basis(scenario1_ds, 4), linear_bridge)
        with pytest.raises(SingularVariance):
            wald_test(replace(fit, se_tau=0.0))
