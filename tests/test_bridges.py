"""Bridge-function families and their closed-form true parameters."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import TreatmentBridge, finite_difference
from proxigmm import (
    DgpCoefficients,
    OutcomeBridge,
    ScenarioConfig,
    generate,
    true_bridge_params,
)
from proxigmm.errors import DegenerateConfounding, DimensionMismatch

GAMMA_STAR = np.array([0.0, 1.5, 0.5, 2.0])
THETA_STAR = np.array([-0.475, 0.5, -0.25, 0.25])


class TestTrueBridgeParams:
    def test_default_outcome_bridge_coefficients(self):
        gamma, _ = true_bridge_params()
        np.testing.assert_allclose(gamma, GAMMA_STAR, atol=1e-12)

    def test_default_treatment_bridge_coefficients(self):
        _, theta = true_bridge_params()
        np.testing.assert_allclose(theta, THETA_STAR, atol=1e-12)

    def test_true_ate_is_treatment_coefficient(self):
        assert DgpCoefficients().true_ate == 0.5
        gamma, _ = true_bridge_params()
        assert gamma[2] == DgpCoefficients().true_ate

    def test_no_confounding_recovers_raw_outcome_equation(self):
        coef = DgpCoefficients(
            treatment_logit=(-0.1, 0.5, 0.0),
            outcome=(1.0, 0.5, 0.5, 1.0, 0.0),
        )
        gamma, theta = true_bridge_params(coef)
        np.testing.assert_allclose(gamma, [1.0, 0.5, 0.5, 1.0], atol=1e-12)
        assert theta[1] == 0.0

    @pytest.mark.parametrize(
        "coef",
        [
            DgpCoefficients(w_proxy=(1.0, -1.0, 0.0)),
            DgpCoefficients(z_proxy=(0.5, 1.0, 0.5, 0.0)),
        ],
    )
    def test_proxy_without_confounder_loading_rejected(self, coef):
        with pytest.raises(DegenerateConfounding):
            true_bridge_params(coef)


class TestOutcomeBridge:
    def test_value_at_true_params(self, linear_bridge):
        h = linear_bridge.grad(w=[1.0], a=[1.0], x=[0.0]) @ GAMMA_STAR
        assert h[0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_params_give_zero_bridge(self, linear_bridge):
        h = linear_bridge.grad(w=[3.0, -1.0], a=[1.0, 0.0], x=[2.0, 0.5]) @ np.zeros(4)
        np.testing.assert_array_equal(h, [0.0, 0.0])

    def test_feature_names(self, linear_bridge):
        # The features are (const, w1, a, x1), in that order.
        np.testing.assert_array_equal(
            linear_bridge.grad(w=[3.0], a=[1.0], x=[2.0]), [[1.0, 3.0, 1.0, 2.0]]
        )
        assert linear_bridge.n_params == 4

    def test_contrast_is_treatment_coefficient_for_linear_family(self, linear_bridge):
        w = np.array([0.3, -2.0, 5.0])
        x = np.array([1.0, 0.0, -1.0])
        ones = np.ones(3)
        contrast = (linear_bridge.grad(w, ones, x) - linear_bridge.grad(w, 0.0 * ones, x)) @ GAMMA_STAR
        np.testing.assert_allclose(contrast, np.full(3, 0.5), atol=1e-12)

    def test_gradient_matches_finite_differences(self, linear_bridge, rng):
        w, a, x = rng.normal(size=3), np.array([1.0, 0.0, 1.0]), rng.normal(size=3)
        gamma = rng.normal(size=4)
        grad = linear_bridge.grad(w, a, x)
        fd = finite_difference(lambda g: linear_bridge.grad(w, a, x) @ g, gamma)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)

    def test_wrong_param_length_rejected(self, linear_bridge):
        with pytest.raises(DimensionMismatch, match="4"):
            linear_bridge._checked([1.0, 2.0])

    def test_residual_uncorrelated_with_instruments_at_true_params(self):
        ds = generate(ScenarioConfig(scenario="I", n=200_000), 7, 0)
        bridge = OutcomeBridge.linear(1, 1)
        resid = ds.y - bridge.grad(ds.w, ds.a, ds.x) @ GAMMA_STAR
        inst = np.column_stack([np.ones(ds.n), ds.z, ds.a, ds.x])
        moments = inst * resid[:, None]
        mean = moments.mean(axis=0)
        mcse = moments.std(axis=0, ddof=1) / np.sqrt(ds.n)
        assert np.all(np.abs(mean) < 4 * mcse + 1e-12)


class TestTreatmentBridge:
    def test_value_at_true_params(self):
        q = TreatmentBridge().q(z=[0.0], a=[1.0], x=[0.0], params=THETA_STAR)
        assert q[0] == pytest.approx(1.0 + np.exp(0.725), rel=1e-12)

    def test_zero_params_give_constant_two(self):
        q = TreatmentBridge().q(z=[1.0, -2.0], a=[0.0, 1.0], x=[0.5, 3.0], params=np.zeros(4))
        np.testing.assert_allclose(q, [2.0, 2.0], atol=1e-12)

    def test_values_always_above_one(self, rng):
        q = TreatmentBridge().q(
            z=rng.normal(size=50), a=(rng.random(50) < 0.5).astype(float),
            x=rng.normal(size=50), params=rng.normal(size=4),
        )
        assert np.all(q > 1.0)

    def test_sign_flips_with_arm(self):
        theta = np.array([0.3, 0.0, 0.0, 0.0])
        bridge = TreatmentBridge()
        q0 = bridge.q(z=[0.0], a=[0.0], x=[0.0], params=theta)[0]
        assert q0 == pytest.approx(1.0 + np.exp(0.3))
        q1 = bridge.q(z=[0.0], a=[1.0], x=[0.0], params=theta)[0]
        assert q1 == pytest.approx(1.0 + np.exp(-(0.3 + 0.0)))

    def test_wrong_param_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            TreatmentBridge().q([0.0], [1.0], [0.0], params=[1.0])

    def test_reweighting_recovers_population_means(self):
        # the defining property: within each arm, q-weighted averages of
        # functions of (w, x) match their unconditional averages
        ds = generate(ScenarioConfig(scenario="I", n=400_000), 11, 0)
        q = TreatmentBridge().q(ds.z, ds.a, ds.x, THETA_STAR)
        g = np.column_stack([np.ones(ds.n), ds.w, ds.x, ds.w**2])
        for arm in (0.0, 1.0):
            ind = (ds.a == arm).astype(float)
            diff = (ind * q)[:, None] * g - g
            mean = diff.mean(axis=0)
            mcse = diff.std(axis=0, ddof=1) / np.sqrt(ds.n)
            assert np.all(np.abs(mean) < 5 * mcse), (arm, mean, mcse)
