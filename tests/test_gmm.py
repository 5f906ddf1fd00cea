"""Joint GMM machinery: scores, spectral regularization, fits, inference."""

from __future__ import annotations

import itertools
import warnings
from dataclasses import replace
from types import SimpleNamespace

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
    select_k,
    true_bridge_params,
    variance,
    wald_test,
)
from proxigmm import gmm
from proxigmm.errors import RankDeficientJacobian, SingularVariance, TooFewMoments
from proxigmm.gmm import WALD_CRITICAL_5PCT

GAMMA_STAR, _ = true_bridge_params()


def _basis(ds, k):
    return orthonormalize(build_basis(ds, SieveSpec(), k))


def _interacted_bridge():
    # An a·w feature makes the treatment contrast vary across units, which
    # the default bridge's contrast does not.
    def feats(w, a, x):
        base = OutcomeBridge.linear(1, 1).grad(w, a, x)
        return np.column_stack([base, base[:, 2] * base[:, 1]])

    return OutcomeBridge(n_params=5, grad_fn=feats)


def _single_row_dataset():
    from proxigmm import Dataset

    return Dataset(y=[3.0], a=[1.0], z=[[0.7]], w=[[2.0]], x=[[0.5]])


class TestJointScore:
    def test_single_observation_oracle(self):
        ds = _single_row_dataset()
        bridge = OutcomeBridge.linear(1, 1)
        raw = BasisMatrix(u=np.array([[1.0, 2.0]]), term_names=("1", "t"))
        gamma = np.array([0.5, 1.0, 0.25, -1.0])
        # h = 0.5 + 2.0 + 0.25 - 0.5 = 2.25, residual = 0.75, contrast = 0.25
        scores = joint_score(ds, raw, bridge, gamma, tau=0.6)
        np.testing.assert_allclose(scores, [[0.75, 1.5, 0.35]], atol=1e-12)
        assert scores.shape == (1, 3)

    def test_contrast_column_centers_exactly_at_mean_contrast(self, scenario1_ds, linear_bridge):
        basis = _basis(scenario1_ds, 6)
        gamma = np.array([0.1, 1.2, 0.4, 1.5])
        w, x, ones = scenario1_ds.w, scenario1_ds.x, np.ones(scenario1_ds.n)
        contrast = linear_bridge.grad(w, ones, x) @ gamma - linear_bridge.grad(w, 0.0 * ones, x) @ gamma
        tau = float(contrast.mean())
        scores = joint_score(scenario1_ds, basis, linear_bridge, gamma, tau)
        np.testing.assert_allclose(scores[:, -1], np.zeros(scenario1_ds.n), atol=1e-14)

    def test_upsilon_matches_direct_product(self, scenario1_ds, linear_bridge):
        basis = _basis(scenario1_ds, 5)
        scores = joint_score(scenario1_ds, basis, linear_bridge, GAMMA_STAR, 0.5)
        direct = scores.T @ scores / scenario1_ds.n
        np.testing.assert_allclose(estimate_upsilon(scores), direct, atol=1e-14)


class TestRegularizeMoments:
    def test_near_null_direction_dropped_from_count(self):
        decomp = regularize_moments(np.diag([1.0, 1.0, 1e-12]))
        assert decomp.k1 == 2
        assert decomp.threshold_used == pytest.approx(1e-8)

    def test_identity_keeps_every_direction(self):
        decomp = regularize_moments(np.eye(7))
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
        decomp = regularize_moments(np.diag([4.0, 1.0, 1e-12]))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_rejected(self, bad):
        # LAPACK's eigh returns finite garbage for a NaN off the diagonal.
        upsilon = np.eye(3)
        upsilon[0, 2] = upsilon[2, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            regularize_moments(upsilon)


class TestLeastSquares:
    # The solve scales each column of the weighted Jacobian by its
    # feature's kept scale before its SVD, so the rank counts singular
    # values above max(n, q) eps times the largest of the scaled system: a
    # feature in other units has its scale in those units, and scale is
    # not rank.
    @staticmethod
    def _system(seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(7, 5)), rng.normal(size=7)

    @staticmethod
    def _moments(jac, const, scale=None):
        """A moment system averaging over 7 rows with Jacobian ``jac``,
        constant ``const`` and column scales ``scale`` (default 1)."""
        scale = np.ones(jac.shape[1]) if scale is None else scale
        return gmm._Moments(SimpleNamespace(scale=scale), np.empty((7, 0)), jac, const)

    def test_a_dependent_column_in_any_units_is_rank_deficient(self):
        for seed, scale in itertools.product(range(20), (1e-16, 1.0, 1e16)):
            jac, const = self._system(seed)
            jac[:, 4] = (jac[:, 0] - 2.0 * jac[:, 1]) * scale
            units = np.r_[1.0, 1.0, 1.0, 1.0, scale]
            with pytest.raises(RankDeficientJacobian, match="rank 4 < 5"):
                gmm._least_squares(self._moments(jac, const, units), np.eye(7))

    def test_an_independent_column_at_1e_16_scale_is_full_rank(self):
        # The fit in the new units is the fit in the old ones with the
        # coefficient on the rescaled column divided by its scale, and so
        # is the inverse H'H of J'J, row and column.
        jac, const = self._system(0)
        beta, obj, (_, half_t) = gmm._least_squares(self._moments(jac, const), np.eye(7))
        want = np.linalg.lstsq(jac, -const, rcond=None)[0]
        np.testing.assert_allclose(beta, want, rtol=1e-12)
        inverse = half_t.T @ half_t
        np.testing.assert_allclose(inverse, np.linalg.inv(jac.T @ jac), rtol=1e-12)
        units = np.r_[1.0, 1.0, 1.0, 1.0, 1e-16]
        scaled = gmm._least_squares(self._moments(jac * units, const, units), np.eye(7))
        np.testing.assert_allclose(scaled[0] * units, beta, rtol=1e-14)
        assert scaled[1] == pytest.approx(obj, rel=1e-14)
        scaled_half_t = scaled[2][1]
        np.testing.assert_allclose(
            scaled_half_t.T @ scaled_half_t * np.outer(units, units), inverse, rtol=1e-12
        )

    def test_weight_that_drops_moments_leaves_the_fit_unidentified(
        self, scenario1_ds, linear_bridge
    ):
        # Three weighted moments for five parameters (four bridge, one effect).
        weight = np.diag([1.0, 1.0, 1.0, 0.0, 0.0])
        with pytest.raises(RankDeficientJacobian, match="rank 3 < 5"):
            fit_with_weight(scenario1_ds, _basis(scenario1_ds, 4), linear_bridge, weight)

    def test_non_finite_weight_rejected(self, scenario1_ds, linear_bridge):
        weight = np.eye(5)
        weight[1, 3] = weight[3, 1] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            fit_with_weight(scenario1_ds, _basis(scenario1_ds, 4), linear_bridge, weight)

    def test_non_finite_system_rejected(self):
        # LAPACK's SVD least squares can spin without end on a non-finite
        # matrix, so the check runs before it. A NaN right-hand side is used
        # here, which without the check returns NaN instead of hanging.
        with pytest.raises(ValueError, match="infs or NaNs"):
            gmm._least_squares(self._moments(np.eye(3), np.array([1.0, np.nan, 1.0])), np.eye(3))


def _textbook_sandwich(ds, basis, bridge, fit, weight):
    """(J'WJ)⁻¹J'WΥWJ(J'WJ)⁻¹ for the linear bridge's moments on ``basis``
    at ``fit``'s estimates, formed with ``np.linalg.inv``."""
    u, feats = basis.u, bridge.grad(ds.w, ds.a, ds.x)
    n, k = u.shape
    p = feats.shape[1]
    jac = np.zeros((k + 1, p + 1))
    jac[:k, :p] = -(u.T @ feats) / n
    jac[k, 2] = -1.0  # the treatment contrast of (1, w, a, x) is e_a
    jac[k, p] = 1.0
    upsilon = estimate_upsilon(joint_score(ds, basis, bridge, fit.gamma_hat, fit.tau_hat))
    bread = np.linalg.inv(jac.T @ weight @ jac)
    return bread @ (jac.T @ weight @ upsilon @ weight @ jac) @ bread


@pytest.mark.parametrize("scenario, n", [("I", 400), ("II", 800)])
class TestFixedWeightSandwich:
    # The fit's variance R'R/n, with R the scores projected through the
    # solve's factors W½UH, is the textbook sandwich.
    def test_exactly_identified_fit_is_the_textbook_sandwich(self, scenario, n, linear_bridge):
        ds = generate(ScenarioConfig(scenario, n), 3, 0)
        basis = _basis(ds, linear_bridge.n_params)
        fit = fit_initial(ds, basis, linear_bridge)
        want = _textbook_sandwich(ds, basis, linear_bridge, fit, np.eye(5))
        np.testing.assert_allclose(fit.v_hat, want, rtol=1e-10)

    def test_a_random_weight_gives_the_textbook_sandwich(self, scenario, n, linear_bridge):
        ds = generate(ScenarioConfig(scenario, n), 3, 0)
        basis = _basis(ds, 6)
        root = np.random.default_rng(7).standard_normal((7, 7))
        weight = root @ root.T + 0.1 * np.eye(7)
        fit = fit_with_weight(ds, basis, linear_bridge, weight)
        want = _textbook_sandwich(ds, basis, linear_bridge, fit, weight)
        np.testing.assert_allclose(fit.v_hat, want, rtol=1e-10)


class TestWeightUnits:
    # fit_with_weight's positive semidefinite check is relative to the
    # weight's largest eigenvalue alone, so it holds in any units of W.
    @pytest.mark.parametrize("units", [1.0, 1e-12, 1e12])
    def test_an_indefinite_weight_is_rejected_in_any_units(self, units, linear_bridge):
        ds = generate(ScenarioConfig("I", 400), 3, 0)
        weight = units * (np.eye(7) - 3.0 * np.outer(np.eye(7)[0], np.eye(7)[0]))
        with pytest.raises(SingularVariance, match="not positive semidefinite"):
            fit_with_weight(ds, _basis(ds, 6), linear_bridge, weight)

    @pytest.mark.parametrize("units", [1e-12, 1e12])
    def test_a_definite_weight_fits_alike_in_any_units(self, units, linear_bridge):
        ds = generate(ScenarioConfig("I", 400), 3, 0)
        basis = _basis(ds, 6)
        root = np.random.default_rng(7).standard_normal((7, 7))
        weight = root @ root.T + 0.1 * np.eye(7)
        base = fit_with_weight(ds, basis, linear_bridge, weight)
        scaled = fit_with_weight(ds, basis, linear_bridge, units * weight)
        np.testing.assert_allclose(scaled.gamma_hat, base.gamma_hat, rtol=1e-12)
        assert scaled.tau_hat == pytest.approx(base.tau_hat, rel=1e-12)
        assert scaled.se_tau == pytest.approx(base.se_tau, rel=1e-12)


class TestExactlyIdentified:
    def test_initial_optimal_and_plain_gmm_agree(self, scenario1_ds, linear_bridge):
        basis = _basis(scenario1_ds, 4)
        f_init = fit_initial(scenario1_ds, basis, linear_bridge)
        f_opt = fit_optimal(scenario1_ds, basis, linear_bridge)
        f_rgmm = rgmm(scenario1_ds)
        assert f_init.tau_hat == pytest.approx(f_opt.tau_hat, abs=1e-8)
        assert f_init.tau_hat == pytest.approx(f_rgmm.tau_hat, abs=1e-8)
        np.testing.assert_allclose(f_init.gamma_hat, f_opt.gamma_hat, atol=1e-8)

    def test_moments_are_zeroed(self, scenario1_ds, linear_bridge):
        basis = _basis(scenario1_ds, 4)
        fit = fit_optimal(scenario1_ds, basis, linear_bridge)
        assert fit.objective_value < 1e-16
        scores = joint_score(scenario1_ds, basis, linear_bridge, fit.gamma_hat, fit.tau_hat)
        np.testing.assert_allclose(scores.mean(axis=0), np.zeros(5), atol=1e-10)


@pytest.mark.parametrize("scenario, n", [("I", 400), ("II", 800)])
def test_an_exactly_identified_fit_is_fit_initial(scenario, n, linear_bridge, monkeypatch):
    # At K = p the identity-weight estimates zero every moment, so no
    # weight can move them, and their sandwich J^-1 Upsilon J^-T needs no
    # weight either: the fit is fit_initial bit for bit, floors nothing and
    # decomposes no moment covariance.
    ds = generate(ScenarioConfig(scenario, n), 5, 0)
    basis = _basis(ds, linear_bridge.n_params)
    init = fit_initial(ds, basis, linear_bridge)
    calls = []
    real = gmm.regularize_moments
    monkeypatch.setattr(gmm, "regularize_moments", lambda ups: calls.append(1) or real(ups))
    fit = fit_optimal(ds, basis, linear_bridge)
    assert calls == []
    assert fit.tau_hat == init.tau_hat
    np.testing.assert_array_equal(fit.gamma_hat, init.gamma_hat)
    assert fit.se_tau == init.se_tau
    np.testing.assert_array_equal(fit.se_gamma, init.se_gamma)
    assert fit.k1 == init.k1 == linear_bridge.n_params + 1
    assert fit.objective_value == init.objective_value


class TestNoiselessRecovery:
    def test_initial_fit_recovers_true_bridge(self, scenario1_ds, linear_bridge):
        exact = replace(
            scenario1_ds,
            y=linear_bridge.grad(scenario1_ds.w, scenario1_ds.a, scenario1_ds.x) @ GAMMA_STAR,
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
        rescaled = BasisMatrix(u=raw.u @ scale, term_names=raw.term_names)
        a = fit_optimal(scenario2_ds, orthonormalize(raw), linear_bridge)
        b = fit_optimal(scenario2_ds, orthonormalize(rescaled), linear_bridge)
        assert a.tau_hat == pytest.approx(b.tau_hat, abs=1e-7)
        assert a.se_tau == pytest.approx(b.se_tau, abs=1e-7)

    def test_first_step_computes_no_variance(self, scenario2_ds, linear_bridge, monkeypatch):
        basis = _basis(scenario2_ds, 8)
        init = fit_initial(scenario2_ds, basis, linear_bridge)
        moments = gmm._Moments.build(scenario2_ds, basis.u, linear_bridge)
        beta, _, _ = gmm._least_squares(moments, np.eye(9))
        np.testing.assert_array_equal(beta, np.r_[init.gamma_hat, init.tau_hat])
        want = fit_optimal(scenario2_ds, basis, linear_bridge)

        def refuse(*args, **kwargs):
            raise AssertionError("the first step needs estimates only")

        monkeypatch.setattr(gmm, "fit_with_weight", refuse)
        got = fit_optimal(scenario2_ds, basis, linear_bridge)
        assert (got.tau_hat, got.se_tau) == (want.tau_hat, want.se_tau)
        np.testing.assert_array_equal(got.gamma_hat, want.gamma_hat)

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

    @pytest.fixture(scope="class")
    def polished_moments(self, polished_case):
        ds, basis, bridge = polished_case
        fit = fit_optimal(ds, basis, bridge)
        return gmm._Moments.build(ds, basis.u, bridge), np.r_[fit.gamma_hat, fit.tau_hat]

    @pytest.mark.parametrize("interacted", [False, True], ids=["linear", "interacted"])
    def test_gram_moments_match_the_scores(self, polished_case, interacted, rng):
        ds, basis, bridge = polished_case
        if interacted:
            bridge = _interacted_bridge()
        fit = fit_optimal(ds, basis, bridge)
        beta_hat = np.r_[fit.gamma_hat, fit.tau_hat]
        moments = gmm._Moments.build(ds, basis.u, bridge)
        points = np.vstack([beta_hat, beta_hat + rng.normal(size=(3, beta_hat.size))])
        g_bars, upsilons = gmm._gram_moments(moments)(points)
        values = gmm._continuous_update_objective(moments, gmm._gram_moments(moments))(points)
        for beta, g_bar, upsilon, value in zip(points, g_bars, upsilons, values):
            # Reference: the covariance and floored quadratic form computed
            # from the n scores at each point.
            scores = moments.scores(beta)
            direct = estimate_upsilon(scores)
            scale = np.max(np.abs(direct))
            np.testing.assert_allclose(upsilon, direct, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(g_bar, scores.mean(axis=0), rtol=0, atol=1e-12 * scale)
            want = g_bar @ regularize_moments(direct).floored_weight() @ g_bar
            assert value == pytest.approx(want, rel=1e-10)

    def test_batch_equals_points_one_at_a_time(self, polished_moments, rng):
        moments, beta_hat = polished_moments
        points = beta_hat + 0.05 * rng.normal(size=(9, beta_hat.size))
        objective = gmm._continuous_update_objective(moments, gmm._gram_moments(moments))
        one_at_a_time = [objective(beta[None])[0] for beta in points]
        np.testing.assert_array_equal(objective(points), one_at_a_time)

    @pytest.mark.parametrize("interacted", [False, True], ids=["linear", "interacted"])
    def test_the_certified_objective_is_the_floored_quadratic_form(
        self, polished_case, interacted, monkeypatch
    ):
        # Every point of the polish's stencil around the fit: the certified
        # points' ‖L⁻¹ḡ‖² and the others' floored eigendecomposition both
        # equal the floored quadratic form of the covariance of the n scores.
        ds, basis, bridge = polished_case
        if interacted:
            bridge = _interacted_bridge()
        fit = fit_optimal(ds, basis, bridge)
        beta_hat = np.r_[fit.gamma_hat, fit.tau_hat]
        if interacted:
            # Nothing is floored near the fit of a bridge whose contrast
            # varies across units. With no a·w term the contrast score is
            # the same for every unit, as the linear bridge's is, so the
            # floor binds again at the centre and both branches run.
            beta_hat[4] = 0.0
        steps = gmm._POLISH_FD_REL * np.maximum(
            np.abs(beta_hat), gmm._POLISH_FD_FLOOR * np.max(np.abs(beta_hat))
        )
        stencils = []
        gmm._central_differences(
            lambda points: stencils.append(points) or np.zeros(len(points)), beta_hat, steps
        )
        (points,) = stencils
        branches = {"certified": 0, "floored": 0}
        certified_forms, floored_forms = gmm._certified_forms, gmm._floored_forms

        def count_certified(*args):
            certified, values = certified_forms(*args)
            branches["certified"] += int(certified.sum())
            return certified, values

        def count_floored(g_bar, upsilon):
            branches["floored"] += len(g_bar)
            return floored_forms(g_bar, upsilon)

        monkeypatch.setattr(gmm, "_certified_forms", count_certified)
        monkeypatch.setattr(gmm, "_floored_forms", count_floored)
        moments = gmm._Moments.build(ds, basis.u, bridge)
        values = gmm._continuous_update_objective(moments, gmm._gram_moments(moments))(points)
        assert branches["certified"] > 0 and branches["floored"] > 0
        assert sum(branches.values()) == len(points)
        for beta, value in zip(points, values):
            scores = moments.scores(beta)
            g_bar = scores.mean(axis=0)
            want = g_bar @ regularize_moments(estimate_upsilon(scores)).floored_weight() @ g_bar
            assert value == pytest.approx(want, rel=1e-10)

    def test_polish_never_recomputes_the_scores(self, polished_case, polished_moments, monkeypatch):
        # An overidentified fit builds one Gram and reads from it the
        # first-step covariance, every objective evaluation of the polish
        # and the covariance of its sandwich.
        ds, basis, bridge = polished_case
        moments, beta_hat = polished_moments
        objective = gmm._continuous_update_objective(moments, gmm._gram_moments(moments))
        want = objective(beta_hat[None])
        want_fit = fit_optimal(ds, basis, bridge)

        def refuse(self, beta):
            raise AssertionError("an overidentified fit reads the Gram, not the n scores")

        grams = []
        build_gram = gmm._gram_moments
        monkeypatch.setattr(gmm._Moments, "scores", refuse)
        monkeypatch.setattr(gmm, "_gram_moments", lambda m: grams.append(1) or build_gram(m))
        np.testing.assert_array_equal(objective(beta_hat[None]), want)
        beta, value = gmm._refine_continuous_update(
            moments, beta_hat + 0.01, build_gram(moments)
        )
        assert np.isfinite(value) and not np.array_equal(beta, beta_hat + 0.01)
        fit = fit_optimal(ds, basis, bridge)
        assert grams == [1]
        assert (fit.tau_hat, fit.se_tau, fit.k1) == (want_fit.tau_hat, want_fit.se_tau, want_fit.k1)
        np.testing.assert_array_equal(fit.v_hat, want_fit.v_hat)

    def test_non_finite_points_read_inf_silently(self, polished_moments, scenario1_ds):
        moments, beta_hat = polished_moments
        overflow = beta_hat.copy()
        overflow[1] = 1e200
        points = np.vstack([beta_hat, overflow, np.full(beta_hat.size, np.nan), beta_hat])
        # An identically zero outcome zeroes every score at beta = 0, so the
        # covariance there has no positive eigenvalue.
        silent = replace(scenario1_ds, y=np.zeros(scenario1_ds.n))
        silent_moments = gmm._Moments.build(
            silent, _basis(silent, 6).u, OutcomeBridge.linear(1, 1)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = gmm._continuous_update_objective(moments, gmm._gram_moments(moments))(points)
            degenerate = gmm._continuous_update_objective(
                silent_moments, gmm._gram_moments(silent_moments)
            )(
                np.zeros((2, beta_hat.size))
            )
        assert np.all(np.isfinite(values[[0, 3]]))
        assert values[0] == values[3]
        assert np.all(values[[1, 2]] == np.inf)
        assert np.all(degenerate == np.inf)

    def test_a_point_that_fails_the_screen_factors_nothing(self, polished_moments, monkeypatch):
        # At the linear bridge's fit the contrast score τ − γ_a is at
        # rounding level, so its diagonal entry of Υ is below the screen's
        # floor: the point is not factored and reads its floored
        # eigendecomposition.
        moments, beta_hat = polished_moments
        g_bar, upsilon = gmm._gram_moments(moments)(beta_hat[None])
        diagonal = np.diagonal(upsilon[0])
        assert np.any(diagonal <= gmm.SPECTRAL_FLOOR * diagonal.sum())
        want = gmm._floored_forms(g_bar, upsilon)

        def refuse(*args):
            raise AssertionError("a point that fails the screen is not factored")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        got = gmm._continuous_update_objective(moments, gmm._gram_moments(moments))(beta_hat[None])
        np.testing.assert_array_equal(got, want)

    def test_stencil_is_exact_on_a_quadratic(self, rng):
        p = 5
        root = rng.normal(size=(p, p))
        a, b = root @ root.T + np.eye(p), rng.normal(size=p)
        x = rng.normal(size=p)
        points = []

        def quadratic(v):
            points.append(len(v))
            return 0.5 * np.einsum("bi,ij,bj->b", v, a, v) + v @ b

        value, grad, hess = gmm._central_differences(quadratic, x, np.full(p, 0.1))
        assert value == quadratic(x[None])[0]
        np.testing.assert_allclose(grad, b + a @ x, atol=1e-9)
        np.testing.assert_allclose(hess, a, atol=1e-9)
        # The start point and the whole stencil in one batch, then the check.
        assert points == [2 * p * p + 2 * p + 1, 1]

    @pytest.mark.parametrize("p", range(1, 7))
    def test_stencil_evaluates_each_point_once(self, rng, p):
        # One call evaluates x, x ± h_i e_i, x ± 2 h_i e_i and
        # x ± h_i e_i ± h_j e_j (i > j), each once, in any order and up to
        # rounding, and x itself exactly.
        x = rng.normal(size=p)
        steps = rng.uniform(1e-3, 1.0, size=p)
        shift = np.diag(steps)
        expected = [x] + [x + s * shift[i] for i in range(p) for s in (1, -1, 2, -2)]
        expected += [
            x + si * shift[i] + sj * shift[j]
            for i in range(p)
            for j in range(i)
            for si in (1, -1)
            for sj in (1, -1)
        ]
        expected = np.array(expected)
        calls = []

        def record(points):
            calls.append(points)
            return np.zeros(len(points))

        gmm._central_differences(record, x, steps)
        (points,) = calls
        assert points.shape == expected.shape == (2 * p * p + 2 * p + 1, p)
        assert any(np.array_equal(point, x) for point in points)
        tol = 1e-15 * np.abs(expected).max()
        close = np.all(np.abs(points[:, None] - expected[None]) <= tol, axis=2)
        # A bijection: every evaluated point is one expected point, and back.
        assert np.all(close.sum(axis=0) == 1) and np.all(close.sum(axis=1) == 1)

    def test_non_finite_start_costs_one_evaluation(self, polished_case, monkeypatch):
        ds, basis, bridge = polished_case
        points = []

        def infinite(*args):
            def objective(betas):
                points.append(len(betas))
                return np.full(len(betas), np.inf)

            return objective

        monkeypatch.setattr(gmm, "_continuous_update_objective", infinite)
        start = np.ones(bridge.n_params + 1)
        moments = gmm._Moments.build(ds, basis.u, bridge)
        beta, value = gmm._refine_continuous_update(moments, start, gmm._gram_moments(moments))
        assert beta is start and value == float("inf")
        # The start rides in the stencil's batch; nothing is tried after it.
        p = bridge.n_params + 1
        assert points == [2 * p * p + 2 * p + 1]

    @staticmethod
    def _count_points(monkeypatch) -> list[int]:
        """Record the number of points of every objective evaluation."""
        build = gmm._continuous_update_objective
        points = []

        def counted(*args):
            objective = build(*args)

            def wrapped(betas):
                points.append(len(betas))
                return objective(betas)

            return wrapped

        monkeypatch.setattr(gmm, "_continuous_update_objective", counted)
        return points

    def test_objective_evaluations_bounded(self, polished_case, monkeypatch):
        ds, basis, bridge = polished_case
        points = self._count_points(monkeypatch)
        fit_optimal(ds, basis, bridge)
        p = bridge.n_params + 1
        assert 0 < sum(points) <= 2 * p * p + 2 * p + 1 + gmm._POLISH_BACKTRACKS

    def test_bridge_features_built_once_per_polish(self, polished_case, monkeypatch):
        ds, basis, bridge = polished_case
        points = self._count_points(monkeypatch)
        feature_builds = {}
        for k in (bridge.n_params, basis.k):
            calls = []

            def counted(*args, _calls=calls):
                _calls.append(1)
                return bridge.grad_fn(*args)

            fit_optimal(ds, _basis(ds, k), replace(bridge, grad_fn=counted))
            feature_builds[k] = len(calls)
        # The exactly identified fit skips the polish; the polished one
        # evaluates the objective at dozens of points. Either way the three
        # feature matrices (observed, treated, untreated) are built once
        # per fit, and every step reads them.
        p = bridge.n_params + 1
        assert sum(points) >= 2 * p * p + 2 * p + 1
        assert feature_builds == {bridge.n_params: 3, basis.k: 3}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_objective_is_one_where_the_floor_does_not_bind(self, polished_moments, seed):
        # The linear bridge's contrast score tau - gamma_a is the same for
        # every unit, so Upsilon = blockdiag(C, 0) + g g' and Upsilon e_K =
        # g_K g: wherever g_K is not 0 and no eigenvalue is floored,
        # g' Upsilon^-1 g = g' e_K / g_K = 1, whatever the point.
        moments, beta_hat = polished_moments
        point = beta_hat + 0.01 * np.random.default_rng(seed).normal(size=beta_hat.size)
        point[-1] += 0.05
        g_bar, upsilon = gmm._gram_moments(moments)(point[None])
        vals = np.linalg.eigvalsh(upsilon[0])
        assert g_bar[0, -1] != 0.0 and vals[0] > gmm.SPECTRAL_FLOOR * vals[-1]
        objective = gmm._continuous_update_objective(moments, gmm._gram_moments(moments))
        assert objective(point[None])[0] == pytest.approx(1.0, abs=1e-10)
        # At the fit the contrast moment is near 0 and its direction
        # floored, so there the objective is well below 1.
        assert objective(beta_hat[None])[0] < 0.1

    @pytest.fixture(scope="class")
    def polished_and_two_step(self, polished_case):
        ds, basis, bridge = polished_case
        init = fit_initial(ds, basis, bridge)
        scores = joint_score(ds, basis, bridge, init.gamma_hat, init.tau_hat)
        decomp = regularize_moments(estimate_upsilon(scores))
        moments = gmm._Moments.build(ds, basis.u, bridge)
        two_step, _, _ = gmm._least_squares(moments, decomp.floored_weight_sqrt())
        return moments, fit_optimal(ds, basis, bridge), two_step

    def test_polish_lowers_the_continuous_update_objective(self, polished_and_two_step):
        moments, fit, two_step = polished_and_two_step
        polished = np.r_[fit.gamma_hat, fit.tau_hat]
        assert not np.array_equal(polished, two_step)
        objective = gmm._continuous_update_objective(moments, gmm._gram_moments(moments))
        at_polished, at_two_step = objective(np.vstack([polished, two_step]))
        assert at_polished < at_two_step
        assert fit.objective_value == at_polished

    def test_polish_moves_the_other_bridge_coefficients_not_tau(self, polished_and_two_step):
        # Stencil points that move tau or the treatment coefficient alone
        # read an objective of exactly 1, so the polish step in those
        # coordinates is noise: tau_hat stays at its two-step value while
        # the coefficients on 1, w and x move.
        _, fit, two_step = polished_and_two_step
        assert abs(fit.tau_hat - two_step[-1]) <= 1e-8
        moved = np.abs(fit.gamma_hat - two_step[:-1])[[0, 1, 3]]
        assert np.all(moved > 1e-3)


class TestInference:
    def test_confidence_interval_oracle(self, scenario1_ds, linear_bridge):
        fit = fit_optimal(scenario1_ds, _basis(scenario1_ds, 4), linear_bridge)
        synthetic = replace(fit, tau_hat=0.5, se_tau=0.1)
        lo, hi = confidence_interval(synthetic)
        assert lo == pytest.approx(0.304, abs=5e-4)
        assert hi == pytest.approx(0.696, abs=5e-4)
        assert hi - lo == pytest.approx(2 * 1.959963984540054 * 0.1, rel=1e-12)

    def test_wald_statistic_and_decision(self, scenario1_ds, linear_bridge):
        fit = fit_optimal(scenario1_ds, _basis(scenario1_ds, 4), linear_bridge)
        synthetic = replace(fit, tau_hat=0.5, se_tau=0.2)
        stat, reject = wald_test(synthetic)
        assert stat == pytest.approx(2.5, rel=1e-12)
        assert reject
        stat0, reject0 = wald_test(replace(fit, tau_hat=0.0, se_tau=0.2))
        assert stat0 == 0.0
        assert not reject0

    def test_wald_critical_value_is_two_sided_5pct(self):
        assert WALD_CRITICAL_5PCT == pytest.approx(1.959963984540054, rel=1e-12)

    def test_zero_se_rejected(self, scenario1_ds, linear_bridge):
        fit = fit_optimal(scenario1_ds, _basis(scenario1_ds, 4), linear_bridge)
        with pytest.raises(SingularVariance):
            wald_test(replace(fit, se_tau=0.0))


def test_public_fit_steps_share_one_feature_build(monkeypatch, linear_bridge):
    # The dataset keeps the linear bridge's features: the scan, every
    # public fit step and rgmm's canonical fit read one build. A dataset no
    # call has fitted, so the count starts at zero.
    ds = generate(ScenarioConfig("II", 400), 11, 0)
    built = []
    real = gmm._Features.build
    monkeypatch.setattr(
        gmm._Features, "build",
        classmethod(lambda cls, datasets, bridge: built.extend([1] * len(datasets))
                    or real(datasets, bridge)),
    )
    diag = select_k(ds, linear_bridge, SieveSpec(), 8)
    basis = _basis(ds, diag.k_star)
    fit = fit_optimal(ds, basis, linear_bridge)
    variance(fit, ds, basis, linear_bridge)
    joint_score(ds, basis, linear_bridge, fit.gamma_hat, fit.tau_hat)
    fit_with_weight(ds, basis, linear_bridge, np.eye(basis.k + 1))
    rgmm(ds)
    assert len(built) == 1


@pytest.mark.parametrize("fit", [fit_initial, fit_optimal], ids=["initial", "optimal"])
def test_a_raw_basis_is_orthonormalized_first(fit, scenario2_ds, linear_bridge):
    # A basis build_basis returns is orthonormalized before the fit, which
    # then equals the fit on orthonormalize's basis bit for bit.
    raw = build_basis(scenario2_ds, SieveSpec(), 6)
    got = fit(scenario2_ds, raw, linear_bridge)
    want = fit(scenario2_ds, _basis(scenario2_ds, 6), linear_bridge)
    assert got.tau_hat == want.tau_hat and got.se_tau == want.se_tau
