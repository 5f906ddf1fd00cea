"""Moment-count selection: criterion formulas and the scan over candidates.

The two criterion functions are locked against literal per-observation
transcriptions of their formulas (explicit loops and inverses, no shared
code), including a fixed hand-built five-row instance for the
coefficient-summed reference form.
"""

from __future__ import annotations

import numpy as np
import pytest

from proxigmm.bridges import OutcomeBridge
from proxigmm.data import Dataset
from proxigmm.errors import (
    AllCandidatesSingular,
    DimensionMismatch,
    SingularUpsilonBlock,
)
from proxigmm.gmm import fit_initial, fit_optimal
from proxigmm.selection import (
    coefficientwise_components,
    select_and_fit,
    select_k,
    sgmm_components,
    sgmm_score,
)
from proxigmm.sieve import SieveSpec, build_basis, orthonormalize
from proxigmm.simulation import ScenarioConfig, generate

BRIDGE = OutcomeBridge.linear(d_w=1, d_x=1)

# Fixed five-row instance with two instruments and one bridge coefficient,
# written out in full so the literal-loop comparison has no moving parts.
HAND_U = np.array(
    [[1.0, 0.5], [1.0, -0.3], [1.0, 1.2], [1.0, 0.1], [1.0, -0.8]]
)
HAND_GRAD = np.array([[0.7], [1.1], [-0.4], [0.9], [0.2]])
HAND_RESID = np.array([0.5, -1.0, 0.3, 0.8, -0.6])


def _random_instance(seed: int, n: int, k: int, p: int):
    rng = np.random.default_rng(seed)
    u = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    feat_grad = rng.normal(size=(n, p))
    resid = rng.normal(size=n) + 0.5
    target = rng.normal(size=p)
    return u, feat_grad, resid, target


def _literal_target_direction(u, feat_grad, resid, target):
    """Per-observation transcription of the causal-direction criterion."""
    n, k = u.shape
    p = feat_grad.shape[1]
    ups = np.zeros((k, k))
    gram = np.zeros((k, k))
    bmat = np.zeros((k, p))
    for i in range(n):
        ups = ups + resid[i] ** 2 * np.outer(u[i], u[i])
        gram = gram + np.outer(u[i], u[i])
        bmat = bmat - np.outer(u[i], feat_grad[i])
    ups, gram, bmat = ups / n, gram / n, bmat / n
    ups_inv = np.linalg.inv(ups)
    gram_inv = np.linalg.inv(gram)
    omega_inv = np.linalg.inv(bmat.T @ ups_inv @ bmat)
    t_dir = omega_inv @ target
    pi = 0.0
    weighted_square_sum = 0.0
    for i in range(n):
        leverage = u[i] @ gram_inv @ u[i] / n
        d_tilde = bmat.T @ gram_inv @ u[i]
        d_star = bmat.T @ ups_inv @ u[i]
        eta = -feat_grad[i] - d_tilde
        pi = pi + leverage * resid[i] * float(eta @ t_dir)
        influence = float((d_star * resid[i] ** 2 - d_tilde) @ t_dir)
        weighted_square_sum = weighted_square_sum + leverage * influence**2
    bias = pi * pi / n
    var = weighted_square_sum - float(target @ t_dir)
    return bias + var, bias, var


def _literal_coefficient_summed(u, feat_grad, resid):
    """Per-observation transcription of the coefficient-summed reference."""
    n, k = u.shape
    p = feat_grad.shape[1]
    ups = np.zeros((k, k))
    gram = np.zeros((k, k))
    bmat = np.zeros((k, p))
    for i in range(n):
        ups = ups + resid[i] ** 2 * np.outer(u[i], u[i])
        gram = gram + np.outer(u[i], u[i])
        bmat = bmat - np.outer(u[i], feat_grad[i])
    ups, gram, bmat = ups / n, gram / n, bmat / n
    ups_inv = np.linalg.inv(ups)
    gram_inv = np.linalg.inv(gram)
    omega_inv = np.linalg.inv(bmat.T @ ups_inv @ bmat)
    pi = np.zeros(p)
    phi = -np.diag(omega_inv).copy()
    for i in range(n):
        xi = u[i] @ ups_inv @ u[i] / n
        d_tilde = bmat.T @ gram_inv @ u[i]
        d_star = bmat.T @ ups_inv @ u[i]
        eta = -feat_grad[i] - d_tilde
        pi = pi + xi * resid[i] * (omega_inv @ eta)
        inner = omega_inv @ (d_star * resid[i] ** 2 + feat_grad[i])
        phi = phi + xi * inner**2
    bias = float(pi @ pi) / n
    var = float(np.sum(phi))
    return bias + var, bias, var


class TestCriterionFormulas:
    def test_target_direction_matches_literal_loop(self):
        u, feat_grad, resid, target = _random_instance(11, n=40, k=3, p=2)
        got = sgmm_components(u, feat_grad, resid, target)
        want = _literal_target_direction(u, feat_grad, resid, target)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_target_direction_score_is_sum_of_terms(self):
        u, feat_grad, resid, target = _random_instance(12, n=35, k=4, p=3)
        score, bias, var = sgmm_components(u, feat_grad, resid, target)
        assert score == bias + var

    def test_coefficient_summed_matches_hand_instance(self):
        got = coefficientwise_components(HAND_U, HAND_GRAD, HAND_RESID)
        want = _literal_coefficient_summed(HAND_U, HAND_GRAD, HAND_RESID)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_coefficient_summed_matches_literal_loop_random(self):
        u, feat_grad, resid, _ = _random_instance(13, n=30, k=4, p=2)
        got = coefficientwise_components(u, feat_grad, resid)
        want = _literal_coefficient_summed(u, feat_grad, resid)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_criteria_invariant_to_instrument_basis_change(self):
        # Every ingredient (leverage, projections, omega) transforms so the
        # criterion is unchanged by an invertible recombination of the
        # instrument columns.
        u, feat_grad, resid, target = _random_instance(14, n=50, k=3, p=2)
        rng = np.random.default_rng(15)
        amat = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        base_t = sgmm_components(u, feat_grad, resid, target)
        base_c = coefficientwise_components(u, feat_grad, resid)
        np.testing.assert_allclose(
            sgmm_components(u @ amat, feat_grad, resid, target),
            base_t, rtol=1e-8,
        )
        np.testing.assert_allclose(
            coefficientwise_components(u @ amat, feat_grad, resid),
            base_c, rtol=1e-8,
        )

    def test_zero_residuals_raise(self):
        u, feat_grad, _, target = _random_instance(16, n=20, k=2, p=1)
        zeros = np.zeros(20)
        with pytest.raises(SingularUpsilonBlock, match="K=2"):
            sgmm_components(u, feat_grad, zeros, target)
        with pytest.raises(SingularUpsilonBlock, match="K=2"):
            coefficientwise_components(u, feat_grad, zeros)


class TestScoreWrapper:
    def test_matches_manually_assembled_parts(self, scenario1_ds):
        spec = SieveSpec()
        basis = orthonormalize(build_basis(scenario1_ds, spec, 6))
        init = fit_initial(scenario1_ds, basis, BRIDGE)
        resid = scenario1_ds.y - BRIDGE.h(
            scenario1_ds.w, scenario1_ds.a, scenario1_ds.x, init.gamma_hat
        )
        feat_grad = BRIDGE.grad(scenario1_ds.w, scenario1_ds.a, scenario1_ds.x)
        target = BRIDGE.contrast_grad(scenario1_ds.w, scenario1_ds.x).mean(axis=0)
        want = sgmm_components(basis.u, feat_grad, resid, target)
        got = sgmm_score(scenario1_ds, BRIDGE, spec, 6)
        assert got == want


class TestScan:
    def test_grid_rows_and_minimizer(self, scenario1_ds):
        spec = SieveSpec()
        diag = select_k(scenario1_ds, BRIDGE, spec, k_bar=8)
        assert diag.k_grid == tuple(range(4, 9))
        assert np.all(np.isfinite(diag.scores))
        assert diag.k_star == diag.k_grid[int(np.argmin(diag.scores))]
        rows = diag.rows()
        assert [r[0] for r in rows] == list(diag.k_grid)
        chosen = [r for r in rows if r[4]]
        assert len(chosen) == 1 and chosen[0][0] == diag.k_star
        for k, bias, var, score, _ in rows:
            assert score == pytest.approx(bias + var, rel=1e-12)
            assert (score, bias, var) == sgmm_score(scenario1_ds, BRIDGE, spec, k)

    def test_kbar_at_bridge_dimension_is_single_candidate(self, scenario1_ds):
        diag = select_k(scenario1_ds, BRIDGE, SieveSpec(), k_bar=4)
        assert diag.k_grid == (4,)
        assert diag.k_star == 4

    def test_kbar_below_bridge_dimension_rejected(self, scenario1_ds):
        with pytest.raises(DimensionMismatch, match="k_bar=3"):
            select_k(scenario1_ds, BRIDGE, SieveSpec(), k_bar=3)

    def test_zero_outcome_raises_all_singular(self, scenario1_ds):
        ds = Dataset(
            y=np.zeros(scenario1_ds.n),
            a=scenario1_ds.a,
            z=scenario1_ds.z,
            w=scenario1_ds.w,
            x=scenario1_ds.x,
        )
        with pytest.raises(AllCandidatesSingular):
            select_k(ds, BRIDGE, SieveSpec(), k_bar=8)

    def test_singular_candidates_skipped_not_fatal(self):
        # A binary proxy makes its square linearly dependent on (1, proxy),
        # so every prefix long enough to include the squared term is rank
        # deficient; the scan must keep the short candidates and choose
        # among them.
        rng = np.random.default_rng(21)
        n = 80
        z = (rng.random(n) < 0.5).astype(float)
        z[:2] = [0.0, 1.0]
        x = rng.normal(size=n)
        w = rng.normal(size=n)
        a = (rng.random(n) < 0.5).astype(float)
        a[:2] = [0.0, 1.0]
        y = 1.0 + 0.5 * a + w + x + 0.3 * rng.normal(size=n)
        ds = Dataset(
            y=y, a=a, z=z.reshape(-1, 1), w=w.reshape(-1, 1), x=x.reshape(-1, 1)
        )
        diag = select_k(ds, BRIDGE, SieveSpec(), k_bar=8)
        assert np.isfinite(diag.scores[0])
        assert np.all(np.isinf(diag.scores[1:]))
        assert np.all(np.isnan(diag.bias_terms[1:]))
        assert np.all(np.isnan(diag.variance_terms[1:]))
        assert diag.k_star == 4

    def test_scan_deterministic(self, scenario1_ds):
        a = select_k(scenario1_ds, BRIDGE, SieveSpec(), k_bar=8)
        b = select_k(scenario1_ds, BRIDGE, SieveSpec(), k_bar=8)
        assert a.k_star == b.k_star
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.bias_terms, b.bias_terms)
        np.testing.assert_array_equal(a.variance_terms, b.variance_terms)


class TestSelectAndFit:
    def test_fit_taken_at_selected_count(self, scenario2_ds):
        fit, diag = select_and_fit(scenario2_ds, BRIDGE, SieveSpec(), k_bar=12)
        assert fit.k == diag.k_star
        direct = fit_optimal(
            scenario2_ds,
            orthonormalize(build_basis(scenario2_ds, SieveSpec(), diag.k_star)),
            BRIDGE,
        )
        assert fit.tau_hat == direct.tau_hat
        np.testing.assert_array_equal(fit.gamma_hat, direct.gamma_hat)

    def test_low_noise_scenario_prefers_smallest_count(self):
        # In the homoskedastic design extra moments buy no efficiency, so
        # the scan should usually stop at the bridge dimension itself.
        hits = 0
        reps = 40
        for rep in range(reps):
            ds = generate(ScenarioConfig(scenario="I", n=400), 0, rep)
            diag = select_k(ds, BRIDGE, SieveSpec(), k_bar=12)
            hits += diag.k_star == 4
        assert hits / reps >= 0.5
