"""Moment-count selection: the criterion formula and the scan over candidates.

The criterion is locked against a literal per-observation transcription of
its formula (explicit loops and inverses, no shared code). The batched
one-QR scan is locked against a per-candidate path (a fresh QR and
identity-weight fit at every K, each scored alone at the preliminary
residual of the widest fit), written out here.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg

from helpers import one_candidate_criterion
from proxigmm import gmm, selection, sieve
from proxigmm.bridges import OutcomeBridge
from proxigmm.data import Dataset
from proxigmm.errors import (
    AllCandidatesSingular, DegenerateColumn, DimensionMismatch, RankDeficient,
)
from proxigmm.gmm import fit_initial, fit_optimal
from proxigmm.selection import (
    _criterion,
    _leading_cholesky,
    _prefix_leverages,
    _whitened,
    select_and_fit,
    select_k,
)
from proxigmm.sieve import BasisMatrix, SieveSpec, build_basis, orthonormalize
from proxigmm.simulation import ScenarioConfig, generate

BRIDGE = OutcomeBridge.linear(d_w=1, d_x=1)

def _random_instance(seed: int, n: int, k: int, p: int):
    rng = np.random.default_rng(seed)
    u = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    feat_grad = rng.normal(size=(n, p))
    resid = rng.normal(size=n) + 0.5
    target = rng.normal(size=p)
    return u, feat_grad, resid, target


def _literal_target_direction(u, feat_grad, resid, target, prelim=None):
    """Per-observation transcription of the causal-direction criterion, with
    the covariance taken at the preliminary residual ``prelim`` (``resid``
    when not given)."""
    prelim = resid if prelim is None else prelim
    n, k = u.shape
    p = feat_grad.shape[1]
    ups = np.zeros((k, k))
    gram = np.zeros((k, k))
    bmat = np.zeros((k, p))
    for i in range(n):
        ups = ups + prelim[i] ** 2 * np.outer(u[i], u[i])
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


class TestCriterionFormulas:
    def test_target_direction_matches_literal_loop(self):
        u, feat_grad, resid, target = _random_instance(11, n=40, k=3, p=2)
        got = one_candidate_criterion(u, feat_grad, resid, target)
        want = _literal_target_direction(u, feat_grad, resid, target)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_preliminary_residual_enters_the_covariance_alone(self):
        # The covariance reads the preliminary residual; the bias and
        # influence terms read the candidate's own.
        u, feat_grad, resid, target = _random_instance(13, n=40, k=4, p=2)
        prelim = resid + np.random.default_rng(13).normal(size=resid.size)
        got = one_candidate_criterion(u, feat_grad, resid, target, prelim)
        want = _literal_target_direction(u, feat_grad, resid, target, prelim)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        assert got != one_candidate_criterion(u, feat_grad, resid, target)

    def test_target_direction_score_is_sum_of_terms(self):
        u, feat_grad, resid, target = _random_instance(12, n=35, k=4, p=3)
        score, bias, var = one_candidate_criterion(u, feat_grad, resid, target)
        assert score == bias + var

    def test_criteria_invariant_to_instrument_basis_change(self):
        # Every ingredient (leverage, projections, omega) transforms so the
        # criterion is unchanged by an invertible recombination of the
        # instrument columns.
        u, feat_grad, resid, target = _random_instance(14, n=50, k=3, p=2)
        rng = np.random.default_rng(15)
        amat = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        base_t = one_candidate_criterion(u, feat_grad, resid, target)
        np.testing.assert_allclose(
            one_candidate_criterion(u @ amat, feat_grad, resid, target),
            base_t, rtol=1e-8,
        )

    def test_zero_residuals_score_inf(self):
        # Zero residuals make the residual-weighted covariance singular.
        u, feat_grad, _, target = _random_instance(16, n=20, k=2, p=1)
        score, bias, var = one_candidate_criterion(u, feat_grad, np.zeros(20), target)
        assert score == np.inf and np.isnan(bias) and np.isnan(var)


def test_leverage_table_rows_are_prefix_leverages():
    # Column K-1 of the scan's leverage table for K = 1..6, read off the
    # orthonormalized basis, is the literal diagonal of U_K G_K⁻¹ U_K'/n for
    # the leading K raw columns, which are correlated and unequally scaled:
    # the QR keeps each prefix's span, and a leverage depends on the span
    # alone.
    n, k = 60, 6
    u, _, _, _ = _random_instance(17, n=n, k=k, p=2)
    rng = np.random.default_rng(18)
    u = u @ (np.diag(np.arange(1.0, k + 1)) + 0.5 * np.triu(rng.normal(size=(k, k)), 1))
    basis = orthonormalize(BasisMatrix(u=u, term_names=tuple(map(str, range(k)))))
    table = _prefix_leverages(basis.u, np.arange(1, k + 1))
    assert table.shape == (n, k)
    for kk in range(1, k + 1):
        u_k = u[:, :kk]
        gram_inv = np.linalg.inv(u_k.T @ u_k / n)
        want = np.diag(u_k @ gram_inv @ u_k.T) / n
        np.testing.assert_allclose(table[:, kk - 1], want, rtol=1e-12)


def _orthonormal_vanishing_on(n, k, j, rows, seed):
    """(n, k) columns with u'u/n the identity whose columns from j on are
    exactly zero on ``rows``, the last rows: the QR of random columns taken
    in reverse order, whose Householder reflections keep those zeros."""
    a = np.random.default_rng(seed).normal(size=(n, k))
    a[rows, j:] = 0.0
    u = np.linalg.qr(a[:, ::-1])[0][:, ::-1] * np.sqrt(n)
    assert np.all(u[rows, j:] == 0.0)
    np.testing.assert_allclose(u.T @ u / n, np.eye(k), atol=1e-12)
    return u


class TestBatchedKernel:
    @pytest.mark.parametrize(
        "config, k_bar",
        [(ScenarioConfig("I", 400), 12), (ScenarioConfig("II", 800), 12),
         (ScenarioConfig("II", 3200), 20)],
        ids=["I400-k12", "II800-k12", "II3200-k20"],
    )
    def test_leading_blocks_match_a_fresh_cholesky(self, config, k_bar):
        # Candidate K's whitened rows and Ω, read off one factor of the
        # scanned basis's Υ(r̂), are those of a fresh Cholesky factor of the
        # leading K×K block of Υ(r̂).
        for rep in range(3):
            ds = generate(config, 0, rep)
            u = orthonormalize(build_basis(ds, SieveSpec(), k_bar)).u
            feat_grad = BRIDGE.grad(ds.w, ds.a, ds.x)
            bmat = -(u.T @ feat_grad) / ds.n
            prelim = np.random.default_rng(rep).normal(size=ds.n) * (1.0 + np.abs(ds.w[:, 0]))
            ks = np.arange(BRIDGE.n_params, k_bar + 1)
            _, whitened, omega, factored = _whitened(u, bmat, prelim, ks)
            assert factored == k_bar
            weighted = u * prelim[:, None]
            upsilon = weighted.T @ weighted / ds.n
            for k, omega_k in zip(ks, omega):
                want = np.linalg.solve(np.linalg.cholesky(upsilon[:k, :k]), bmat[:k])
                np.testing.assert_allclose(whitened[:k], want, rtol=0, atol=1e-12 * np.abs(want).max())
                np.testing.assert_allclose(omega_k, want.T @ want, rtol=1e-12)

    @pytest.mark.parametrize("j", [2, 3, 5, 6])
    def test_a_covariance_singular_from_a_column_on_fails_the_longer_candidates(self, j):
        # The preliminary residual is zero off the last rows, where column j
        # of the basis (and every later one) is zero: Υ(r̂)'s leading j×j
        # block is positive definite and its row and column j are zero.
        # Candidates K ≤ j score as they do alone, the longer ones inf.
        n, k = 60, 7
        rows = np.arange(30, n)
        u = _orthonormal_vanishing_on(n, k, j, rows, seed=26)
        _, feat_grad, _, target = _random_instance(27, n=n, k=k, p=2)
        ks = np.arange(3, 8)
        resid = np.random.default_rng(28).normal(size=(n, ks.size)) + 0.5
        prelim = np.zeros(n)
        prelim[rows] = resid[rows, -1]
        weighted = u * prelim[:, None]
        chol, factored = _leading_cholesky(weighted.T @ weighted / n)
        assert factored == j
        np.testing.assert_array_equal(chol[j:, j:], np.eye(k - j))
        scores, bias, var = _criterion(
            u, -(u.T @ feat_grad) / n, feat_grad, resid, prelim, target, ks, np.ones(5, bool)
        )
        assert np.isinf(scores[ks > j]).all()
        assert np.isnan(bias[ks > j]).all() and np.isnan(var[ks > j]).all()
        for c in np.flatnonzero(ks <= j):
            want = one_candidate_criterion(u[:, : ks[c]], feat_grad, resid[:, c], target, prelim)
            np.testing.assert_allclose((scores[c], bias[c], var[c]), want, rtol=1e-12)
        # A zero preliminary residual fails every candidate, so the scan
        # raises AllCandidatesSingular (test_zero_outcome_raises_all_singular).
        scores, _, _ = _criterion(
            u, -(u.T @ feat_grad) / n, feat_grad, resid, np.zeros(n), target, ks, np.ones(5, bool)
        )
        assert np.isinf(scores).all()

    def test_least_squares_flags_only_the_rank_deficient_system(self):
        rng = np.random.default_rng(23)
        lhs = rng.normal(size=(3, 7, 5))
        rhs = rng.normal(size=(3, 7))
        lhs[1, :, 2] = 0.0  # the middle system does not identify coordinate 2
        beta, ranks, (_, half_t) = gmm._solve(lhs, rhs, np.ones(5), 7, AllCandidatesSingular)
        assert ranks.tolist() == [5, 4, 5]
        assert scipy.linalg.lstsq(lhs[1], rhs[1])[2] == 4
        for c in (0, 2):
            want, _, rank, _ = scipy.linalg.lstsq(lhs[c], rhs[c])
            assert rank == 5
            np.testing.assert_allclose(beta[c], want, rtol=1e-12)
            np.testing.assert_allclose(
                half_t[c].T @ half_t[c], np.linalg.inv(lhs[c].T @ lhs[c]), rtol=1e-12
            )

    def test_failing_candidates_in_the_middle_score_inf_alone(self):
        # Of five stacked candidates, the second and the fourth failed their
        # rank check (the fourth's residuals are zero); the others score as
        # they do alone, at the preliminary residual of the widest.
        n, k = 60, 7
        u, feat_grad, _, target = _random_instance(24, n=n, k=k, p=2)
        u = orthonormalize(BasisMatrix(u=u, term_names=tuple(map(str, range(k))))).u
        ks = np.arange(3, 8)
        resid = np.random.default_rng(25).normal(size=(n, ks.size)) + 0.5
        resid[:, 3] = 0.0
        ok = np.array([True, False, True, False, True])
        scores, bias, var = _criterion(
            u, -(u.T @ feat_grad) / n, feat_grad, resid, resid[:, 4], target, ks, ok
        )
        assert np.isinf(scores[[1, 3]]).all()
        assert np.isnan(bias[[1, 3]]).all() and np.isnan(var[[1, 3]]).all()
        for c in (0, 2, 4):
            want = one_candidate_criterion(
                u[:, : ks[c]], feat_grad, resid[:, c], target, resid[:, 4]
            )
            np.testing.assert_allclose((scores[c], bias[c], var[c]), want, rtol=1e-12)


def _counting_bridge():
    """The linear bridge with its feature builder wrapped in a call counter."""
    calls = []

    def counted(*args):
        calls.append(1)
        return BRIDGE.grad_fn(*args)

    return dataclasses.replace(BRIDGE, grad_fn=counted), calls


def _prefix_score_parts(ds, u):
    """Criterion inputs on instrument columns ``u``, by the public calls."""
    k = u.shape[1]
    basis = BasisMatrix(
        u=u, term_names=tuple(map(str, range(k))), orthonormal=True,
    )
    init = fit_initial(ds, basis, BRIDGE)
    resid = ds.y - BRIDGE.grad(ds.w, ds.a, ds.x) @ init.gamma_hat
    feat_grad = BRIDGE.grad(ds.w, ds.a, ds.x)
    ones = np.ones(ds.n)
    target = (BRIDGE.grad(ds.w, ones, ds.x) - BRIDGE.grad(ds.w, 0.0 * ones, ds.x)).mean(axis=0)
    return u, feat_grad, resid, target


def _per_candidate_scan(ds, spec, k_bar):
    """The scan with a fresh QR and identity-weight fit at every candidate,
    each scored at the preliminary residual: the residual of the fit at
    ``k_bar``, the widest candidate, whose fit identifies the bridge."""
    p = BRIDGE.n_params
    prelim = _prefix_score_parts(ds, orthonormalize(build_basis(ds, spec, k_bar)).u)[2]
    scores = []
    for k in range(p, k_bar + 1):
        u = orthonormalize(build_basis(ds, spec, k)).u
        scores.append(one_candidate_criterion(*_prefix_score_parts(ds, u), prelim)[0])
    scores = np.array(scores)
    return scores, p + int(np.argmin(scores))


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
        # Each candidate is scored on the leading columns of one basis, at
        # the preliminary residual of the fit on all 8; the scan slices
        # cross-products built once, so it agrees with a fresh computation
        # on the prefix to rounding.
        basis = orthonormalize(build_basis(scenario1_ds, spec, 8))
        prelim = _prefix_score_parts(scenario1_ds, basis.u)[2]
        for k, bias, var, score, _ in rows:
            assert score == pytest.approx(bias + var, rel=1e-12)
            parts = _prefix_score_parts(scenario1_ds, basis.u[:, :k])
            np.testing.assert_allclose(
                (score, bias, var), one_candidate_criterion(*parts, prelim), rtol=1e-12
            )

    @pytest.mark.parametrize(
        "config, spec, k_bar, reps",
        [
            (ScenarioConfig("I", 400), SieveSpec(), 12, range(20)),
            (ScenarioConfig("II", 800), SieveSpec(), 12, range(20)),
            (ScenarioConfig("II", 800), SieveSpec(), 30, [0]),
            (ScenarioConfig("II", 3200), SieveSpec(), 20, range(3)),
        ],
        ids=["I400-k12", "II800-k12", "II800-k30", "II3200-k20"],
    )
    def test_matches_per_candidate_refit(self, config, spec, k_bar, reps):
        for rep in reps:
            ds = generate(config, 0, rep)
            want_scores, want_k = _per_candidate_scan(ds, spec, k_bar)
            diag = select_k(ds, BRIDGE, spec, k_bar)
            np.testing.assert_allclose(diag.scores, want_scores, rtol=1e-10, atol=0)
            assert diag.k_star == want_k, rep

    def test_bridge_features_built_a_fixed_number_of_times(self, scenario1_ds):
        counts = []
        for k_bar in (6, 12):
            bridge, calls = _counting_bridge()
            select_k(scenario1_ds, bridge, SieveSpec(), k_bar)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_select_and_fit_builds_bridge_features_once(self):
        # Three feature matrices (observed, treated, untreated), which the
        # scan and the fit at K* both read, whatever the scan's length or the
        # polish's evaluation count. K* exceeds the bridge dimension in this
        # draw, so the polish runs.
        ds = generate(ScenarioConfig("II", 800), 0, 0)
        bridge, calls = _counting_bridge()
        fit, _ = select_and_fit(ds, bridge, SieveSpec(), k_bar=12)
        assert fit.k > BRIDGE.n_params
        assert len(calls) == 3

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

    def test_late_dependent_column_keeps_shorter_candidates(self):
        # A three-valued proxy makes its cube (column 7, after 1, a, z, x,
        # z^2, x^2) a quadratic in z: candidates 4..6 are scored on the
        # 6-column prefix, at the preliminary residual of its fit, and the
        # longer ones stay singular.
        rng = np.random.default_rng(22)
        n = 120
        z = np.tile([-1.0, 0.0, 2.0], n // 3)
        x = rng.normal(size=n)
        w = rng.normal(size=n)
        a = (rng.random(n) < 0.5).astype(float)
        y = 1.0 + 0.5 * a + w + x + 0.3 * rng.normal(size=n)
        ds = Dataset(
            y=y, a=a, z=z.reshape(-1, 1), w=w.reshape(-1, 1), x=x.reshape(-1, 1)
        )
        with pytest.raises(RankDeficient) as info:
            orthonormalize(build_basis(ds, SieveSpec(), 8))
        assert info.value.full_rank_prefix == 6
        diag = select_k(ds, BRIDGE, SieveSpec(), k_bar=8)
        assert np.all(np.isfinite(diag.scores[:3]))
        assert np.all(np.isinf(diag.scores[3:]))
        assert np.all(np.isnan(diag.bias_terms[3:]))
        basis = orthonormalize(build_basis(ds, SieveSpec(), 6))
        prelim = _prefix_score_parts(ds, basis.u)[2]
        for k, score in zip(diag.k_grid[:3], diag.scores[:3]):
            want = one_candidate_criterion(*_prefix_score_parts(ds, basis.u[:, :k]), prelim)[0]
            np.testing.assert_allclose(score, want, rtol=1e-12)

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

    @staticmethod
    def _count_sieve_calls(monkeypatch) -> dict:
        calls = {"build_basis": 0, "orthonormalize": 0}
        for name in calls:
            def counted(*args, _real=getattr(sieve, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            for module in (sieve, selection, gmm):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def _assert_fresh_fit(ds, fit, k_star):
        direct = fit_optimal(ds, orthonormalize(build_basis(ds, SieveSpec(), k_star)), BRIDGE)
        assert (fit.tau_hat, fit.se_tau) == (direct.tau_hat, direct.se_tau)
        np.testing.assert_array_equal(fit.gamma_hat, direct.gamma_hat)

    @pytest.mark.parametrize(
        "fit",
        [
            lambda ds: select_and_fit(ds, BRIDGE, SieveSpec(), 12),
        ],
        ids=["select_and_fit"],
    )
    def test_sieve_built_once_per_fit(self, monkeypatch, fit):
        # K* is the cap of 12, the width of the basis the scan
        # orthonormalized: one basis build and one QR serve the scan and the
        # fit, which is the fit on a fresh K*-column basis bit for bit.
        ds = generate(ScenarioConfig("II", 800), 0, 0)
        calls = self._count_sieve_calls(monkeypatch)
        got, diag = fit(ds)
        assert diag.k_star == 12
        assert calls == {"build_basis": 1, "orthonormalize": 1}
        monkeypatch.undo()
        self._assert_fresh_fit(ds, got, diag.k_star)

    def test_a_count_below_the_scan_width_takes_a_fresh_qr(self, monkeypatch):
        # K* below the scan's width: one QR for the scan and one, of the
        # leading K* columns of the same raw basis, for the fit at K*.
        ds = generate(ScenarioConfig("II", 3200), 0, 0)
        calls = self._count_sieve_calls(monkeypatch)
        got, diag = select_and_fit(ds, BRIDGE, SieveSpec(), 20)
        assert BRIDGE.n_params < diag.k_star < 20
        assert calls == {"build_basis": 1, "orthonormalize": 2}
        monkeypatch.undo()
        self._assert_fresh_fit(ds, got, diag.k_star)

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


def _mixed_block(n=120, seed=40):
    """Four datasets of one shape that scan differently at k_bar 8: a clean
    one; one whose three-valued z makes z^3 (column 7) dependent, so it
    scans the 6-column prefix; one whose z is constant (DegenerateColumn);
    and one whose outcome is a million times larger, whose Υ alone the
    patch of :func:`_failing_beyond` lets factor only in its leading 5×5
    block."""
    rng = np.random.default_rng(seed)

    def draw(z):
        x, w = rng.normal(size=n), rng.normal(size=n)
        a = (rng.random(n) < 0.5).astype(float)
        y = 1.0 + 0.5 * a + w + x + 0.3 * rng.normal(size=n) * (1.0 + x**2)
        return Dataset(y=y, a=a, z=z.reshape(-1, 1), w=w.reshape(-1, 1), x=x.reshape(-1, 1))

    clean = draw(rng.normal(size=n))
    short = draw(np.tile([-1.0, 0.0, 2.0], n // 3))
    constant = draw(np.full(n, 2.0))
    loud = draw(rng.normal(size=n))
    loud = dataclasses.replace(loud, y=1e6 * loud.y)
    return [clean, short, constant, loud]


def _failing_beyond(j, real=np.linalg.cholesky):
    """``np.linalg.cholesky`` failing, as LAPACK does for the whole stack,
    whenever a matrix wider than ``j`` has a leading entry above 1e6: only
    the outcome-scaled dataset of :func:`_mixed_block` has one."""
    def cholesky(a):
        a = np.asarray(a)
        if a.shape[-1] > j and np.any(a[..., 0, 0] > 1e6):
            raise np.linalg.LinAlgError("injected")
        return real(a)

    return cholesky


class TestStackedScan:
    def test_each_dataset_of_a_block_scans_as_it_does_alone(self, monkeypatch):
        # One stacked scan over the block gives each dataset the
        # diagnostics, K*, estimate and SE of its own call, bit for bit,
        # and a failing dataset its own error.
        monkeypatch.setattr(np.linalg, "cholesky", _failing_beyond(5))
        block = _mixed_block()
        scans = gmm._fit_each(selection._scans, block, BRIDGE, SieveSpec(), 8)
        assert isinstance(scans[2], DegenerateColumn)
        for ds, scan in zip(block, scans):
            alone = dataclasses.replace(ds)
            if isinstance(scan, Exception):
                with pytest.raises(type(scan), match=re.escape(str(scan))):
                    select_k(alone, BRIDGE, SieveSpec(), 8)
                with pytest.raises(type(scan), match=re.escape(str(scan))):
                    select_and_fit(ds, BRIDGE, SieveSpec(), 8)
                continue
            want_fit, want = select_and_fit(alone, BRIDGE, SieveSpec(), 8)
            got_fit, got = select_and_fit(ds, BRIDGE, SieveSpec(), 8)
            assert got is scan[0]
            assert got.k_star == want.k_star
            for name in ("scores", "bias_terms", "variance_terms"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert (got_fit.tau_hat, got_fit.se_tau) == (want_fit.tau_hat, want_fit.se_tau)
            np.testing.assert_array_equal(got_fit.se_gamma, want_fit.se_gamma)
        clean, short, loud = (scans[b][0].scores for b in (0, 1, 3))
        assert np.isfinite(clean).all()
        # K = 4..6 on the 6-column prefix, and K = 4, 5 on Υ's 5×5 block.
        assert np.isfinite(short[:3]).all() and np.isinf(short[3:]).all()
        assert np.isfinite(loud[:2]).all() and np.isinf(loud[2:]).all()
        assert [scans[b][2].u.shape[1] for b in (0, 1, 3)] == [8, 6, 8]

    def test_a_failed_stacked_svd_is_retried_per_dataset(self, monkeypatch):
        # The candidates' SVD fails for any stack of more than one dataset,
        # and for the outcome-scaled dataset alone. The two datasets that
        # scan 8 columns are then scanned one at a time: the clean one as
        # it is alone, the scaled one to AllCandidatesSingular. The dataset
        # that scans 6 columns is a stack of its own and is not touched.
        clean, short, _, loud = _mixed_block()
        want = [select_k(dataclasses.replace(ds), BRIDGE, SieveSpec(), 8) for ds in (clean, short)]
        real = gmm._scaled_solve

        def scaled_solve(scaled, rhs, scale, n, error):
            if scaled.shape[0] > 5 or np.abs(rhs).max() > 1e4:
                raise error("injected")
            return real(scaled, rhs, scale, n, error)

        monkeypatch.setattr(gmm, "_scaled_solve", scaled_solve)
        scans = gmm._fit_each(selection._scans, [clean, loud, short], BRIDGE, SieveSpec(), 8)
        assert isinstance(scans[1], AllCandidatesSingular)
        for scan, alone in zip((scans[0], scans[2]), want):
            for name in ("scores", "bias_terms", "variance_terms"):
                np.testing.assert_array_equal(getattr(scan[0], name), getattr(alone, name))
