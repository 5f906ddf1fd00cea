"""Reference estimators against algebraic oracles."""

from __future__ import annotations

import dataclasses
import functools
import gc
import itertools
import warnings
import weakref

import numpy as np
import pytest

from helpers import TreatmentBridge, make_gaussian_dataset
from proxigmm import (
    BasisMatrix,
    Dataset,
    EstimateReport,
    OutcomeBridge,
    ScenarioConfig,
    SieveSpec,
    build_basis,
    fit_initial,
    fit_optimal,
    generate,
    naive_gformula,
    orthonormalize,
    p2sls,
    pdr,
    pipw,
    rgmm,
    select_and_fit,
    select_k,
)
from proxigmm import baselines, run_replications, selection, simulation
from proxigmm.errors import (
    DegenerateColumn,
    DimensionMismatch,
    NoConvergence,
    ProxiGmmError,
    RankDeficient,
    RankDeficientDesign,
    RankDeficientJacobian,
    SingularVariance,
)
from proxigmm.simulation import BASELINES


class TestOracles:
    @pytest.mark.parametrize("fixture", ["scenario1_ds", "scenario2_ds"])
    def test_rgmm_equals_p2sls_when_just_identified(self, fixture, request):
        # With one z and one w both solve Z'(y - Xb) = 0 for regressors
        # (1, w, a, x) and instruments (1, z, a, x): they read one fit and
        # one sandwich, so they agree bit for bit.
        ds = request.getfixturevalue(fixture)
        a, b = rgmm(ds), p2sls(ds)
        assert a.tau_hat == b.tau_hat
        assert a.se_tau == b.se_tau
        assert np.array_equal(a.aux["gamma_hat"], b.aux["gamma_hat"])

    @pytest.mark.parametrize("fixture", ["scenario1_ds", "scenario2_ds"])
    def test_rgmm_is_the_identity_weight_fit_on_its_orthonormal_instruments(
        self, fixture, request
    ):
        # Exactly identified, the fit and its sandwich J^-1 Upsilon J^-T do
        # not change when the instruments (1, z, a, x) are rotated.
        ds = request.getfixturevalue(fixture)
        inst = np.column_stack([np.ones(ds.n), ds.z, ds.a, ds.x])
        basis = orthonormalize(BasisMatrix(inst, ("1", "z1", "a", "x1")))
        fit, report = fit_initial(ds, basis, OutcomeBridge.linear(1, 1)), rgmm(ds)
        assert report.tau_hat == pytest.approx(fit.tau_hat, rel=0, abs=1e-12)
        assert report.se_tau == pytest.approx(fit.se_tau, rel=1e-12)

    @pytest.mark.parametrize(
        "config, rep",
        [(ScenarioConfig("I", 400), 0), (ScenarioConfig("II", 800), 1)],
        ids=["I-400-0", "II-800-1"],
    )
    def test_rgmm_and_p2sls_do_not_depend_on_the_units_of_z_or_x(self, config, rep):
        # Rescaling z, x or w rescales the instruments or the bridge's
        # features and coefficients; the effect and its SE stay where they
        # were, and so do select_and_fit's under z, whose sieve standardizes
        # z. Every weighted moment system is solved with each column
        # scaled by its feature's size (gmm._solve), so x and w in any
        # units lose no digits either. A second z proxy, z1² plus noise,
        # makes p2sls two-stage least squares on the sieve's leading five
        # terms (1, a, z1, z2, x1), standardized like the first four.
        # Measured up to 10^+-13: at most 3.4e-15 absolute in tau and
        # 2.0e-15 relative in SE for rgmm and p2sls (6.2e-15 and 2.7e-15
        # with two z proxies), and 1.3e-12 and 9.3e-13 for select_and_fit
        # under z.
        ds = generate(config, 3, rep)
        bridge = OutcomeBridge.linear(1, 1)
        z2 = ds.z[:, 0] ** 2 + np.random.default_rng(0).standard_normal(ds.n)
        two_z = dataclasses.replace(ds, z=np.column_stack([ds.z, z2]), z_names=("z1", "z2"))

        def gmm_div(ds):
            return select_and_fit(ds, bridge, SieveSpec(), 12)[0]

        powers = (-13, -12, -9, -6, -3, 3, 6, 9, 12, 13)
        cases = (
            (rgmm, ds, "zxw", 1e-12),
            (p2sls, ds, "zxw", 1e-12),
            (p2sls, two_z, "zxw", 1e-12),
            (gmm_div, ds, "z", 1e-10),
        )
        for estimator, data, roles, tol in cases:
            base = estimator(data)
            for role, power in itertools.product(roles, powers):
                scaled = dataclasses.replace(data, **{role: getattr(data, role) * 10.0**power})
                scaled = estimator(scaled)
                assert scaled.tau_hat == pytest.approx(base.tau_hat, rel=0, abs=tol)
                assert scaled.se_tau == pytest.approx(base.se_tau, rel=tol)

    def test_gmm_div_keeps_its_moment_count_and_effect_in_any_units_of_w_or_x(self):
        # The fits scale each column of their moment systems by its
        # feature's size, so x or w at 10^+-12 leaves the moment Jacobian
        # its full rank. Measured: K* stays 12 and tau moves by at most
        # 6.0e-10. The SE is not compared: the polish's finite-difference
        # steps depend on the units of x and w, and move it by 0.9% here
        # and by orders of magnitude under weak identification.
        ds = generate(ScenarioConfig("II", 800), 3, 1)
        bridge = OutcomeBridge.linear(1, 1)
        base, diag = select_and_fit(ds, bridge, SieveSpec(), 12)
        for role, power in itertools.product("xw", (-12, 12)):
            scaled = dataclasses.replace(ds, **{role: getattr(ds, role) * 10.0**power})
            fit, scaled_diag = select_and_fit(scaled, bridge, SieveSpec(), 12)
            assert scaled_diag.k_star == diag.k_star
            assert fit.tau_hat == pytest.approx(base.tau_hat, rel=0, abs=1e-8)

    @pytest.mark.parametrize(
        "config, rep",
        [(ScenarioConfig("I", 400), 0), (ScenarioConfig("II", 800), 1)],
        ids=["I-400-0", "II-800-1"],
    )
    def test_pipw_and_pdr_do_not_depend_on_the_units_of_w_or_x_to_a_millionfold(
        self, config, rep
    ):
        # Rescaling w or x rescales the balanced features and the bridges'
        # coefficients, so the effect and its SE stay where they were while
        # Newton still reaches the root. Measured: at most 3.5e-11 in tau
        # and 7.2e-11 relative in SE. The solve's tolerances are absolute in
        # the units of (1, w, a, x), so at 10^+-9 it can fall back or fail.
        ds = generate(config, 3, rep)
        for estimator in (pipw, pdr):
            base = estimator(ds)
            for role, power in itertools.product("wx", (-6, -3, 3, 6)):
                scaled = dataclasses.replace(ds, **{role: getattr(ds, role) * 10.0**power})
                scaled = estimator(scaled)
                assert scaled.tau_hat == pytest.approx(base.tau_hat, rel=0, abs=1e-8)
                assert scaled.se_tau == pytest.approx(base.se_tau, rel=1e-8)

    @pytest.mark.parametrize(
        "config, rep",
        [(ScenarioConfig("I", 400), 0), (ScenarioConfig("II", 800), 1)],
        ids=["I-400-0", "II-800-1"],
    )
    def test_dependent_instruments_are_a_sieve_error_in_any_units(self, config, rep):
        # A z proxy equal to x or to x in other units leaves the sieve's
        # first p terms (1, a, z1, x1), which span the instruments
        # (1, z, a, x) and the treatment bridge's design, linearly
        # dependent, whatever their units; a constant or zero z proxy
        # cannot be standardized.
        ds = generate(config, 3, rep)
        cases = [
            (ds.x, RankDeficient, "'x1' is linearly dependent"),
            (1e9 * ds.x, RankDeficient, "'x1' is linearly dependent"),
            (1e-9 * ds.x, RankDeficient, "'x1' is linearly dependent"),
            (np.full_like(ds.z, 2.5), DegenerateColumn, "'z1' is constant"),
            (0.0 * ds.z, DegenerateColumn, "'z1' is constant"),
        ]
        for z, error, message in cases:
            dependent = dataclasses.replace(ds, z=z)
            for estimator in (rgmm, p2sls, pipw, pdr):
                with pytest.raises(error, match=message):
                    estimator(dependent)

    @pytest.mark.parametrize("rows, column", [(2, "z1"), (3, "x1")])
    def test_fewer_rows_than_instruments_is_rank_deficient(self, rows, column):
        # Four instruments (1, a, z1, x1) on fewer rows: R has a pivot per
        # row only, and the first column past the last row pivots on zero.
        ds = generate(ScenarioConfig("I", 400), 3, 0)
        head = {role: getattr(ds, role)[:rows] for role in ("y", "a", "z", "w", "x")}
        with pytest.raises(RankDeficient, match=f"'{column}' is linearly dependent"):
            rgmm(dataclasses.replace(ds, **head))

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_a_proxy_orthogonal_to_every_instrument_is_a_rank_deficient_jacobian(
        self, scale
    ):
        # Two z proxies: the two-stage fit instruments with orthonormal
        # columns spanning (1, z1, z2, a, x). w is orthogonal to all of
        # them, so its Jacobian column is zero up to rounding of w's own
        # size, and gmm._solve finds rank 4 for the 5 parameters (the
        # bridge's 4 and tau), in any units of w.
        ds = make_gaussian_dataset(d_z=2, d_w=1)
        inst = np.column_stack([np.ones(ds.n), ds.z, ds.a, ds.x])
        v = np.random.default_rng(1).standard_normal(ds.n)
        w = v - inst @ np.linalg.lstsq(inst, v, rcond=None)[0]
        with pytest.raises(RankDeficientJacobian, match="do not identify"):
            p2sls(dataclasses.replace(ds, w=scale * w[:, None]))

    @pytest.mark.parametrize(
        "config", [ScenarioConfig("I", 400), ScenarioConfig("II", 3200)], ids=["I-400", "II-3200"]
    )
    def test_with_one_z_proxy_an_orthogonal_proxy_is_a_rank_deficient_jacobian(self, config):
        # One z proxy, and w replaced by its residual on (1, z1, a, x1): the
        # exactly identified fit's Jacobian column for w is zero up to
        # rounding of w's own size, which gmm._solve counts as unidentified
        # in any units of w, so every fit on those instruments raises and
        # the scan scores K = p as infinite. A solve that scales each
        # column by its own norm would pass that column as identified. pdr
        # is pipw's report, which reads no outcome-bridge fit
        # (test_rgmm_is_p2sls_and_pdr_is_pipw_relabelled).
        ds = generate(config, 3, 0)
        bridge = OutcomeBridge.linear(1, 1)
        for scale in (1e-9, 1.0, 1e9):
            orth = dataclasses.replace(ds, w=scale * _orthogonal_to_instruments(ds)[:, None])
            basis = orthonormalize(build_basis(orth, SieveSpec(), bridge.n_params))
            for fit in (rgmm, p2sls, lambda d: fit_optimal(d, basis, bridge)):
                with pytest.raises(RankDeficientJacobian, match="do not identify"):
                    fit(orth)
            assert select_k(orth, bridge, SieveSpec(), 12).scores[0] == np.inf

    @pytest.mark.parametrize(
        "config", [ScenarioConfig("I", 400), ScenarioConfig("II", 3200)], ids=["I-400", "II-3200"]
    )
    def test_a_weak_but_real_proxy_fits_in_any_units(self, config):
        # The orthogonal proxy plus 1e-6 z1 is identified, weakly: its
        # Jacobian column is far above rounding level, so it fits, with
        # an effect and SE that do not depend on w's units. Measured: at
        # most 4.6e-10 in tau (SE about 1e5 and 6e4) and 6.6e-11 relative
        # in SE, over 10^+-9 and 10^+-13.
        ds = generate(config, 3, 0)
        bridge = OutcomeBridge.linear(1, 1)
        weak = _orthogonal_to_instruments(ds) + 1e-6 * ds.z[:, 0]

        def exact(d):
            return fit_optimal(d, orthonormalize(build_basis(d, SieveSpec(), 4)), bridge)

        for estimator in (rgmm, p2sls, exact):
            base = estimator(dataclasses.replace(ds, w=weak[:, None]))
            for scale in (1e-13, 1e-9, 1e9, 1e13):
                got = estimator(dataclasses.replace(ds, w=scale * weak[:, None]))
                assert got.tau_hat == pytest.approx(base.tau_hat, rel=0, abs=1e-8)
                assert got.se_tau == pytest.approx(base.se_tau, rel=1e-8)

    @pytest.mark.parametrize("fixture", ["scenario1_ds", "scenario2_ds"])
    def test_gmm_div_at_the_bridge_dimension_is_rgmm(self, fixture, request):
        # rgmm fits its instruments (1, z1, a, x1) on the sieve's first p
        # terms (1, a, z1, x1), which span them, and at K = p fit_optimal is
        # the identity-weight fit with its unfloored sandwich: the two are
        # one fit, bit for bit.
        ds = request.getfixturevalue(fixture)
        bridge = OutcomeBridge.linear(1, 1)
        basis = orthonormalize(build_basis(ds, SieveSpec(), bridge.n_params))
        fit, report = fit_optimal(ds, basis, bridge), rgmm(ds)
        assert report.tau_hat == fit.tau_hat
        assert report.se_tau == fit.se_tau
        np.testing.assert_array_equal(report.aux["gamma_hat"], fit.gamma_hat)

    @pytest.mark.parametrize("d_z", [2, 3])
    @pytest.mark.parametrize(
        "mapped, in_mapped_units",
        [
            pytest.param(lambda ds: ds, True, id="identity"),
            pytest.param(
                lambda ds: dataclasses.replace(ds, z=1e9 * ds.z + 3), True, id="z-shift"
            ),
            pytest.param(
                lambda ds: dataclasses.replace(ds, x=1e-9 * ds.x - 2), False, id="x-shift"
            ),
        ],
    )
    def test_overidentified_p2sls_is_textbook_2sls(self, d_z, mapped, in_mapped_units):
        # The sieve standardizes every z and x, so the fit on its leading
        # terms (1, a, z..., x...) is 2SLS on (1, z, a, x) in the units and
        # origin the data come in. Measured: 4.8e-15 relative at most under
        # the identity and the z map. With x -> 1e-9 x - 2, x is collinear
        # with the intercept to 1e-9, and textbook 2SLS forms normal
        # equations of condition number about 1e18 in those units, so it is
        # no oracle there (its bridge coefficients miss by 7.8e3 relative).
        # The intercept is among both the regressors and the instruments,
        # so tau and its SE do not move under an affine map of x: the
        # mapped fit is held to textbook 2SLS on the unmapped data.
        # Measured: 1.3e-7 in tau and 1.3e-8 relative in SE.
        ds = make_gaussian_dataset(d_z=d_z, d_w=1)
        beta, v = _textbook_2sls(mapped(ds) if in_mapped_units else ds)
        a_col = 1 + ds.w.shape[1]
        se = np.sqrt(v[a_col, a_col])
        report = p2sls(mapped(ds))
        if in_mapped_units:
            np.testing.assert_allclose(report.aux["gamma_hat"], beta, rtol=1e-10)
            assert report.tau_hat == pytest.approx(beta[a_col], rel=1e-10)
            assert report.se_tau == pytest.approx(se, rel=1e-10)
        else:
            assert abs(report.tau_hat - beta[a_col]) <= 1e-4 * se
            assert report.se_tau == pytest.approx(se, rel=1e-4)

    @pytest.mark.parametrize(
        "z2", [lambda z1: z1, lambda z1: 1e9 * z1 + 3], ids=["z1", "shifted-z1"]
    )
    def test_a_repeated_z_proxy_is_rank_deficient(self, z2):
        # The sieve standardizes z2 to z1's column, in any units and
        # origin, so its leading terms (1, a, z1, z2, x1) are linearly
        # dependent: the rule that already holds with as many z as w
        # proxies.
        ds = make_gaussian_dataset(d_z=2, d_w=1)
        repeated = dataclasses.replace(ds, z=np.column_stack([ds.z[:, 0], z2(ds.z[:, 0])]))
        with pytest.raises(RankDeficient, match="'z2' is linearly dependent"):
            p2sls(repeated)

    def test_instruments_of_too_low_rank_are_rank_deficient(self):
        # Three copies of z1 against two w proxies: the sieve names the
        # first copy that depends on the others. One z proxy against two
        # w proxies gives four instruments (1, a, z1, x1) for the five
        # bridge coefficients over (1, w1, w2, a, x), which gmm._solve
        # finds unidentified.
        ds = make_gaussian_dataset(d_z=3, d_w=2)
        copies = dataclasses.replace(ds, z=np.repeat(ds.z[:, :1], 3, axis=1))
        with pytest.raises(RankDeficient, match="'z2' is linearly dependent"):
            p2sls(copies)
        with pytest.raises(RankDeficientJacobian, match="do not identify"):
            p2sls(make_gaussian_dataset(d_z=1, d_w=2))

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

    @pytest.mark.parametrize("rep", range(5))
    def test_pdr_is_the_stacked_doubly_robust_estimate_at_a_root(self, rep):
        # The reference is the estimator as defined, the mean of contrast +
        # (-1)^(1-A) q (y - h) at p2sls's outcome bridge and pipw's
        # treatment bridge, with the sandwich of its own stacked moments
        # (_stacked_doubly_robust). At a Newton root the balancing residual
        # r(theta) is below 1e-10, so pdr, pipw's report relabelled, is
        # that estimate to within gamma @ r(theta), and its SE to rounding.
        # Measured: 8.9e-11 in tau and 2.9e-11 relative in SE.
        ds = generate(ScenarioConfig("I", 400), 0, rep)
        dr = pdr(ds)
        gamma = p2sls(ds).aux["gamma_hat"]
        tau, se, imbalance = _stacked_doubly_robust(ds, gamma, dr.aux["theta_hat"])
        assert np.max(np.abs(imbalance)) < 1e-10
        assert dr.tau_hat == pytest.approx(tau, rel=0, abs=1e-9)
        assert dr.se_tau == pytest.approx(se, rel=1e-9)

    @pytest.mark.parametrize(
        "config, rep", [(ScenarioConfig("I", 400), 0), (ScenarioConfig("II", 800), 1)],
        ids=["I-400-0", "II-800-1"],
    )
    def test_pipw_se_is_the_stacked_sandwich(self, config, rep):
        # pipw projects its scores on J^-T e_tau; the reference forms the
        # sandwich J^-1 Upsilon J^-T of the stacked balancing and
        # reweighting moments with np.linalg.inv.
        ds = generate(config, 3, rep)
        report = pipw(ds)
        sign, feats, design, e_a = _balancing_system(ds)
        q = TreatmentBridge().q(ds.z, ds.a, ds.x, report.aux["theta_hat"])
        n, p = feats.shape
        scores = np.column_stack(
            [feats * (sign * q)[:, None] - e_a, report.tau_hat - sign * q * ds.y]
        )
        jac = np.zeros((p + 1, p + 1))
        jac[:p, :p] = -(feats * (q - 1.0)[:, None]).T @ design / n
        jac[p, :p] = ((q - 1.0) * ds.y) @ design / n
        jac[p, p] = 1.0
        jinv = np.linalg.inv(jac)
        v = jinv @ (scores.T @ scores / n) @ jinv.T
        assert report.se_tau == pytest.approx(np.sqrt(v[p, p] / n), rel=1e-10)


def _textbook_2sls(ds):
    """2SLS of y on (1, w, a, x) instrumented by (1, z, a, x), from its
    normal equations: the coefficients and their HC0 sandwich, unscaled by n."""
    regressors = np.column_stack([np.ones(ds.n), ds.w, ds.a, ds.x])
    inst = np.column_stack([np.ones(ds.n), ds.z, ds.a, ds.x])
    fitted = inst @ np.linalg.solve(inst.T @ inst, inst.T @ regressors)
    bread = np.linalg.inv(fitted.T @ regressors)
    beta = bread @ (fitted.T @ ds.y)
    resid = ds.y - regressors @ beta
    return beta, bread @ ((fitted * resid[:, None] ** 2).T @ fitted) @ bread.T


def _orthogonal_to_instruments(ds):
    """The residual of ``ds``'s first w proxy on the instruments (1, z, a, x)."""
    inst = np.column_stack([np.ones(ds.n), ds.z, ds.a, ds.x])
    w = ds.w[:, 0]
    return w - inst @ np.linalg.lstsq(inst, w, rcond=None)[0]


# Affine maps of w, x and z, and offsets of x and w: each leaves the span
# of the regressors and of the instruments as it was, since the intercept
# is among both, so tau and its SE do not move.
_AFFINE_MAPS = {
    "x-1e-9-2": ("x", 1e-9, -2.0),
    "x-1e-6+5": ("x", 1e-6, 5.0),
    "w-1e-9+5": ("w", 1e-9, 5.0),
    "w-1e9-3": ("w", 1e9, -3.0),
    "z-1e9+3": ("z", 1e9, 3.0),
    "z-1e-9-2": ("z", 1e-9, -2.0),
    "x+1e8": ("x", 1.0, 1e8),
    "w+1e8": ("w", 1.0, 1e8),
}
_AFFINE_CELLS = {
    "I-400-0": lambda: generate(ScenarioConfig("I", 400), 3, 0),
    "II-800-1": lambda: generate(ScenarioConfig("II", 800), 3, 1),
    "gaussian-2z": lambda: make_gaussian_dataset(d_z=2, d_w=1),
}


def _fit_at_the_bridge_dimension(ds):
    """``fit_optimal`` at K = p, the exactly identified fit."""
    bridge = OutcomeBridge.linear(ds.w.shape[1], ds.x.shape[1])
    return fit_optimal(ds, orthonormalize(build_basis(ds, SieveSpec(), bridge.n_params)), bridge)


_AFFINE_METHODS = {
    "naive": naive_gformula, "rgmm": rgmm, "p2sls": p2sls, "fit-at-p": _fit_at_the_bridge_dimension,
}


@pytest.mark.parametrize("mapping", list(_AFFINE_MAPS))
@pytest.mark.parametrize(
    "cell, method",
    [
        (cell, method)
        for cell, method in itertools.product(_AFFINE_CELLS, _AFFINE_METHODS)
        # rgmm needs as many z as w proxies.
        if not (cell == "gaussian-2z" and method == "rgmm")
    ],
)
def test_an_affine_map_of_a_proxy_or_covariate_moves_no_estimate(cell, method, mapping):
    # Every variance is the mean square of the scores projected through
    # one column-equilibrated solve, so it is positive semidefinite and
    # keeps its digits when a column is nearly collinear with the
    # intercept. Measured: tau within 2.4e-5 SE and SE within 6.7e-6
    # relative. Not covered: pipw and pdr, whose treatment-bridge solve
    # has tolerances absolute in the units of (1, w, a, x), and gmm-div
    # above K = p, whose polish takes finite-difference steps in the
    # units of x and w.
    ds = _AFFINE_CELLS[cell]()
    role, scale, shift = _AFFINE_MAPS[mapping]
    estimator = _AFFINE_METHODS[method]
    base = estimator(ds)
    got = estimator(dataclasses.replace(ds, **{role: scale * getattr(ds, role) + shift}))
    assert abs(got.tau_hat - base.tau_hat) <= 1e-4 * base.se_tau
    assert got.se_tau == pytest.approx(base.se_tau, rel=1e-4)


@pytest.mark.parametrize("power", [-16, -13, 13, 16])
@pytest.mark.parametrize("role", ["x", "w", "z"])
def test_naive_fits_a_column_in_any_units(role, power):
    # The solve scales each column by its root mean square, so scale is
    # not rank. Measured: at most 1.1e-14 relative.
    ds = generate(ScenarioConfig("I", 400), 3, 0)
    base = naive_gformula(ds)
    got = naive_gformula(dataclasses.replace(ds, **{role: getattr(ds, role) * 10.0**power}))
    assert got.tau_hat == pytest.approx(base.tau_hat, rel=1e-12)
    assert got.se_tau == pytest.approx(base.se_tau, rel=1e-12)


def test_naive_rejects_a_dependent_column_in_any_units():
    ds = generate(ScenarioConfig("I", 400), 3, 0)
    with pytest.raises(RankDeficientDesign, match="rank deficient"):
        naive_gformula(dataclasses.replace(ds, z=1e9 * ds.x + 3))


def _balancing_system(ds):
    """The treatment bridge's balancing moments E[(-1)^(1-A) q b] = e_a over
    the features b = (1, w, a, x), with q over (1, z, a, x): returns
    ``(sign, features, design, e_a)``."""
    sign = np.where(ds.a > 0.5, 1.0, -1.0)
    feats = np.column_stack([np.ones(ds.n), ds.w, ds.a, ds.x])
    design = np.column_stack([np.ones(ds.n), ds.z, ds.a, ds.x])
    e_a = np.zeros(feats.shape[1])
    e_a[1 + ds.w.shape[1]] = 1.0
    return sign, feats, design, e_a


def _stacked_doubly_robust(ds, gamma, theta):
    """The doubly robust estimate at ``(gamma, theta)`` and its SE from the
    sandwich of the stacked outcome-bridge IV moments, balancing moments and
    combination moment; returns ``(tau, se, imbalance)``, with the
    balancing residual at ``theta``."""
    sign, feats, design, e_a = _balancing_system(ds)
    q = TreatmentBridge().q(ds.z, ds.a, ds.x, theta)
    n, p = feats.shape
    resid = ds.y - feats @ gamma
    contrib = e_a @ gamma + sign * q * resid
    tau = contrib.mean()
    imbalance = (feats * (sign * q)[:, None]).mean(axis=0) - e_a
    scores = np.column_stack(
        [design * resid[:, None], feats * (sign * q)[:, None] - e_a, tau - contrib]
    )
    jac = np.zeros((2 * p + 1, 2 * p + 1))
    jac[:p, :p] = -design.T @ feats / n
    jac[p:-1, p:-1] = -(feats * (q - 1.0)[:, None]).T @ design / n
    jac[-1, :p] = imbalance
    jac[-1, p:-1] = ((q - 1.0) * resid) @ design / n
    jac[-1, -1] = 1.0
    jinv = np.linalg.inv(jac)
    v = jinv @ (scores.T @ scores / n) @ jinv.T
    return tau, np.sqrt(v[-1, -1] / n), imbalance


def test_stacked_se_rejects_a_zero_variance():
    scores = np.zeros((10, 2))
    error = baselines._se_error(baselines._stacked_se(scores, np.array([0.0, 1.0])))
    with pytest.raises(SingularVariance, match="not positive"):
        raise error


@pytest.mark.parametrize("method", list(BASELINES))
def test_an_all_zero_outcome_has_no_standard_error(method, scenario1_ds):
    # Every score is zero, so no baseline has a positive variance to report.
    silent = dataclasses.replace(scenario1_ds, y=np.zeros(scenario1_ds.n))
    with pytest.raises(SingularVariance, match="sandwich variance is not positive"):
        BASELINES[method](silent)


def _with_z_near_w(ds, scale):
    """``ds`` with z replaced by w plus ``scale`` times fixed normal noise."""
    noise = np.random.default_rng(1).standard_normal(ds.w.shape)
    return dataclasses.replace(ds, z=ds.w + scale * noise)


@pytest.mark.parametrize("scale", [0.0, 1e-13, 1e-12])
def test_naive_rejects_the_designs_matrix_rank_calls_deficient(scale):
    # The design (1, a, w, z, x) loses a column's worth of rank as z nears
    # w; naive rejects exactly the designs that matrix_rank, with its
    # default tolerance, ranks below their width. At I/400 seed 0 the two
    # noise scales straddle that tolerance.
    ds = _with_z_near_w(generate(ScenarioConfig("I", 400), 0, 0), scale)
    design = np.column_stack([np.ones(ds.n), ds.a, ds.w, ds.z, ds.x])
    if np.linalg.matrix_rank(design) < design.shape[1]:
        with pytest.raises(RankDeficientDesign, match="regression design matrix is rank deficient"):
            naive_gformula(ds)
    else:
        assert scale > 0.0 and naive_gformula(ds).se_tau > 0.0


def test_a_rank_deficient_naive_design_is_a_recorded_error(monkeypatch):
    real = simulation.generate
    monkeypatch.setattr(
        simulation, "generate", lambda *args: _with_z_near_w(real(*args), 0.0)
    )
    records = run_replications(ScenarioConfig("I", 400), ("naive",), 2, 0)
    assert [rec["error"] for rec in records] == [
        "RankDeficientDesign: regression design matrix is rank deficient"
    ] * 2


@pytest.mark.parametrize("method", list(BASELINES))
def test_registry_entry_reports_its_name(method, scenario1_ds):
    report = BASELINES[method](scenario1_ds)
    assert isinstance(report, EstimateReport)
    assert report.method == method
    assert np.isfinite(report.tau_hat) and report.se_tau > 0


def test_outcome_bridge_needs_one_instrument_per_parameter():
    # Two z proxies and one w: five instruments (1, z1, z2, a, x) for the
    # four coefficients of the bridge over (1, w, a, x).
    ds = make_gaussian_dataset(d_z=2, d_w=1)
    with pytest.raises(DimensionMismatch, match="need exactly 4 instruments .* got 5"):
        rgmm(ds)


def test_reweighting_solver_keeps_overflow_silent():
    # In this replication the damped Newton search backtracks through
    # trial points whose residual norms overflow.
    ds = generate(ScenarioConfig("II", 800), 0, 17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = pipw(ds)
    assert np.isfinite(report.tau_hat)


def _outcome(estimator, ds):
    """A report's estimate, SE and bridge fits, or its error as recorded."""
    try:
        report = estimator(ds)
    except ProxiGmmError as exc:
        return f"{type(exc).__name__}: {exc}"
    return report.tau_hat, report.se_tau, {key: val.tolist() for key, val in report.aux.items()}


def _treated_where_x1_is_positive() -> Dataset:
    """A Gaussian dataset treated exactly where x1 > 0, whose balancing
    system has no root."""
    base = make_gaussian_dataset()
    return dataclasses.replace(base, a=(base.x[:, 0] > 0).astype(float))


def _treatment_cases() -> list[Dataset]:
    """New datasets, which no call has fitted, for the sharing tests."""
    return [
        generate(ScenarioConfig("II", 800), 0, 3),
        generate(ScenarioConfig("II", 800), 0, 17),  # minimum-norm fallback
        make_gaussian_dataset(d_z=2, d_w=1),  # the solve rejects it before it builds
        # The solve fails, the outcome-bridge fit does not.
        _treated_where_x1_is_positive(),
    ]


def _replaced(make, **roles):
    """A maker of ``make()``'s dataset with each role in ``roles`` set to
    its function of that dataset."""
    def made():
        ds = make()
        return dataclasses.replace(ds, **{role: f(ds) for role, f in roles.items()})

    return made


_I400 = functools.partial(generate, ScenarioConfig("I", 400), 3, 0)
# Per case: a maker of its dataset, whether the treatment-bridge solve runs
# the minimum-norm search, and the error that pipw and p2sls give, if any.
_RELABEL_CASES = {
    "newton-root": (_I400, False, None, None),
    **{f"II-800-{rep}": (functools.partial(generate, ScenarioConfig("II", 800), 0, rep),
                         True, None, None)
       for rep in (17, 35)},
    **{f"II-800-significant-{rep}": (
        functools.partial(generate, ScenarioConfig("II", 800, distortion="significant"), 3, rep),
        True, None, None)
       for rep in (0, 5, 7, 85)},
    "two-z": (functools.partial(make_gaussian_dataset, d_z=2, d_w=1),
              False, "DimensionMismatch", None),
    "treated-where-x1-positive": (_treated_where_x1_is_positive, True, "NoConvergence", None),
    "constant-z": (_replaced(_I400, z=lambda ds: np.full_like(ds.z, 2.5)),
                   False, "DegenerateColumn", "DegenerateColumn"),
    "z-1e9x+3": (_replaced(_I400, z=lambda ds: 1e9 * ds.x + 3),
                 False, "RankDeficient", "RankDeficient"),
    "w-orthogonal": (_replaced(_I400, w=lambda ds: _orthogonal_to_instruments(ds)[:, None]),
                     False, None, "RankDeficientJacobian"),
}


@pytest.mark.parametrize("case", list(_RELABEL_CASES))
def test_rgmm_is_p2sls_and_pdr_is_pipw_relabelled(monkeypatch, case):
    # With the linear bridge, exactly identified IV is one estimator
    # whatever its name, and pdr's correction -gamma @ r(theta) is zero
    # at every Newton root: rgmm returns p2sls's report and pdr pipw's,
    # each under its own name, or the same error. So they agree on the
    # minimum-norm fallback records too, whose SEs carry no information.
    # Only rgmm rejects more z than w proxies, which p2sls fits. With w
    # orthogonal to the instruments p2sls cannot identify the outcome
    # bridge, while pipw, and so pdr, read 0.745 with SE 5.06.
    make, searched, pipw_error, p2sls_error = _RELABEL_CASES[case]
    searches = []
    search = baselines._levenberg_marquardt
    monkeypatch.setattr(
        baselines, "_levenberg_marquardt", lambda *args: searches.append(1) or search(*args)
    )
    got = {}
    for estimator in (rgmm, p2sls, pipw, pdr):
        ds = make()  # a dataset of its own, which no other estimator fitted
        got[estimator] = _outcome(estimator, ds)
        if not isinstance(got[estimator], str):
            assert estimator(ds).method == estimator.__name__
    for estimator, error in ((pipw, pipw_error), (p2sls, p2sls_error)):
        assert isinstance(got[estimator], str) == (error is not None)
        assert error is None or got[estimator].startswith(f"{error}: ")
    assert bool(searches) == searched
    assert got[pdr] == got[pipw]
    unidentified = baselines._identification_error(make())
    assert got[rgmm] == (
        got[p2sls] if unidentified is None else f"DimensionMismatch: {unidentified}"
    )


def _share_one_fit(monkeypatch, name, estimators, cases, reached=None, modules=(baselines,)):
    """Check that ``estimators``, called in either order on a dataset,
    report what each reports alone on a dataset of its own, and that they
    and every later call run the patched ``<module>.<name>`` once per
    dataset whose fit returns, and once per call that reaches it on a
    dataset whose fit raises; a dataset made from the first with
    ``dataclasses.replace`` runs it once more. ``reached`` lists the cases
    whose calls reach it, every case by default; the first must be one.
    ``modules`` lists the modules whose ``name`` is patched, all with one
    counted function. Returns the reports alone, by case."""
    alone = [dict(zip(estimators, map(_outcome, estimators, pair)))
             for pair in zip(*(cases() for _ in estimators))]
    ran, raised, current = [], set(), [None]
    real = getattr(modules[0], name)

    def counted(*args):
        ran.append(current[0])
        try:
            out = real(*args)
        except ProxiGmmError:
            raised.add(current[0])
            raise
        # A stacked kernel gives a dataset's error as its entry.
        if isinstance(out, list) and any(isinstance(entry, ProxiGmmError) for entry in out):
            raised.add(current[0])
        return out

    def outcome(est, ds):
        """``_outcome(est, ds)``, with ``ds`` as the dataset ``counted`` records."""
        current[0] = id(ds)
        return _outcome(est, ds)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    for order in (estimators, estimators[::-1]):
        ran.clear()
        raised.clear()
        datasets = cases()
        reach = range(len(datasets)) if reached is None else reached
        assert 0 in reach
        shared = [{est: outcome(est, ds) for est in order} for ds in datasets]
        assert shared == alone
        for est in estimators:
            outcome(est, datasets[0])  # the dataset keeps the fit
        copy = dataclasses.replace(datasets[0])
        for est in order:
            outcome(est, copy)  # a dataset made from it keeps nothing
        assert id(datasets[0]) not in raised
        calls = {id(ds): (len(order) if id(ds) in raised else 1) * (case in reach)
                 for case, ds in enumerate(datasets)}
        assert ran == [id(ds) for ds in datasets for _ in range(calls[id(ds)])] + [id(copy)]
    return alone


def test_pipw_and_pdr_share_one_treatment_solve(monkeypatch):
    # Cases 2 and 3 raise in the solve, which each of pipw and pdr reaches.
    alone = _share_one_fit(monkeypatch, "_solve_treatment_bridges", (pipw, pdr), _treatment_cases)
    assert alone[3][pipw] == alone[3][pdr] and alone[3][pipw].startswith("NoConvergence")
    assert alone[2][pipw] == alone[2][pdr]
    assert alone[2][pipw].startswith("DimensionMismatch: need exactly 4 instruments")


def test_pipw_and_pdr_form_one_reweighting_sandwich(monkeypatch):
    # The dataset keeps pipw's report and pdr reads it, so in either order
    # the two form pipw's stacked sandwich, their only _stacked_se call,
    # once per dataset whose solve returns (cases 0 and 1). Cases 2 and 3
    # raise in the solve before it, and both estimators raise alike.
    alone = _share_one_fit(monkeypatch, "_stacked_se", (pipw, pdr), _treatment_cases, (0, 1))
    assert alone[3][pipw] == alone[3][pdr] and alone[3][pipw].startswith("NoConvergence")
    assert all(alone[case][pipw][1] == alone[case][pdr][1] for case in (0, 1))


def _gmm_div(ds: Dataset) -> EstimateReport:
    """``gmm-div``'s fit at k_bar 12 as a report, its bridge fit as ``aux``."""
    bridge = OutcomeBridge.linear(ds.w.shape[1], ds.x.shape[1])
    fit = select_and_fit(ds, bridge, SieveSpec(), 12)[0]
    return EstimateReport("gmm-div", fit.tau_hat, fit.se_tau, ds.n, {"gamma_hat": fit.gamma_hat})


def test_rgmm_p2sls_and_gmm_div_share_one_outcome_bridge_fit(monkeypatch):
    # Case 2 has five instruments for four parameters, which only p2sls
    # fits. rgmm and p2sls read the dataset's kept fit on the sieve's terms
    # (1, a, z, x); with as many z as w proxies it is the fit gmm-div reads
    # where it selects K* = p: on I/400 seed 3 rep 0 (case 3), not on
    # case 0, which selects K* > p.
    cases = lambda: [*_treatment_cases()[:3], generate(ScenarioConfig("I", 400), 3, 0)]
    estimators = (rgmm, p2sls, _gmm_div)
    alone = _share_one_fit(
        monkeypatch, "_sieve_iv_fits", estimators, cases, modules=(baselines, selection)
    )
    assert alone[2][rgmm].startswith("DimensionMismatch")
    assert all(alone[case][rgmm] == alone[case][p2sls] for case in (0, 1, 3))
    assert np.isfinite(alone[2][p2sls][0])
    assert alone[3][_gmm_div] == alone[3][rgmm]
    assert alone[0][_gmm_div][0] != alone[0][rgmm][0]
    # With as many z as w proxies gmm-div at K* = p returns the very
    # object p2sls reads. With two z proxies and one w, gmm-div's K* = 5 is
    # p2sls's instrument count, but gmm-div's fit there is optimally
    # weighted: the two are separate fits.
    bridge = OutcomeBridge.linear(1, 1)
    one_z, two_z = generate(ScenarioConfig("I", 400), 3, 0), make_gaussian_dataset(d_z=2, d_w=1)
    for ds, k_star in ((one_z, bridge.n_params), (two_z, 5)):
        fit, diag = select_and_fit(ds, bridge, SieveSpec(), 12)
        assert diag.k_star == k_star
        shared = baselines._canonical_bridge_fit(ds)
        assert (fit is shared) == (ds is one_z)
        assert (fit.tau_hat == shared.tau_hat) == (ds is one_z)


def test_a_dataset_whose_fit_raised_is_freed_at_once(monkeypatch):
    # The dataset keeps nothing of its failed outcome-bridge fit (the four
    # instruments (1, a, z1, x1) cannot identify five bridge parameters),
    # so a later call fits again and raises the same type and message;
    # the tracebacks, whose frames hold the dataset, leave it to be freed
    # without a cyclic collection.
    ran = []
    real = baselines._sieve_iv_fits
    monkeypatch.setattr(
        baselines, "_sieve_iv_fits",
        lambda datasets, bridge, k: ran.append(len(datasets)) or real(datasets, bridge, k),
    )
    gc.disable()
    try:
        ds = make_gaussian_dataset(d_z=1, d_w=2)
        ref = weakref.ref(ds)
        first = _outcome(p2sls, ds)
        assert first.startswith("RankDeficientJacobian: moment Jacobian has rank 5 < 6")
        assert first.endswith("instruments do not identify the bridge parameters")
        assert _outcome(p2sls, ds) == first
        # rgmm and pdr reject the dataset before they reach the fit.
        assert _outcome(rgmm, ds) == _outcome(pdr, ds)
        assert _outcome(rgmm, ds).startswith("DimensionMismatch: need exactly 5 instruments")
        assert ran == [1, 1]
        del ds
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("rep", [3, 34], ids=["newton", "minimum-norm-fallback"])
def test_treatment_solve_matches_one_that_calls_the_bridge(monkeypatch, rep):
    # The solve evaluates q from a signed design built once per solve. A
    # solve that calls TreatmentBridge().q at every point it evaluates alone
    # gives the same theta and q bit for bit, both when Newton converges
    # and on a rep that falls back to the minimum-norm search, which runs
    # once, from theta = 0.
    ds = generate(ScenarioConfig("II", 800), 3, rep)
    theta, q, _ = baselines._solve_treatment_bridge(ds)
    searches = []
    search = baselines._levenberg_marquardt

    def counted(balance, jacobian, start):
        searches.append(start.copy())
        return search(balance, jacobian, start)

    def bridge_q(signed_b, theta):
        # One theta, or a stack of them: the solve's Newton steps evaluate
        # its systems as a stack.
        thetas = np.reshape(theta, (-1, theta.shape[-1]))
        q = np.array([TreatmentBridge().q(ds.z, ds.a, ds.x, t) for t in thetas])
        return q.reshape(*theta.shape[:-1], -1)

    monkeypatch.setattr(baselines, "_bridge_values", bridge_q)
    monkeypatch.setattr(baselines, "_levenberg_marquardt", counted)
    ref_theta, ref_q, _ = baselines._solve_treatment_bridge(ds)
    assert np.array_equal(theta, ref_theta)
    assert np.array_equal(q, ref_q)
    assert len(searches) == (1 if rep == 34 else 0)
    assert all(np.array_equal(start, np.zeros_like(theta)) for start in searches)


class _FallbackTaken(Exception):
    pass


def _take_fallback(*args):
    """Stands in for the minimum-norm search: raises :class:`_FallbackTaken`."""
    raise _FallbackTaken


# The II/800 seed-3 reps among 0-543 on which damped Newton finds no root
# from any start, and the solve takes the minimum-norm fallback.
_FALLBACK_REPS = [34, 62, 170, 214, 287, 308, 422, 520, 543]


def test_newton_gives_up_on_the_same_reps(monkeypatch):
    # Newton abandons a start whose balancing Jacobian is singular or has a
    # reciprocal 1-norm condition number below eps. Moving that rule moves
    # which reps reach the fallback, which is stubbed out here.
    monkeypatch.setattr(baselines, "_levenberg_marquardt", _take_fallback)
    taken = []
    for rep in range(544):
        try:
            baselines._solve_treatment_bridge(generate(ScenarioConfig("II", 800), 3, rep))
        except _FallbackTaken:
            taken.append(rep)
    assert taken == _FALLBACK_REPS


def _solve_with_halving_loop(ds):
    """Damped Newton on the treatment bridge as a loop that halves each step
    and evaluates every trial point alone, with the signs applied per
    evaluation.

    Returns the ``(theta, q)`` carried into every Newton iteration, and the
    root's ``(theta, q)``, or None when every start gives up.
    """
    sign, basis_c, basis_b, target = _balancing_system(ds)

    def balance(theta):
        q = 1.0 + np.exp(-sign * (basis_b @ theta))
        return q, q @ (sign[:, None] * basis_c) / ds.n - target

    carried = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in baselines._newton_starts(basis_b.shape[1]):
            theta = start.copy()
            q, res = balance(theta)
            for _ in range(baselines._NEWTON_MAX_ITER):
                if np.max(np.abs(res)) < baselines._NEWTON_TOL:
                    return carried, (theta, q)
                carried.append((theta, q))
                jac = -(basis_c * (q - 1.0)[:, None]).T @ basis_b / ds.n
                try:
                    jinv = np.linalg.inv(jac)
                except np.linalg.LinAlgError:
                    break
                rcond = 1.0 / (np.abs(jac).sum(axis=0).max() * np.abs(jinv).sum(axis=0).max())
                if not rcond >= np.finfo(float).eps:
                    break
                step = -(jinv @ res)
                norm0 = np.linalg.norm(res)
                scale = 1.0
                for _ in range(30):
                    cand = theta + scale * step
                    cand_q, cand_res = balance(cand)
                    if np.all(np.isfinite(cand_res)) and np.linalg.norm(cand_res) < norm0:
                        break
                    scale *= 0.5
                else:
                    break
                theta, q, res = cand, cand_q, cand_res
    return carried, None


def _carried_by_solve(monkeypatch, ds):
    """:func:`_solve_with_halving_loop`'s outputs, read off the shipped solve
    with the minimum-norm fallback stubbed out: every Newton iteration's
    Jacobian is built from the ``q`` it carries, which one evaluation of
    ``_bridge_values`` made from its ``theta``."""
    made, carried = {}, []
    bridge_values, jacobian = baselines._bridge_values, baselines._balancing_jacobian

    def rows(a):
        return np.reshape(a, (-1, a.shape[-1]))

    # The solve evaluates its systems as a stack and passes the Jacobian
    # the rows of q still iterating, so each row is keyed by its bytes.
    def values(signed_b, theta):
        q = bridge_values(signed_b, theta)
        for t, row in zip(rows(theta), rows(q)):
            made[row.tobytes()] = t.copy(), row.copy()
        return q

    def traced_jacobian(basis_c, basis_b, q):
        carried.extend(made[row.tobytes()] for row in rows(q))
        return jacobian(basis_c, basis_b, q)

    with monkeypatch.context() as patch:
        patch.setattr(baselines, "_levenberg_marquardt", _take_fallback)
        patch.setattr(baselines, "_bridge_values", values)
        patch.setattr(baselines, "_balancing_jacobian", traced_jacobian)
        try:
            theta, q, _ = baselines._solve_treatment_bridge(ds)
        except _FallbackTaken:
            return carried, None
    return carried, (theta, q)


# The I/400 seed-3 reps among 0-999 on which damped Newton finds no root.
_I400_FALLBACK_REPS = [103, 532, 746, 792]


@pytest.mark.parametrize(
    "scenario, n, reps, gives_up",
    [
        ("II", 800, _FALLBACK_REPS, _FALLBACK_REPS),
        ("II", 800, range(41), [34]),
        ("I", 400, _I400_FALLBACK_REPS, _I400_FALLBACK_REPS),
        # I/400 is the cell whose Newton loop the benchmark times most;
        # every one of these reps converges.
        ("I", 400, range(41), []),
    ],
    ids=["II-800-fallback", "II-800-0-40", "I-400-fallback", "I-400-0-40"],
)
def test_batched_halving_carries_what_the_halving_loop_carries(
    monkeypatch, scenario, n, reps, gives_up
):
    # The solve scores a step's halvings in one batch and evaluates the
    # accepted one alone. Every Newton iteration must start from the theta
    # and q of the loop that tries the halvings one by one, bit for bit,
    # on reps where Newton converges and on reps where every start gives up.
    gave_up = []
    for rep in reps:
        ds = generate(ScenarioConfig(scenario, n), 3, rep)
        ref_carried, ref_root = _solve_with_halving_loop(ds)
        carried, root = _carried_by_solve(monkeypatch, ds)
        assert len(carried) == len(ref_carried)
        for (theta, q), (ref_theta, ref_q) in zip(carried, ref_carried):
            assert np.array_equal(theta, ref_theta) and np.array_equal(q, ref_q)
        assert (root is None) == (ref_root is None)
        if root is None:
            gave_up.append(rep)
        else:
            assert np.array_equal(root[0], ref_root[0]) and np.array_equal(root[1], ref_root[1])
    assert gave_up == gives_up


def _search_and_oracle(ds):
    """The balancing residuals at the minimum-norm search's point and at
    that of scipy's ``least_squares(method="lm")``, MINPACK with a
    finite-difference Jacobian, run from the same start on the same
    residual, a non-finite moment read as 1e6 (the oracle has no other way
    to reject a point)."""
    from scipy.optimize import least_squares

    seen = []
    search = baselines._levenberg_marquardt

    def spy(balance, jacobian, start):
        theta = search(balance, jacobian, start)
        seen.append((balance, start.copy(), theta))
        return theta

    def sentinel(theta):
        res = balance(theta)[1]
        return np.where(np.isfinite(res), res, 1e6)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baselines, "_levenberg_marquardt", spy)
        try:
            baselines._solve_treatment_bridge(ds)
        except NoConvergence:
            pass
    ((balance, start, theta),) = seen
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = least_squares(sentinel, start, method="lm", max_nfev=20_000).x
        return balance(theta)[1], balance(oracle)[1]


def _accepted(res):
    return bool(np.all(np.isfinite(res)) and np.max(np.abs(res)) < baselines._MINNORM_ACCEPT)


def test_minimum_norm_search_matches_minpack():
    # On every seed-3 dataset where Newton finds no root, the search and
    # MINPACK accept, and end at the same squared residual norm to within
    # 1e-6 relative (measured: at most 2.3e-9). Where the balancing system
    # has no near-root, both reject and the solve raises.
    gaps = []
    for scenario, n, reps in [("II", 800, _FALLBACK_REPS), ("I", 400, _I400_FALLBACK_REPS)]:
        for rep in reps:
            ours, oracle = _search_and_oracle(generate(ScenarioConfig(scenario, n), 3, rep))
            assert _accepted(ours) and _accepted(oracle)
            gaps.append(abs(ours @ ours - oracle @ oracle) / (oracle @ oracle))
    assert len(gaps) == 13 and max(gaps) < 1e-6
    separated = _treatment_cases()[3]
    ours, oracle = _search_and_oracle(separated)
    assert not _accepted(ours) and not _accepted(oracle)
    with pytest.raises(NoConvergence, match="minimum-norm imbalance"):
        baselines._solve_treatment_bridge(separated)


def test_minimum_norm_search_rejects_a_non_finite_trial_point():
    # A linear residual A theta - b whose first trial point reads nan: the
    # search rejects it, raises its damping so that the next step is
    # shorter, and still ends at the root.
    a, b = np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, -2.0])
    points = []

    def balance(theta):
        points.append(theta.copy())
        return None, np.full(2, np.nan) if len(points) == 2 else a @ theta - b

    theta = baselines._levenberg_marquardt(balance, lambda q: a, np.zeros(2))
    np.testing.assert_allclose(theta, np.linalg.solve(a, b), rtol=1e-8)
    assert np.linalg.norm(points[2]) < np.linalg.norm(points[1])


@pytest.mark.parametrize("start", [(0.0, 0.0), (1e-6, 0.0)])
def test_minimum_norm_search_stops_where_the_residual_is_orthogonal_to_the_jacobian(start):
    # The residual (t0, t1, 1000) has no root and is stationary at the
    # origin, where J'r = 0. At (1e-6, 0) the cosine of J's first column
    # with r is 1e-9, below the tolerance, although the step there would
    # be 1e-6, far above the step test's. Either way the gradient test
    # stops the search at its start after one evaluation.
    points = []

    def balance(theta):
        points.append(theta.copy())
        return None, np.append(theta, 1e3)

    start = np.array(start)
    theta = baselines._levenberg_marquardt(balance, lambda q: np.eye(3, 2), start)
    assert theta is start and len(points) == 1


@pytest.mark.parametrize("rcond, steps", [(0.0, False), (1e-17, False), (1e-15, True)])
def test_newton_abandons_a_start_whose_jacobian_is_ill_conditioned(monkeypatch, rcond, steps):
    # A diagonal Jacobian with entries 1 and rcond has reciprocal 1-norm
    # condition number rcond. Below eps every start is given up before its
    # first Newton step, at 0 because the Jacobian cannot be inverted at
    # all; above it the step runs. Each start evaluates the bridge once at
    # its own point, so any further evaluation is a step's trial point.
    evaluations = []
    real_values = baselines._bridge_values
    monkeypatch.setattr(baselines, "_levenberg_marquardt", _take_fallback)
    monkeypatch.setattr(
        baselines, "_balancing_jacobian",
        lambda basis_c, basis_b, q: np.broadcast_to(
            np.diag([1.0, 1.0, 1.0, rcond]), (*q.shape[:-1], 4, 4)
        ),
    )
    monkeypatch.setattr(
        baselines, "_bridge_values", lambda *a: evaluations.append(1) or real_values(*a)
    )
    with pytest.raises(_FallbackTaken):
        baselines._solve_treatment_bridge(generate(ScenarioConfig("II", 800), 3, 3))
    starts = sum(1 for _ in baselines._newton_starts(4))
    assert (len(evaluations) > starts) == steps


def test_each_newton_step_factorizes_its_jacobian_once(monkeypatch):
    # The step reuses the inverse that the conditioning check forms, so a
    # Newton iteration makes one np.linalg factorization per Jacobian.
    jacobians, factorizations = [], []
    real_jacobian = baselines._balancing_jacobian
    monkeypatch.setattr(
        baselines, "_balancing_jacobian", lambda *a: jacobians.append(1) or real_jacobian(*a)
    )
    for name in ("inv", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, real=real: factorizations.append(1) or real(*a)
        )
    baselines._solve_treatment_bridge(generate(ScenarioConfig("II", 800), 3, 3))
    assert jacobians and len(factorizations) == len(jacobians)


def test_a_failed_svd_is_a_recorded_error(monkeypatch):
    # Every weighted moment system is solved by one SVD (gmm._solve), which
    # turns a failure into its caller's ProxiGmmError, so a Monte Carlo call
    # records it. The overidentified fit solves one system at a time (a 2-D
    # SVD); the sieve IV fit solves a stack of datasets and the scan a stack
    # of candidates (3-D). p2sls fails in its one IV fit, a stack of one
    # dataset or of a block's, gmm-div with K* > p in its first fit step
    # after the scan, or in the scan itself.
    real_svd = np.linalg.svd

    def fail_at(ndim):
        def svd(a, *args, **kwargs):
            if np.ndim(a) == ndim:
                raise np.linalg.LinAlgError("injected")
            return real_svd(a, *args, **kwargs)

        return svd

    message = "the SVD of the weighted moment Jacobian did not converge"
    monkeypatch.setattr(np.linalg, "svd", fail_at(3))
    config = ScenarioConfig("I", 400)
    with pytest.raises(RankDeficientJacobian, match=message):
        p2sls(generate(config, 0, 0))
    records = run_replications(config, ("p2sls",), 2, 0)
    assert [rec["error"] for rec in records] == [f"RankDeficientJacobian: {message}"] * 2
    config = ScenarioConfig("II", 800)
    monkeypatch.setattr(np.linalg, "svd", real_svd)
    assert [rec["k_star"] for rec in run_replications(config, ("gmm-div",), 2, 3)] == [12, 12]
    for ndim, error in ((2, "RankDeficientJacobian"), (3, "AllCandidatesSingular")):
        monkeypatch.setattr(np.linalg, "svd", fail_at(ndim))
        records = run_replications(config, ("gmm-div",), 2, 3)
        assert [rec["error"] for rec in records] == [f"{error}: {message}"] * 2
