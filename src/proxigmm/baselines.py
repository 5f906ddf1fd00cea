"""Reference estimators: naive regression, proxy GMM/2SLS/IPW/DR.

Each estimator's standard error is the sandwich of its stacked estimating
equations, the mean square of its scores projected on its influence
direction (:mod:`gmm`'s identity-weight fit, or :func:`_stacked_se`), so its
:mod:`gmm` interval and Wald test account for every estimated nuisance parameter.

``pdr`` is ``pipw`` plus its imbalance correction: the treatment bridge
balances the outcome bridge's features, whose contrast is the balancing
target, so ``pdr``'s tau is ``pipw``'s minus ``gamma @ r(theta)``, with ``r``
the balancing residual, and its standard error is ``pipw``'s.

Each bridge has one fit per dataset: ``rgmm``, ``p2sls`` and ``pdr`` read
one IV fit of the outcome bridge, instrumented by the sieve's leading terms
(1, a, z, x) (``gmm._sieve_iv_fits``), so with as many z as w proxies
``p2sls`` equals ``rgmm``, and both are the exactly identified fit that
``gmm-div`` reads at K* = p; ``pipw`` and ``pdr`` read one treatment-bridge
solve, which balances the outcome bridge's features, and one ``pipw``
report, whose sandwich ``pdr`` reports.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .bridges import OutcomeBridge
from .data import Dataset, _stack, _stack_arrays
from .errors import (
    DimensionMismatch,
    NoConvergence,
    ProxiGmmError,
    RankDeficientDesign,
    SingularSystem,
    SingularVariance,
    _unless_error,
)
from .gmm import GmmFit, _Features, _fit_each, _fit_once, _one, _scaled_solve, _sieve_iv_fits
from .gmm import _stacked, confidence_interval, wald_test

_NEWTON_MAX_ITER = 50
_NEWTON_TOL = 1e-10
# Machine epsilon, looked up once rather than at every Newton step.
_EPS = np.finfo(float).eps
_NEWTON_START_MAGNITUDE = 0.5
# Backtracking scales tried after the full Newton step: 2^-1, ..., 2^-29,
# the values a loop halving 1.0 forms.
_NEWTON_HALVINGS = np.ldexp(1.0, -np.arange(1, 30))
# Minimum-norm fallback: the largest acceptable per-moment imbalance at the
# minimizer. The cut must sit below 1: a dataset with no untreated (or no
# treated) units leaves the constant balancing slot at mean(q) > 1 forever,
# which should surface as a solver failure, while genuine near-roots found
# by the fallback on identifiable data sit well under this level.
_MINNORM_ACCEPT = 0.5
# Its Levenberg-Marquardt search: the tolerance of each stopping test
# (MINPACK's default in scipy), the most residual evaluations, and the
# initial damping relative to the largest diagonal entry of J'J.
_LM_TOL = 1e-8
_LM_MAX_EVALUATIONS = 20_000
_LM_DAMPING = 1e-3


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate, standard error, and auxiliary parameter values, with
    the interval and Wald test of :func:`gmm.confidence_interval` and :func:`gmm.wald_test`."""

    method: str
    tau_hat: float
    se_tau: float
    n: int
    aux: dict = field(default_factory=dict)

    def ci95(self) -> tuple[float, float]:
        return confidence_interval(self)

    def wald_reject(self) -> bool:
        """Whether the 5% two-sided Wald test rejects tau = 0."""
        return wald_test(self)[1]

    def to_json(self) -> str:
        aux = {
            key: val.tolist() if isinstance(val, np.ndarray) else val
            for key, val in self.aux.items()
        }
        return json.dumps(
            {
                "method": self.method,
                "tau_hat": self.tau_hat,
                "se_tau": self.se_tau,
                "ci95": list(self.ci95()),
                "n": self.n,
                "aux": aux,
            }
        )


def _stacked_se(scores: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Standard errors, per system of a stack, of the estimate whose
    influence on the per-observation ``scores`` (..., n, m) is
    ``direction`` (..., m): √(mean((scores·direction)²)/n), the sandwich of
    its estimating equations; NaN where that variance is not positive and
    finite (:func:`_se_error`)."""
    var = np.mean((scores @ direction[..., None])[..., 0] ** 2, axis=-1)
    usable = np.isfinite(var) & (var > 0.0)
    return np.where(usable, np.sqrt(np.where(usable, var, 1.0) / scores.shape[-2]), np.nan)


def _se_error(se: float) -> SingularVariance | None:
    """The error of a sandwich standard error that :func:`_stacked_se` found unusable."""
    if np.isnan(se):
        return SingularVariance("sandwich variance is not positive at the target")
    return None


def _balancing_jacobian(basis_c: np.ndarray, basis_b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Jacobian of the treatment bridge's balancing moments in its
    parameters, for one system or a stack."""
    weighted = basis_c * (q - 1.0)[..., None]
    return -np.swapaxes(weighted, -1, -2) @ basis_b / basis_c.shape[-2]


def naive_gformula(ds: Dataset) -> EstimateReport:
    """Outcome regression treating both proxies as ordinary confounders.

    OLS of y on (1, a, w, z, x) with each column scaled by its norm, so a
    column independent of the others fits in any units and a dependent one
    raises :class:`RankDeficientDesign` in any units. The treatment
    coefficient is the effect estimate; its standard error is the HC0
    sandwich, the scores projected on (X'X/n)⁻¹e_a = n·H'H·e_a
    (:func:`_stacked_se`). Biased whenever the unmeasured confounder moves
    the proxies, which is the scenario the proximal estimators exist for.
    The dataset keeps the report (:func:`_naive_reports`).
    """
    return _fit_once(_naive_reports, ds)


def _naive_reports(datasets: list[Dataset]) -> list:
    """:func:`naive_gformula`'s report, or its error, for each of
    ``datasets``, from one stacked call per step.

    The scaled design X S⁻¹ and y are factorized together, [X S⁻¹ | y] =
    Q [R_X, Q'y; 0, ρ], and only the R factor is formed: X S⁻¹ = Q R_X has
    R_X's singular values and right singular vectors, so the SVD of the
    q×q R_X gives the estimate, the rank by :func:`gmm._solve`'s rule
    (:func:`gmm._scaled_solve`) and H, and nothing n×q but the residuals is
    formed.
    """
    a, y = _stack(datasets, "a"), _stack(datasets, "y")
    design = np.concatenate([
        np.ones((*a.shape, 1)), a[..., None], _stack(datasets, "w"), _stack(datasets, "z"),
        _stack(datasets, "x"),
    ], axis=-1)
    n, q = design.shape[-2:]
    scale = np.linalg.norm(design, axis=-2)
    scale = np.where(scale > 0.0, scale, 1.0)[:, None, :]
    scaled = np.concatenate([design, y[..., None]], axis=-1)
    scaled[..., :q] /= scale
    r = np.linalg.qr(scaled, mode="r")
    beta, rank, (_, half_t) = _scaled_solve(
        r[..., :q, :q], r[..., :q, q], scale, n, RankDeficientDesign
    )
    resid = y - (design @ beta[..., None])[..., 0]
    direction = n * (np.swapaxes(half_t, -1, -2) @ half_t[..., 1:2])[..., 0]
    se = _stacked_se(design * resid[..., None], direction)
    return [
        RankDeficientDesign("regression design matrix is rank deficient") if rank[b] < q
        else _se_error(se[b])
        or EstimateReport(
            method="naive", tau_hat=float(beta[b, 1]), se_tau=float(se[b]), n=n,
            aux={"coefficients": beta[b]},
        )
        for b in range(len(datasets))
    ]


def _linear_bridge(ds: Dataset) -> OutcomeBridge:
    """The linear outcome bridge over ``(1, w, a, x)``."""
    return OutcomeBridge.linear(ds.w.shape[1], ds.x.shape[1])


def _require_exact_identification(ds: Dataset) -> None:
    """Raises :class:`DimensionMismatch` unless there are as many z as w
    proxies, so one instrument per bridge parameter."""
    _unless_error(_identification_error(ds))


def _identification_error(ds: Dataset) -> DimensionMismatch | None:
    """The error of :func:`_require_exact_identification` on ``ds``, if any."""
    p, k = 2 + ds.w.shape[1] + ds.x.shape[1], 2 + ds.z.shape[1] + ds.x.shape[1]
    if k != p:
        return DimensionMismatch(f"need exactly {p} instruments for {p} bridge parameters, got {k}")
    return None


def _canonical_fit_args(ds: Dataset) -> tuple[OutcomeBridge, int]:
    """The bridge and sieve width of :func:`_canonical_bridge_fit` on
    datasets shaped like ``ds``: the linear bridge and 2 + d_z + d_x."""
    return _linear_bridge(ds), 2 + ds.z.shape[1] + ds.x.shape[1]


def _canonical_bridge_fit(ds: Dataset) -> GmmFit:
    """The IV fit of the linear outcome bridge: the identity-weight fit of
    its moments on the sieve's first 2 + d_z + d_x terms (1, a, z..., x...),
    standardized and orthonormalized, which span the instruments
    ``(1, z, a, x)``, and its sandwich (:func:`gmm._sieve_iv_fits`).

    On orthonormal instruments the identity weight is the inverse of their
    Gram matrix, so the fit is two-stage least squares and its sandwich the
    robust 2SLS sandwich; with as many z as w proxies it is the exactly
    identified fit that ``gmm-div`` reads at K* = p. The dataset keeps it,
    so ``rgmm``, ``p2sls`` and ``pdr`` share one fit. Neither the fit, its
    sandwich nor its rank tests depend on the units of w, z or x.
    Degenerate instruments raise the sieve's errors:
    :class:`DegenerateColumn` for a constant z or x, :class:`RankDeficient`
    for one dependent on the others or for fewer rows than instruments. A
    bridge the instruments do not identify, as with fewer z than w proxies
    or a w proxy they reach only at rounding level of its own size, raises
    :class:`RankDeficientJacobian` (:func:`gmm._solve`).
    """
    return _fit_once(_sieve_iv_fits, ds, *_canonical_fit_args(ds))


def _outcome_bridge_report(ds: Dataset, method: str) -> EstimateReport:
    """The effect estimate and sandwich SE of :func:`_canonical_bridge_fit`."""
    fit = _canonical_bridge_fit(ds)
    if not (np.isfinite(fit.se_tau) and fit.se_tau > 0.0):
        raise SingularVariance("sandwich variance is not positive at the target")
    return EstimateReport(
        method=method,
        tau_hat=fit.tau_hat,
        se_tau=fit.se_tau,
        n=ds.n,
        aux={"gamma_hat": fit.gamma_hat},
    )


def rgmm(ds: Dataset) -> EstimateReport:
    """Exactly identified proxy GMM with the canonical instrument set.

    Instruments the outcome residual of the linear bridge over (1, w, a, x)
    with (1, z, a, x), one instrument per bridge parameter, solves those
    moment conditions and averages the fitted treatment contrast. Requires
    as many treatment-side proxies as outcome-side ones so the system is
    square, and raises :class:`DimensionMismatch` otherwise. The standard
    error comes from the joint sandwich of the bridge moments and the
    contrast moment, J⁻¹ΥJ⁻ᵀ. The fit is the dataset's kept IV fit
    (:func:`_canonical_bridge_fit`), on the sieve's first p terms, which
    span (1, z, a, x), so a constant z or x raises
    :class:`DegenerateColumn` and a dependent one :class:`RankDeficient`;
    a w proxy those instruments reach only at rounding level of its own
    size raises :class:`RankDeficientJacobian` (:func:`gmm._solve`).
    A dataset shares this fit across ``rgmm``, ``p2sls``, ``pdr`` and
    ``gmm-div`` at K* = p, so ``rgmm`` equals :func:`p2sls` and that fit.
    """
    _require_exact_identification(ds)
    return _outcome_bridge_report(ds, "rgmm")


def p2sls(ds: Dataset) -> EstimateReport:
    """Two-stage least squares using z to instrument w.

    Regressors (1, w, a, x); instruments (1, z, a, x). The treatment
    coefficient estimates the effect; its standard error is the
    heteroskedasticity-robust 2SLS sandwich with residuals taken at the
    original regressors. The fit is the identity-weight fit on the
    sieve's leading terms (1, a, z..., x...), orthonormalized, which span
    the instruments, so it is two-stage least squares
    (:func:`_canonical_bridge_fit`). A dataset shares this fit across
    ``rgmm``, ``p2sls`` and ``pdr``, so with as many z as w proxies
    ``p2sls`` equals :func:`rgmm` and the fit ``gmm-div`` reads at K* = p.
    With any count of z proxies a constant z raises
    :class:`DegenerateColumn` and one dependent on the others
    :class:`RankDeficient`, naming it. The fit's rank test is
    :func:`gmm._solve`'s, so a w proxy the instruments reach only at
    rounding level of its own size, or fewer z than w proxies, raises
    :class:`RankDeficientJacobian` in any units.
    """
    return _outcome_bridge_report(ds, "p2sls")


def _newton_starts(dim: int) -> Iterator[np.ndarray]:
    """The solver's starts in order, made as they are reached: a solve that
    converges from the first never builds the rest."""
    yield np.zeros(dim)
    for pattern in itertools.product((1.0, -1.0), repeat=min(dim - 1, 3)):
        signs = np.ones(dim)
        signs[1 : 1 + len(pattern)] = pattern
        yield _NEWTON_START_MAGNITUDE * signs


def _bridge_values(signed_b: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The treatment bridge ``q = 1 + exp(s(a) * theta @ (1, z, a, x))`` at
    ``theta``, where ``s(a)`` is -1 treated and +1 untreated, from its design
    with that sign folded in, built once per solve rather than per call;
    for one system or a stack, with one ``theta`` per system."""
    return 1.0 + np.exp((signed_b @ theta[..., None])[..., 0])


def _balance(signed_b: np.ndarray, signed_c: np.ndarray, target: np.ndarray, theta):
    """Bridge values at ``theta`` and the balancing residual there, for one
    system or a stack: the moments weight the outcome bridge's features by
    (-1)^(1-A) q, folded into ``signed_c``."""
    q = _bridge_values(signed_b, theta)
    return q, (q[..., None, :] @ signed_c)[..., 0, :] / signed_c.shape[-2] - target


def _norm(res: np.ndarray) -> np.ndarray:
    """Euclidean norm of each residual of a stack."""
    return np.sqrt((res[..., None, :] @ res[..., :, None])[..., 0, 0])


def _first_halving(signed_b, signed_c, target, theta, step, norm0):
    """Index into ``_NEWTON_HALVINGS`` of the first trial point of one
    system whose residual is finite with norm below ``norm0``, scored for
    all points in one batch, or None."""
    q = 1.0 + np.exp((theta + _NEWTON_HALVINGS[:, None] * step) @ signed_b.T)
    res = q @ signed_c / signed_c.shape[0] - target
    lower = np.isfinite(res).all(axis=1) & (np.linalg.norm(res, axis=1) < norm0)
    return np.argmax(lower) if lower.any() else None


def _newton(signed_b, signed_c, target, theta):
    """Damped Newton on each balancing system of a stack from its row of
    ``theta``: every system's ``(theta, q, res)`` where it stopped, and
    whether it stopped at a root, a residual sup-norm below
    ``_NEWTON_TOL`` (:func:`_solve_treatment_bridge` has the steps). The
    systems iterate together, and a system's iterates are those it has
    alone, bit for bit: each step is a product, a factorization or an
    elementwise operation per system, and a system whose step needs its
    halvings scores them alone. The systems still iterating form a working
    stack, gathered again only when one stops.

    The Jacobian is read off the signed designs: with s = (-1)^(1-A),
    each term of (s c (q - 1))'(-s b) is that of (c (q - 1))'b negated,
    exactly, so -``_balancing_jacobian(signed_c, signed_b, q)`` is the
    Jacobian bit for bit."""
    q, res = _balance(signed_b, signed_c, target, theta)
    stopped = np.empty_like(theta), np.empty_like(q), np.empty_like(res)
    root = np.zeros(theta.shape[0], dtype=bool)
    rows = np.arange(theta.shape[0])
    work = signed_b, signed_c, target
    state = theta, q, res

    def stop(going):
        """Record where the systems not ``going`` stopped and drop them."""
        nonlocal rows, work, state
        for out, now in zip(stopped, state):
            out[rows[~going]] = now[~going]
        rows = rows[going]
        work = tuple(arr[going] for arr in work)
        state = tuple(arr[going] for arr in state)

    with np.errstate(divide="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            at_root = np.abs(state[2]).max(axis=1) < _NEWTON_TOL
            if at_root.any():
                root[rows[at_root]] = True
                stop(~at_root)
                if not rows.size:
                    break
            (w_signed_b, w_signed_c, w_target), (w_theta, w_q, w_res) = work, state
            jac = -_balancing_jacobian(w_signed_c, w_signed_b, w_q)
            going = np.ones(rows.size, dtype=bool)
            jinv = _stacked(np.linalg.inv, jac, going)
            # A Jacobian that could not be inverted has the identity in its
            # place, and a zero one reads 1/0; either stops below.
            rcond = 1.0 / (
                np.abs(jac).sum(axis=1).max(axis=1) * np.abs(jinv).sum(axis=1).max(axis=1)
            )
            # A system whose Jacobian is singular or too ill-conditioned stops
            # before its step.
            going &= rcond >= _EPS
            if not going.all():
                stop(going)
                if not rows.size:
                    break
                jinv = jinv[going]
                (w_signed_b, w_signed_c, w_target), (w_theta, w_q, w_res) = work, state
                going = np.ones(rows.size, dtype=bool)
            step = -(jinv @ w_res[..., None])[..., 0]
            norm0 = _norm(w_res)
            cand = w_theta + step
            cand_q, cand_res = _balance(w_signed_b, w_signed_c, w_target, cand)
            lower = np.isfinite(cand_res).all(axis=1) & (_norm(cand_res) < norm0)
            if not lower.all():
                for i in np.flatnonzero(~lower):
                    halving = _first_halving(
                        w_signed_b[i], w_signed_c[i], w_target[i], w_theta[i], step[i], norm0[i]
                    )
                    if halving is None:
                        going[i] = False
                        continue
                    cand[i] = w_theta[i] + _NEWTON_HALVINGS[halving] * step[i]
                    # The accepted point is evaluated again alone.
                    (cand_q[i],), (cand_res[i],) = _balance(
                        w_signed_b[i][None], w_signed_c[i][None], w_target[i][None], cand[i][None]
                    )
            if not going.all():
                # A system with no lower trial point stops where it was.
                stop(going)
                cand, cand_q, cand_res = cand[going], cand_q[going], cand_res[going]
                if not rows.size:
                    break
            state = cand, cand_q, cand_res
    stop(np.zeros(rows.size, dtype=bool))
    return *stopped, root


def _levenberg_marquardt(balance, jacobian, theta: np.ndarray) -> np.ndarray:
    """Minimize the squared norm of the residual ``balance(theta)[1]`` by
    Levenberg-Marquardt from ``theta``; ``jacobian(q)`` is the residual's
    Jacobian at a point whose ``balance`` is ``(q, residual)``.

    Each iteration solves ``(J'J + mu I) h = -J'r`` for the step ``h``. A
    trial point whose residual is finite with a lower norm is taken, and
    the damping ``mu`` falls by the gain ratio's rule of Madsen, Nielsen
    and Tingleff (2004); any other trial point, a non-finite one included,
    is rejected, and ``mu`` rises by a factor that doubles with each
    rejection in a row. The damping starts at ``_LM_DAMPING`` times the
    largest diagonal entry of ``J'J``. The search stops, with MINPACK's
    tests at tolerance ``_LM_TOL``, when every column of ``J`` is
    orthogonal to the residual to within that cosine, when the step is that
    small relative to ``theta``, when a taken step lowers the squared norm
    by that fraction of it and predicted no more, or after
    ``_LM_MAX_EVALUATIONS`` residual evaluations. Returns the last point taken.
    """
    q, res = balance(theta)
    cost, jac = res @ res, jacobian(q)
    damping, growth = _LM_DAMPING * np.max(np.sum(jac * jac, axis=0)), 2.0
    for _ in range(_LM_MAX_EVALUATIONS - 1):
        normal, grad = jac.T @ jac, jac.T @ res
        if np.all(np.abs(grad) <= _LM_TOL * np.sqrt(cost * np.diag(normal))):
            break
        step = np.linalg.solve(normal + damping * np.eye(theta.size), -grad)
        if np.linalg.norm(step) <= _LM_TOL * (_LM_TOL + np.linalg.norm(theta)):
            break
        cand = theta + step
        cand_q, cand_res = balance(cand)
        cand_cost = cand_res @ cand_res if np.all(np.isfinite(cand_res)) else np.inf
        if not cand_cost < cost:
            damping, growth = damping * growth, 2.0 * growth
            continue
        # Both reductions are of the squared norm, twice the usual cost.
        actual, predicted = cost - cand_cost, step @ (damping * step - grad)
        converged = max(actual, predicted) <= _LM_TOL * cost
        damping *= max(1.0 / 3.0, 1.0 - (2.0 * actual / predicted - 1.0) ** 3)
        growth = 2.0
        theta, res, cost, jac = cand, cand_res, cand_cost, jacobian(cand_q)
        if converged:
            break
    return theta


def _solve_treatment_bridge(ds: Dataset):
    """Treatment-bridge coefficients that balance the reweighting moments:
    :func:`_solve_treatment_bridges` on a stack of one, its error raised.

    The balancing moments are ``E[(-1)^(1-A) q b] = E[b(1) - b(0)]`` for
    each feature ``b`` of the linear outcome bridge. Returns
    ``(theta, q, system)``: the coefficients, the bridge values at them, and
    the moments' ``(sign, basis_c, basis_b, target)``, so callers build
    none of them again: ``(-1)^(1-A)``, the outcome bridge's features
    ``(1, w, a, x)`` (:func:`gmm._bridge_features`), the treatment bridge's
    design ``(1, z, a, x)``, and the features' mean contrast. ``pipw`` and
    ``pdr`` read the dataset's kept solve (:func:`gmm._fit_each`), so a
    dataset builds them once. It needs as many z as w proxies
    (:func:`_require_exact_identification`).

    Damped Newton runs from ``theta = 0`` and from the ``2^min(p-1, 3)``
    points with every coordinate ±0.5 that vary the signs of the up to
    three coordinates after the intercept (:func:`_newton_starts`), and
    returns at the first point whose residual sup-norm is below
    ``_NEWTON_TOL``. Each iteration inverts its balancing Jacobian J once,
    and abandons the start when J is singular or its reciprocal 1-norm
    condition number is below eps, since such a step has no usable digits;
    otherwise the same inverse takes the step ``-J⁻¹g``. Each step is
    backtracked: the full step is tried first, and when it does not lower
    the residual's Euclidean norm, the halvings ``2^-1, ..., 2^-29`` (the
    scales a loop halving the step forms) are scored in one batch and the
    first trial point with a finite residual of lower norm is taken; if
    there is none, the start is abandoned. The batch's rows round
    differently from the product at a single point, so it could rank a
    point differently from a loop over the halvings only if that point's
    norm equals the current one to within rounding. The
    accepted point is evaluated again alone, through :func:`_bridge_values`,
    so what is carried forward is bit for bit what that loop carries; the
    tests hold the loop as a reference.

    The balancing system can lack an exact root in finite samples (a
    heavy-tailed analogue of separation in logistic regression). The
    exactly identified GMM fit is still the minimizer of the squared moment
    norm, so when no start converges one Levenberg-Marquardt search
    (:func:`_levenberg_marquardt`) runs from ``theta = 0`` on the same
    residual and the analytic Jacobian, and its minimizer is accepted when
    every moment's imbalance there is below ``_MINNORM_ACCEPT`` (0.5);
    otherwise the solve raises :class:`NoConvergence`. On the datasets
    measured, a search from any other Newton start ends at the same cost
    to within rounding.

    ``_NEWTON_TOL`` and ``_MINNORM_ACCEPT`` are absolute, in the units of
    the features ``(1, w, a, x)`` that the moments balance. Rescaling w or
    x by 10^±3 or 10^±6 leaves the root, and ``pipw``'s and ``pdr``'s
    estimates, unchanged to rounding; at 10^±9 the solve can fall back or
    fail instead.
    """
    return _one(_solve_treatment_bridges([ds]))


def _solve_treatment_bridges(datasets: list[Dataset]) -> list:
    """:func:`_solve_treatment_bridge` of each of ``datasets``, which share
    their shapes, or its error. Newton runs on all systems together from
    each start (:func:`_newton`), and a system with no root from one start
    goes on to the next with the others that have none; the search runs
    per dataset. Each dataset gets what it gets alone, bit for bit.
    """
    out = [_identification_error(ds) for ds in datasets]
    live = [b for b, error in enumerate(out) if error is None]
    if not live:
        return out
    datasets = [datasets[b] for b in live]
    features = _fit_each(_Features.build, datasets, _linear_bridge(datasets[0]))
    basis_c = _stack_arrays([f.feats for f in features])
    target = _stack_arrays([f.contrast_mean for f in features])
    a = _stack(datasets, "a")
    basis_b = np.concatenate([
        np.ones((*a.shape, 1)), _stack(datasets, "z"), a[..., None], _stack(datasets, "x"),
    ], axis=-1)
    sign = np.where(a > 0.5, 1.0, -1.0)  # (-1)^(1-A)
    # The moments weight basis_c by (-1)^(1-A) q, and the bridge's index
    # sign is -1 treated, +1 untreated (see _bridge_values). Folding the
    # signs into the designs is exact: rounding commutes with negation.
    signed_c = sign[..., None] * basis_c
    signed_b = -sign[..., None] * basis_b
    solved: list = [None] * len(datasets)
    best_norm = np.full(len(datasets), np.inf)
    rest = np.arange(len(datasets))
    system = signed_b, signed_c, target
    tried = 0
    # Overflow to inf (and inf*0 = nan) at extreme trial points is expected.
    # A non-finite residual, or one whose squared norm overflows to inf,
    # ranks as no improvement.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in _newton_starts(basis_b.shape[-1]):
            tried += 1
            theta, q, res, root = _newton(*system, np.tile(start, (rest.size, 1)))
            for i, b in enumerate(rest):
                if root[i]:
                    solved[b] = theta[i], q[i]
                else:
                    best_norm[b] = min(best_norm[b], float(np.abs(res[i]).max()))
            rest = rest[~root]
            if not rest.size:
                break
            # The systems with no root go on to the next start.
            system = tuple(arr[~root] for arr in system)
        for b in rest:
            balance = functools.partial(_balance, signed_b[b], signed_c[b], target[b])
            theta = _levenberg_marquardt(
                balance,
                functools.partial(_balancing_jacobian, basis_c[b], basis_b[b]),
                np.zeros(basis_b.shape[-1]),
            )
            q, res = balance(theta)
            if np.all(np.isfinite(res)) and np.max(np.abs(res)) < _MINNORM_ACCEPT:
                solved[b] = theta, q
            else:
                solved[b] = NoConvergence(
                    f"reweighting solver failed from {tried} starts "
                    f"(best exact-root residual sup-norm {best_norm[b]:.3e}; "
                    f"minimum-norm imbalance {float(np.max(np.abs(res))):.3e})"
                )
    for i, b in enumerate(live):
        if not isinstance(solved[i], ProxiGmmError):
            solved[i] = (*solved[i], (sign[i], features[i].feats, basis_b[i], target[i]))
        out[b] = solved[i]
    return out


def pipw(ds: Dataset) -> EstimateReport:
    """Proximal inverse probability weighting.

    Fits the treatment-side bridge by damped Newton on its balancing
    moments, then averages the signed reweighted outcome; like :func:`rgmm`
    and :func:`pdr` it needs as many z as w proxies. The standard error
    stacks the bridge moments with the reweighting moment. A dataset keeps
    the report (:func:`gmm._fit_once`), so every later ``pipw`` or
    :func:`pdr` call on it shares that object, its ``aux`` arrays included,
    and forms the sandwich no more.
    """
    return _fit_once(_reweighting_reports, ds)


def _reweighting_reports(datasets: list[Dataset]) -> list:
    """:func:`pipw`'s report, the reweighted mean and its stacked sandwich,
    or its error, for each of ``datasets``, from one stacked call per step
    over the datasets whose solve returns."""
    out = _fit_each(_solve_treatment_bridges, datasets)
    live = [b for b, solve in enumerate(out) if not isinstance(solve, ProxiGmmError)]
    if not live:
        return out
    q, sign, basis_c, basis_b, target = (
        _stack_arrays(arrays) for arrays in zip(*((out[b][1], *out[b][2]) for b in live))
    )
    y = _stack([datasets[b] for b in live], "y")
    n, t_dim = basis_b.shape[-2:]
    weights = sign * q
    reweighted = weights * y
    tau = np.mean(reweighted, axis=-1)
    scores = np.empty((len(live), n, t_dim + 1))
    np.multiply(basis_c, weights[..., None], out=scores[..., :t_dim])
    scores[..., :t_dim] -= target[:, None, :]
    scores[..., t_dim] = tau[:, None] - reweighted
    jac = np.zeros((len(live), t_dim + 1, t_dim + 1))
    jac[:, :t_dim, :t_dim] = _balancing_jacobian(basis_c, basis_b, q)
    jac[:, t_dim, :t_dim] = (((q - 1.0) * y)[:, None, :] @ basis_b)[:, 0, :] / n
    jac[:, t_dim, t_dim] = 1.0
    target_row = np.eye(t_dim + 1)[t_dim]
    jac_t = np.swapaxes(jac, -1, -2)
    singular = np.zeros(len(live), dtype=bool)
    try:
        direction = np.linalg.solve(jac_t, target_row)
    except np.linalg.LinAlgError:
        # Each system alone, so that each gets what it would alone.
        direction = np.zeros((len(live), t_dim + 1))
        for i, mat in enumerate(jac_t):
            try:
                direction[i] = np.linalg.solve(mat, target_row)
            except np.linalg.LinAlgError:
                singular[i] = True
    se = _stacked_se(scores, direction)
    for i, b in enumerate(live):
        out[b] = (
            SingularSystem("stacked reweighting Jacobian is singular") if singular[i]
            else _se_error(se[i])
            or EstimateReport(
                method="pipw", tau_hat=float(tau[i]), se_tau=float(se[i]), n=n,
                aux={"theta_hat": out[b][0]},
            )
        )
    return out


def pdr(ds: Dataset) -> EstimateReport:
    """Proximal doubly robust estimator.

    Averages the outcome-bridge contrast plus the reweighted residual
    ``(-1)^(1-A) q (y - h)``; consistent if either bridge is correctly
    specified. The outcome bridge is :func:`rgmm`'s fit and the treatment
    bridge :func:`pipw`'s solve, both shared with those estimators on the
    same dataset, and it reads ``pipw``'s kept report rather than forming
    that sandwich again; like :func:`rgmm` it raises
    :class:`DimensionMismatch` unless there are as many z as w proxies,
    which the solve checks before the fit.

    The linear bridge's contrast gradient is the balancing target ``e_a``,
    so tau is ``pipw``'s minus ``gamma @ r(theta)``, with ``r(theta) =
    mean((-1)^(1-A) q (1, w, a, x)) - e_a`` the balancing residual. Where
    ``r = 0`` the stacked influence functions agree unit by unit, so the
    standard error is ``pipw``'s; they differ only at a minimum-norm fallback.
    """
    theta, q, (sign, feats, _, target) = _fit_once(_solve_treatment_bridges, ds)
    gamma = _canonical_bridge_fit(ds).gamma_hat
    ipw = _fit_once(_reweighting_reports, ds)
    imbalance = q @ (sign[:, None] * feats) / ds.n - target
    return EstimateReport(
        method="pdr",
        tau_hat=ipw.tau_hat - float(gamma @ imbalance),
        se_tau=ipw.se_tau,
        n=ds.n,
        aux={"gamma_hat": gamma, "theta_hat": theta},
    )
