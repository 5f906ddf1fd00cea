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
(1, a, z, x) (``gmm._sieve_iv_fit``), so with as many z as w proxies
``p2sls`` equals ``rgmm``, and both are the exactly identified fit that
``gmm-div`` reads at K* = p; ``pipw`` and ``pdr`` read one treatment-bridge
solve, which balances the outcome bridge's features, and one ``pipw``
report, whose sandwich ``pdr`` reports.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .bridges import OutcomeBridge
from .data import Dataset
from .errors import (
    DimensionMismatch,
    NoConvergence,
    RankDeficientDesign,
    SingularSystem,
    SingularVariance,
)
from .gmm import GmmFit, _bridge_features, _fit_once, _sieve_iv_fit, _solve
from .gmm import confidence_interval, wald_test

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


def _stacked_se(scores: np.ndarray, direction: np.ndarray) -> float:
    """Standard error of the estimate whose influence on the per-observation
    ``scores`` is ``direction``: √(mean((scores·direction)²)/n), the
    sandwich of its estimating equations."""
    var = np.mean((scores @ direction) ** 2)
    if not (np.isfinite(var) and var > 0.0):
        raise SingularVariance("sandwich variance is not positive at the target")
    return float(np.sqrt(var / scores.shape[0]))


def _balancing_jacobian(basis_c: np.ndarray, basis_b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Jacobian of the treatment bridge's balancing moments in its parameters."""
    return -(basis_c * (q - 1.0)[:, None]).T @ basis_b / basis_c.shape[0]


def naive_gformula(ds: Dataset) -> EstimateReport:
    """Outcome regression treating both proxies as ordinary confounders.

    OLS of y on (1, a, w, z, x) by :func:`gmm._solve` with each column
    scaled by its norm, so a column independent of the others fits in any
    units and a dependent one raises :class:`RankDeficientDesign` in any
    units. The treatment coefficient is the effect estimate; its standard
    error is the HC0 sandwich, the scores projected on (X'X/n)⁻¹e_a = n·H'H·e_a
    (:func:`_stacked_se`). Biased whenever the unmeasured confounder moves
    the proxies, which is the scenario the proximal estimators exist for.
    """
    design = np.column_stack([np.ones(ds.n), ds.a, ds.w, ds.z, ds.x])
    scale = np.linalg.norm(design, axis=0)
    beta, rank, (_, half_t) = _solve(design, ds.y, scale, ds.n, RankDeficientDesign)
    if rank < design.shape[1]:
        raise RankDeficientDesign("regression design matrix is rank deficient")
    resid = ds.y - design @ beta
    return EstimateReport(
        method="naive",
        tau_hat=float(beta[1]),
        se_tau=_stacked_se(design * resid[:, None], ds.n * (half_t.T @ half_t[:, 1])),
        n=ds.n,
        aux={"coefficients": beta},
    )


def _linear_bridge(ds: Dataset) -> OutcomeBridge:
    """The linear outcome bridge over ``(1, w, a, x)``."""
    return OutcomeBridge.linear(ds.w.shape[1], ds.x.shape[1])


def _require_exact_identification(ds: Dataset) -> None:
    """Raises :class:`DimensionMismatch` unless there are as many z as w
    proxies, so one instrument per bridge parameter."""
    p, k = 2 + ds.w.shape[1] + ds.x.shape[1], 2 + ds.z.shape[1] + ds.x.shape[1]
    if k != p:
        raise DimensionMismatch(f"need exactly {p} instruments for {p} bridge parameters, got {k}")


def _canonical_bridge_fit(ds: Dataset) -> GmmFit:
    """The IV fit of the linear outcome bridge: the identity-weight fit of
    its moments on the sieve's first 2 + d_z + d_x terms (1, a, z..., x...),
    standardized and orthonormalized, which span the instruments
    ``(1, z, a, x)``, and its sandwich (:func:`gmm._sieve_iv_fit`).

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
    k = 2 + ds.z.shape[1] + ds.x.shape[1]
    return _fit_once(_sieve_iv_fit, ds, _linear_bridge(ds), k)


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
    with that sign folded in, built once per solve rather than per call."""
    return 1.0 + np.exp(signed_b @ theta)


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
    """Treatment-bridge coefficients that balance the reweighting moments.

    The balancing moments are ``E[(-1)^(1-A) q b] = E[b(1) - b(0)]`` for
    each feature ``b`` of the linear outcome bridge. Returns
    ``(theta, q, system)``: the coefficients, the bridge values at them, and
    the moments' ``(sign, basis_c, basis_b, target)``, so callers build
    none of them again: ``(-1)^(1-A)``, the outcome bridge's features
    ``(1, w, a, x)`` (:func:`gmm._bridge_features`), the treatment bridge's
    design ``(1, z, a, x)``, and the features' mean contrast. Callers read
    the solve through :func:`gmm._fit_once`, so a dataset builds them
    once. It needs as many z as w proxies (:func:`_require_exact_identification`).

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
    _require_exact_identification(ds)
    features = _bridge_features(ds, _linear_bridge(ds))
    basis_c, target = features.feats, features.contrast_mean
    basis_b = np.column_stack([np.ones(ds.n), ds.z, ds.a, ds.x])
    sign = np.where(ds.a > 0.5, 1.0, -1.0)  # (-1)^(1-A)
    system = sign, basis_c, basis_b, target
    n = ds.n
    # The moments weight basis_c by (-1)^(1-A) q, and the bridge's index
    # sign is -1 treated, +1 untreated (see _bridge_values). Folding the
    # signs into the designs is exact: rounding commutes with negation.
    signed_c = sign[:, None] * basis_c
    signed_b = -sign[:, None] * basis_b

    def balance(theta):
        """Bridge values at ``theta`` and the balancing residual there."""
        q = _bridge_values(signed_b, theta)
        return q, q @ signed_c / n - target

    def first_halving(theta, step, norm0):
        """Index into ``_NEWTON_HALVINGS`` of the first trial point whose
        residual is finite with norm below ``norm0``, scored for all points
        in one batch, or None."""
        q = 1.0 + np.exp((theta + _NEWTON_HALVINGS[:, None] * step) @ signed_b.T)
        res = q @ signed_c / n - target
        lower = np.isfinite(res).all(axis=1) & (np.linalg.norm(res, axis=1) < norm0)
        return np.argmax(lower) if lower.any() else None

    best_norm = np.inf
    tried = 0
    # Overflow to inf (and inf*0 = nan) at extreme trial points is expected.
    # A non-finite residual, or one whose squared norm overflows to inf,
    # ranks as no improvement.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in _newton_starts(basis_b.shape[1]):
            theta = start.copy()
            q, res = balance(theta)
            tried += 1
            for _ in range(_NEWTON_MAX_ITER):
                if np.abs(res).max() < _NEWTON_TOL:
                    return theta, q, system
                jac = _balancing_jacobian(basis_c, basis_b, q)
                try:
                    jinv = np.linalg.inv(jac)
                except np.linalg.LinAlgError:
                    break
                rcond = 1.0 / (np.abs(jac).sum(axis=0).max() * np.abs(jinv).sum(axis=0).max())
                if not rcond >= _EPS:
                    break
                step = -(jinv @ res)
                # np.linalg.norm of a 1-D float vector, without its wrapper.
                norm0 = np.sqrt(res @ res)
                cand = theta + step
                cand_q, cand_res = balance(cand)
                if not (np.isfinite(cand_res).all() and np.sqrt(cand_res @ cand_res) < norm0):
                    halving = first_halving(theta, step, norm0)
                    if halving is None:
                        break
                    cand = theta + _NEWTON_HALVINGS[halving] * step
                    cand_q, cand_res = balance(cand)
                theta, q, res = cand, cand_q, cand_res
            best_norm = min(best_norm, float(np.abs(res).max()))
        theta = _levenberg_marquardt(
            balance,
            lambda q: _balancing_jacobian(basis_c, basis_b, q),
            np.zeros(basis_b.shape[1]),
        )
        q, res = balance(theta)
    if np.all(np.isfinite(res)) and np.max(np.abs(res)) < _MINNORM_ACCEPT:
        return theta, q, system
    raise NoConvergence(
        f"reweighting solver failed from {tried} starts "
        f"(best exact-root residual sup-norm {best_norm:.3e}; "
        f"minimum-norm imbalance {float(np.max(np.abs(res))):.3e})"
    )


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
    return _fit_once(_reweighting_report, ds)


def _reweighting_report(ds: Dataset) -> EstimateReport:
    """:func:`pipw`'s report: the reweighted mean and its stacked sandwich."""
    theta, q, (sign, basis_c, basis_b, target) = _fit_once(_solve_treatment_bridge, ds)
    tau = float(np.mean(sign * q * ds.y))
    t_dim = theta.shape[0]
    scores = np.column_stack(
        [basis_c * (sign * q)[:, None] - target, tau - sign * q * ds.y]
    )
    jac = np.zeros((t_dim + 1, t_dim + 1))
    jac[:t_dim, :t_dim] = _balancing_jacobian(basis_c, basis_b, q)
    jac[t_dim, :t_dim] = ((q - 1.0) * ds.y) @ basis_b / ds.n
    jac[t_dim, t_dim] = 1.0
    try:
        direction = np.linalg.solve(jac.T, np.eye(t_dim + 1)[t_dim])
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("stacked reweighting Jacobian is singular") from exc
    return EstimateReport(
        method="pipw",
        tau_hat=tau,
        se_tau=_stacked_se(scores, direction),
        n=ds.n,
        aux={"theta_hat": theta},
    )


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
    theta, q, (sign, feats, _, target) = _fit_once(_solve_treatment_bridge, ds)
    gamma = _canonical_bridge_fit(ds).gamma_hat
    ipw = _fit_once(_reweighting_report, ds)
    imbalance = q @ (sign[:, None] * feats) / ds.n - target
    return EstimateReport(
        method="pdr",
        tau_hat=ipw.tau_hat - float(gamma @ imbalance),
        se_tau=ipw.se_tau,
        n=ds.n,
        aux={"gamma_hat": gamma, "theta_hat": theta},
    )
