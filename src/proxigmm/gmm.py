"""Joint GMM for the outcome bridge and the average treatment effect.

The moment vector stacks K sieve moments, instrumenting the outcome
residual ``y - h`` with basis columns of (Z, A, X), and one contrast moment
tying the target parameter to the mean treatment contrast of the bridge.
Fitting proceeds in two steps: an identity-weight fit on the orthonormalized
basis, then an optimally weighted fit whose weight is the spectrally
regularized inverse of the estimated moment covariance.

Spectral regularization uses an eigenvalue floor: eigenvalues of the moment
covariance below ``rel_threshold`` times the largest are raised to that
floor before inverting. Directions above the floor get their usual optimal
weight (so with nothing below the floor this is exactly unregularized
optimal GMM), while near-degenerate directions are capped instead of
amplified. The contrast moment is exactly degenerate at the initial
estimates whenever the bridge's treatment contrast is parameter-constant
(true for the default linear bridge), so a hard spectral cutoff would
discard the one moment that identifies the target; the floor keeps it at a
bounded weight and the fit separates cleanly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.stats import norm

from .bridges import OutcomeBridge
from .data import Dataset
from .errors import RankDeficientJacobian, SingularVariance, TooFewMoments
from .sieve import BasisMatrix, orthonormalize

DEFAULT_REL_THRESHOLD = 1e-8
WALD_CRITICAL_5PCT = float(norm.ppf(0.975))
# Damped-Newton polish of the continuously updated objective: relative
# finite-difference step, small-coordinate floor as a fraction of the
# largest coordinate, initial (deliberately conservative) step length,
# sufficient-decrease fraction, and backtracking budget. The differencing
# step is proportional to the parameter scale so the polish commutes with
# a rescaling of the outcome, and wide enough that objective rounding
# noise stays far below the quadratic signal in the second differences.
_POLISH_FD_REL = 1e-2
_POLISH_FD_FLOOR = 0.1
_POLISH_STEP = 0.5
_POLISH_SLOPE_FRACTION = 1e-4
_POLISH_BACKTRACKS = 25


@dataclass(frozen=True)
class MomentDecomposition:
    """Eigendecomposition of the moment covariance, eigenvalues descending.

    ``k1`` counts eigenvalues strictly above ``threshold_used``. The full
    decomposition is kept because the floored weight needs every direction.
    """

    eigvals: np.ndarray
    eigvecs: np.ndarray
    threshold_used: float
    k1: int

    def _floored(self) -> np.ndarray:
        floored = np.maximum(self.eigvals, self.threshold_used)
        if np.min(floored) <= 0.0:
            raise TooFewMoments(
                "moment covariance is singular and the spectral floor is zero"
            )
        return floored

    def floored_weight(self) -> np.ndarray:
        """Inverse covariance with eigenvalues floored at the threshold."""
        return (self.eigvecs / self._floored()) @ self.eigvecs.T

    def floored_weight_sqrt(self) -> np.ndarray:
        """Symmetric square root of :meth:`floored_weight`."""
        return (self.eigvecs / np.sqrt(self._floored())) @ self.eigvecs.T


@dataclass(frozen=True)
class GmmFit:
    """Joint GMM estimates with sandwich variance.

    ``se_gamma`` / ``se_tau`` are per-observation-scaled standard errors
    (``sqrt(diag(v_hat) / n)``). ``k`` is the number of sieve moments used,
    ``k1`` the count of moment-covariance eigenvalues above the spectral
    threshold at the estimation step.
    """

    gamma_hat: np.ndarray
    tau_hat: float
    se_gamma: np.ndarray
    se_tau: float
    k: int
    k1: int
    n: int
    v_hat: np.ndarray
    objective_value: float
    rel_threshold: float

    def to_json(self) -> str:
        d = {
            "tau_hat": self.tau_hat,
            "se_tau": self.se_tau,
            "ci95": list(confidence_interval(self)),
            "gamma_hat": self.gamma_hat.tolist(),
            "se_gamma": self.se_gamma.tolist(),
            "k": self.k,
            "k1": self.k1,
            "n": self.n,
            "objective_value": self.objective_value,
        }
        return json.dumps(d)


def joint_score(
    ds: Dataset, basis: BasisMatrix, bridge: OutcomeBridge, gamma, tau: float
) -> np.ndarray:
    """Per-observation scores at (gamma, tau), shape (n, K+1); the last
    column is the contrast moment."""
    resid = ds.y - bridge.h(ds.w, ds.a, ds.x, gamma)
    contrast = bridge.contrast(ds.w, ds.x, gamma)
    s = np.empty((ds.n, basis.k + 1))
    s[:, : basis.k] = basis.u * resid[:, None]
    s[:, basis.k] = tau - contrast
    return s


def estimate_upsilon(scores: np.ndarray) -> np.ndarray:
    """Second-moment matrix of the scores (uncentered)."""
    return scores.T @ scores / scores.shape[0]


def regularize_moments(
    upsilon: np.ndarray, rel_threshold: float = DEFAULT_REL_THRESHOLD
) -> MomentDecomposition:
    """Eigendecompose a moment covariance and mark the retained directions.

    ``threshold_used`` is ``rel_threshold`` times the largest eigenvalue;
    ``k1`` counts eigenvalues strictly above it.
    """
    vals, vecs = scipy.linalg.eigh(np.asarray(upsilon, dtype=float))
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    lam_max = float(vals[0])
    if lam_max <= 0.0:
        raise TooFewMoments("moment covariance has no positive eigenvalue")
    threshold = rel_threshold * lam_max
    k1 = int(np.sum(vals > threshold))
    return MomentDecomposition(eigvals=vals, eigvecs=vecs, threshold_used=threshold, k1=k1)


def _prepare(basis: BasisMatrix) -> BasisMatrix:
    return basis if basis.orthonormal else orthonormalize(basis)


def _jacobian(ds: Dataset, u: np.ndarray, bridge: OutcomeBridge) -> np.ndarray:
    grad = bridge.grad(ds.w, ds.a, ds.x)
    cgrad = bridge.contrast_grad(ds.w, ds.x)
    k, p = u.shape[1], grad.shape[1]
    jac = np.zeros((k + 1, p + 1))
    jac[:k, :p] = -(u.T @ grad) / ds.n
    jac[k, :p] = -cgrad.mean(axis=0)
    jac[k, p] = 1.0
    return jac


def _solve_linear(
    ds: Dataset, u: np.ndarray, bridge: OutcomeBridge, w_half: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray]:
    """The GMM solution under weight ``w_half.T @ w_half``: one least-squares solve."""
    jac = _jacobian(ds, u, bridge)
    p1 = jac.shape[1]
    const = np.r_[u.T @ ds.y / ds.n, 0.0]
    lhs = w_half @ jac
    rhs = -(w_half @ const)
    beta, _, rank, _ = scipy.linalg.lstsq(lhs, rhs)
    if rank < p1:
        raise RankDeficientJacobian(
            f"moment Jacobian has rank {rank} < {p1}; instruments do not "
            "identify the bridge parameters"
        )
    g_final = const + jac @ beta
    return beta, float(g_final @ (w_half.T @ (w_half @ g_final))), jac


def _general_sandwich(
    jac: np.ndarray, weight: np.ndarray, upsilon: np.ndarray
) -> np.ndarray:
    """Asymptotic variance for a fixed (possibly suboptimal) weight."""
    bread = jac.T @ weight @ jac
    try:
        bread_inv = scipy.linalg.inv(bread)
    except scipy.linalg.LinAlgError as exc:
        raise SingularVariance("weighted Jacobian cross-product is singular") from exc
    meat = jac.T @ weight @ upsilon @ weight @ jac
    return bread_inv @ meat @ bread_inv


def _continuous_update_objective(
    ds: Dataset, basis: BasisMatrix, bridge: OutcomeBridge, rel_threshold: float
):
    """Build the moment objective with the covariance re-evaluated per trial point."""

    def objective(beta: np.ndarray) -> float:
        scores = joint_score(ds, basis, bridge, beta[:-1], beta[-1])
        try:
            decomp = regularize_moments(estimate_upsilon(scores), rel_threshold)
            floored = decomp._floored()
        except (TooFewMoments, scipy.linalg.LinAlgError):
            return float("inf")
        # Projected and summed in ascending eigenvalue order, with the
        # eigenvectors as contiguous rows: the polish's second differences
        # magnify this value's rounding by 1/h², and this order and layout
        # keep polished estimates bit-identical to the behaviour fingerprint.
        rows = np.ascontiguousarray(decomp.eigvecs[:, ::-1].T)
        proj = rows @ scores.mean(axis=0)
        value = float(proj @ (proj / floored[::-1]))
        return value if np.isfinite(value) else float("inf")

    return objective


def _central_differences(
    fn, x: np.ndarray, steps: np.ndarray, value: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of ``fn`` at ``x`` by central differences, given
    ``value = fn(x)``.

    The gradient is the central difference at ``x``; the Hessian is the
    central difference of that gradient between ``x ± h_j e_j``, averaged
    over both differencing orders. Each distinct point is evaluated once:
    ``x ± h_i e_i``, ``x ± 2 h_i e_i`` and ``x ± h_i e_i ± h_j e_j`` for
    ``i < j``, which is ``2p² + 2p`` points besides ``x``. The derivatives
    are exact on a quadratic.
    """
    p = x.size
    shift = np.diag(steps)
    twice = 2 * steps
    grad = np.empty(p)
    hess = np.empty((p, p))
    for i in range(p):
        grad[i] = (fn(x + shift[i]) - fn(x - shift[i])) / twice[i]
        far_up, far_down = fn(x + shift[i] + shift[i]), fn(x - shift[i] - shift[i])
        hess[i, i] = ((far_up - value) / twice[i] - (value - far_down) / twice[i]) / twice[i]
        for j in range(i):
            pp, pm, mp, mm = (
                fn(x + si * shift[i] + sj * shift[j])
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))
            )
            i_then_j = ((pp - mp) / twice[i] - (pm - mm) / twice[i]) / twice[j]
            j_then_i = ((pp - pm) / twice[j] - (mp - mm) / twice[j]) / twice[i]
            hess[i, j] = hess[j, i] = 0.5 * (i_then_j + j_then_i)
    return grad, hess


def _refine_continuous_update(
    ds: Dataset,
    basis: BasisMatrix,
    bridge: OutcomeBridge,
    start: np.ndarray,
    rel_threshold: float,
) -> tuple[np.ndarray, float]:
    """Polish a two-step solution with a damped Newton step of the
    continuously updated objective.

    Re-evaluating the moment covariance at the trial parameters (rather
    than freezing it at the first step) removes the second-order bias a
    fixed estimated weight acquires as the number of moments grows. A
    single half step of Newton's method on that objective captures the
    correction while staying in the neighborhood of the two-step solution;
    iterating the update to the exact minimizer trades the removed bias
    for noticeably heavier sampling tails in modest samples. After the
    objective at the start, the gradient and curvature come from one
    central-difference stencil (:func:`_central_differences`, ``2p² + 2p``
    further objective evaluations for ``p`` parameters), the curvature is
    shifted to be positive definite when needed, the step is halved until the objective decreases, at most
    ``_POLISH_BACKTRACKS`` times, and the update is dropped entirely if no
    halving achieves a decrease, so the refinement never leaves a solution
    that is already optimal in this metric.
    """
    objective = _continuous_update_objective(ds, basis, bridge, rel_threshold)
    start_val = float(objective(start))
    if not np.isfinite(start_val):
        return start, start_val
    magnitude = float(np.max(np.abs(start)))
    if magnitude == 0.0:
        return start, start_val
    steps = _POLISH_FD_REL * np.maximum(np.abs(start), _POLISH_FD_FLOOR * magnitude)
    grad, hess = _central_differences(objective, start, steps, start_val)
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        return start, start_val
    p = start.size
    eigenvalues = scipy.linalg.eigvalsh(hess)
    if eigenvalues[0] <= 0.0:
        hess = hess + (abs(eigenvalues[0]) + 1e-8 * max(eigenvalues[-1], 1.0)) * np.eye(p)
    try:
        step = -scipy.linalg.solve(hess, grad, assume_a="sym")
    except scipy.linalg.LinAlgError:
        return start, start_val
    slope = float(grad @ step)
    if not np.isfinite(slope) or slope >= 0.0:
        return start, start_val
    t = _POLISH_STEP
    for _ in range(_POLISH_BACKTRACKS):
        candidate = start + t * step
        value = float(objective(candidate))
        if value <= start_val + _POLISH_SLOPE_FRACTION * t * slope:
            return candidate, value
        t *= 0.5
    return start, start_val


def fit_with_weight(
    ds: Dataset,
    basis: BasisMatrix,
    bridge: OutcomeBridge,
    weight: np.ndarray,
) -> GmmFit:
    """Joint GMM fit under an arbitrary fixed positive semidefinite weight.

    The variance is the general sandwich for that weight, with the moment
    covariance re-evaluated at the final estimates. Orthonormalizes the
    basis first when needed.
    """
    basis = _prepare(basis)
    u = basis.u
    vals, vecs = scipy.linalg.eigh(np.asarray(weight, dtype=float))
    if np.min(vals) < -1e-10 * max(np.max(np.abs(vals)), 1.0):
        raise SingularVariance("weight matrix is not positive semidefinite")
    w_half = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
    beta, obj, jac = _solve_linear(ds, u, bridge, w_half)
    scores = joint_score(ds, basis, bridge, beta[:-1], beta[-1])
    upsilon = estimate_upsilon(scores)
    v_hat = _general_sandwich(jac, weight, upsilon)
    dv = np.diag(v_hat)
    if np.any(dv < -1e-8 * max(np.max(np.abs(dv)), 1.0)):
        raise SingularVariance("sandwich variance has a negative diagonal entry")
    se = np.sqrt(np.maximum(dv, 0.0) / ds.n)
    p = bridge.n_params
    return GmmFit(
        gamma_hat=beta[:p],
        tau_hat=float(beta[p]),
        se_gamma=se[:p],
        se_tau=float(se[p]),
        k=u.shape[1],
        k1=u.shape[1] + 1,
        n=ds.n,
        v_hat=v_hat,
        objective_value=obj,
        rel_threshold=0.0,
    )


def fit_initial(ds: Dataset, basis: BasisMatrix, bridge: OutcomeBridge) -> GmmFit:
    """Identity-weight fit on the orthonormalized basis.

    With K equal to the bridge dimension this solves the exactly identified
    estimating equations; with K larger it is the usual first-step GMM
    whose estimates feed the moment-covariance estimate.
    """
    basis = _prepare(basis)
    return fit_with_weight(ds, basis, bridge, np.eye(basis.k + 1))


def fit_optimal(
    ds: Dataset,
    basis: BasisMatrix,
    bridge: OutcomeBridge,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
) -> GmmFit:
    """Optimally weighted fit: two-step, then a continuous-updating polish.

    Step one is :func:`fit_initial`; the moment covariance at those
    estimates is eigendecomposed and inverted with eigenvalues floored at
    ``rel_threshold`` times the largest, which regularizes directions whose
    sample variance is negligible (including the structurally degenerate
    contrast direction of a parameter-constant-contrast bridge) instead of
    letting them dominate the weight. When the moment count exceeds the
    parameter count, the two-step solution is then polished by a damped
    Newton step of the quadratic form with the covariance continuously
    re-evaluated, and floored by the same rule, at the trial parameters,
    which removes the bias that accumulates in the frozen-weight solution
    as moments are added. The polish evaluates that objective at most
    ``2p² + 2p + 1 + _POLISH_BACKTRACKS`` times for ``p`` parameters
    (bridge coefficients and the effect). At an exactly identified count
    the two-step solution already zeroes every moment, so the polish is
    skipped. The reported variance re-evaluates the moment covariance at
    the final estimates and applies the same floored inverse as the
    sandwich core.
    """
    basis = _prepare(basis)
    u = basis.u
    init = fit_initial(ds, basis, bridge)
    scores0 = joint_score(ds, basis, bridge, init.gamma_hat, init.tau_hat)
    decomp = regularize_moments(estimate_upsilon(scores0), rel_threshold)
    beta, obj, _ = _solve_linear(ds, u, bridge, decomp.floored_weight_sqrt())
    if u.shape[1] > bridge.n_params:
        beta, obj = _refine_continuous_update(ds, basis, bridge, beta, rel_threshold)
    p = beta.shape[0] - 1
    fit = GmmFit(
        gamma_hat=beta[:p],
        tau_hat=float(beta[p]),
        se_gamma=np.full(p, np.nan),
        se_tau=float("nan"),
        k=u.shape[1],
        k1=decomp.k1,
        n=ds.n,
        v_hat=np.empty((0, 0)),
        objective_value=obj,
        rel_threshold=rel_threshold,
    )
    return variance(fit, ds, basis, bridge)


def variance(
    fit: GmmFit, ds: Dataset, basis: BasisMatrix, bridge: OutcomeBridge
) -> GmmFit:
    """Recompute the sandwich variance at the fit's estimates.

    The moment covariance is re-evaluated at the final estimates,
    redecomposed at the fit's spectral threshold, and the variance is the
    inverse of the Jacobian quadratic form in the floored weight. Raises
    :class:`SingularVariance` when that quadratic form cannot be inverted.
    """
    basis = _prepare(basis)
    scores = joint_score(ds, basis, bridge, fit.gamma_hat, fit.tau_hat)
    decomp = regularize_moments(estimate_upsilon(scores), fit.rel_threshold)
    weight = decomp.floored_weight()
    jac = _jacobian(ds, basis.u, bridge)
    bread = jac.T @ weight @ jac
    try:
        chol = scipy.linalg.cho_factor(bread)
        v_hat = scipy.linalg.cho_solve(chol, np.eye(bread.shape[0]))
    except scipy.linalg.LinAlgError as exc:
        raise SingularVariance(
            "floored-weight Jacobian quadratic form is singular"
        ) from exc
    dv = np.diag(v_hat)
    se = np.sqrt(np.maximum(dv, 0.0) / ds.n)
    p = fit.gamma_hat.shape[0]
    return replace(fit, se_gamma=se[:p], se_tau=float(se[p]), v_hat=v_hat)


def confidence_interval(fit: GmmFit, level: float = 0.95) -> tuple[float, float]:
    """Two-sided normal confidence interval for the treatment effect."""
    z = norm.ppf(0.5 + level / 2)
    return (fit.tau_hat - z * fit.se_tau, fit.tau_hat + z * fit.se_tau)


def wald_test(fit: GmmFit, null_tau: float = 0.0) -> tuple[float, bool]:
    """Wald statistic for tau against a null value and its 5% decision."""
    if fit.se_tau <= 0.0:
        raise SingularVariance("standard error for tau is not positive")
    stat = (fit.tau_hat - null_tau) / fit.se_tau
    return float(stat), bool(abs(stat) > WALD_CRITICAL_5PCT)
