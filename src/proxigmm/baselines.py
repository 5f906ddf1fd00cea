"""Reference estimators: naive regression, proxy GMM/2SLS/IPW/DR.

Each estimator returns an :class:`EstimateReport` with a sandwich standard
error derived from its own stacked estimating equations, so confidence
intervals account for every estimated nuisance parameter.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize
from scipy.stats import norm

from .bridges import OutcomeBridge, TreatmentBridge
from .data import Dataset
from .errors import (
    DimensionMismatch,
    NoConvergence,
    RankDeficientDesign,
    SingularSystem,
    SingularVariance,
    WeakRank,
)
from .gmm import WALD_CRITICAL_5PCT

_NEWTON_MAX_ITER = 50
_NEWTON_TOL = 1e-10
_NEWTON_START_MAGNITUDE = 0.5
# Minimum-norm fallback: placeholder residual where the moment is not
# finite, and the largest acceptable per-moment imbalance at the minimizer.
# The cut must sit below 1: a dataset with no untreated (or no treated)
# units leaves the constant balancing slot at mean(q) > 1 forever, which
# should surface as a solver failure, while genuine near-roots found by
# the fallback on identifiable data sit well under this level.
_MINNORM_SENTINEL = 1e6
_MINNORM_ACCEPT = 0.5


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate, standard error, and auxiliary parameter values."""

    method: str
    tau_hat: float
    se_tau: float
    n: int
    aux: dict = field(default_factory=dict)

    def ci95(self) -> tuple[float, float]:
        z = norm.ppf(0.975)
        return (self.tau_hat - z * self.se_tau, self.tau_hat + z * self.se_tau)

    def wald_reject(self, null_tau: float = 0.0) -> bool:
        return abs(self.tau_hat - null_tau) > WALD_CRITICAL_5PCT * self.se_tau

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


def _stacked_se(scores: np.ndarray, jac: np.ndarray, idx: int, system: str) -> float:
    """Standard error of coordinate ``idx`` from the sandwich of an exactly
    identified stacked system with per-observation ``scores`` and Jacobian
    ``jac``; ``system`` names it in the error raised when ``jac`` is singular."""
    n = scores.shape[0]
    upsilon = scores.T @ scores / n
    try:
        jinv = scipy.linalg.inv(jac)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(f"stacked {system} Jacobian is singular") from exc
    v = jinv @ upsilon @ jinv.T
    var = v[idx, idx]
    if not np.isfinite(var) or var < 0.0:
        raise SingularVariance("sandwich variance is not positive at the target")
    return float(np.sqrt(var / n))


def _balancing_jacobian(basis_c: np.ndarray, basis_b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Jacobian of the treatment bridge's balancing moments in its parameters."""
    return -(basis_c * (q - 1.0)[:, None]).T @ basis_b / basis_c.shape[0]


def naive_gformula(ds: Dataset) -> EstimateReport:
    """Outcome regression treating both proxies as ordinary confounders.

    OLS of y on (1, a, w, z, x); the treatment coefficient is the effect
    estimate and its standard error is the HC0 sandwich. Biased whenever
    the unmeasured confounder moves the proxies, which is the scenario the
    proximal estimators exist for.
    """
    design = np.column_stack([np.ones(ds.n), ds.a, ds.w, ds.z, ds.x])
    gram = design.T @ design
    try:
        gram_inv = scipy.linalg.inv(gram)
    except scipy.linalg.LinAlgError as exc:
        raise RankDeficientDesign("regression design matrix is singular") from exc
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise RankDeficientDesign("regression design matrix is rank deficient")
    beta = gram_inv @ (design.T @ ds.y)
    resid = ds.y - design @ beta
    meat = (design * resid[:, None] ** 2).T @ design
    v = gram_inv @ meat @ gram_inv
    return EstimateReport(
        method="naive",
        tau_hat=float(beta[1]),
        se_tau=float(np.sqrt(v[1, 1])),
        n=ds.n,
        aux={"coefficients": beta},
    )


def plugin(ds: Dataset, bridge: OutcomeBridge, instruments: np.ndarray) -> EstimateReport:
    """Exactly identified bridge fit with a plug-in contrast mean.

    Solves the empirical moment conditions instrumenting the outcome
    residual with the given columns (one instrument per bridge parameter),
    then averages the fitted treatment contrast. The standard error comes
    from the joint sandwich of the bridge moments and the contrast moment.
    """
    feats = bridge.grad(ds.w, ds.a, ds.x)
    m = np.asarray(instruments, dtype=float)
    if m.ndim != 2 or m.shape[0] != ds.n:
        raise DimensionMismatch("instruments must be an (n, p) matrix")
    p = feats.shape[1]
    if m.shape[1] != p:
        raise DimensionMismatch(
            f"need exactly {p} instruments for {p} bridge parameters, got {m.shape[1]}"
        )
    cross = m.T @ feats / ds.n
    try:
        gamma = scipy.linalg.solve(cross, m.T @ ds.y / ds.n)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem("instrument/feature cross-moment matrix is singular") from exc
    cgrad = bridge.contrast_grad(ds.w, ds.x)
    tau = float(cgrad.mean(axis=0) @ gamma)
    resid = ds.y - feats @ gamma
    scores = np.column_stack([m * resid[:, None], tau - cgrad @ gamma])
    jac = np.zeros((p + 1, p + 1))
    jac[:p, :p] = -cross
    jac[p, :p] = -cgrad.mean(axis=0)
    jac[p, p] = 1.0
    return EstimateReport(
        method="plugin",
        tau_hat=tau,
        se_tau=_stacked_se(scores, jac, p, "moment"),
        n=ds.n,
        aux={"gamma_hat": gamma},
    )


def rgmm(ds: Dataset, bridge: OutcomeBridge | None = None) -> EstimateReport:
    """Exactly identified proxy GMM with the canonical instrument set.

    Instruments the outcome residual with (1, z, a, x). Requires as many
    treatment-side proxies as outcome-side ones so the system is square.
    """
    if bridge is None:
        bridge = OutcomeBridge.linear(ds.w.shape[1], ds.x.shape[1])
    instruments = np.column_stack([np.ones(ds.n), ds.z, ds.a, ds.x])
    report = plugin(ds, bridge, instruments)
    return EstimateReport(
        method="rgmm", tau_hat=report.tau_hat, se_tau=report.se_tau,
        n=ds.n, aux=report.aux,
    )


def p2sls(ds: Dataset) -> EstimateReport:
    """Two-stage least squares using z to instrument w.

    Regressors (1, a, x, w); instruments (1, a, x, z). The treatment
    coefficient estimates the effect; its standard error is the usual
    heteroskedasticity-robust 2SLS sandwich with residuals taken at the
    original regressors.
    """
    if ds.z.shape[1] < ds.w.shape[1]:
        raise WeakRank(
            f"{ds.z.shape[1]} instruments cannot identify {ds.w.shape[1]} proxy regressors"
        )
    regressors = np.column_stack([np.ones(ds.n), ds.a, ds.x, ds.w])
    inst = np.column_stack([np.ones(ds.n), ds.a, ds.x, ds.z])
    gram_inst = inst.T @ inst
    if np.linalg.matrix_rank(gram_inst) < inst.shape[1]:
        raise WeakRank("instrument matrix is rank deficient")
    proj = inst @ scipy.linalg.solve(gram_inst, inst.T @ regressors, assume_a="pos")
    gram = proj.T @ regressors
    try:
        beta = scipy.linalg.solve(gram, proj.T @ ds.y)
    except scipy.linalg.LinAlgError as exc:
        raise WeakRank("projected design is singular") from exc
    resid = ds.y - regressors @ beta
    gram_inv = scipy.linalg.inv(gram)
    meat = (proj * resid[:, None] ** 2).T @ proj
    v = gram_inv @ meat @ gram_inv.T
    return EstimateReport(
        method="p2sls",
        tau_hat=float(beta[1]),
        se_tau=float(np.sqrt(v[1, 1])),
        n=ds.n,
        aux={"coefficients": beta},
    )


def _pipw_system(ds: Dataset):
    sign = np.where(ds.a > 0.5, 1.0, -1.0)  # (-1)^(1-A)
    basis_c = np.column_stack([np.ones(ds.n), ds.w, ds.a, ds.x])
    basis_b = np.column_stack([np.ones(ds.n), ds.z, ds.a, ds.x])
    target = np.zeros(basis_c.shape[1])
    target[1 + ds.w.shape[1]] = 1.0
    return sign, basis_c, basis_b, target


def _newton_starts(dim: int) -> list[np.ndarray]:
    starts = [np.zeros(dim)]
    for pattern in itertools.product((1.0, -1.0), repeat=min(dim - 1, 3)):
        signs = np.ones(dim)
        signs[1 : 1 + len(pattern)] = pattern
        starts.append(_NEWTON_START_MAGNITUDE * signs)
    return starts


def _solve_pipw_theta(ds: Dataset) -> tuple[np.ndarray, TreatmentBridge]:
    sign, basis_c, basis_b, target = _pipw_system(ds)
    if basis_c.shape[1] != basis_b.shape[1]:
        raise DimensionMismatch(
            "reweighting moments need equally many z and w proxies"
        )
    bridge = TreatmentBridge()

    def residual(theta):
        # Overflow to inf (and inf*0 = nan) for extreme trial points is
        # expected; callers reject non-finite residuals rather than warn.
        with np.errstate(over="ignore", invalid="ignore"):
            q = bridge.q(ds.z, ds.a, ds.x, theta)
            return (basis_c * (sign * q)[:, None]).mean(axis=0) - target

    def jacobian(theta):
        with np.errstate(over="ignore", invalid="ignore"):
            return _balancing_jacobian(basis_c, basis_b, bridge.q(ds.z, ds.a, ds.x, theta))

    best_norm = np.inf
    tried = 0
    for start in _newton_starts(basis_b.shape[1]):
        theta = start.copy()
        res = residual(theta)
        tried += 1
        for _ in range(_NEWTON_MAX_ITER):
            if np.max(np.abs(res)) < _NEWTON_TOL:
                return theta, bridge
            try:
                # An ill-conditioned balancing Jacobian produces steps with
                # no usable digits; give up on this start like a singular one.
                with warnings.catch_warnings():
                    warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                    step = scipy.linalg.solve(jacobian(theta), -res)
            except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning):
                break
            scale = 1.0
            # Residuals of extreme trial points overflow their squared norm
            # to inf, which correctly ranks them as no improvement.
            with np.errstate(over="ignore"):
                norm0 = np.linalg.norm(res)
                for _ in range(30):
                    cand = theta + scale * step
                    cand_res = residual(cand)
                    if np.all(np.isfinite(cand_res)) and np.linalg.norm(cand_res) < norm0:
                        break
                    scale *= 0.5
                else:
                    break
            theta, res = cand, cand_res
        best_norm = min(best_norm, float(np.max(np.abs(res))))

    # The balancing system can lack an exact root in finite samples (a
    # heavy-tailed analogue of separation in logistic regression). The
    # exactly identified GMM fit is still defined as the minimizer of the
    # squared moment norm, so fall back to a least-squares minimizer and
    # accept it when the remaining imbalance is moderate.
    def clipped(theta):
        r = residual(theta)
        return np.where(np.isfinite(r), r, _MINNORM_SENTINEL)

    best = None
    for start in _newton_starts(basis_b.shape[1]):
        sol = scipy.optimize.least_squares(
            clipped, start, method="lm", max_nfev=20_000
        )
        if best is None or sol.cost < best.cost:
            best = sol
    res = residual(best.x)
    if np.all(np.isfinite(res)) and np.max(np.abs(res)) < _MINNORM_ACCEPT:
        return best.x, bridge
    raise NoConvergence(
        f"reweighting solver failed from {tried} starts "
        f"(best exact-root residual sup-norm {best_norm:.3e}; "
        f"minimum-norm imbalance {float(np.max(np.abs(res))):.3e})"
    )


def pipw(ds: Dataset) -> EstimateReport:
    """Proximal inverse probability weighting.

    Fits the treatment-side bridge by damped Newton on its balancing
    moments, then averages the signed reweighted outcome. The standard
    error stacks the bridge moments with the reweighting moment.
    """
    theta, bridge = _solve_pipw_theta(ds)
    sign, basis_c, basis_b, target = _pipw_system(ds)
    q = bridge.q(ds.z, ds.a, ds.x, theta)
    tau = float(np.mean(sign * q * ds.y))
    t_dim = theta.shape[0]
    scores = np.column_stack(
        [basis_c * (sign * q)[:, None] - target, tau - sign * q * ds.y]
    )
    jac = np.zeros((t_dim + 1, t_dim + 1))
    jac[:t_dim, :t_dim] = _balancing_jacobian(basis_c, basis_b, q)
    jac[t_dim, :t_dim] = ((q - 1.0) * ds.y) @ basis_b / ds.n
    jac[t_dim, t_dim] = 1.0
    return EstimateReport(
        method="pipw",
        tau_hat=tau,
        se_tau=_stacked_se(scores, jac, t_dim, "reweighting"),
        n=ds.n,
        aux={"theta_hat": theta},
    )


def pdr(ds: Dataset, bridge: OutcomeBridge | None = None) -> EstimateReport:
    """Proximal doubly robust estimator.

    Combines the outcome-bridge contrast with a reweighted residual
    correction; consistent if either bridge is correctly specified. The
    standard error stacks both bridges' moments with the combination
    moment.
    """
    if bridge is None:
        bridge = OutcomeBridge.linear(ds.w.shape[1], ds.x.shape[1])
    gamma_report = rgmm(ds, bridge)
    gamma = np.asarray(gamma_report.aux["gamma_hat"])
    theta, t_bridge = _solve_pipw_theta(ds)
    sign, basis_c, basis_b, target = _pipw_system(ds)
    feats = bridge.grad(ds.w, ds.a, ds.x)
    cgrad = bridge.contrast_grad(ds.w, ds.x)
    q = t_bridge.q(ds.z, ds.a, ds.x, theta)
    resid = ds.y - feats @ gamma
    contrib = cgrad @ gamma + sign * q * resid
    tau = float(np.mean(contrib))
    instruments = np.column_stack([np.ones(ds.n), ds.z, ds.a, ds.x])
    p = feats.shape[1]
    t_dim = theta.shape[0]
    scores = np.column_stack(
        [
            instruments * resid[:, None],
            basis_c * (sign * q)[:, None] - target,
            tau - contrib,
        ]
    )
    dim = p + t_dim + 1
    jac = np.zeros((dim, dim))
    jac[:p, :p] = -(instruments.T @ feats) / ds.n
    jac[p : p + t_dim, p : p + t_dim] = _balancing_jacobian(basis_c, basis_b, q)
    jac[dim - 1, :p] = (-cgrad + (sign * q)[:, None] * feats).mean(axis=0)
    jac[dim - 1, p : p + t_dim] = ((q - 1.0) * resid) @ basis_b / ds.n
    jac[dim - 1, dim - 1] = 1.0
    return EstimateReport(
        method="pdr",
        tau_hat=tau,
        se_tau=_stacked_se(scores, jac, dim - 1, "doubly robust"),
        n=ds.n,
        aux={"gamma_hat": gamma, "theta_hat": theta},
    )
