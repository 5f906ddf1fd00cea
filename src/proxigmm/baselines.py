"""Reference estimators: naive regression, proxy GMM/2SLS/IPW/DR.

Each estimator returns an :class:`EstimateReport` with a sandwich standard
error derived from its own stacked estimating equations, so confidence
intervals account for every estimated nuisance parameter.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from .bridges import OutcomeBridge, TreatmentBridge
from .data import Dataset
from .errors import (
    DimensionMismatch,
    NoConvergence,
    ProxiGmmError,
    RankDeficientDesign,
    SingularSystem,
    SingularVariance,
    WeakRank,
)
from .gmm import WALD_CRITICAL_5PCT, _Moments

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
        z = WALD_CRITICAL_5PCT
        return (self.tau_hat - z * self.se_tau, self.tau_hat + z * self.se_tau)

    def wald_reject(self) -> bool:
        """Whether the 5% two-sided Wald test rejects tau = 0."""
        return abs(self.tau_hat) > WALD_CRITICAL_5PCT * self.se_tau

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


def _canonical_bridge_fit(ds: Dataset) -> tuple[_Moments, np.ndarray]:
    """Moments of the linear outcome bridge instrumented by (1, z, a, x), and
    the bridge coefficients that zero them.

    Raises :class:`DimensionMismatch` unless there is one instrument per
    bridge parameter, that is as many z proxies as w proxies.
    """
    bridge = OutcomeBridge.linear(ds.w.shape[1], ds.x.shape[1])
    instruments = np.column_stack([np.ones(ds.n), ds.z, ds.a, ds.x])
    p = bridge.n_params
    if instruments.shape[1] != p:
        raise DimensionMismatch(
            f"need exactly {p} instruments for {p} bridge parameters, got {instruments.shape[1]}"
        )
    moments = _Moments.build(ds, instruments, bridge)
    try:
        gamma = scipy.linalg.solve(-moments.jac[:p, :p], moments.const[:p])
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem("instrument/feature cross-moment matrix is singular") from exc
    return moments, gamma


def rgmm(ds: Dataset) -> EstimateReport:
    """Exactly identified proxy GMM with the canonical instrument set.

    Instruments the outcome residual of the linear bridge over (1, w, a, x)
    with (1, z, a, x), one instrument per bridge parameter, solves those
    moment conditions and averages the fitted treatment contrast. Requires
    as many treatment-side proxies as outcome-side ones so the system is
    square. The standard error comes from the joint sandwich of the bridge
    moments and the contrast moment.
    """
    moments, gamma = _canonical_bridge_fit(ds)
    tau = float(moments.contrast_mean @ gamma)
    resid = ds.y - moments.feats @ gamma
    # One product with the contrast features, as in pdr: moments.scores
    # differences two products, which rounds the contrast column differently.
    cgrad = moments.treated - moments.untreated
    scores = np.column_stack([moments.u * resid[:, None], tau - cgrad @ gamma])
    return EstimateReport(
        method="rgmm",
        tau_hat=tau,
        se_tau=_stacked_se(scores, moments.jac, gamma.shape[0], "moment"),
        n=ds.n,
        aux={"gamma_hat": gamma},
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


# Treatment-bridge solves by dataset identity, shared by the calls inside
# ``_one_treatment_solve_per_dataset``; None outside it.
_shared_solves: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "_shared_solves", default=None
)


@contextlib.contextmanager
def _one_treatment_solve_per_dataset():
    """Within the block, :func:`pipw` and :func:`pdr` on one dataset share
    one treatment-bridge solve, and a solve that failed fails again with
    the same error."""
    token = _shared_solves.set({})
    try:
        yield
    finally:
        _shared_solves.reset(token)


def _solve_pipw_theta(ds: Dataset):
    """Treatment-bridge coefficients that balance the reweighting moments.

    Returns ``(theta, q, system)``: the coefficients, the bridge values at
    them, and the ``(sign, basis_c, basis_b, target)`` arrays of
    :func:`_pipw_system`, so callers build neither again. Inside
    :func:`_one_treatment_solve_per_dataset` each dataset is solved once.
    """
    shared = _shared_solves.get()
    if shared is None:
        return _solve_treatment_bridge(ds)
    if id(ds) not in shared:
        try:
            outcome = _solve_treatment_bridge(ds)
        except ProxiGmmError as exc:
            outcome = exc
        # Holding the dataset keeps its id from being reused in the block.
        shared[id(ds)] = ds, outcome
    outcome = shared[id(ds)][1]
    if isinstance(outcome, ProxiGmmError):
        raise outcome
    return outcome


def _solve_treatment_bridge(ds: Dataset):
    system = sign, basis_c, basis_b, target = _pipw_system(ds)
    if basis_c.shape[1] != basis_b.shape[1]:
        raise DimensionMismatch(
            "reweighting moments need equally many z and w proxies"
        )
    bridge = TreatmentBridge()

    def balance(theta):
        """Bridge values at ``theta`` and the balancing residual there."""
        # Overflow to inf (and inf*0 = nan) for extreme trial points is
        # expected; callers reject non-finite residuals rather than warn.
        with np.errstate(over="ignore", invalid="ignore"):
            q = bridge.q(ds.z, ds.a, ds.x, theta)
            return q, (basis_c * (sign * q)[:, None]).mean(axis=0) - target

    best_norm = np.inf
    tried = 0
    for start in _newton_starts(basis_b.shape[1]):
        theta = start.copy()
        q, res = balance(theta)
        tried += 1
        for _ in range(_NEWTON_MAX_ITER):
            if np.max(np.abs(res)) < _NEWTON_TOL:
                return theta, q, system
            with np.errstate(over="ignore", invalid="ignore"):
                jac = _balancing_jacobian(basis_c, basis_b, q)
            try:
                # An ill-conditioned balancing Jacobian produces steps with
                # no usable digits; give up on this start like a singular one.
                with warnings.catch_warnings():
                    warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                    step = scipy.linalg.solve(jac, -res)
            except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning):
                break
            scale = 1.0
            # Residuals of extreme trial points overflow their squared norm
            # to inf, which correctly ranks them as no improvement.
            with np.errstate(over="ignore"):
                norm0 = np.linalg.norm(res)
                for _ in range(30):
                    cand = theta + scale * step
                    cand_q, cand_res = balance(cand)
                    if np.all(np.isfinite(cand_res)) and np.linalg.norm(cand_res) < norm0:
                        break
                    scale *= 0.5
                else:
                    break
            theta, q, res = cand, cand_q, cand_res
        best_norm = min(best_norm, float(np.max(np.abs(res))))

    # The balancing system can lack an exact root in finite samples (a
    # heavy-tailed analogue of separation in logistic regression). The
    # exactly identified GMM fit is still defined as the minimizer of the
    # squared moment norm, so fall back to a least-squares minimizer and
    # accept it when the remaining imbalance is moderate.
    def clipped(theta):
        r = balance(theta)[1]
        return np.where(np.isfinite(r), r, _MINNORM_SENTINEL)

    best = None
    for start in _newton_starts(basis_b.shape[1]):
        sol = scipy.optimize.least_squares(
            clipped, start, method="lm", max_nfev=20_000
        )
        if best is None or sol.cost < best.cost:
            best = sol
    q, res = balance(best.x)
    if np.all(np.isfinite(res)) and np.max(np.abs(res)) < _MINNORM_ACCEPT:
        return best.x, q, system
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
    theta, q, (sign, basis_c, basis_b, target) = _solve_pipw_theta(ds)
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


def pdr(ds: Dataset) -> EstimateReport:
    """Proximal doubly robust estimator.

    Combines the outcome-bridge contrast with a reweighted residual
    correction; consistent if either bridge is correctly specified. The
    outcome bridge is fitted as in :func:`rgmm`. The standard error stacks
    both bridges' moments with the combination moment.
    """
    moments, gamma = _canonical_bridge_fit(ds)
    theta, q, (sign, basis_c, basis_b, target) = _solve_pipw_theta(ds)
    feats = moments.feats
    cgrad = moments.treated - moments.untreated
    resid = ds.y - feats @ gamma
    contrib = cgrad @ gamma + sign * q * resid
    tau = float(np.mean(contrib))
    p = gamma.shape[0]
    t_dim = theta.shape[0]
    scores = np.column_stack(
        [
            moments.u * resid[:, None],
            basis_c * (sign * q)[:, None] - target,
            tau - contrib,
        ]
    )
    dim = p + t_dim + 1
    jac = np.zeros((dim, dim))
    jac[:p, :p] = moments.jac[:p, :p]
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
