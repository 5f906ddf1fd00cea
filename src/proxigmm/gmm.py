"""Joint GMM for the outcome bridge and the average treatment effect.

The moment vector stacks K sieve moments, instrumenting the outcome
residual ``y - h`` with basis columns of (Z, A, X), and one contrast moment
tying the target parameter to the mean treatment contrast of the bridge.
The bridge is linear in its parameters, so the mean moments are affine in
them. The feature matrices behind the scores are built once per dataset
and bridge and kept on the dataset (:func:`_fit_each`), so the moment-count
scan, every public fit step and the baselines' outcome-bridge fit read one
build; the affine map is built once per instrument matrix. A kept fit is a
stacked kernel: it runs on a list of datasets, a Monte Carlo block's or a
single dataset's, and gives each what it gets alone, bit for bit. A fixed-weight
fit and its sandwich are :func:`_fit`. Every weighted system W½J, of the
fits, the floored sandwich and the moment-count scan, is one SVD with
each column scaled by its feature's root mean square, which the features
keep (:func:`_solve`). It gives the estimates, the rank test and every
variance in any units of w, x and z, each the mean square of scores
projected through its factors, and it is the one rule that
decides whether instruments identify the bridge: a feature that they
reach only at rounding level of its own size is unidentified, in any
units, and the fit raises :class:`RankDeficientJacobian`. Fitting proceeds
in two steps: an identity-weight fit on the orthonormalized basis, then an
optimally weighted fit whose weight is the spectrally regularized inverse
of the estimated moment covariance, polished by a damped Newton step of
the continuously updated objective. For the linear bridge that polish leaves
the effect estimate where the second step put it (measured moves of at
most 8e-8) and moves the bridge's other coefficients, so it changes the
reported standard error, not tau: a stencil point that moves tau or the
treatment coefficient alone reads an objective of exactly 1, so the step
in those coordinates is noise. At the exactly identified count (K equal to
the bridge dimension p) an estimate does not depend on its weight (Hansen
1982), so the fit is the identity-weight fit and its sandwich
J⁻¹ΥJ⁻ᵀ, with no weight and no floor. :func:`_sieve_iv_fits`, the one
builder of every outcome-bridge IV fit, is the identity-weight fit on the
sieve's first k terms, kept per dataset, bridge and k: ``select_and_fit``
reads it at K* = p, and ``rgmm``, ``p2sls`` and ``pdr`` at
k = 2 + d_z + d_x, the terms (1, a, z, x), so with as many z as w proxies
the two are one fit. The moment covariance is quadratic in the
parameters, so an overidentified fit builds one O(n (K(p+1))²) Gram (:func:`_gram_moments`)
before its first step and reads from it the first-step covariance, every
objective evaluation of the polish and the covariance behind its
sandwich: it forms no n×(K+1) score matrix, nothing after the Gram does
work in n, and the whole finite-difference stencil is evaluated in one
batched call. :func:`variance`, which needs one covariance only, forms
it from the scores.

Spectral regularization uses an eigenvalue floor: eigenvalues of the moment
covariance below ``SPECTRAL_FLOOR`` (1e-8) times the largest are raised to
that floor before inverting; every overidentified fit, its polish and
:func:`variance` use this one constant. Directions above the floor get
their usual optimal weight (so with nothing below the floor this is
exactly unregularized optimal GMM), while near-degenerate directions are
capped instead of amplified. The contrast moment is exactly degenerate at
the initial estimates whenever the bridge's treatment contrast is
parameter-constant (true for the default linear bridge), so a hard
spectral cutoff would discard the one moment that identifies the target;
the floor keeps it at a bounded weight and the fit separates cleanly.
The polish's objective eigendecomposes only the covariances that may
reach the floor: a point whose diagonal and Cholesky factor L certify
that no eigenvalue does reads the unfloored form ‖L⁻¹ḡ‖², the same value
to rounding (:func:`_continuous_update_objective`). At the linear
bridge's stencil the points that move tau or the treatment coefficient
alone are certified (34 of 61 at II/800, K 12); the others, where the
contrast direction is degenerate, pay for ``eigh``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Protocol

import numpy as np

from .bridges import OutcomeBridge
from .data import Dataset, _stack, _stack_arrays
from .errors import (
    ProxiGmmError, RankDeficientJacobian, SingularVariance, TooFewMoments, _unless_error,
)
from .sieve import BasisMatrix, _bases, _orthonormal, orthonormalize

SPECTRAL_FLOOR = 1e-8
# Two-sided 5% normal critical value, the standard normal 0.975 quantile:
# every interval is 95% and every Wald decision is at the 5% level.
WALD_CRITICAL_5PCT = 1.959963984540054
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
    threshold at the first-step estimates. A fit under a fixed weight
    (:func:`fit_initial`, :func:`fit_with_weight`) floors nothing, so its
    ``k1`` is K + 1; so is that of :func:`fit_optimal` at K equal to the
    parameter count, which is the identity-weight fit, whose
    ``objective_value`` is its identity-weight moment norm.
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


@dataclass(frozen=True)
class _Features:
    """An outcome bridge's feature matrices on one dataset.

    The features at the observed treatment (``feats``) and the treatment
    contrast ``contrast``, the features at a = 1 less those at a = 0, do
    not depend on the parameters or on the instruments, so they are built
    once per dataset and bridge, and every moment system instrumenting that
    bridge on that dataset reads them. ``contrast_mean`` is the contrast's
    column mean, the mean parameter gradient of the treatment contrast.
    ``scale`` holds each feature's root mean square ‖f_j‖/√n, then 1 for
    tau: the column scales by which :func:`_solve` equilibrates every
    moment Jacobian of the bridge. The features of a stack of datasets
    (:meth:`stack`) carry a leading axis on every array.
    """

    y: np.ndarray
    feats: np.ndarray
    contrast: np.ndarray
    contrast_mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def build(cls, datasets: list[Dataset], bridge: OutcomeBridge) -> list[_Features]:
        """The features of ``bridge`` on each of ``datasets``, which share
        their shapes. A feature row is a function of its observation's (w,
        a, x) alone, so the bridge's matrices of every dataset come from one
        call on all their rows; their column norms and means are one stacked
        reduction each. Each dataset gets what it would get alone, bit for
        bit."""
        count, n = len(datasets), datasets[0].n
        w, x = (_stack(datasets, name).reshape(count * n, -1) for name in "wx")
        a = _stack(datasets, "a").reshape(-1)
        ones = np.ones_like(a)
        feats = bridge.grad(w, a, x).reshape(count, n, -1)
        contrast = (bridge.grad(w, ones, x) - bridge.grad(w, 0.0 * ones, x)).reshape(count, n, -1)
        scale = np.ones((count, feats.shape[2] + 1))
        scale[:, :-1] = np.linalg.norm(feats, axis=1) / np.sqrt(n)
        contrast_mean = contrast.mean(axis=1)
        return [
            cls(ds.y, feats[b], contrast[b], contrast_mean[b], scale[b])
            for b, ds in enumerate(datasets)
        ]

    @classmethod
    def stack(cls, features: list[_Features]) -> _Features:
        """One :class:`_Features` whose arrays stack those of ``features``
        along a leading axis; an entry that is an error, from a bridge whose
        features cannot be built, is raised."""
        for f in features:
            _unless_error(f)
        return cls(*(
            _stack_arrays([getattr(f, field.name) for f in features]) for field in fields(cls)
        ))


@dataclass(frozen=True)
class _Moments:
    """The stacked moments of a linear bridge on one instrument matrix.

    With ``beta = (gamma, tau)`` the mean moment vector is affine,
    ``const + jac @ beta``: the K sieve rows instrument the outcome residual
    with ``u`` and the last row is ``tau`` minus the mean treatment contrast.
    A moment system adds one instrument matrix to the bridge's feature
    matrices (:class:`_Features`), which :meth:`build` reads from the
    dataset (:func:`_bridge_features`): every moment system of one bridge on
    one dataset, whatever its instruments, reads the same features, and
    every fit step, the polish and the variance read them from one object.
    A stack of systems, one per dataset of a block (:meth:`of`), carries a
    leading axis on every array; :func:`_fit` solves such a stack.
    """

    features: _Features
    u: np.ndarray
    jac: np.ndarray
    const: np.ndarray

    @classmethod
    def build(cls, ds: Dataset, u: np.ndarray, bridge: OutcomeBridge) -> _Moments:
        """The moments of ``bridge`` on ``ds`` instrumented by the columns of ``u``."""
        return cls.of(_bridge_features(ds, bridge), u)

    @classmethod
    def of(cls, features: _Features, u: np.ndarray) -> _Moments:
        """The moments of ``features`` instrumented by the columns of ``u``:
        one system, or a stack of them when both carry a leading axis. Each
        system of a stack is built as it would be alone, bit for bit."""
        n, k = u.shape[-2:]
        p = features.feats.shape[-1]
        u_t = np.swapaxes(u, -1, -2)
        jac = np.zeros((*u.shape[:-2], k + 1, p + 1))
        jac[..., :k, :p] = -(u_t @ features.feats) / n
        jac[..., k, :p] = -features.contrast_mean
        jac[..., k, p] = 1.0
        const = np.zeros((*u.shape[:-2], k + 1))
        const[..., :k] = (u_t @ features.y[..., None])[..., 0] / n
        return cls(features, u, jac, const)

    def stacked(self) -> _Moments:
        """This system as a stack of one."""
        return _Moments(
            _Features.stack([self.features]), self.u[None], self.jac[None], self.const[None]
        )

    def scores(self, beta: np.ndarray) -> np.ndarray:
        """Per-observation scores at ``beta``, shape (..., n, K+1): residual
        times each instrument, then ``tau`` minus the treatment contrast."""
        f = self.features
        gamma, tau = beta[..., :-1, None], beta[..., -1:]
        resid = f.y - (f.feats @ gamma)[..., 0]
        n, k = self.u.shape[-2:]
        s = np.empty((*self.u.shape[:-2], n, k + 1))
        s[..., :k] = self.u * resid[..., None]
        s[..., k] = tau - (f.contrast @ gamma)[..., 0]
        return s


def _fit_each(fit, datasets: list[Dataset], *args) -> list:
    """``fit(datasets, *args)``, run once per dataset and arguments.

    ``fit`` is a stacked kernel: it maps a list of datasets of one shape to
    a list holding, per dataset, its result or the :class:`ProxiGmmError`
    it gives that dataset, and each dataset's entry is what it gets on a
    stack of one, bit for bit. A result is kept on its dataset
    (``Dataset._derived``), keyed by ``(fit, *args)``, and every later call
    with that dataset returns it: the kernel runs on the datasets that keep
    nothing yet. So ``rgmm``, ``p2sls`` and ``pdr`` share the outcome-bridge
    fit of a dataset (:func:`_sieve_iv_fits`), ``pipw`` and ``pdr`` its
    treatment-bridge solve and ``pipw``'s report, and every moment system
    of a bridge its features, for any caller that passes the same dataset,
    and a Monte Carlo block fills them for all its datasets at once. What is
    kept is shared as it is, arrays included. A dataset whose fit gave an
    error keeps nothing, and neither does any dataset of a stack whose
    kernel raised one as a whole; each gets that error here, and a later
    call runs the kernel again, which gives the same error, as every fit is
    deterministic. A dataset derived from another starts with nothing kept.
    """
    key = fit, *args
    todo = [ds for ds in datasets if key not in ds._derived]
    got = {}
    if todo:
        try:
            outs = fit(todo, *args)
        except ProxiGmmError as exc:
            # Raised again later, the error must not carry these frames,
            # which hold the datasets.
            outs = [exc.with_traceback(None)] * len(todo)
        for ds, out in zip(todo, outs):
            if isinstance(out, ProxiGmmError):
                got[id(ds)] = out
            else:
                ds._derived[key] = out
    return [got[id(ds)] if id(ds) in got else ds._derived[key] for ds in datasets]


def _fit_once(fit, ds: Dataset, *args):
    """:func:`_fit_each` of the one dataset ``ds``: its result, or its
    error raised."""
    return _one(_fit_each(fit, [ds], *args))


def _one(results: list):
    """The entry of the one-entry list ``results``, taken out of it, or
    that entry raised if it is an error (:func:`errors._unless_error`)."""
    return _unless_error(results.pop())


def _bridge_features(ds: Dataset, bridge: OutcomeBridge) -> _Features:
    """The features of ``bridge`` on ``ds``, built once per dataset and
    bridge (:func:`_fit_once`)."""
    return _fit_once(_Features.build, ds, bridge)


def joint_score(
    ds: Dataset, basis: BasisMatrix, bridge: OutcomeBridge, gamma, tau: float
) -> np.ndarray:
    """Per-observation scores at (gamma, tau), shape (n, K+1); the last
    column is the contrast moment."""
    gamma = bridge._checked(gamma)
    return _Moments.build(ds, basis.u, bridge).scores(np.r_[gamma, tau])


def estimate_upsilon(scores: np.ndarray) -> np.ndarray:
    """Second-moment matrix of the scores (uncentered)."""
    return scores.T @ scores / scores.shape[0]


def regularize_moments(upsilon: np.ndarray) -> MomentDecomposition:
    """Eigendecompose a moment covariance and mark the retained directions.

    ``threshold_used`` is ``SPECTRAL_FLOOR`` times the largest eigenvalue;
    ``k1`` counts eigenvalues strictly above it. Raises ``ValueError`` when
    ``upsilon`` is not finite.
    """
    upsilon = np.asarray(upsilon, dtype=float)
    _check_finite(upsilon)
    vals, vecs = np.linalg.eigh(upsilon)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    lam_max = float(vals[0])
    if lam_max <= 0.0:
        raise TooFewMoments("moment covariance has no positive eigenvalue")
    threshold = SPECTRAL_FLOOR * lam_max
    k1 = int(np.sum(vals > threshold))
    return MomentDecomposition(eigvals=vals, eigvecs=vecs, threshold_used=threshold, k1=k1)


def _check_finite(*arrays: np.ndarray) -> None:
    """Raise ``ValueError`` unless every entry of ``arrays`` is finite:
    LAPACK returns garbage for such input, and its SVD can spin forever."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _prepare(basis: BasisMatrix) -> BasisMatrix:
    return basis if basis.orthonormal else orthonormalize(basis)


def _solve(
    lhs: np.ndarray, rhs: np.ndarray, scale: np.ndarray, n: int, error: type[ProxiGmmError]
):
    """Least-squares solutions of ``lhs @ beta = rhs``, the ranks of ``lhs``
    and the factors ``(U, H)`` below, for one (m, q) system or a stack.

    ``lhs`` averages over ``n`` rows, such as a weighted moment Jacobian,
    and ``scale`` holds its column scales S (:class:`_Features`), a zero
    scale read as 1. One SVD ``lhs S⁻¹ = UΣV'`` gives H = Σ⁻¹V'S⁻¹, the
    solution H'U'rhs and the inverse (lhs' lhs)⁻¹ = H'H; an estimate's
    influence on the rows of ``lhs`` is their projection through UH. The
    rank counts singular values above max(n, q)·eps times the largest;
    below q the solution and factors are not meaningful. On orthonormal
    instruments a column of J is at most its feature's root mean square,
    so an identified column of J S⁻¹ is of order 1 and a feature the
    instruments reach only at rounding level of its own size stays at
    rounding level and is not counted, in any units of w, x and z. Raises
    ``ValueError`` on non-finite input and ``error``, the caller's type,
    when the SVD does not converge. ``scale`` may stack one row of scales
    per system.
    """
    _check_finite(lhs, rhs)
    scale = np.where(scale > 0.0, scale, 1.0)[..., None, :]
    return _scaled_solve(lhs / scale, rhs, scale, n, error)


def _scaled_solve(
    scaled: np.ndarray, rhs: np.ndarray, scale: np.ndarray, n: int, error: type[ProxiGmmError]
):
    """:func:`_solve` of a system given as ``scaled`` = lhs S⁻¹, with S the
    positive column scales ``scale`` shaped (..., 1, q): its one SVD, the
    rank rule and the factors. The system may be any with the same
    singular values and right singular vectors, such as the R factor of a
    QR of lhs S⁻¹ with ``rhs`` rotated by its Q'."""
    try:
        left, sing, right_t = np.linalg.svd(scaled, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise error("the SVD of the weighted moment Jacobian did not converge") from exc
    counted = sing > max(n, scaled.shape[-1]) * np.finfo(float).eps * sing[..., :1]
    half_t = right_t / (np.where(counted, sing, 1.0)[..., :, None] * scale)
    beta = ((rhs[..., None, :] @ left) @ half_t)[..., 0, :]
    return beta, counted.sum(axis=-1), (left, half_t)


def _least_squares(moments: _Moments, w_half: np.ndarray):
    """Minimizer and value of ``|w_half @ (const + jac @ beta)|²`` for the
    moments' ``jac`` and ``const``, and the factors ``(U, H)`` of the
    :func:`_solve` of W½J at the bridge's kept scale, W = ``w_half²``:
    (J'WJ)⁻¹ = H'H. Raises :class:`RankDeficientJacobian` when the moments
    do not identify ``beta`` or the SVD fails.
    """
    beta, obj, factors, rank = _weighted_solve(moments, w_half)
    if rank < moments.jac.shape[-1]:
        raise _unidentified(rank, moments.jac.shape[-1])
    return beta, float(obj), factors


def _weighted_solve(moments: _Moments, w_half: np.ndarray):
    """:func:`_least_squares` of one system or a stack, with the rank of
    each W½J instead of its test. The SVD failing raises
    :class:`RankDeficientJacobian`."""
    jac, const = moments.jac, moments.const
    beta, rank, factors = _solve(
        w_half @ jac, -(w_half @ const[..., None])[..., 0], moments.features.scale,
        moments.u.shape[-2], RankDeficientJacobian,
    )
    g_final = const + (jac @ beta[..., None])[..., 0]
    weighted = w_half.T @ (w_half @ g_final[..., None])
    return beta, (g_final[..., None, :] @ weighted)[..., 0, 0], factors, rank


def _unidentified(rank: int, p1: int) -> RankDeficientJacobian:
    """The error of a moment system of rank ``rank`` below its ``p1`` parameters."""
    return RankDeficientJacobian(
        f"moment Jacobian has rank {rank} < {p1}; instruments do not "
        "identify the bridge parameters"
    )


def _gram_moments(moments: _Moments):
    """Build the mean moments and their covariance as a function of a
    (B, p+1) stack of points ``beta = (gamma, tau)``, returning the (B, K+1)
    means ``const + jac @ beta`` and the (B, K+1, K+1) covariances
    ``estimate_upsilon(moments.scores(beta))``.

    The scores are linear in the bridge. Sieve score k is
    ``u_ik (y_i, feats_i) · (1, -gamma)``, and the contrast score is
    ``g_K(beta) - d_i · gamma``, with ``g_K`` the mean contrast moment and
    ``d_i`` the treatment contrast of the features less its mean. So every
    covariance entry is a quadratic form in ``(1, -gamma)`` and ``gamma``
    over blocks of the Gram ``G = Phi'Phi / n`` of
    ``Phi_i = [u_i ⊗ (y_i, feats_i), d_i]``, plus the ``g_K`` terms. ``G``
    is built here once in O(n (K(p+1))²); an evaluation does no work in n.
    Centering ``d_i`` keeps the contrast entries accurate: the default
    bridge's contrast score ``tau - gamma_a`` is the same for every unit
    and near zero at the fit, and a Gram of the uncentred ``(d_i, 1)``
    would form its square as ``gamma_a² - 2 gamma_a tau + tau²``.
    """
    f = moments.features
    n, k = moments.u.shape
    p1 = moments.jac.shape[1]
    p = p1 - 1
    outcome = np.column_stack([f.y, f.feats])
    # Column k' * p1 + j of Phi is u_k' * outcome_j: one strided write per
    # outcome column fills the Kronecker block in place.
    phi = np.empty((n, k * p1 + p))
    for j in range(p1):
        np.multiply(moments.u, outcome[:, j, None], out=phi[:, j : k * p1 : p1])
    phi[:, k * p1 :] = f.contrast - f.contrast_mean
    gram = phi.T @ phi / n
    # Rows index the covariance entry, columns a pair of block coordinates.
    sieve = gram[: k * p1, : k * p1].reshape(k, p1, k, p1).transpose(0, 2, 1, 3)
    sieve = sieve.reshape(k * k, p1 * p1)
    cross = gram[: k * p1, k * p1 :].reshape(k, p1 * p)
    spread = gram[k * p1 :, k * p1 :].reshape(p * p)

    def evaluate(betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b = betas.shape[0]
        gamma = betas[:, :-1]
        weights = np.concatenate([np.ones((b, 1)), -gamma], axis=1)

        def pairs(left, right):
            return (left[:, :, None] * right[:, None, :]).reshape(b, -1)

        # einsum rather than matmul: each point's arithmetic is then the
        # same whatever the batch size.
        g_bar = moments.const + np.einsum("bj,ij->bi", betas, moments.jac)
        upsilon = np.empty((b, k + 1, k + 1))
        upsilon[:, :k, :k] = np.einsum(
            "bc,ec->be", pairs(weights, weights), sieve
        ).reshape(b, k, k)
        upsilon[:, :k, k] = (
            np.einsum("bc,ec->be", pairs(weights, -gamma), cross) + g_bar[:, :k] * g_bar[:, k:]
        )
        upsilon[:, k, :k] = upsilon[:, :k, k]
        upsilon[:, k, k] = np.einsum("bc,c->b", pairs(gamma, gamma), spread) + g_bar[:, k] ** 2
        return g_bar, upsilon

    return evaluate


def _stacked(factor, stack: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """``factor`` (a ``np.linalg`` function) of every matrix in ``stack``.

    If the stacked call fails, the matrices are factorized one at a time,
    and each one that fails is marked in ``ok`` and gets the identity. Each
    matrix's factor is then the same whatever else the stack holds.
    """
    try:
        return factor(stack)
    except np.linalg.LinAlgError:
        out = np.empty_like(stack)
        for c, mat in enumerate(stack):
            try:
                out[c] = factor(mat)
            except np.linalg.LinAlgError:
                ok[c] = False
                out[c] = np.eye(mat.shape[0])
        return out


def _continuous_update_objective(moments: _Moments, gram_moments):
    """Build the moment objective with the covariance re-evaluated per trial
    point, as a function of a (B, p+1) stack of points returning B values:
    the quadratic form of the mean moments ḡ in the inverse of their
    covariance Υ, with Υ's eigenvalues floored at ``SPECTRAL_FLOOR`` times
    its largest.

    ``gram_moments`` is :func:`_gram_moments` of ``moments``; after that
    O(n (K(p+1))²) build an evaluation does no work in n. A point is
    certified when every diagonal entry of its Υ exceeds ``SPECTRAL_FLOOR``
    times the trace, Υ = LL' has a Cholesky factor, and
    ‖L⁻¹‖_F²·``SPECTRAL_FLOOR``·trace Υ < 1: as ‖L⁻¹‖_F² = trace Υ⁻¹ ≥
    1/λmin and trace Υ ≥ λmax, that proves λmin > ``SPECTRAL_FLOOR``·λmax,
    so nothing is floored and the value is ‖L⁻¹ḡ‖². The diagonal screen
    keeps points with a floored direction, such as the linear bridge's
    degenerate contrast, out of the factorization. The other points are
    decomposed by one stacked ``eigh`` and their eigenvalues floored. Which
    branch a point takes, and its value, do not depend on the rest of its
    batch: a stack whose Cholesky fails is factored one point at a time
    (:func:`_stacked`). A point whose covariance is not finite or has no
    positive eigenvalue reads ``inf``, as does every uncertified point of a
    stack whose ``eigh`` fails.
    """
    eye = np.eye(moments.jac.shape[0])

    def objective(betas: np.ndarray) -> np.ndarray:
        # Overflow and NaN are expected at far-off points; such points read
        # inf below.
        with np.errstate(all="ignore"):
            g_bar, upsilon = gram_moments(betas)
            usable = np.isfinite(upsilon).all(axis=(1, 2))
            upsilon[~usable] = eye
            certified, values = _certified_forms(g_bar, upsilon, usable)
            rest = usable & ~certified
            values[rest] = _floored_forms(g_bar[rest], upsilon[rest])
        values[~(usable & np.isfinite(values))] = np.inf
        return values

    return objective


def _certified_forms(
    g_bar: np.ndarray, upsilon: np.ndarray, screen: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which of the ``screen``ed points are certified to floor nothing
    (:func:`_continuous_update_objective`), and ‖L⁻¹ḡ‖² at each of them;
    the other values are not meaningful."""
    diagonal = np.diagonal(upsilon, axis1=1, axis2=2)
    floor = SPECTRAL_FLOOR * diagonal.sum(axis=1)
    screened = np.flatnonzero(screen & np.all(diagonal > floor[:, None], axis=1))
    if not screened.size:
        return np.zeros(screen.size, dtype=bool), np.full(screen.size, np.inf)
    factored = np.ones(screened.size, dtype=bool)
    chol_inv = np.linalg.inv(_stacked(np.linalg.cholesky, upsilon[screened], factored))
    certified = np.zeros(screen.size, dtype=bool)
    trace_inv = np.sum(chol_inv * chol_inv, axis=(1, 2))
    certified[screened] = factored & (trace_inv * floor[screened] < 1.0)
    values = np.full(screen.size, np.inf)
    whitened = np.einsum("bij,bj->bi", chol_inv, g_bar[screened])
    values[screened] = np.sum(whitened * whitened, axis=1)
    return certified, values


def _floored_forms(g_bar: np.ndarray, upsilon: np.ndarray) -> np.ndarray:
    """ḡ'Υ⁻¹ḡ per point with Υ's eigenvalues floored at ``SPECTRAL_FLOOR``
    times its largest, from one stacked ``eigh``; ``inf`` where Υ has no
    positive eigenvalue, and at every point when ``eigh`` fails."""
    try:
        vals, vecs = np.linalg.eigh(upsilon)
    except np.linalg.LinAlgError:
        return np.full(g_bar.shape[0], np.inf)
    lam_max = vals[:, -1:]
    proj = np.einsum("bji,bj->bi", vecs, g_bar)
    floored = np.sum(proj * proj / np.maximum(vals, SPECTRAL_FLOOR * lam_max), axis=1)
    return np.where(lam_max[:, 0] > 0.0, floored, np.inf)


def _central_differences(
    fn, x: np.ndarray, steps: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian of ``fn`` at ``x``, the latter two by
    central differences; ``fn`` maps a (B, p) stack of points to B values.
    One batched call evaluates ``x`` and the ``2p² + 2p`` points
    ``x ± h_i e_i``, ``x ± 2 h_i e_i`` and ``x ± h_i e_i ± h_j e_j``
    (``i > j``); the gradient is ``(f(x + h_i) - f(x - h_i)) / 2h_i``, the
    Hessian's diagonal ``(f(x + 2h_i) - 2f(x) + f(x - 2h_i)) / 4h_i²`` and
    its off-diagonal ``(f(++) - f(+-) - f(-+) + f(--)) / 4h_i h_j``, exact
    on a quadratic.
    """
    shift = np.diag(steps)
    rows, cols = np.tril_indices(x.size, -1)
    corners = [si * shift[rows] + sj * shift[cols] for si in (1, -1) for sj in (1, -1)]
    values = fn(
        x + np.concatenate([np.zeros((1, x.size)), shift, -shift, 2 * shift, -2 * shift, *corners])
    )
    value = float(values[0])
    up, down, far_up, far_down = values[1 : 1 + 4 * x.size].reshape(4, -1)
    pp, pm, mp, mm = values[1 + 4 * x.size :].reshape(4, -1)
    # inf - inf is expected where points read inf; the caller checks the
    # derivatives are finite.
    with np.errstate(invalid="ignore"):
        grad = (up - down) / (2 * steps)
        hess = np.diag((far_up - 2 * value + far_down) / (4 * steps**2))
        hess[rows, cols] = hess[cols, rows] = (pp - pm - mp + mm) / (4 * steps[rows] * steps[cols])
    return value, grad, hess


def _refine_continuous_update(
    moments: _Moments, start: np.ndarray, gram_moments
) -> tuple[np.ndarray, float]:
    """Polish a two-step solution with a damped Newton step of the
    continuously updated objective.

    The objective re-evaluates the moment covariance at the trial
    parameters rather than freezing it at the first step. A single half
    step of Newton's method on it stays in the neighborhood of the two-step
    solution. For a bridge whose treatment contrast is parameter-constant
    (the linear bridge) the step does not correct the effect estimate. A
    stencil point that moves ``tau`` or the treatment coefficient alone
    makes the contrast moment nonzero, and wherever it is nonzero and no
    eigenvalue is floored the objective is exactly 1, whatever the point;
    so the step in those coordinates is rounding noise. Measured at II/800
    (K 12), II/3200 (K up to 20) and I/400, ``tau`` moved by at most 8e-8,
    while the coefficients on 1, w and x moved by up to 0.08, and with them
    the moment covariance behind the reported variance. The objective
    reads the caller's Gram, ``gram_moments`` (:func:`_gram_moments` of
    ``moments``), so no evaluation depends on n, and it eigendecomposes
    only the covariances it cannot certify to floor nothing
    (:func:`_continuous_update_objective`). The objective at the
    start, its gradient and its curvature come from one batched evaluation
    of the start and a central-difference stencil around it
    (:func:`_central_differences`, ``2p² + 2p`` further points for ``p``
    parameters). The curvature is shifted to be positive definite when
    needed, the step is halved until the
    objective decreases, at most ``_POLISH_BACKTRACKS`` times, and the
    update is dropped entirely if no halving achieves a decrease, so the
    refinement never leaves a solution that is already optimal in this
    metric.
    """
    objective = _continuous_update_objective(moments, gram_moments)
    magnitude = float(np.max(np.abs(start)))
    if magnitude == 0.0:
        return start, float(objective(start[None])[0])
    steps = _POLISH_FD_REL * np.maximum(np.abs(start), _POLISH_FD_FLOOR * magnitude)
    start_val, grad, hess = _central_differences(objective, start, steps)
    if not (np.isfinite(start_val) and np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        return start, start_val
    eigenvalues = np.linalg.eigvalsh(hess)
    if eigenvalues[0] <= 0.0:
        hess = hess + (abs(eigenvalues[0]) + 1e-8 * max(eigenvalues[-1], 1.0)) * np.eye(start.size)
    try:
        step = -np.linalg.solve(hess, grad)
    except np.linalg.LinAlgError:
        return start, start_val
    slope = float(grad @ step)
    if not np.isfinite(slope) or slope >= 0.0:
        return start, start_val
    t = _POLISH_STEP
    for _ in range(_POLISH_BACKTRACKS):
        candidate = start + t * step
        value = float(objective(candidate[None])[0])
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
    basis first when needed. A weight with an eigenvalue below -1e-10
    times its largest in magnitude raises :class:`SingularVariance`.
    """
    basis = _prepare(basis)
    weight = np.asarray(weight, dtype=float)
    _check_finite(weight)
    vals, vecs = np.linalg.eigh(weight)
    if np.min(vals) < -1e-10 * np.max(np.abs(vals)):
        raise SingularVariance("weight matrix is not positive semidefinite")
    w_half = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
    return _one(_fit(_Moments.build(ds, basis.u, bridge).stacked(), w_half))


def fit_initial(ds: Dataset, basis: BasisMatrix, bridge: OutcomeBridge) -> GmmFit:
    """Identity-weight fit on the orthonormalized basis.

    With K equal to the bridge dimension this solves the exactly identified
    estimating equations; with K larger it is the usual first-step GMM
    whose estimates feed the moment-covariance estimate.
    """
    return _fit_identity(_Moments.build(ds, _prepare(basis).u, bridge))


def _fit_identity(moments: _Moments) -> GmmFit:
    """:func:`_fit` of one system under the identity weight."""
    return _one(_fit(moments.stacked(), np.eye(moments.jac.shape[0])))


def _fit(moments: _Moments, w_half: np.ndarray) -> list:
    """The fit of each system of the stack ``moments`` under the fixed
    weight W with symmetric square root ``w_half``, and its sandwich
    (J'WJ)⁻¹J'WΥWJ(J'WJ)⁻¹ at the moment covariance there: R'R/n for the
    scores projected through the solve's factors of W½J, R = scores·W½·U·H,
    so positive semidefinite. Per system, a :class:`GmmFit`, or the
    :class:`RankDeficientJacobian` of one whose moments do not identify
    its parameters. Each system gets what it gets alone, bit for bit: every
    step is a product, a factorization or an elementwise operation per
    system."""
    beta, obj, (left, half_t), rank = _weighted_solve(moments, w_half)
    projected = moments.scores(beta) @ (w_half @ left @ half_t)
    n, k = moments.u.shape[-2:]
    v_hat = np.swapaxes(projected, -1, -2) @ projected / n
    se = np.sqrt(np.diagonal(v_hat, axis1=-2, axis2=-1) / n)
    p1 = moments.jac.shape[-1]
    return [
        _unidentified(r, p1) if r < p1 else _gmm_fit(beta[b], obj[b], v_hat[b], se[b], n, k, k + 1)
        for b, r in enumerate(rank)
    ]


def _gmm_fit(beta, obj: float, v_hat, se, n: int, k: int, k1: int) -> GmmFit:
    """The :class:`GmmFit` of ``beta = (gamma, tau)`` on ``n`` rows and ``k`` sieve moments."""
    p = beta.shape[0] - 1
    return GmmFit(
        gamma_hat=beta[:p], tau_hat=float(beta[p]), se_gamma=se[:p], se_tau=float(se[p]),
        k=k, k1=k1, n=n, v_hat=v_hat, objective_value=float(obj),
    )


def fit_optimal(ds: Dataset, basis: BasisMatrix, bridge: OutcomeBridge) -> GmmFit:
    """Optimally weighted fit: two-step, then a continuous-updating polish.

    The moment system (Jacobian and constant, over the bridge features the
    dataset keeps) is built once, and every step below reads it. At an
    exactly identified count (K equal to the parameter count p) an estimate
    does not depend on its weight (Hansen 1982), so the fit is
    :func:`fit_initial`: its sandwich J⁻¹ΥJ⁻ᵀ has no weight and no floor,
    and ``k1`` is K + 1. Above it, one Gram of the moments
    (:func:`_gram_moments`) gives every moment covariance the fit reads,
    with no score matrix. The identity-weight estimates (one solve, no
    variance) give the first one, whose inverse with eigenvalues floored
    at ``SPECTRAL_FLOOR`` times the largest weights the second step; the
    floor caps directions of negligible sample variance, the contrast
    direction of the linear bridge included. One damped Newton step of the
    continuously updated objective polishes that solution
    (:func:`_refine_continuous_update`), and the reported variance is the
    floored sandwich at the final estimates, which :func:`variance`
    reproduces from the scores to rounding.
    """
    basis = _prepare(basis)
    return _fit_optimal(_Moments.build(ds, basis.u, bridge))


def _fit_optimal(moments: _Moments) -> GmmFit:
    """:func:`fit_optimal` on a moment system already built."""
    k = moments.u.shape[1]
    if k == moments.jac.shape[1] - 1:
        return _fit_identity(moments)
    gram_moments = _gram_moments(moments)
    beta, _, _ = _least_squares(moments, np.eye(k + 1))
    first = regularize_moments(gram_moments(beta[None])[1][0])
    beta, _, _ = _least_squares(moments, first.floored_weight_sqrt())
    beta, obj = _refine_continuous_update(moments, beta, gram_moments)
    v_hat, se = _sandwich(moments, gram_moments(beta[None])[1][0])
    return _gmm_fit(beta, obj, v_hat, se, *moments.u.shape, first.k1)


def _sieve_iv_fits(datasets: list[Dataset], bridge: OutcomeBridge, k: int) -> list:
    """The identity-weight fit of ``bridge`` on each of ``datasets`` on the
    orthonormalized first ``k`` sieve terms (:func:`fit_initial`): exactly
    identified at ``k`` = p, and two-stage least squares on the span of
    those terms above it. Per dataset, its :class:`GmmFit` or the error
    that :func:`build_basis`, :func:`orthonormalize` or the fit gives it.

    The datasets' bases, QRs, features and fits are each one stacked call,
    and each dataset gets what it gets alone, bit for bit. Callers read it
    through :func:`_fit_each`, so a dataset fits it once per bridge and
    ``k``: ``select_and_fit`` at K* = p and the baselines' outcome-bridge
    fit on the terms (1, a, z, x) share it when those are p terms, with as
    many z as w proxies.
    """
    u, term_names, errors = _bases(datasets, k)
    q, rank_errors = _orthonormal(u, term_names)
    errors = [error or rank_error for error, rank_error in zip(errors, rank_errors)]
    if all(errors):
        return errors
    features = _Features.stack(_fit_each(_Features.build, datasets, bridge))
    fits = _fit(_Moments.of(features, q), np.eye(k + 1))
    return [error or fit for error, fit in zip(errors, fits)]


def variance(
    fit: GmmFit, ds: Dataset, basis: BasisMatrix, bridge: OutcomeBridge
) -> GmmFit:
    """Recompute the sandwich variance at the fit's estimates.

    The moment covariance is re-evaluated at the final estimates,
    redecomposed with eigenvalues floored at ``SPECTRAL_FLOOR`` times the
    largest, and the variance is the inverse of the Jacobian quadratic form
    in the floored weight, whatever weight the fit itself used. So at an
    exactly identified count, where :func:`fit_optimal` reports the
    unfloored sandwich, it differs from the fit's SE by the floor on the
    contrast direction, about 1e-7 relative where measured. Raises
    :class:`SingularVariance` when that quadratic form cannot be inverted.
    """
    basis = _prepare(basis)
    return _variance(fit, _Moments.build(ds, basis.u, bridge))


def _variance(fit: GmmFit, moments: _Moments) -> GmmFit:
    beta = np.append(fit.gamma_hat, fit.tau_hat)
    v_hat, se = _sandwich(moments, estimate_upsilon(moments.scores(beta)))
    p = fit.gamma_hat.shape[0]
    return replace(fit, se_gamma=se[:p], se_tau=float(se[p]), v_hat=v_hat)


def _sandwich(moments: _Moments, upsilon: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The floored-weight variance under the moment covariance ``upsilon``,
    (J'WJ)⁻¹ = H'H for the floored weight W, from the :func:`_solve` of
    W½J, and its per-observation-scaled standard errors."""
    decomp = regularize_moments(upsilon)
    weighted = decomp.floored_weight_sqrt() @ moments.jac
    _, rank, (_, half_t) = _solve(
        weighted, np.zeros(weighted.shape[0]), moments.features.scale, moments.u.shape[0],
        SingularVariance,
    )
    if rank < weighted.shape[1]:
        raise SingularVariance("floored-weight Jacobian quadratic form is singular")
    v_hat = half_t.T @ half_t
    return v_hat, np.sqrt(np.diag(v_hat) / moments.u.shape[0])


class _Estimate(Protocol):
    tau_hat: float
    se_tau: float


def confidence_interval(fit: _Estimate) -> tuple[float, float]:
    """95% two-sided normal interval for tau from any estimate's ``tau_hat`` and ``se_tau``."""
    z = WALD_CRITICAL_5PCT
    return (fit.tau_hat - z * fit.se_tau, fit.tau_hat + z * fit.se_tau)


def wald_test(fit: _Estimate) -> tuple[float, bool]:
    """Wald statistic for tau = 0 and its 5% decision from any ``tau_hat`` and ``se_tau``."""
    if fit.se_tau <= 0.0:
        raise SingularVariance("standard error for tau is not positive")
    stat = fit.tau_hat / fit.se_tau
    return float(stat), bool(abs(stat) > WALD_CRITICAL_5PCT)
