"""Data-driven choice of how many sieve moments to use.

The criterion scores each candidate moment count K by an estimate of the
finite-sample mean squared error of the causal-contrast coordinate of the
bridge fit: a squared higher-order bias term plus a variance term, both
built from the identity-weight fit at that K. The scan walks K from the
bridge dimension up to a cap and keeps the minimizer, preferring the
smallest K on ties.
Candidates are nested prefixes (Donald & Newey 2001), so the scan
orthonormalizes the cap's basis once and scores each K on its leading K
columns; a linearly dependent column makes only the longer candidates
singular. Everything a prefix reads from the n observations except its
residual-weighted covariance is built once per scan: the bridge
projection -U'G/n and U'y/n, whose leading rows are the prefix's own,
and a leverage table from the Cholesky factor of the instrument Gram
matrix, whose leading block is the factor of the prefix's Gram. Each
candidate then costs one O(nK²) covariance, small dense solves and a few
n-vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bridges import OutcomeBridge
from .data import Dataset
from .errors import (
    AllCandidatesSingular,
    DimensionMismatch,
    RankDeficient,
    RankDeficientJacobian,
    SingularUpsilonBlock,
)
from .gmm import GmmFit, _least_squares, _Moments, fit_optimal
from .sieve import BasisMatrix, SieveSpec, build_basis, orthonormalize

_CANDIDATE_FAILURES = (SingularUpsilonBlock, RankDeficientJacobian)


@dataclass(frozen=True)
class SelectionDiagnostics:
    """Loss-curve record of a moment-count scan."""

    k_grid: tuple[int, ...]
    scores: np.ndarray
    bias_terms: np.ndarray
    variance_terms: np.ndarray
    k_star: int

    def rows(self) -> list[tuple[int, float, float, float, bool]]:
        """(K, bias_term, variance_term, score, chosen) per candidate."""
        return [
            (k, float(b), float(v), float(s), k == self.k_star)
            for k, b, v, s in zip(self.k_grid, self.bias_terms, self.variance_terms, self.scores)
        ]


@dataclass(frozen=True)
class _CrossProducts:
    """Instrument cross-products shared by every leading-column prefix.

    ``bmat`` is the bridge projection -U'G/n and ``gram_chol`` the lower
    Cholesky factor of the Gram matrix U'U/n. Row K-1 of the (k, n)
    ``leverage`` table is each observation's leverage u_i'Gram_K⁻¹u_i/n
    under the K-column Gram: the factor of a leading block is the leading
    block of the factor, so it is the cumulative sum over the first K rows
    of (L⁻¹U')²/n.
    """

    u: np.ndarray
    bmat: np.ndarray
    gram_chol: np.ndarray
    leverage: np.ndarray


def _cross_products(u: np.ndarray, bmat: np.ndarray) -> _CrossProducts:
    """Build :class:`_CrossProducts` from ``u`` and its bridge projection
    ``bmat``; raises :class:`SingularUpsilonBlock` when the Gram matrix
    cannot be factorized."""
    n, k = u.shape
    try:
        gram_chol = scipy.linalg.cholesky(u.T @ u / n, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularUpsilonBlock(
            f"instrument Gram matrix is singular at K={k}"
        ) from exc
    whitened = scipy.linalg.solve_triangular(gram_chol, u.T, lower=True)
    leverage = np.cumsum(whitened**2, axis=0) / n
    return _CrossProducts(u=u, bmat=bmat, gram_chol=gram_chol, leverage=leverage)


def _target_direction(
    cross: _CrossProducts,
    k: int,
    feat_grad: np.ndarray,
    resid: np.ndarray,
    target: np.ndarray,
) -> tuple[float, float, float]:
    """:func:`sgmm_components` on the leading ``k`` columns of ``cross``.

    The n×p projections of the gradient through the Gram and Υ metrics
    enter only along t = Ω⁻¹·target, so two K-vector solves and two
    n-vectors replace them.
    """
    n = resid.shape[0]
    u = cross.u[:, :k]
    bmat = cross.bmat[:k]
    weighted = u * resid[:, None]
    upsilon = weighted.T @ weighted / n
    try:
        cho = scipy.linalg.cho_factor(upsilon)
    except scipy.linalg.LinAlgError as exc:
        raise SingularUpsilonBlock(
            f"residual-weighted moment covariance is singular at K={k}"
        ) from exc
    omega = bmat.T @ scipy.linalg.cho_solve(cho, bmat)
    try:
        t_dir = scipy.linalg.inv(omega) @ target
    except scipy.linalg.LinAlgError as exc:
        raise SingularUpsilonBlock(
            f"bridge-projection matrix is singular at K={k}"
        ) from exc
    direction = bmat @ t_dir
    gram_part = u @ scipy.linalg.cho_solve((cross.gram_chol[:k, :k], True), direction)
    upsilon_part = u @ scipy.linalg.cho_solve(cho, direction)
    leverage = cross.leverage[k - 1]
    pi = float((leverage * resid) @ (-(feat_grad @ t_dir) - gram_part))
    influence = upsilon_part * resid**2 - gram_part
    bias_term = pi * pi / n
    variance_term = float(leverage @ influence**2) - float(target @ t_dir)
    return bias_term + variance_term, bias_term, variance_term


def sgmm_components(
    u: np.ndarray,
    feat_grad: np.ndarray,
    resid: np.ndarray,
    target: np.ndarray,
) -> tuple[float, float, float]:
    """Criterion value from instrument matrix, bridge gradient, residuals.

    ``u`` is (n, K), ``feat_grad`` the (n, p) parameter gradient of the
    bridge at the identity-weight estimates, ``resid`` the (n,) outcome
    residuals there, and ``target`` the (p,) direction whose mean squared
    error the criterion estimates — for ATE work, the average gradient of
    the treatment contrast, so the score tracks the causal estimate itself
    rather than every bridge coefficient.

    The bias term squares a leverage-weighted covariance between the
    residuals and the part of the bridge gradient that the instruments
    cannot replicate (the sieve-approximation error that generates
    higher-order bias). The variance term is a leverage-weighted sum of
    squared influence contributions in the target direction, recentred by
    the first-order variance; leverage is measured through the unweighted
    instrument Gram matrix, which keeps observations in low-noise regions
    from dominating under heteroskedasticity.

    Returns (score, bias_term, variance_term) where the score is their
    sum; the variance term may be negative in sample and is used as
    computed. Raises :class:`SingularUpsilonBlock` when the
    residual-weighted instrument covariance (or the Gram or reduced-form
    matrix derived from it) cannot be factorized.
    """
    cross = _cross_products(u, -(u.T @ feat_grad) / u.shape[0])
    return _target_direction(cross, u.shape[1], feat_grad, resid, target)


def select_k(
    ds: Dataset, bridge: OutcomeBridge, spec: SieveSpec, k_bar: int
) -> SelectionDiagnostics:
    """Scan moment counts from the bridge dimension up to ``k_bar``.

    Candidate K is scored on the first K columns of the orthonormalized
    ``k_bar`` basis, built on ``ds`` itself, at the identity-weight
    estimates on those columns. If :func:`orthonormalize` finds a dependent
    column, the longest accepted prefix of that same basis is
    orthonormalized instead. Candidates beyond it, or whose
    criterion is singular, score infinity; if every candidate does, raises
    :class:`AllCandidatesSingular`. Ties resolve to the smallest K.

    The moment system of the scanned basis (bridge gradient, contrast
    target, moment Jacobian and U'y/n, as in :func:`fit_optimal`) and the
    leverage table (:class:`_CrossProducts`) are built once per scan.
    Each candidate then solves its identity-weight least squares on
    the Jacobian's leading K sieve rows plus the contrast row, forms its
    residual-weighted covariance on the leading K columns (the only
    O(nK²) step), and scores the target direction with K-dimensional
    solves and the leverage table's row K-1.
    """
    p = bridge.n_params
    if k_bar < p:
        raise DimensionMismatch(
            f"k_bar={k_bar} is below the bridge dimension {p}"
        )
    raw = build_basis(ds, spec, k_bar)
    try:
        basis = orthonormalize(raw)
    except RankDeficient as exc:
        # Prefixes are nested bit for bit, so the accepted prefix of this
        # basis is the basis build_basis would give at that size.
        j = exc.full_rank_prefix
        basis = orthonormalize(BasisMatrix(u=raw.u[:, :j], term_names=raw.term_names[:j]))
    moments = _Moments.build(ds, basis.u, bridge)
    target = moments.contrast_mean
    cross = _cross_products(basis.u, moments.jac[:-1, :-1])
    grid = tuple(range(p, k_bar + 1))
    scores = np.full(len(grid), np.inf)
    bias_terms = np.full(len(grid), np.nan)
    var_terms = np.full(len(grid), np.nan)
    for i, k in enumerate(range(p, basis.k + 1)):
        # Candidate K's moments: the leading K sieve rows and the contrast row.
        rows = np.r_[:k, basis.k]
        try:
            beta, _ = _least_squares(moments.jac[rows], moments.const[rows], np.eye(k + 1))
            resid = moments.y - moments.feats @ beta[:p]
            scores[i], bias_terms[i], var_terms[i] = _target_direction(
                cross, k, moments.feats, resid, target
            )
        except _CANDIDATE_FAILURES:
            continue
    if not np.any(np.isfinite(scores)):
        raise AllCandidatesSingular(
            f"all candidate moment counts {grid[0]}..{grid[-1]} were singular"
        )
    k_star = grid[int(np.argmin(scores))]
    return SelectionDiagnostics(
        k_grid=grid, scores=scores, bias_terms=bias_terms,
        variance_terms=var_terms, k_star=k_star,
    )


def select_and_fit(
    ds: Dataset, bridge: OutcomeBridge, spec: SieveSpec, k_bar: int
) -> tuple[GmmFit, SelectionDiagnostics]:
    """Run the moment-count scan, then the optimally weighted fit at K*."""
    diag = select_k(ds, bridge, spec, k_bar)
    # A fresh K*-column QR rather than the scan's leading columns: those
    # match it only to rounding (bit for bit only when K* is k_bar), and the
    # fit at K* must not depend on the cap it was selected under.
    basis = orthonormalize(build_basis(ds, spec, diag.k_star))
    fit = fit_optimal(ds, basis, bridge)
    return fit, diag
