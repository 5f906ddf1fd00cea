"""Data-driven choice of how many sieve moments to use.

The criterion scores each candidate moment count K by an estimate of the
finite-sample mean squared error of the causal-contrast coordinate of the
bridge fit: a squared higher-order bias term plus a variance term, both
built from the identity-weight fit at that K. The scan walks K from the
bridge dimension up to a cap and keeps the minimizer, preferring the
smallest K on ties.
Candidates are nested prefixes (Donald & Newey 2001), so the scan builds
and orthonormalizes the cap's basis once and scores every K on its leading
K columns in one batched pass; a linearly dependent column makes only the
longer candidates singular. On orthonormal columns every prefix's Gram
matrix is the identity, so an observation's leverage under prefix K is the
sum of its first K squared entries over n, and the bridge projection
-U'G/n of a prefix is the leading rows of the cap's. The identity-weight
fits of all C candidates are one stacked call of the fits' solve
(``gmm._solve``, one SVD with each column scaled by its feature's root
mean square) on their zero-padded moment systems, and their residuals one
n×C product. So a candidate passes its rank check by the rule every bridge
fit uses, and one whose instruments reach a feature only at rounding
level of its own size scores infinity. As Donald & Newey do, every
candidate's covariance is taken at one preliminary residual, that of the
widest candidate whose fit passes its rank check: one covariance on the
scanned basis and one Cholesky factor, whose leading K×K block is
candidate K's (:func:`_criterion`). Each candidate's own residuals still
enter its bias and influence terms. If only the covariance's leading j×j
block has a factor, exactly the candidates K > j score infinity; a
candidate whose fit fails its rank check, or whose Ω cannot be inverted,
scores infinity alone.

The bridge's feature matrices are kept on the dataset
(``gmm._bridge_features``): the scan, the fit at the selected K and any
other fit of that bridge on that dataset read one build. When the selected
K is the width of the scanned basis, the fit reads the scan's moment
system too. At K* = p the fit is the dataset's kept identity-weight fit on
the first p sieve terms (``gmm._sieve_iv_fits``), the one builder of every
outcome-bridge IV fit: with as many z as w proxies those terms are the
baselines' instruments (1, a, z, x), and the baselines read the same fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bridges import OutcomeBridge
from .data import Dataset
from .errors import AllCandidatesSingular, DimensionMismatch, RankDeficient
from .gmm import GmmFit, _fit_once, _fit_optimal, _Moments, _sieve_iv_fits, _solve, _stacked
from .sieve import BasisMatrix, SieveSpec, build_basis, orthonormalize


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


def _prefix_leverages(u: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """(n, C) leverages under the leading ``ks[c]`` columns of orthonormal ``u``.

    Column c holds u_i'(U_K'U_K/n)⁻¹u_i/n for the first K = ``ks[c]``
    columns U_K. Their Gram matrix is the identity, so that is the sum of
    u_i's first K squared entries over n: one product with a 0/1 matrix
    that marks each prefix.
    """
    return (u * u) @ (np.arange(u.shape[1])[:, None] < ks) / u.shape[0]


def _leading_cholesky(upsilon: np.ndarray) -> tuple[np.ndarray, int]:
    """The Cholesky factor of the longest leading block of ``upsilon`` that
    has one, padded to ``upsilon``'s size with an identity block, and that
    block's size j (``upsilon``'s size when the whole matrix factors).

    A symmetric matrix whose leading m×m block is positive definite has
    positive definite shorter leading blocks too, so when the whole matrix
    has no factor, bisection over the leading blocks finds j.
    """
    k = upsilon.shape[0]
    try:
        return np.linalg.cholesky(upsilon), k
    except np.linalg.LinAlgError:
        pass
    good, bad, chol = 0, k, np.eye(k)
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            chol[:mid, :mid] = np.linalg.cholesky(upsilon[:mid, :mid])
            good = mid
        except np.linalg.LinAlgError:
            bad = mid
    return chol, good


def _whitened(
    u: np.ndarray, bmat: np.ndarray, prelim: np.ndarray, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """L⁻¹ for the factor L of Υ = U'diag(r̂²)U/n on the columns of ``u``
    at the preliminary residual r̂ = ``prelim``, the whitened system
    W = L⁻¹B of ``bmat``, the (C, p, p) stack of Ω_K = W_K'W_K over W's
    first K = ``ks[c]`` rows, and the size j of Υ's longest leading block
    that factorizes (:func:`_leading_cholesky`). Rows of W from j on are
    not meaningful."""
    weighted = u * prelim[:, None]
    chol, factored = _leading_cholesky(weighted.T @ weighted / u.shape[0])
    chol_inv = np.tril(np.linalg.inv(chol))
    whitened = chol_inv @ bmat
    omega = np.cumsum(whitened[:, :, None] * whitened[:, None, :], axis=0)[ks - 1]
    return chol_inv, whitened, omega, factored


def _criterion(
    u: np.ndarray,
    bmat: np.ndarray,
    feat_grad: np.ndarray,
    resid: np.ndarray,
    prelim: np.ndarray,
    target: np.ndarray,
    ks: np.ndarray,
    ok: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores, bias terms and variance terms of C candidates at once.

    ``u`` is (n, k) with orthonormal columns (u'u/n is the identity) and
    ``bmat`` its bridge projection -u'feat_grad/n. Candidate c instruments
    with the leading ``ks[c]`` columns, has residuals ``resid[:, c]`` (the
    outcome residuals at its identity-weight estimates) and is scored only
    where ``ok[c]``. ``prelim`` is the preliminary residual r̂ at which
    every candidate's covariance Υ_K = U_K'diag(r̂²)U_K/n is estimated
    (Donald & Newey 2001). ``feat_grad`` is the (n, p) parameter gradient
    of the bridge and ``target`` the (p,) direction whose mean squared
    error the criterion estimates: for ATE work, the average gradient of
    the treatment contrast, so the score tracks the causal estimate itself
    rather than every bridge coefficient.

    The bias term squares a leverage-weighted covariance between the
    candidate's residuals and the part of the bridge gradient that the
    instruments cannot replicate (the sieve-approximation error that
    generates higher-order bias). The variance term is a leverage-weighted
    sum of squared influence contributions in the target direction, each
    weighted by the candidate's own squared residual, recentred by the
    first-order variance; it may be negative in sample and is used as
    computed. Leverage is measured through the unweighted instrument Gram
    matrix, which keeps observations in low-noise regions from dominating
    under heteroskedasticity. The score is the sum of the two terms.

    The n×p projections of the gradient through the Gram and Υ metrics
    enter only along t = Ω⁻¹·target, so each candidate needs two K-vectors
    and two n-vectors. Υ = U'diag(r̂²)U/n on all k columns is factorized
    once, Υ = LL'. L is lower triangular, so Υ_K's factor is L's leading
    K×K block and its inverse is the leading block of L⁻¹. So with
    W = L⁻¹B, candidate K's whitened system is W's first K rows, its
    Ω_K = B_K'Υ_K⁻¹B_K is the sum of w_j w_j' over those rows (one
    cumulative sum), and Υ_K⁻¹B_K t is L⁻ᵀ applied to Wt with its rows
    from K on zeroed. If Υ's leading j×j block is the longest that
    factorizes, the candidates K > j are singular. A candidate that is not
    ok, that is singular, or whose Ω cannot be inverted scores inf with
    NaN terms.
    """
    n, k = u.shape
    chol_inv, whitened, omega, factored = _whitened(u, bmat, prelim, ks)
    ok = ok & (ks <= factored)
    resid = np.where(ok, resid, 0.0)
    t_dir = _stacked(np.linalg.inv, omega, ok) @ target
    keep = np.arange(k)[:, None] < ks
    direction = (bmat @ t_dir.T) * keep
    upsilon_dir = chol_inv.T @ ((whitened @ t_dir.T) * keep)
    gram_part = u @ direction
    upsilon_part = u @ upsilon_dir
    leverage = _prefix_leverages(u, ks)
    pi = np.sum(leverage * resid * (-(feat_grad @ t_dir.T) - gram_part), axis=0)
    influence = upsilon_part * resid**2 - gram_part
    bias = pi * pi / n
    var = np.sum(leverage * influence**2, axis=0) - t_dir @ target
    score = bias + var
    ok &= np.isfinite(score)
    return np.where(ok, score, np.inf), np.where(ok, bias, np.nan), np.where(ok, var, np.nan)


def _scan(
    ds: Dataset, bridge: OutcomeBridge, spec: SieveSpec, k_bar: int
) -> tuple[SelectionDiagnostics, BasisMatrix, _Moments | None]:
    """:func:`select_k`, the raw ``k_bar``-column basis it scanned, and the
    moment system on the orthonormalized basis it scored (``None`` when no
    candidate fits in that basis)."""
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
        basis = orthonormalize(raw.leading(exc.full_rank_prefix))
    grid = tuple(range(p, k_bar + 1))
    scores = np.full(len(grid), np.inf)
    bias_terms = np.full(len(grid), np.nan)
    var_terms = np.full(len(grid), np.nan)
    ks = np.arange(p, basis.k + 1)
    moments = None
    if ks.size:
        moments = _Moments.build(ds, basis.u, bridge)
        features = moments.features
        # Candidate K's bridge fit reads its leading K sieve rows; the other
        # rows are zeroed. The contrast row is left out: tau satisfies it
        # exactly, so it never moves gamma.
        bmat, const = moments.jac[:-1, :-1], moments.const[:-1]
        keep = np.arange(basis.k) < ks[:, None]
        gamma, rank, _ = _solve(
            bmat * keep[:, :, None], -const * keep, features.scale[:-1], ds.n,
            AllCandidatesSingular,
        )
        ok = rank == bmat.shape[1]
        resid = features.y[:, None] - features.feats @ gamma.T
        if ok.any():
            # The preliminary residual: the widest candidate that passes
            # its rank check.
            prelim = resid[:, np.flatnonzero(ok)[-1]]
            scores[: ks.size], bias_terms[: ks.size], var_terms[: ks.size] = _criterion(
                basis.u, bmat, features.feats, resid, prelim, features.contrast_mean, ks, ok,
            )
    if not np.any(np.isfinite(scores)):
        raise AllCandidatesSingular(
            f"all candidate moment counts {grid[0]}..{grid[-1]} were singular"
        )
    k_star = grid[int(np.argmin(scores))]
    diag = SelectionDiagnostics(
        k_grid=grid, scores=scores, bias_terms=bias_terms,
        variance_terms=var_terms, k_star=k_star,
    )
    return diag, raw, moments


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
    target, moment Jacobian and U'y/n, as in :func:`~proxigmm.gmm.fit_optimal`) is built
    once, and every candidate is scored in one batched pass: the
    identity-weight bridge fits on the Jacobian's leading K sieve rows are
    one stacked solve at the bridge's kept column scales (``gmm._solve``),
    the residuals one n×C product, and the criterion (:func:`_criterion`)
    reads each observation's leverages as sums of its squared basis
    entries. Every
    candidate's covariance is taken at one preliminary residual, that of
    the widest candidate whose fit passes its rank check (Donald & Newey
    2001): one residual-weighted covariance on the scanned basis, the only
    O(nk²) step, and one Cholesky factor, whose leading K×K block is
    candidate K's. If that factor exists only for a leading j×j block, the
    candidates K > j score infinity.

    The scan does not depend on the units of w, x or z, but K* depends on
    the units of y: the criterion mixes powers of y's scale (on II/800
    seed 3 rep 1, y × 1e-2 moves K* from 12 to 4). Above K* = p the
    fit's SE depends on the units of x and w through the polish's
    finite-difference steps: by 0.9% there, and by orders of magnitude
    under weak identification (on I/400 seed 3 rep 0 with w replaced by
    its residual on (1, z, a, x), K* = 7, the SE reads 0.145 at w × 1e-9
    and 8.7e6 at w × 1e9, and 0.14464 at both without the polish).
    """
    return _scan(ds, bridge, spec, k_bar)[0]


def select_and_fit(
    ds: Dataset, bridge: OutcomeBridge, spec: SieveSpec, k_bar: int
) -> tuple[GmmFit, SelectionDiagnostics]:
    """Run the moment-count scan, then the optimally weighted fit at K*.

    Above the bridge dimension p the sieve is built once. When K* is the
    width of the basis the scan orthonormalized (``k_bar``, or the longest
    full-rank prefix of its basis), the fit reads the scan's moment system:
    that basis is the QR of the raw basis's leading K* columns, which are
    ``build_basis(ds, spec, K*)`` bit for bit, so the fit is
    :func:`~proxigmm.gmm.fit_optimal` on that basis bit for bit. Below that
    width the fit orthonormalizes the leading K* columns afresh. At K* = p
    the fit is the identity-weight fit on the first p sieve terms that the
    dataset keeps (``gmm._sieve_iv_fits``), which is that same fit bit for
    bit and, with as many z as w proxies, the one ``p2sls`` and ``rgmm``
    read on the terms (1, a, z, x); on a dataset no baseline has
    fitted, it builds the p-column basis once more. The bridge features
    are built once too: the scan and the fit read the ones the dataset
    keeps.
    """
    diag, raw, moments = _scan(ds, bridge, spec, k_bar)
    if diag.k_star == bridge.n_params:
        return _fit_once(_sieve_iv_fits, ds, bridge, bridge.n_params), diag
    if diag.k_star < moments.u.shape[1]:
        # A fresh K*-column QR rather than the leading columns of the
        # scan's: those match it only to rounding, and the fit at K* must
        # not depend on the cap it was selected under. The raw columns it
        # factorizes are the K*-column basis itself.
        basis = orthonormalize(raw.leading(diag.k_star))
        moments = _Moments.build(ds, basis.u, bridge)
    return _fit_optimal(moments), diag
