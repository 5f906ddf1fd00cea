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

The scan is a stacked kernel (:func:`_scans`, read through
``gmm._fit_each``), so the dataset keeps it: a Monte Carlo block scans all
its datasets in one call, and a single dataset is a stack of one. Each
basis is built and orthonormalized alone; from the moment systems on, the
datasets that scan one width are one stack, and every step is a product
or factorization per system, a reduction along one axis or an elementwise
operation, so each dataset gets what it gets alone, bit for bit. A
dataset's error, a degenerate column or no scorable candidate, is its
own. The fit at the selected K runs per dataset.

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
from .errors import AllCandidatesSingular, DimensionMismatch, ProxiGmmError, RankDeficient
from .gmm import (
    GmmFit, _Features, _fit_each, _fit_once, _fit_optimal, _Moments, _sieve_iv_fits, _solve,
    _stacked,
)
from .sieve import SieveSpec, build_basis, orthonormalize


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
    """(..., n, C) leverages under the leading ``ks[c]`` columns of
    orthonormal ``u``, one (n, k) basis or a stack of them.

    Column c holds u_i'(U_K'U_K/n)⁻¹u_i/n for the first K = ``ks[c]``
    columns U_K. Their Gram matrix is the identity, so that is the sum of
    u_i's first K squared entries over n: one product with a 0/1 matrix
    that marks each prefix.
    """
    return (u * u) @ (np.arange(u.shape[-1])[:, None] < ks) / u.shape[-2]


def _leading_cholesky(upsilon: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Cholesky factor of the longest leading block of ``upsilon``, one
    matrix or a stack, that has one, padded to ``upsilon``'s size with an
    identity block, and that block's size j (``upsilon``'s size when the
    whole matrix factors), one per matrix.

    One stacked factorization serves every matrix when each has a whole
    factor. Otherwise each matrix is factored alone (:func:`gmm._stacked`),
    and only those that have none are searched: a symmetric matrix whose
    leading m×m block is positive definite has positive definite shorter
    leading blocks too, so bisection over the leading blocks finds j.
    """
    k = upsilon.shape[-1]
    stack = upsilon.reshape(-1, k, k)
    whole = np.ones(stack.shape[0], dtype=bool)
    chol = _stacked(np.linalg.cholesky, stack, whole)
    factored = np.where(whole, k, 0)
    for b in np.flatnonzero(~whole):
        good, bad = 0, k
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                chol[b, :mid, :mid] = np.linalg.cholesky(stack[b, :mid, :mid])
                good = mid
            except np.linalg.LinAlgError:
                bad = mid
        factored[b] = good
    return chol.reshape(upsilon.shape), factored.reshape(upsilon.shape[:-2])


def _whitened(
    u: np.ndarray, bmat: np.ndarray, prelim: np.ndarray, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """L⁻¹ for the factor L of Υ = U'diag(r̂²)U/n on the columns of ``u``
    at the preliminary residual r̂ = ``prelim``, the whitened system
    W = L⁻¹B of ``bmat``, the (..., C, p, p) stack of Ω_K = W_K'W_K over
    W's first K = ``ks[c]`` rows, and the size j of Υ's longest leading
    block that factorizes (:func:`_leading_cholesky`), for one system or,
    with a leading axis on every argument but ``ks``, a stack. Rows of W
    from j on are not meaningful."""
    weighted = u * prelim[..., None]
    chol, factored = _leading_cholesky(np.swapaxes(weighted, -1, -2) @ weighted / u.shape[-2])
    chol_inv = np.tril(np.linalg.inv(chol))
    whitened = chol_inv @ bmat
    omega = np.cumsum(whitened[..., :, None] * whitened[..., None, :], axis=-3)[..., ks - 1, :, :]
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
    """Scores, bias terms and variance terms of C candidates at once, on
    one basis or on a stack of them.

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
    rather than every bridge coefficient. With a leading axis on every
    argument but ``ks``, the arguments stack B such scans, one per dataset,
    and so do the (B, C) results; every step is a product or factorization
    per system, a reduction along one axis or an elementwise operation, so
    each scan gets what it gets alone, bit for bit.

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
    NaN terms. The n×C arrays are updated in place, so that a stack of
    scans holds few of them at once.
    """
    n, k = u.shape[-2:]
    chol_inv, whitened, omega, factored = _whitened(u, bmat, prelim, ks)
    ok = ok & (ks <= factored[..., None])
    if not ok.all():
        resid = np.where(ok[..., None, :], resid, 0.0)
    # ok is a fresh array, so its flat view marks the Ω that fail to invert.
    omega_inv = _stacked(np.linalg.inv, omega.reshape(-1, *omega.shape[-2:]), ok.reshape(-1))
    t_dir = (omega_inv.reshape(omega.shape) @ target[..., None, :, None])[..., 0]
    t_dir_t = np.swapaxes(t_dir, -1, -2)
    keep = np.arange(k)[:, None] < ks
    direction = (bmat @ t_dir_t) * keep
    leverage = _prefix_leverages(u, ks)
    # pi sums leverage · resid · (-(feat_grad t) - gram_part) over rows,
    # with gram_part = u @ direction. That product is cheap, so it is formed
    # again below rather than kept: at most four n×C arrays are live.
    part = feat_grad @ t_dir_t
    np.negative(part, out=part)
    part -= u @ direction
    weights = leverage * resid
    part *= weights
    pi = np.sum(part, axis=-2)
    del part
    # The influence is the Υ-metric part times resid², less gram_part.
    influence = u @ (np.swapaxes(chol_inv, -1, -2) @ ((whitened @ t_dir_t) * keep))
    influence *= np.multiply(resid, resid, out=weights)
    del weights
    influence -= u @ direction
    np.square(influence, out=influence)
    influence *= leverage
    bias = pi * pi / n
    var = np.sum(influence, axis=-2) - (t_dir @ target[..., :, None])[..., 0]
    score = bias + var
    ok &= np.isfinite(score)
    return np.where(ok, score, np.inf), np.where(ok, bias, np.nan), np.where(ok, var, np.nan)


def _scans(datasets: list[Dataset], bridge: OutcomeBridge, spec: SieveSpec, k_bar: int) -> list:
    """:func:`select_k` of each of ``datasets``, which share their shapes,
    with the raw ``k_bar``-column basis it scanned and the moment system on
    the orthonormalized basis it scored, or the error it gives that
    dataset. Callers read it through ``gmm._fit_each``, so a dataset keeps
    its scan: a Monte Carlo block scans all its datasets in one call, and
    :func:`select_k` and :func:`select_and_fit` scan a stack of one.

    Each dataset's basis is built and orthonormalized alone, through this
    module's names :func:`build_basis` and :func:`orthonormalize`; a
    dataset whose basis has a dependent column scans the longest accepted
    prefix, so the datasets are grouped by the width they scan. Each group
    is one stack from the moment systems on (:func:`_scan_stack`).
    """
    p = bridge.n_params
    if k_bar < p:
        raise DimensionMismatch(
            f"k_bar={k_bar} is below the bridge dimension {p}"
        )
    grid = tuple(range(p, k_bar + 1))
    out: list = [None] * len(datasets)
    raws, widths = {}, {}
    # Each orthonormal basis goes into one stack as soon as it is made, so
    # that the block holds one copy of them. It is sized from the first
    # basis built: k_bar may exceed the sieve, which build_basis rejects.
    stack = None
    for b, ds in enumerate(datasets):
        try:
            raw = build_basis(ds, spec, k_bar)
            try:
                basis = orthonormalize(raw)
            except RankDeficient as exc:
                # Prefixes are nested bit for bit, so the accepted prefix of
                # this basis is the basis build_basis would give at that size.
                basis = orthonormalize(raw.leading(exc.full_rank_prefix))
        except ProxiGmmError as exc:
            # The error must not carry these frames, which hold the datasets.
            out[b] = exc.with_traceback(None)
            continue
        if stack is None:
            stack = np.empty((len(datasets), *raw.u.shape))
        stack[b, :, : basis.k] = basis.u
        raws[b], widths[b] = raw, basis.k
    features = dict(zip(raws, _fit_each(_Features.build, [datasets[b] for b in raws], bridge)))
    by_width: dict[int, list[int]] = {}
    for b, width in widths.items():
        by_width.setdefault(width, []).append(b)
    for width, group in by_width.items():
        if width < p:
            scans = [_all_singular(grid)] * len(group)
        else:
            if len(group) < len(datasets) or width < k_bar:
                u = np.ascontiguousarray(stack[group, :, :width])
            else:
                u = stack
            scans = _scan_stack([features[b] for b in group], u, grid)
        for b, scan in zip(group, scans):
            out[b] = scan if isinstance(scan, ProxiGmmError) else (scan[0], raws[b], scan[1])
    return out


def _all_singular(grid: tuple[int, ...]) -> AllCandidatesSingular:
    """The error of a scan none of whose candidates ``grid`` scores."""
    return AllCandidatesSingular(
        f"all candidate moment counts {grid[0]}..{grid[-1]} were singular"
    )


def _scan_stack(features: list, u: np.ndarray, grid: tuple[int, ...]) -> list:
    """Per basis, the :class:`SelectionDiagnostics` and the moment system
    of a scan of the candidates ``grid`` on the (B, n, k) stack ``u`` of
    orthonormal bases, k at least p = ``grid[0]``, whose datasets have the
    bridge features ``features``, or that dataset's error.

    The B moment systems are one stack (``gmm._Moments.of``). Candidate K's
    bridge fit reads its system's leading K sieve rows, the others zeroed;
    the contrast row is left out, since tau satisfies it exactly, so it
    never moves gamma. The identity-weight fits of all B·C candidates are
    one stacked solve (``gmm._solve``) and their residuals one (n, C)
    product per dataset. A dataset none of whose fits passes its rank check
    scores no candidate; the others are scored by one stacked
    :func:`_criterion` at the residual of their widest fit that passes. If
    the stacked SVD does not converge, each basis is scanned alone, so only
    the datasets whose own SVD fails get :class:`AllCandidatesSingular`.
    """
    moments = _Moments.of(_Features.stack(features), u)
    f = moments.features
    count, n, k = moments.u.shape
    p, ks = grid[0], np.arange(grid[0], k + 1)
    bmat, const = moments.jac[..., :-1, :-1], moments.const[..., :-1]
    keep = np.arange(k) < ks[:, None]
    try:
        gamma, rank, _ = _solve(
            (bmat[:, None] * keep[:, :, None]).reshape(-1, k, p),
            (-const[:, None] * keep).reshape(-1, k),
            np.repeat(f.scale[:, :-1], ks.size, axis=0), n, AllCandidatesSingular,
        )
    except AllCandidatesSingular as exc:
        if count == 1:
            return [exc.with_traceback(None)]
        return [
            scan for one in range(count)
            for scan in _scan_stack(features[one : one + 1], u[one : one + 1], grid)
        ]
    ok = (rank == p).reshape(count, ks.size)
    resid = f.feats @ np.swapaxes(gamma.reshape(count, ks.size, p), -1, -2)
    np.subtract(f.y[..., None], resid, out=resid)
    scores = np.full((count, len(grid)), np.inf)
    bias_terms = np.full((count, len(grid)), np.nan)
    var_terms = np.full((count, len(grid)), np.nan)
    live = ok.any(axis=1)
    if live.any():
        # Basic indexing views the whole stack; only a stack with a dataset
        # to leave out is copied.
        take = slice(None) if live.all() else live
        # The preliminary residual: the widest candidate that passes its
        # rank check.
        widest = ks.size - 1 - np.argmax(ok[take, ::-1], axis=1)
        prelim = resid[take][np.arange(widest.size), :, widest]
        scored = _criterion(
            moments.u[take], bmat[take], f.feats[take], resid[take], prelim,
            f.contrast_mean[take], ks, ok[take],
        )
        for terms, part in zip((scores, bias_terms, var_terms), scored):
            terms[take, : ks.size] = part
    out = []
    finite = np.isfinite(scores).any(axis=1).tolist()
    for b, best in enumerate(np.argmin(scores, axis=1).tolist()):
        if not finite[b]:
            out.append(_all_singular(grid))
            continue
        diag = SelectionDiagnostics(
            k_grid=grid, scores=scores[b], bias_terms=bias_terms[b],
            variance_terms=var_terms[b], k_star=grid[best],
        )
        out.append((diag, _Moments(features[b], moments.u[b], moments.jac[b], moments.const[b])))
    return out


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
    candidates K > j score infinity. The dataset keeps the scan
    (:func:`_scans`), so a later call with the same bridge, sieve and cap,
    or :func:`select_and_fit`, returns it.

    The scan does not depend on the units of w, x or z, but K* depends on
    the units of y: the criterion mixes powers of y's scale (on II/800
    seed 3 rep 1, y × 1e-2 moves K* from 12 to 4). Above K* = p the
    fit's SE depends on the units of x and w through the polish's
    finite-difference steps: by 0.9% there, and by orders of magnitude
    under weak identification (on I/400 seed 3 rep 0 with w replaced by
    its residual on (1, z, a, x), K* = 7, the SE reads 0.145 at w × 1e-9
    and 8.7e6 at w × 1e9, and 0.14464 at both without the polish).
    """
    return _fit_once(_scans, ds, bridge, spec, k_bar)[0]


def select_and_fit(
    ds: Dataset, bridge: OutcomeBridge, spec: SieveSpec, k_bar: int
) -> tuple[GmmFit, SelectionDiagnostics]:
    """Run the moment-count scan, then the optimally weighted fit at K*.

    The scan is the one the dataset keeps (:func:`select_k`), such as a
    Monte Carlo block's stacked scan; the fit runs on this dataset alone.
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
    diag, raw, moments = _fit_once(_scans, ds, bridge, spec, k_bar)
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
