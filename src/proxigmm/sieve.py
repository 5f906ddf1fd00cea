"""Sieve instrument bases over (Z, A, X) with nested, deterministic ordering.

Basis columns are products of a treatment indicator power (0 or 1) and one
cubic polynomial power of each standardized continuous variable. Every
continuous term also enters multiplied by the treatment indicator. Terms
are enumerated in a fixed order so that the first K columns of a larger
basis always equal the K-column basis (nested prefixes), which is what the
moment-count scan relies on.

A basis is built on, and evaluated only on, the dataset it instruments:
each variable's standardization is computed from that dataset when the
basis is built, and is not kept. The basis is column-major: each column is
written in place as the product of its factors (the treatment, then each
variable's level, in variable order), so a leading prefix is one
contiguous block and the moment-count scan reads every column contiguously.

Ordering: constant, treatment main effect, then single-variable terms by
ascending level with Z variables before X within a level, then interaction
terms by ascending total level, breaking ties lexicographically by the
canonical term name (so `a*x^2` precedes `a*z*x`, which precedes `a*z^2`).
The order is enumerated lazily, one total level at a time, and stops at
the requested count, so a basis over many variables never lists the
2·4^d terms of its whole family; the first k terms and their names are
computed once per variable names and k.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, _stack
from .errors import DegenerateColumn, KTooLarge, RankDeficient, _unless_error

# Relative tolerance below which a basis column or an R diagonal entry is
# treated as numerically zero.
_ZERO_TOL = 1e-12
_RANK_TOL = 1e-10
_POWER_DEGREE = 3


@dataclass(frozen=True)
class SieveSpec:
    """Which instrument basis to build.

    The power series (powers 1..3 of each standardized variable) is the one
    family, so the spec holds nothing; :func:`build_basis`,
    :func:`~proxigmm.selection.select_k` and
    :func:`~proxigmm.selection.select_and_fit` still take it.
    """


def family_size(n_vars: int) -> int:
    """Number of terms in the sieve over ``n_vars`` continuous variables:
    every treatment power (0 or 1) times every level 0..3 of each variable,
    2·4^d for d variables."""
    return 2 * (_POWER_DEGREE + 1) ** n_vars


@dataclass(frozen=True)
class BasisMatrix:
    """Basis columns evaluated on the rows of the dataset they instrument.

    ``u`` is ``(n, k)``; after :func:`orthonormalize`, ``u.T @ u / n`` is
    the identity.
    """

    u: np.ndarray
    term_names: tuple[str, ...]
    orthonormal: bool = False

    @property
    def k(self) -> int:
        return self.u.shape[1]

    @property
    def n(self) -> int:
        return self.u.shape[0]

    def leading(self, k: int) -> BasisMatrix:
        """The first ``k`` columns. Of a basis from :func:`build_basis` they
        are, bit for bit, the basis it builds at ``k``."""
        return replace(self, u=self.u[:, :k], term_names=self.term_names[:k])


def _univariate_levels(cols: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Levels 1, 2, 3 of a (B, n) stack of one variable's columns: powers
    of its standardized values, formed by multiplication (``std**3`` would
    call libm ``pow``), and which columns are constant.

    The mean and standard deviation are the reductions ``np.mean`` and
    ``np.std`` run, bit for bit, with the deviations formed once. A
    column is constant when its standard deviation is at most
    ``_ZERO_TOL`` times its mean's magnitude (to first order, times its
    root mean square), so the test does not depend on the variable's units;
    a constant column is divided by 1 rather than 0, and its levels are
    not meaningful.
    """
    n = cols.shape[-1]
    mean = np.add.reduce(cols, axis=-1) / n
    dev = cols - mean[:, None]
    sd = np.sqrt(np.add.reduce(dev * dev, axis=-1) / n)
    constant = sd <= _ZERO_TOL * np.abs(mean)
    std = dev / np.where(constant, 1.0, sd)[:, None]
    square = std * std
    return [std, square, square * std], constant


def _level_vectors(d: int, total: int):
    """Every tuple of ``d`` levels in 0..3 that sums to ``total``, in
    lexicographic order."""
    if total > _POWER_DEGREE * d:
        return
    if d == 0:
        yield ()
        return
    for first in range(min(total, _POWER_DEGREE) + 1):
        for rest in _level_vectors(d - 1, total - first):
            yield (first, *rest)


def _term_order(names: tuple[str, ...]):
    """Every (a_exponent, per-variable levels) in basis order, lazily: each
    total level's interactions are listed and sorted only when reached."""
    d = len(names)
    yield 0, (0,) * d
    yield 1, (0,) * d
    for level in range(1, _POWER_DEGREE + 1):
        for j in range(d):
            yield 0, tuple(level if i == j else 0 for i in range(d))
    for total in range(2, _POWER_DEGREE * d + 2):
        inter = [
            (a_exp, lv)
            for a_exp in (0, 1)
            for lv in _level_vectors(d, total - a_exp)
            if a_exp + sum(1 for level in lv if level) >= 2
        ]
        inter.sort(key=lambda t: _term_name(names, t))
        yield from inter


def _terms(names: tuple[str, ...], k: int) -> list[tuple[int, tuple[int, ...]]]:
    """The first ``k`` (a_exponent, per-variable levels) in basis order."""
    return list(itertools.islice(_term_order(names), k))


def _term_name(names: tuple[str, ...], term: tuple[int, tuple[int, ...]]) -> str:
    a_exp, levels = term
    parts = ["a"] * a_exp
    for name, lv in zip(names, levels):
        if lv:
            parts.append(name if lv == 1 else f"{name}^{lv}")
    return "*".join(parts) if parts else "1"


@functools.lru_cache(maxsize=32)
def _layout(names: tuple[str, ...], k: int) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...]]:
    """``(factors, term_names)`` of the first ``k`` basis columns over ``names``.

    Column c is the product, in order, of the columns that ``factors[c]``
    indexes in (treatment, levels 1..3 of the first variable, levels 1..3
    of the second, ...); the constant has no factor.
    """
    terms = _terms(names, k)
    factors = tuple(
        (0,) * a_exp + tuple(j * _POWER_DEGREE + lv for j, lv in enumerate(levels) if lv)
        for a_exp, levels in terms
    )
    return factors, tuple(_term_name(names, t) for t in terms)


def _bases(datasets: list[Dataset], k: int) -> tuple[np.ndarray, tuple[str, ...], list]:
    """The first ``k`` basis terms of every dataset in ``datasets``, which
    share their shapes and variable names: a (B, n, k) stack whose slices
    are each column-major, the term names, and per dataset ``None`` or the
    :class:`DegenerateColumn` that :func:`build_basis` raises on it, whose
    slice is then not meaningful. Each slice is the dataset's basis bit for
    bit, whatever else the stack holds."""
    if k < 1:
        raise KTooLarge(f"k must be at least 1, got {k}")
    first = datasets[0]
    names = (*first.z_names, *first.x_names)
    size = family_size(len(names))
    if k > size:
        raise KTooLarge(f"k={k} exceeds the {size} available terms")
    a = _stack(datasets, "a")
    factor_cols = [a]
    errors: list = [None] * len(datasets)
    variables = [(nm, "z", j) for j, nm in enumerate(first.z_names)]
    variables += [(nm, "x", j) for j, nm in enumerate(first.x_names)]
    for name, field, j in variables:
        levels, constant = _univariate_levels(_stack(datasets, field)[..., j])
        factor_cols += levels
        for b in np.flatnonzero(constant):
            errors[b] = errors[b] or DegenerateColumn(
                f"variable {name!r} is constant; cannot standardize"
            )
    plan, term_names = _layout(names, k)
    u = np.empty((a.shape[0], k, a.shape[1])).transpose(0, 2, 1)
    for c, factors in enumerate(plan):
        col = u[:, :, c]
        if not factors:
            col.fill(1.0)
        elif len(factors) == 1:
            col[...] = factor_cols[factors[0]]
        else:
            np.multiply(factor_cols[factors[0]], factor_cols[factors[1]], out=col)
            for f in factors[2:]:
                np.multiply(col, factor_cols[f], out=col)
    dead = np.max(np.abs(u), axis=1) < _ZERO_TOL
    for b in np.flatnonzero(dead.any(axis=1)):
        errors[b] = errors[b] or DegenerateColumn(
            f"basis column {term_names[np.argmax(dead[b])]!r} is numerically zero"
        )
    return u, term_names, errors


def _single(stack: np.ndarray, errors: list) -> np.ndarray:
    """The one slice of a stack of one, or its error, taken out of
    ``errors``, raised."""
    _unless_error(errors.pop())
    return stack[0]


def build_basis(ds: Dataset, spec: SieveSpec, k: int) -> BasisMatrix:
    """Evaluate the first ``k`` basis terms on the rows of ``ds``.

    Each variable is standardized from ``ds`` itself, so the basis
    describes ``ds`` only. Raises :class:`KTooLarge` when the sieve has
    fewer than ``k`` terms (:func:`family_size`) and
    :class:`DegenerateColumn` when a variable is constant or a generated
    column is numerically zero. This is :func:`_bases` on a stack of one.
    """
    u, term_names, errors = _bases([ds], k)
    return BasisMatrix(u=_single(u, errors), term_names=term_names)


def _orthonormal(u: np.ndarray, term_names: tuple[str, ...]) -> tuple[np.ndarray, list]:
    """:func:`orthonormalize` of every basis in the (B, n, k) stack ``u``:
    the (B, n, k) stack of orthonormal columns, and per basis ``None`` or
    its :class:`RankDeficient`, whose slice is then not meaningful. One
    stacked QR factorizes each basis as it would alone."""
    n = u.shape[-2]
    q, r = np.linalg.qr(u / np.sqrt(n))
    q *= np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0, -1.0, 1.0)[:, None, :]
    q *= np.sqrt(n)
    return q, _rank_errors(r, term_names)


def _rank_errors(r: np.ndarray, term_names: tuple[str, ...]) -> list:
    """Per basis ``None`` or the :class:`RankDeficient` that
    :func:`orthonormalize` raises, from the R factors ``r`` of a stack of
    bases' QRs."""
    k = r.shape[-1]
    signed = np.diagonal(r, axis1=-2, axis2=-1)
    # R has min(n, k) diagonal entries: columns past the n-th pivot on 0.
    diag = np.zeros((r.shape[0], k))
    diag[:, : signed.shape[-1]] = np.abs(signed)
    # R's leading block is the prefix's own R, so prefix k passes when
    # min(diag[:k]) >= tol * max(diag[:k]); once a prefix fails, all longer do.
    passes = (
        np.minimum.accumulate(diag, axis=-1) >= _RANK_TOL * np.maximum.accumulate(diag, axis=-1)
    )
    errors: list = [None] * r.shape[0]
    for b in np.flatnonzero(~passes[:, -1]):
        j = int(np.argmin(passes[b]))
        errors[b] = RankDeficient(
            f"basis column {term_names[j]!r} is linearly dependent on earlier "
            f"columns (relative pivot {diag[b, j] / np.max(diag[b, : j + 1]):.2e})",
            full_rank_prefix=j,
        )
    return errors


def _orthonormal_bases(datasets: list[Dataset], k: int) -> tuple[np.ndarray, list]:
    """:func:`orthonormalize` of :func:`build_basis` at ``k`` for every
    dataset of ``datasets`` (:func:`_bases`, :func:`_orthonormal`): the
    (B, n, k) stack, and per dataset ``None`` or the first error either
    gives it, whose slice is then not meaningful."""
    u, term_names, errors = _bases(datasets, k)
    q, rank_errors = _orthonormal(u, term_names)
    return q, [error or rank_error for error, rank_error in zip(errors, rank_errors)]


def _basis_errors(datasets: list[Dataset], k: int) -> list:
    """The errors of :func:`_orthonormal_bases` alone: per dataset ``None``
    or the first error that :func:`build_basis` or :func:`orthonormalize`
    at ``k`` gives it. The QR forms R only, which is the R of the full QR
    bit for bit, as LAPACK computes both by one Householder
    factorization."""
    u, term_names, errors = _bases(datasets, k)
    r = np.linalg.qr(u / np.sqrt(u.shape[-2]), mode="r")
    return [error or rank_error for error, rank_error in zip(errors, _rank_errors(r, term_names))]


def orthonormalize(b: BasisMatrix) -> BasisMatrix:
    """Rotate and rescale basis columns so their empirical second-moment
    matrix is I.

    Uses a thin QR factorization with positive diagonal, so each leading
    prefix spans what it spanned before (nestedness is preserved). Raises
    :class:`RankDeficient` when columns are linearly dependent beyond the
    drop tolerance; its ``full_rank_prefix`` is the longest leading prefix
    that this function would accept, and its message names the column
    right after that prefix. Past the n-th of n rows every column is
    dependent, with a zero pivot.
    """
    q, errors = _orthonormal(b.u[None], b.term_names)
    return BasisMatrix(u=_single(q, errors), term_names=b.term_names, orthonormal=True)
