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
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import DegenerateColumn, KTooLarge, RankDeficient

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


def _univariate_levels(name: str, col: np.ndarray) -> list[np.ndarray]:
    """Levels 1, 2, 3 of one variable: powers of its standardized value,
    formed by multiplication (``std**3`` would call libm ``pow``).

    The mean and standard deviation are the reductions ``np.mean`` and
    ``np.std`` run, bit for bit, with the deviations formed once. A
    variable is constant when its standard deviation is at most
    ``_ZERO_TOL`` times its mean's magnitude (to first order, times its
    root mean square), so the test does not depend on the variable's units.
    """
    n = col.shape[0]
    mean = float(np.add.reduce(col) / n)
    dev = col - mean
    sd = math.sqrt(np.add.reduce(dev * dev) / n)
    if sd <= _ZERO_TOL * abs(mean):
        raise DegenerateColumn(f"variable {name!r} is constant; cannot standardize")
    std = dev / sd
    square = std * std
    return [std, square, square * std]


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


def build_basis(ds: Dataset, spec: SieveSpec, k: int) -> BasisMatrix:
    """Evaluate the first ``k`` basis terms on the rows of ``ds``.

    Each variable is standardized from ``ds`` itself, so the basis
    describes ``ds`` only. Raises :class:`KTooLarge` when the sieve has
    fewer than ``k`` terms (:func:`family_size`) and
    :class:`DegenerateColumn` when a variable is constant or a generated
    column is numerically zero.
    """
    if k < 1:
        raise KTooLarge(f"k must be at least 1, got {k}")
    cols = [(nm, ds.z[:, j]) for j, nm in enumerate(ds.z_names)]
    cols += [(nm, ds.x[:, j]) for j, nm in enumerate(ds.x_names)]
    size = family_size(len(cols))
    if k > size:
        raise KTooLarge(f"k={k} exceeds the {size} available terms")
    factor_cols = [ds.a]
    for name, col in cols:
        factor_cols += _univariate_levels(name, col)
    plan, term_names = _layout(tuple(name for name, _ in cols), k)
    u = np.empty((ds.a.shape[0], k), order="F")
    for c, factors in enumerate(plan):
        col = u[:, c]
        if not factors:
            col.fill(1.0)
        elif len(factors) == 1:
            col[...] = factor_cols[factors[0]]
        else:
            np.multiply(factor_cols[factors[0]], factor_cols[factors[1]], out=col)
            for f in factors[2:]:
                np.multiply(col, factor_cols[f], out=col)
    scale = np.max(np.abs(u), axis=0)
    dead = np.nonzero(scale < _ZERO_TOL)[0]
    if dead.size:
        raise DegenerateColumn(f"basis column {term_names[dead[0]]!r} is numerically zero")
    return BasisMatrix(u=u, term_names=term_names)


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
    n = b.u.shape[0]
    q, r = np.linalg.qr(b.u / np.sqrt(n))
    signed = np.diag(r)
    q *= np.where(signed < 0, -1.0, 1.0)
    # R has min(n, k) diagonal entries: columns past the n-th pivot on 0.
    diag = np.zeros(b.k)
    diag[: signed.size] = np.abs(signed)
    # R's leading block is the prefix's own R, so prefix k passes when
    # min(diag[:k]) >= tol * max(diag[:k]); once a prefix fails, all longer do.
    passes = np.minimum.accumulate(diag) >= _RANK_TOL * np.maximum.accumulate(diag)
    if not passes[-1]:
        j = int(np.argmin(passes))
        raise RankDeficient(
            f"basis column {b.term_names[j]!r} is linearly dependent on earlier "
            f"columns (relative pivot {diag[j] / np.max(diag[: j + 1]):.2e})",
            full_rank_prefix=j,
        )
    q *= np.sqrt(n)
    return BasisMatrix(u=q, term_names=b.term_names, orthonormal=True)
