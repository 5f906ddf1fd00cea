"""Sieve instrument bases over (Z, A, X) with nested, deterministic ordering.

Basis columns are products of a treatment indicator power (0 or 1) and one
cubic polynomial power of each standardized continuous variable. Every
continuous term also enters multiplied by the treatment indicator. Terms
are enumerated in a fixed order so that the first K columns of a larger
basis always equal the K-column basis (nested prefixes), which is what the
moment-count scan relies on.

A basis is built on, and evaluated only on, the dataset it instruments:
each variable's standardization is computed from that dataset when the
basis is built, and is not kept.

Ordering: constant, treatment main effect, then single-variable terms by
ascending level with Z variables before X within a level, then interaction
terms by ascending total level, breaking ties lexicographically by the
canonical term name (so `a*x^2` precedes `a*z*x`, which precedes `a*z^2`).
"""

from __future__ import annotations

import itertools
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


def _univariate_levels(name: str, col: np.ndarray) -> np.ndarray:
    """Columns for levels 1, 2, 3 of one variable: powers of its
    standardized value."""
    mean = float(np.mean(col))
    sd = float(np.std(col))
    if sd < _ZERO_TOL:
        raise DegenerateColumn(f"variable {name!r} is constant; cannot standardize")
    std = (col - mean) / sd
    return np.column_stack([std**lv for lv in range(1, _POWER_DEGREE + 1)])


def _terms(names: list[str]) -> list[tuple[int, tuple[int, ...]]]:
    """Enumerate all (a_exponent, per-variable levels) in basis order."""
    d = len(names)
    singles = [
        (0, tuple(level if i == j else 0 for i in range(d)))
        for level in range(1, _POWER_DEGREE + 1)
        for j in range(d)
    ]
    inter = [
        (a_exp, lv)
        for lv in itertools.product(range(_POWER_DEGREE + 1), repeat=d)
        for a_exp in (0, 1)
        if a_exp + sum(1 for level in lv if level) >= 2
    ]
    inter.sort(key=lambda t: (t[0] + sum(t[1]), _term_name(names, t)))
    return [(0, (0,) * d), (1, (0,) * d), *singles, *inter]


def _term_name(names: list[str], term: tuple[int, tuple[int, ...]]) -> str:
    a_exp, levels = term
    parts = ["a"] * a_exp
    for name, lv in zip(names, levels):
        if lv:
            parts.append(name if lv == 1 else f"{name}^{lv}")
    return "*".join(parts) if parts else "1"


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
    per_var = [_univariate_levels(name, col) for name, col in cols]
    names = [name for name, _ in cols]
    terms = _terms(names)[:k]
    n = ds.a.shape[0]
    u = np.empty((n, k))
    for c, (a_exp, levels) in enumerate(terms):
        col = np.ones(n)
        if a_exp:
            col = col * ds.a
        for j, lv in enumerate(levels):
            if lv:
                col = col * per_var[j][:, lv - 1]
        u[:, c] = col
    term_names = tuple(_term_name(names, t) for t in terms)
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
    right after that prefix.
    """
    n = b.u.shape[0]
    q, r = np.linalg.qr(b.u / np.sqrt(n))
    diag = np.diag(r)
    q *= np.where(diag < 0, -1.0, 1.0)
    diag = np.abs(diag)
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
