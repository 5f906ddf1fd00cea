"""Sieve instrument bases over (Z, A, X) with nested, deterministic ordering.

Basis columns are products of a treatment indicator power (0 or 1) and one
univariate function per continuous variable: a cubic polynomial power of the
standardized value, or a cubic B-spline bump. Every continuous term also
enters multiplied by the treatment indicator. Terms are enumerated in a fixed
order so that the first K columns of a larger basis always equal the
K-column basis (nested prefixes), which is what the moment-count scan
relies on.

A basis is built on, and evaluated only on, the dataset it instruments: each
variable's standardization or knot placement is computed from that dataset
when the basis is built, and is not kept.

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
from .errors import DegenerateColumn, DimensionMismatch, KTooLarge, RankDeficient

FAMILIES = ("power", "bspline")

# Relative tolerance below which a basis column or an R diagonal entry is
# treated as numerically zero.
_ZERO_TOL = 1e-12
_RANK_TOL = 1e-10
_SPLINE_DEGREE = 3
_POWER_DEGREE = 3


@dataclass(frozen=True)
class SieveSpec:
    """Which instrument basis to build.

    ``family`` is ``"power"`` (powers 1..3 of each standardized variable) or
    ``"bspline"`` (cubic B-spline bumps on ``interior_knots`` quantile knots
    per variable). The spec holds no data: :func:`build_basis` places the
    standardization or the knots on the dataset it instruments.
    """

    family: str = "power"
    interior_knots: int = 2

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DimensionMismatch(f"unknown family {self.family!r}")


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


def _univariate_levels(spec: SieveSpec, name: str, col: np.ndarray) -> np.ndarray:
    """Columns for levels 1, 2, ... of one variable: powers of its standardized
    value, or every spline bump but the first (all of them sum to one)."""
    if spec.family == "power":
        mean = float(np.mean(col))
        sd = float(np.std(col))
        if sd < _ZERO_TOL:
            raise DegenerateColumn(f"variable {name!r} is constant; cannot standardize")
        std = (col - mean) / sd
        return np.column_stack([std**lv for lv in range(1, _POWER_DEGREE + 1)])
    m = spec.interior_knots
    lo, hi = float(np.min(col)), float(np.max(col))
    if hi - lo < _ZERO_TOL:
        raise DegenerateColumn(f"variable {name!r} is constant; cannot place knots")
    interior = np.quantile(col, [(j + 1) / (m + 1) for j in range(m)]) if m else np.array([])
    clamped = _SPLINE_DEGREE + 1  # repeated boundary knots
    knots = np.r_[np.full(clamped, lo), interior, np.full(clamped, hi)]
    # Imported here: scipy.interpolate, with the rest of scipy it loads,
    # adds about 0.6 s to a cold start, and only the B-spline family uses
    # it; every other path of the package needs numpy alone.
    from scipy.interpolate import BSpline

    design = BSpline.design_matrix(col, knots, _SPLINE_DEGREE)
    return np.asarray(design.todense())[:, 1:]


def _terms(
    spec: SieveSpec, names: list[str], levels: int
) -> list[tuple[int, tuple[int, ...]]]:
    """Enumerate (a_exponent, per-variable levels) in basis order, with
    ``levels`` univariate functions per variable."""
    d = len(names)
    singles = [
        (0, tuple(level if i == j else 0 for i in range(d)))
        for level in range(1, levels + 1)
        for j in range(d)
    ]
    inter = [
        (a_exp, lv)
        for lv in itertools.product(range(levels + 1), repeat=d)
        for a_exp in (0, 1)
        if a_exp + sum(1 for level in lv if level) >= 2
    ]
    inter.sort(key=lambda t: (t[0] + sum(t[1]), _term_name(spec, names, t)))
    return [(0, (0,) * d), (1, (0,) * d), *singles, *inter]


def _term_name(spec: SieveSpec, names: list[str], term: tuple[int, tuple[int, ...]]) -> str:
    a_exp, levels = term
    parts = ["a"] * a_exp
    for name, lv in zip(names, levels):
        if lv == 0:
            continue
        if spec.family == "power":
            parts.append(name if lv == 1 else f"{name}^{lv}")
        else:
            parts.append(f"{name}:b{lv}")
    return "*".join(parts) if parts else "1"


def build_basis(ds: Dataset, spec: SieveSpec, k: int) -> BasisMatrix:
    """Evaluate the first ``k`` basis terms on the rows of ``ds``.

    Each variable is standardized (power family) or given its knots
    (B-spline family) from ``ds`` itself, so the basis describes ``ds``
    only. Raises :class:`KTooLarge` when the term family has fewer than
    ``k`` members and :class:`DegenerateColumn` when a variable is constant
    or a generated column is numerically zero.
    """
    if k < 1:
        raise KTooLarge(f"k must be at least 1, got {k}")
    cols = [(nm, ds.z[:, j]) for j, nm in enumerate(ds.z_names)]
    cols += [(nm, ds.x[:, j]) for j, nm in enumerate(ds.x_names)]
    per_var = [_univariate_levels(spec, name, col) for name, col in cols]
    names = [name for name, _ in cols]
    # Every variable has as many levels as the first, and z is never empty.
    terms = _terms(spec, names, per_var[0].shape[1])
    if k > len(terms):
        raise KTooLarge(f"k={k} exceeds the {len(terms)} available terms")
    terms = terms[:k]
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
    term_names = tuple(_term_name(spec, names, t) for t in terms)
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
