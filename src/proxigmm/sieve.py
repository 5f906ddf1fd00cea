"""Sieve instrument bases over (Z, A, X) with nested, deterministic ordering.

Basis columns are products of a treatment indicator power (0 or 1) and one
univariate function per continuous variable: a polynomial power of the
standardized value, or a cubic B-spline bump. Every continuous term also
enters multiplied by the treatment indicator. Terms are enumerated in a fixed
order so that the first K columns of a larger basis always equal the
K-column basis (nested prefixes), which is what the moment-count scan
relies on.

Ordering: constant, treatment main effect, then single-variable terms by
ascending level with Z variables before X within a level, then interaction
terms by ascending total level, breaking ties lexicographically by the
canonical term name (so `a*x^2` precedes `a*z*x`, which precedes `a*z^2`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from scipy.interpolate import BSpline

from .data import Dataset
from .errors import DegenerateColumn, DimensionMismatch, KTooLarge, RankDeficient

FAMILIES = ("power", "bspline")
STRUCTURES = ("tensor", "additive")

# Relative tolerance below which a basis column or an R diagonal entry is
# treated as numerically zero.
_ZERO_TOL = 1e-12
_RANK_TOL = 1e-10
_SPLINE_DEGREE = 3


@dataclass(frozen=True)
class VarFit:
    """Fitted univariate state for one continuous variable.

    Power family: affine standardization (mean, sd). B-spline family: the
    full clamped knot vector and the data range used for clamping.
    ``levels`` is the number of usable univariate functions (polynomial
    degrees, or spline bumps after dropping the one redundant with the
    constant).
    """

    name: str
    block: str
    levels: int
    mean: float = 0.0
    sd: float = 1.0
    knots: tuple[float, ...] = ()
    lo: float = 0.0
    hi: float = 0.0


@dataclass(frozen=True)
class SieveSpec:
    """Configuration and fitted state for an instrument basis.

    ``z_degrees`` and ``x_degrees`` are the polynomial degree of every Z and
    every X variable; ``interior_knots`` is the interior knot count of every
    variable's spline. ``var_fits`` holds per-variable fitted state (Z
    variables first, then X) and is ``None`` until :func:`fit_sieve` runs.
    """

    family: str = "power"
    structure: str = "tensor"
    z_degrees: int = 3
    x_degrees: int = 3
    interior_knots: int = 2
    var_fits: tuple[VarFit, ...] | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DimensionMismatch(f"unknown family {self.family!r}")
        if self.structure not in STRUCTURES:
            raise DimensionMismatch(f"unknown structure {self.structure!r}")

    @property
    def fitted(self) -> bool:
        return self.var_fits is not None


@dataclass(frozen=True)
class BasisMatrix:
    """Evaluated basis columns plus the transform that produced them.

    ``u`` is ``(n, k)``. ``whitening`` maps raw term evaluations to these
    columns (identity until :func:`orthonormalize`); after orthonormalizing,
    ``u.T @ u / n`` is the identity.
    """

    u: np.ndarray
    whitening: np.ndarray
    term_names: tuple[str, ...]
    spec: SieveSpec
    orthonormal: bool = False

    @property
    def k(self) -> int:
        return self.u.shape[1]

    @property
    def n(self) -> int:
        return self.u.shape[0]


def fit_sieve(spec: SieveSpec, ds: Dataset) -> SieveSpec:
    """Learn per-variable standardization or knot placement from data."""
    fits: list[VarFit] = []
    cols = [(nm, "z", ds.z[:, j], spec.z_degrees) for j, nm in enumerate(ds.z_names)]
    cols += [(nm, "x", ds.x[:, j], spec.x_degrees) for j, nm in enumerate(ds.x_names)]
    for name, block, col, degree in cols:
        if spec.family == "power":
            mean = float(np.mean(col))
            sd = float(np.std(col))
            if sd < _ZERO_TOL:
                raise DegenerateColumn(f"variable {name!r} is constant; cannot standardize")
            fits.append(VarFit(name=name, block=block, levels=degree, mean=mean, sd=sd))
        else:
            m = spec.interior_knots
            lo, hi = float(np.min(col)), float(np.max(col))
            if hi - lo < _ZERO_TOL:
                raise DegenerateColumn(f"variable {name!r} is constant; cannot place knots")
            interior = np.quantile(col, [(j + 1) / (m + 1) for j in range(m)]) if m else np.array([])
            clamped = _SPLINE_DEGREE + 1  # repeated boundary knots
            knot_vec = np.r_[np.full(clamped, lo), interior, np.full(clamped, hi)]
            n_bumps = m + _SPLINE_DEGREE  # one bump dropped as redundant with the constant
            fits.append(
                VarFit(name=name, block=block, levels=n_bumps,
                       knots=tuple(float(t) for t in knot_vec), lo=lo, hi=hi)
            )
    return replace(spec, var_fits=tuple(fits))


def _terms(spec: SieveSpec) -> list[tuple[int, tuple[int, ...]]]:
    """Enumerate (a_exponent, per-variable levels) in basis order."""
    if not spec.fitted:
        raise DimensionMismatch("sieve spec must be fitted before terms are enumerated")
    fits = spec.var_fits
    d = len(fits)
    singles = []
    for level in range(1, max((f.levels for f in fits), default=0) + 1):
        for j, f in enumerate(fits):
            if level <= f.levels:
                lv = [0] * d
                lv[j] = level
                singles.append((0, tuple(lv)))
    inter = []

    def _expand(j: int, lv: list[int], active: int) -> None:
        if j == d:
            for a_exp in (0, 1):
                slots = active + a_exp
                if slots < 2:
                    continue
                if spec.structure == "additive" and active > 1:
                    continue
                inter.append((a_exp, tuple(lv)))
            return
        for level in range(0, fits[j].levels + 1):
            lv[j] = level
            _expand(j + 1, lv, active + (1 if level else 0))
        lv[j] = 0

    _expand(0, [0] * d, 0)
    inter.sort(key=lambda t: (t[0] + sum(t[1]), _term_name(spec, t)))
    return [(0, (0,) * d), (1, (0,) * d), *singles, *inter]


def _term_name(spec: SieveSpec, term: tuple[int, tuple[int, ...]]) -> str:
    a_exp, levels = term
    parts = ["a"] * a_exp
    for f, lv in zip(spec.var_fits, levels):
        if lv == 0:
            continue
        if spec.family == "power":
            parts.append(f.name if lv == 1 else f"{f.name}^{lv}")
        else:
            parts.append(f"{f.name}:b{lv}")
    return "*".join(parts) if parts else "1"


def _spline_design(f: VarFit, values: np.ndarray) -> np.ndarray:
    """All B-spline bumps (including the dropped first one) at clamped values."""
    clipped = np.clip(values, f.lo, f.hi)
    dm = BSpline.design_matrix(clipped, np.asarray(f.knots), _SPLINE_DEGREE)
    return np.asarray(dm.todense())


def _univariate_levels(spec: SieveSpec, f: VarFit, values: np.ndarray) -> np.ndarray:
    """Columns for levels 1..f.levels of one variable, shape (n, levels)."""
    if f.levels == 0:
        return np.empty((values.shape[0], 0))
    if spec.family == "power":
        std = (values - f.mean) / f.sd
        return np.column_stack([std**lv for lv in range(1, f.levels + 1)])
    return _spline_design(f, values)[:, 1 : f.levels + 1]


def _raw_columns(
    spec: SieveSpec,
    z: np.ndarray,
    a: np.ndarray,
    x: np.ndarray,
    terms: list[tuple[int, tuple[int, ...]]],
) -> np.ndarray:
    fits = spec.var_fits
    n_z = sum(1 for f in fits if f.block == "z")
    if z.shape[1] != n_z or x.shape[1] != len(fits) - n_z:
        raise DimensionMismatch(
            f"expected {n_z} z columns and {len(fits) - n_z} x columns, "
            f"got {z.shape[1]} and {x.shape[1]}"
        )
    values = np.column_stack([z, x]) if x.shape[1] else z
    per_var = [_univariate_levels(spec, f, values[:, j]) for j, f in enumerate(fits)]
    n = a.shape[0]
    out = np.empty((n, len(terms)))
    for c, (a_exp, levels) in enumerate(terms):
        col = np.ones(n)
        if a_exp:
            col = col * a
        for j, lv in enumerate(levels):
            if lv:
                col = col * per_var[j][:, lv - 1]
        out[:, c] = col
    return out


def build_basis(ds: Dataset, spec: SieveSpec, k: int) -> BasisMatrix:
    """Evaluate the first ``k`` basis terms on a dataset.

    Fits the spec's standardization on ``ds`` unless already fitted. Raises
    :class:`KTooLarge` when the term family has fewer than ``k`` members and
    :class:`DegenerateColumn` when a generated column is numerically zero.
    """
    if k < 1:
        raise KTooLarge(f"k must be at least 1, got {k}")
    fitted = spec if spec.fitted else fit_sieve(spec, ds)
    terms = _terms(fitted)
    if k > len(terms):
        raise KTooLarge(f"k={k} exceeds the {len(terms)} available terms")
    terms = terms[:k]
    u = _raw_columns(fitted, ds.z, ds.a, ds.x, terms)
    names = tuple(_term_name(fitted, t) for t in terms)
    scale = np.max(np.abs(u), axis=0)
    dead = np.nonzero(scale < _ZERO_TOL)[0]
    if dead.size:
        raise DegenerateColumn(f"basis column {names[dead[0]]!r} is numerically zero")
    return BasisMatrix(u=u, whitening=np.eye(k), term_names=names, spec=fitted)


def total_terms(spec: SieveSpec, ds: Dataset | None = None) -> int:
    """Number of terms the fitted family, or the family fitted on ``ds``, provides."""
    if not spec.fitted and ds is None:
        raise DimensionMismatch("an unfitted sieve spec needs a dataset to count its terms")
    fitted = spec if spec.fitted else fit_sieve(spec, ds)
    return len(_terms(fitted))


def orthonormalize(b: BasisMatrix) -> BasisMatrix:
    """Rescale basis columns so their empirical second-moment matrix is I.

    Uses a thin QR factorization with positive diagonal, so the transform
    is upper triangular and prefix spans are unchanged (nestedness is
    preserved). Raises :class:`RankDeficient` when columns are linearly
    dependent beyond the drop tolerance; its ``full_rank_prefix`` is the
    longest leading prefix that this function would accept.
    """
    n = b.u.shape[0]
    q, r = scipy.linalg.qr(b.u / np.sqrt(n), mode="economic")
    diag = np.diag(r).copy()
    flip = np.where(diag < 0, -1.0, 1.0)
    q = q * flip
    r = flip[:, None] * r
    diag = np.abs(diag)
    # R's leading block is the prefix's own R, so prefix k passes when
    # min(diag[:k]) >= tol * max(diag[:k]); once a prefix fails, all longer do.
    passes = np.minimum.accumulate(diag) >= _RANK_TOL * np.maximum.accumulate(diag)
    if not passes[-1]:
        j = int(np.argmin(diag))
        raise RankDeficient(
            f"basis column {b.term_names[j]!r} is linearly dependent on earlier "
            f"columns (relative pivot {np.min(diag) / np.max(diag):.2e})",
            full_rank_prefix=int(np.argmin(passes)),
        )
    t = scipy.linalg.solve_triangular(r, np.eye(b.k))
    return BasisMatrix(
        u=np.sqrt(n) * q,
        whitening=b.whitening @ t,
        term_names=b.term_names,
        spec=b.spec,
        orthonormal=True,
    )


def evaluate_basis(spec: SieveSpec, k: int, z, a, x=None) -> np.ndarray:
    """Raw basis values at one point or a batch of points.

    ``z`` and ``x`` are length ``d_z`` / ``d_x`` vectors (or ``(m, d)``
    arrays), ``a`` a scalar (or length ``m`` vector). Returns shape ``(k,)``
    for a single point, ``(m, k)`` for a batch. Values are computed with the
    same kernel as :func:`build_basis`, so evaluating at a fitting-set row
    reproduces that row of the unwhitened basis exactly.
    """
    if not spec.fitted:
        raise DimensionMismatch("sieve spec must be fitted before evaluation")
    terms = _terms(spec)
    if k > len(terms):
        raise KTooLarge(f"k={k} exceeds the {len(terms)} available terms")
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    single = z_arr.ndim == 1
    z2 = z_arr.reshape(1, -1) if single else z_arr
    a2 = np.atleast_1d(np.asarray(a, dtype=float))
    if x is None:
        x2 = np.empty((z2.shape[0], 0))
    else:
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        x2 = x_arr.reshape(1, -1) if single else x_arr
    rows = _raw_columns(spec, z2, a2, x2, terms[:k])
    return rows[0] if single else rows


def spec_to_json(spec: SieveSpec) -> str:
    """Serialize a spec, including fitted state, to a JSON string."""
    d = {
        "family": spec.family,
        "structure": spec.structure,
        "z_degrees": spec.z_degrees,
        "x_degrees": spec.x_degrees,
        "interior_knots": spec.interior_knots,
        "var_fits": None
        if spec.var_fits is None
        else [vars(f) | {"knots": list(f.knots)} for f in spec.var_fits],
    }
    return json.dumps(d)


def spec_from_json(text: str) -> SieveSpec:
    """Inverse of :func:`spec_to_json`."""
    d = json.loads(text)
    fits = d.pop("var_fits")
    spec = SieveSpec(**d)
    if fits is not None:
        spec = replace(
            spec, var_fits=tuple(VarFit(**(f | {"knots": tuple(f["knots"])})) for f in fits)
        )
    return spec
