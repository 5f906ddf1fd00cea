"""Shared construction and numeric helpers for the test suite."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from proxigmm import BasisMatrix, Dataset, sieve
from proxigmm.bridges import _as_block
from proxigmm.errors import DimensionMismatch
from proxigmm.selection import _criterion


def make_gaussian_dataset(
    n: int = 200,
    seed: int = 0,
    d_z: int = 1,
    d_w: int = 1,
    d_x: int = 1,
    outcome_scale: float = 1.0,
) -> Dataset:
    """A generic well-conditioned dataset with no particular causal structure.

    The outcome loads on every block so that moment systems built from it
    are non-degenerate; the treatment is an independent fair coin.
    """
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, d_z))
    w = 0.6 * z[:, :1] + rng.normal(size=(n, d_w))
    x = rng.normal(size=(n, d_x)) if d_x else np.empty((n, 0))
    a = (rng.random(n) < 0.5).astype(float)
    y = (
        0.4
        + 0.5 * a
        + w.sum(axis=1)
        + 0.3 * z.sum(axis=1)
        + (x.sum(axis=1) if d_x else 0.0)
        + outcome_scale * rng.normal(size=n)
    )
    return Dataset(
        y=y,
        a=a,
        z=z,
        w=w,
        x=x,
        z_names=tuple(f"z{i + 1}" for i in range(d_z)),
        w_names=tuple(f"w{i + 1}" for i in range(d_w)),
        x_names=tuple(f"x{i + 1}" for i in range(d_x)),
    )


def finite_difference(fn, point: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar or vector function."""
    point = np.asarray(point, dtype=float)
    base = np.asarray(fn(point))
    grad = np.empty(base.shape + point.shape)
    for j in range(point.size):
        shift = np.zeros_like(point)
        shift[j] = eps
        grad[..., j] = (np.asarray(fn(point + shift)) - np.asarray(fn(point - shift))) / (
            2 * eps
        )
    return grad


def eager_terms(names: tuple[str, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Every (a_exponent, per-variable levels) of the sieve over ``names`` in
    basis order, enumerated in full and sorted at once: the reference for
    the lazy order of ``sieve._terms``."""
    d = len(names)
    singles = [
        (0, tuple(level if i == j else 0 for i in range(d)))
        for level in range(1, 4)
        for j in range(d)
    ]
    inter = [
        (a_exp, lv)
        for lv in itertools.product(range(4), repeat=d)
        for a_exp in (0, 1)
        if a_exp + sum(1 for level in lv if level) >= 2
    ]
    inter.sort(key=lambda t: (t[0] + sum(t[1]), sieve._term_name(names, t)))
    return [(0, (0,) * d), (1, (0,) * d), *singles, *inter]


def row_major_basis(ds: Dataset, k: int) -> BasisMatrix:
    """``build_basis`` written as a row-major matrix, one temporary column
    per term, from the eager term order: the reference for the column-major
    basis."""
    cols = [(nm, ds.z[:, j]) for j, nm in enumerate(ds.z_names)]
    cols += [(nm, ds.x[:, j]) for j, nm in enumerate(ds.x_names)]
    per_var = []
    for _, col in cols:
        std = (col - float(np.mean(col))) / float(np.std(col))
        per_var.append(np.column_stack([std, std * std, std * std * std]))
    names = tuple(name for name, _ in cols)
    terms = eager_terms(names)[:k]
    u = np.empty((ds.n, k))
    for c, (a_exp, levels) in enumerate(terms):
        col = np.ones(ds.n)
        if a_exp:
            col = col * ds.a
        for j, lv in enumerate(levels):
            if lv:
                col = col * per_var[j][:, lv - 1]
        u[:, c] = col
    return BasisMatrix(u=u, term_names=tuple(sieve._term_name(names, t) for t in terms))


def write_csv(ds: Dataset, path: str) -> None:
    """Write a dataset to CSV with round-trip exact float formatting."""
    header = [ds.y_name, ds.a_name, *ds.z_names, *ds.w_names, *ds.x_names]
    mat = np.column_stack([ds.y, ds.a, ds.z, ds.w, ds.x])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in mat:
            writer.writerow([repr(float(v)) for v in row])


@dataclass(frozen=True)
class TreatmentBridge:
    """Treatment-side bridge ``q(z, a, x; params) = 1 + exp(s(a) * index)``.

    The linear index is ``params @ (1, z, a, x)`` and ``s(a)`` is +1 for
    untreated, -1 for treated, so q is always above 1 and plays the role of
    an inverse propensity reweighting for whichever arm the unit is in. The
    reference for ``baselines._bridge_values``.
    """

    def q(self, z, a, x, params) -> np.ndarray:
        """Bridge values, shape (n,); always > 1."""
        z2 = _as_block(z)
        a1 = np.asarray(a, dtype=float).reshape(-1)
        x2 = _as_block(x, n=a1.shape[0])
        b = np.column_stack([np.ones(a1.shape[0]), z2, a1, x2])
        params = np.asarray(params, dtype=float).reshape(-1)
        if params.shape[0] != b.shape[1]:
            raise DimensionMismatch(
                f"expected {b.shape[1]} treatment-bridge parameters, got {params.shape[0]}"
            )
        sign = np.where(a1 > 0.5, -1.0, 1.0)
        return 1.0 + np.exp(sign * (b @ params))


def one_candidate_criterion(u, feat_grad, resid, target, prelim=None) -> tuple[float, float, float]:
    """(score, bias_term, variance_term) of the moment-count criterion on
    instrument columns ``u`` of any basis, with outcome residuals ``resid``
    and covariance taken at the preliminary residual ``prelim`` (``resid``
    when not given: a lone candidate is the widest one).

    The criterion does not depend on the instrument basis, so it is the
    one-candidate case of the scan's batched kernel on ``u`` whitened by
    the Cholesky factor of its Gram matrix. A candidate whose covariance
    cannot be factorized scores inf with NaN terms.
    """
    n, k = u.shape
    white = np.linalg.solve(np.linalg.cholesky(u.T @ u / n), u.T).T
    (score,), (bias,), (var,) = _criterion(
        white, -(white.T @ feat_grad) / n, feat_grad, resid[:, None],
        resid if prelim is None else prelim, target, np.array([k]), np.array([True]),
    )
    return float(score), float(bias), float(var)
