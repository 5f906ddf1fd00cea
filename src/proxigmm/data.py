"""Dataset container and CSV loading.

A :class:`Dataset` holds one observation block per variable role: outcome
``y``, binary treatment ``a``, outcome proxies ``w``, treatment proxies
``z``, and measured covariates ``x``. Arrays are validated once at
construction and frozen, so estimators downstream never re-check them.
Because a dataset never changes, it also keeps what is computed on it: the
bridge fits and features of ``gmm._fit_each``, shared by every call that
passes the same dataset.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyData,
    MissingColumn,
    NonBinaryTreatment,
    NonFiniteValue,
    UnknownColumn,
)


@dataclass(frozen=True)
class VariableRoles:
    """Names assigning file columns to model roles.

    ``covariates`` may be empty; every other role needs at least one name,
    no role may list a name twice, and no name may appear under two roles.
    """

    outcome: str
    treatment: str
    proxies_z: tuple[str, ...]
    proxies_w: tuple[str, ...]
    covariates: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.outcome or not self.treatment:
            raise MissingColumn("outcome and treatment column names are required")
        if not self.proxies_z or not self.proxies_w:
            raise MissingColumn("at least one proxy column is required per side")
        for role in ("proxies_z", "proxies_w", "covariates"):
            listed = getattr(self, role)
            repeated = sorted({c for c in listed if listed.count(c) > 1})
            if repeated:
                raise UnknownColumn(f"{role} lists a column more than once: {repeated}")
        names = self.all_names()
        dup = {c for c in names if names.count(c) > 1}
        if dup:
            raise UnknownColumn(f"column assigned to more than one role: {sorted(dup)}")

    def all_names(self) -> list[str]:
        return [self.outcome, self.treatment, *self.proxies_z, *self.proxies_w, *self.covariates]


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """Validated observation arrays, one block per variable role.

    ``y`` and ``a`` have shape ``(n,)``; ``z``, ``w``, ``x`` have shape
    ``(n, d)`` where ``d`` may be zero only for ``x``. All values are finite
    and ``a`` is exactly 0/1. Arrays are read-only after construction.

    ``_derived`` holds the fits computed on this dataset
    (``gmm._fit_each``). It is not a field, so a dataset made from this one
    by ``dataclasses.replace`` starts without them.
    """

    y: np.ndarray
    a: np.ndarray
    z: np.ndarray
    w: np.ndarray
    x: np.ndarray
    y_name: str = "y"
    a_name: str = "a"
    z_names: tuple[str, ...] = ("z1",)
    w_names: tuple[str, ...] = ("w1",)
    x_names: tuple[str, ...] = ("x1",)

    def __post_init__(self) -> None:
        y = _freeze(np.asarray(self.y, dtype=float).reshape(-1))
        a = _freeze(np.asarray(self.a, dtype=float).reshape(-1))
        n = y.shape[0]
        if n == 0:
            raise EmptyData("dataset has no rows")
        blocks = {}
        for name, block, names in (
            ("z", self.z, self.z_names),
            ("w", self.w, self.w_names),
            ("x", self.x, self.x_names),
        ):
            arr = np.asarray(block, dtype=float)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)
            if arr.shape[0] != n and not (arr.size == 0 and name == "x"):
                raise DimensionMismatch(f"block {name!r} has {arr.shape[0]} rows, expected {n}")
            if arr.size == 0:
                arr = np.empty((n, 0))
            if len(names) != arr.shape[1]:
                raise MissingColumn(
                    f"block {name!r} has {arr.shape[1]} columns but "
                    f"{len(names)} names"
                )
            blocks[name] = _freeze(arr)
        if a.shape[0] != n:
            raise DimensionMismatch("treatment column length differs from outcome")
        for label, arr in (("y", y), ("a", a), *blocks.items()):
            if not np.all(np.isfinite(arr)):
                bad = np.argwhere(~np.isfinite(arr))[0]
                raise NonFiniteValue(f"non-finite value in {label!r} at row {bad[0]}")
        bad_a = np.nonzero((a != 0.0) & (a != 1.0))[0]
        if bad_a.size:
            raise NonBinaryTreatment(
                f"treatment {self.a_name!r} is not 0/1 at row {bad_a[0]}"
            )
        if blocks["z"].shape[1] == 0 or blocks["w"].shape[1] == 0:
            raise MissingColumn("z and w blocks each need at least one column")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "a", a)
        for name, arr in blocks.items():
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "z_names", tuple(self.z_names))
        object.__setattr__(self, "w_names", tuple(self.w_names))
        object.__setattr__(self, "x_names", tuple(self.x_names))
        object.__setattr__(self, "_derived", {})

    @property
    def n(self) -> int:
        return self.y.shape[0]


def _stack_arrays(arrays: list[np.ndarray]) -> np.ndarray:
    """``arrays``, which share their shapes, stacked along a new leading
    axis; one array is viewed as a stack of one rather than copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _stack(datasets: list[Dataset], name: str) -> np.ndarray:
    """The ``name`` arrays of ``datasets``, which share their shapes,
    stacked along a new leading axis (:func:`_stack_arrays`)."""
    return _stack_arrays([getattr(ds, name) for ds in datasets])


def load_csv(path: str, roles: VariableRoles) -> Dataset:
    """Read a CSV file and assemble a validated :class:`Dataset`.

    Raises :class:`MissingColumn` if a role name is absent from the header,
    :class:`UnknownColumn` if it appears there more than once,
    :class:`NonFiniteValue` (with row index and column name) for cells that
    do not parse to finite numbers, :class:`NonBinaryTreatment` for a
    treatment value other than 0/1, and :class:`EmptyData` for a file with
    no observation rows.
    """
    # utf-8-sig drops the byte-order mark that spreadsheets write first.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyData(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise EmptyData(f"{path}: no observation rows")
    missing = [c for c in roles.all_names() if c not in header]
    if missing:
        raise MissingColumn(f"{path}: missing columns {missing}")
    repeated = [c for c in roles.all_names() if header.count(c) > 1]
    if repeated:
        raise UnknownColumn(f"{path}: columns {repeated} appear more than once in the header")
    idx = {c: header.index(c) for c in roles.all_names()}

    def parse(colname: str) -> np.ndarray:
        j = idx[colname]
        out = np.empty(len(rows))
        for i, row in enumerate(rows):
            try:
                val = float(row[j])
            except (ValueError, IndexError):
                raise NonFiniteValue(
                    f"{path}: row {i}, column {colname!r}: "
                    f"value {row[j] if j < len(row) else '<missing>'!r} is not numeric"
                ) from None
            if not np.isfinite(val):
                raise NonFiniteValue(
                    f"{path}: row {i}, column {colname!r}: value is not finite"
                )
            out[i] = val
        return out

    y = parse(roles.outcome)
    a = parse(roles.treatment)
    bad = np.nonzero((a != 0.0) & (a != 1.0))[0]
    if bad.size:
        raise NonBinaryTreatment(
            f"{path}: row {bad[0]}, column {roles.treatment!r}: "
            f"treatment value {a[bad[0]]!r} is not 0/1"
        )
    z = np.column_stack([parse(c) for c in roles.proxies_z])
    w = np.column_stack([parse(c) for c in roles.proxies_w])
    if roles.covariates:
        x = np.column_stack([parse(c) for c in roles.covariates])
    else:
        x = np.empty((len(rows), 0))
    return Dataset(
        y=y, a=a, z=z, w=w, x=x,
        y_name=roles.outcome, a_name=roles.treatment,
        z_names=tuple(roles.proxies_z), w_names=tuple(roles.proxies_w),
        x_names=tuple(roles.covariates),
    )

