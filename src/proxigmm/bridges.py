"""Outcome and treatment bridge-function families.

The outcome bridge ``h(w, a, x)`` is the confounding adjustment whose sieve
moments the GMM machinery fits; the treatment bridge ``q(z, a, x)`` is an
inverse-propensity analogue built from the treatment-side proxy. Both
default to the linear/logistic families under which closed-form true
parameters exist for the linear-Gaussian generative model, and those closed
forms are exposed through :func:`true_bridge_params`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfounding, DimensionMismatch


def _as_block(arr, n: int | None = None) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    if out.ndim == 1:
        out = out.reshape(-1, 1)
    if out.size == 0:
        out = out.reshape(n if n is not None else 0, 0)
    return out


@dataclass(frozen=True)
class OutcomeBridge:
    """Outcome-side bridge function ``h(w, a, x; params) = grad(w, a, x) @ params``.

    The family is linear in its parameters: ``grad_fn(w, a, x)`` returns
    the (n, n_params) feature matrix, which is also the parameter gradient
    of h, so every GMM fit is one weighted least-squares solve. The
    default features are ``(1, w, a, x)``, with the treatment coefficient
    carrying the causal contrast.
    """

    n_params: int
    grad_fn: Callable[..., np.ndarray]
    params: np.ndarray | None = None
    feature_names: tuple[str, ...] = ()

    @staticmethod
    def linear(d_w: int = 1, d_x: int = 1, params=None) -> "OutcomeBridge":
        """Bridge linear in an intercept, the W block, treatment, and X."""
        names = (
            "const",
            *[f"w{j + 1}" for j in range(d_w)],
            "a",
            *[f"x{j + 1}" for j in range(d_x)],
        )

        def feats(w, a, x):
            w2, x2 = _as_block(w), _as_block(x, n=np.size(a))
            a1 = np.asarray(a, dtype=float).reshape(-1)
            return np.column_stack([np.ones(a1.shape[0]), w2, a1, x2])

        return OutcomeBridge(
            n_params=2 + d_w + d_x,
            grad_fn=feats,
            params=None if params is None else np.asarray(params, dtype=float),
            feature_names=names,
        )

    def _resolve(self, params) -> np.ndarray:
        if params is None:
            params = self.params
        if params is None:
            raise DimensionMismatch("bridge has no parameters set")
        params = np.asarray(params, dtype=float).reshape(-1)
        if params.shape[0] != self.n_params:
            raise DimensionMismatch(
                f"expected {self.n_params} bridge parameters, got {params.shape[0]}"
            )
        return params

    def grad(self, w, a, x) -> np.ndarray:
        """Parameter gradient of h, shape (n, n_params); the same at any parameters."""
        return np.asarray(self.grad_fn(w, a, x), dtype=float)

    def h(self, w, a, x, params=None) -> np.ndarray:
        """Bridge values, shape (n,)."""
        params = self._resolve(params)
        return self.grad(w, a, x) @ params

    def contrast(self, w, x, params=None) -> np.ndarray:
        """Treatment contrast h(w, 1, x) - h(w, 0, x), shape (n,)."""
        ones = np.ones(_as_block(w).shape[0])
        return self.h(w, ones, x, params) - self.h(w, 0.0 * ones, x, params)

    def contrast_grad(self, w, x) -> np.ndarray:
        """Parameter gradient of the treatment contrast, shape (n, n_params);
        the same at any parameters."""
        ones = np.ones(_as_block(w).shape[0])
        return self.grad(w, ones, x) - self.grad(w, 0.0 * ones, x)


@dataclass(frozen=True)
class TreatmentBridge:
    """Treatment-side bridge ``q(z, a, x; params) = 1 + exp(s(a) * index)``.

    The linear index is ``params @ (1, z, a, x)`` and ``s(a)`` is +1 for
    untreated, -1 for treated, so q is always above 1 and plays the role of
    an inverse propensity reweighting for whichever arm the unit is in.
    """

    params: np.ndarray | None = None

    def q(self, z, a, x, params=None) -> np.ndarray:
        """Bridge values, shape (n,); always > 1."""
        z2 = _as_block(z)
        a1 = np.asarray(a, dtype=float).reshape(-1)
        x2 = _as_block(x, n=a1.shape[0])
        b = np.column_stack([np.ones(a1.shape[0]), z2, a1, x2])
        params = np.asarray(self.params if params is None else params, dtype=float).reshape(-1)
        if params.shape[0] != b.shape[1]:
            raise DimensionMismatch(
                f"expected {b.shape[1]} treatment-bridge parameters, got {params.shape[0]}"
            )
        sign = np.where(a1 > 0.5, -1.0, 1.0)
        return 1.0 + np.exp(sign * (b @ params))


@dataclass(frozen=True)
class DgpCoefficients:
    """Coefficients of the linear-Gaussian generative model.

    Each tuple lists the linear coefficients of one structural equation:
    ``treatment_logit`` over (1, x, u); ``z_proxy`` over (1, a, x, u);
    ``w_proxy`` over (1, x, u); ``outcome`` over (1, a, w, x, u). The
    defaults make the true average treatment effect 0.5.
    """

    treatment_logit: tuple[float, float, float] = (-0.1, 0.5, 0.5)
    z_proxy: tuple[float, float, float, float] = (0.5, 1.0, 0.5, 1.0)
    w_proxy: tuple[float, float, float] = (1.0, -1.0, 1.0)
    outcome: tuple[float, float, float, float, float] = (1.0, 0.5, 0.5, 1.0, 1.0)

    @property
    def true_ate(self) -> float:
        return self.outcome[1]


def true_bridge_params(coef: DgpCoefficients = DgpCoefficients()) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form bridge parameters implied by the generative model.

    Returns ``(gamma, theta)``: the outcome-bridge coefficients over
    ``(1, w, a, x)`` and the treatment-bridge coefficients over
    ``(1, z, a, x)``. Raises :class:`DegenerateConfounding` when either
    proxy fails to load on the unmeasured confounder, in which case the
    corresponding closed form divides by zero.
    """
    a0, ax, au = coef.treatment_logit
    z0, za, zx, zu = coef.z_proxy
    w0, wx, wu = coef.w_proxy
    y0, ya, yw, yx, yu = coef.outcome
    if abs(wu) < 1e-12:
        raise DegenerateConfounding("outcome proxy does not load on the confounder")
    if abs(zu) < 1e-12:
        raise DegenerateConfounding("treatment proxy does not load on the confounder")
    gamma = np.array(
        [
            y0 - w0 * yu / wu,
            yw + yu / wu,
            ya,
            yx - wx * yu / wu,
        ]
    )
    r = au / zu
    theta = np.array(
        [
            a0 - 0.5 * r**2 - z0 * r,
            r,
            r**2 - za * r,
            ax - zx * r,
        ]
    )
    return gamma, theta
