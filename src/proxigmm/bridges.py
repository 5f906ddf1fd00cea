"""Outcome and treatment bridge-function families.

The outcome bridge ``h(w, a, x)`` is the confounding adjustment whose sieve
moments the GMM machinery fits; the treatment bridge ``q(z, a, x)`` is an
inverse-propensity analogue built from the treatment-side proxy, which the
reweighting baselines solve for (``baselines._solve_treatment_bridge``).
Both default to the linear/logistic families under which closed-form true
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


def _linear_features(w, a, x) -> np.ndarray:
    """The features ``(1, w, a, x)`` of :meth:`OutcomeBridge.linear`."""
    w2, x2 = _as_block(w), _as_block(x, n=np.size(a))
    a1 = np.asarray(a, dtype=float).reshape(-1)
    d_w = w2.shape[1]
    feats = np.empty((a1.shape[0], 2 + d_w + x2.shape[1]))
    feats[:, 0] = 1.0
    feats[:, 1 : 1 + d_w] = w2
    feats[:, 1 + d_w] = a1
    feats[:, 2 + d_w :] = x2
    return feats


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

    @staticmethod
    def linear(d_w: int = 1, d_x: int = 1) -> "OutcomeBridge":
        """Bridge linear in an intercept, the W block, treatment, and X."""
        return OutcomeBridge(n_params=2 + d_w + d_x, grad_fn=_linear_features)

    def _checked(self, params) -> np.ndarray:
        """``params`` as a float vector; raises :class:`DimensionMismatch`
        unless it holds ``n_params`` values."""
        params = np.asarray(params, dtype=float).reshape(-1)
        if params.shape[0] != self.n_params:
            raise DimensionMismatch(
                f"expected {self.n_params} bridge parameters, got {params.shape[0]}"
            )
        return params

    def grad(self, w, a, x) -> np.ndarray:
        """Parameter gradient of h, shape (n, n_params); the same at any parameters."""
        return np.asarray(self.grad_fn(w, a, x), dtype=float)


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
