"""The numpy normal quantile and logistic function behind ``generate``, and
the normal critical value, against ``scipy.special``.

The package computes them without scipy so that a fresh interpreter needs
only numpy. The quantile is Cephes ``ndtri`` step for step: its central
region is bit-identical to scipy's. In the tails, and in the logistic
function, numpy's ``log`` and ``exp`` differ from the C library's in the
last bit on some inputs, which moves a result by a few ulp. The ulp bounds
below are the largest moves measured on these inputs with numpy 2.4 on an
AVX-512 x86-64 CPU; numpy picks its ``log``/``exp`` kernels by CPU, so they
are a measurement, not a guarantee.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import expit, ndtri

from proxigmm.gmm import WALD_CRITICAL_5PCT
from proxigmm.simulation import _NDTRI_TAIL, _expit, _ndtri

NDTRI_TAIL_ULP = 4
EXPIT_ULP = 4


def _ulps(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    return np.abs(got - want) / np.spacing(np.abs(want))


@pytest.fixture(scope="module")
def uniforms():
    # 2^20 draws on the grid generate() uses: k / 2^53 for k in [1, 2^53).
    return np.random.default_rng(14).integers(1, 2**53, size=2**20) / 2**53


def _central(p):
    return (p > _NDTRI_TAIL) & (p <= 1.0 - _NDTRI_TAIL)


def test_ndtri_is_bit_equal_in_the_central_region(uniforms):
    central = _central(uniforms)
    assert 0.7 < central.mean() < 0.75
    assert np.array_equal(_ndtri(uniforms)[central], ndtri(uniforms[central]))


def test_ndtri_tails_are_within_the_measured_ulp_bound(uniforms):
    got, want = _ndtri(uniforms), ndtri(uniforms)
    tail = ~_central(uniforms)
    assert _ulps(got[tail], want[tail]).max() <= NDTRI_TAIL_ULP
    # The far tails, below exp(-32), where Cephes switches polynomials.
    far = np.logspace(-300, -1, 3000)
    for p in (far, 1.0 - far[far > 1e-16]):
        assert _ulps(_ndtri(p), ndtri(p)).max() <= NDTRI_TAIL_ULP


def test_ndtri_special_values_and_region_boundaries():
    special = np.array([0.0, 1.0, -0.5, 1.5, -np.inf, np.inf, np.nan, 0.5])
    np.testing.assert_array_equal(
        _ndtri(special), [-np.inf, np.inf, np.nan, np.nan, np.nan, np.nan, np.nan, 0.0]
    )
    assert np.array_equal(ndtri(special), _ndtri(special), equal_nan=True)
    lower, upper = _NDTRI_TAIL, 1.0 - _NDTRI_TAIL
    assert (lower, upper) == (0.1353352832366127, 0.8646647167633873)
    # Each boundary belongs to the tail; its inner neighbour is central.
    edges = np.array([lower, upper])
    assert _ulps(_ndtri(edges), ndtri(edges)).max() <= NDTRI_TAIL_ULP
    inner = np.array([np.nextafter(lower, 1.0), np.nextafter(upper, 0.0)])
    assert np.array_equal(_ndtri(inner), ndtri(inner))


def test_expit_is_within_the_measured_ulp_bound():
    t = np.random.default_rng(15).uniform(-40.0, 40.0, size=2**20)
    assert _ulps(_expit(t), expit(t)).max() <= EXPIT_ULP
    np.testing.assert_array_equal(_expit(np.array([-800.0, 0.0, 800.0])), [0.0, 0.5, 1.0])


def test_wald_critical_value_is_the_normal_quantile_bit_for_bit():
    assert WALD_CRITICAL_5PCT == float(ndtri(0.975))
