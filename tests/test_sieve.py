"""Instrument-basis construction, ordering, and orthonormalization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import make_gaussian_dataset
from proxigmm import BasisMatrix, SieveSpec, build_basis, evaluate_basis, fit_sieve, orthonormalize
from proxigmm.errors import DegenerateColumn, DimensionMismatch, KTooLarge, RankDeficient
from proxigmm.sieve import spec_from_json, spec_to_json, total_terms

FIRST_TWELVE = [
    "1",
    "a",
    "z1",
    "x1",
    "z1^2",
    "x1^2",
    "z1^3",
    "x1^3",
    "a*x1",
    "a*z1",
    "z1*x1",
    "a*x1^2",
]


class TestTermOrdering:
    def test_first_twelve_power_terms(self, scenario2_ds):
        b = build_basis(scenario2_ds, SieveSpec(), 12)
        assert list(b.term_names) == FIRST_TWELVE

    def test_first_degree_only_family(self, scenario1_ds):
        b = build_basis(scenario1_ds, SieveSpec(z_degrees=1, x_degrees=0), 3)
        assert list(b.term_names) == ["1", "a", "z1"]

    def test_exactly_identified_prefix_spans_plain_instruments(self, scenario1_ds):
        ds = scenario1_ds
        b = build_basis(ds, SieveSpec(), 4)
        inst = np.column_stack([np.ones(ds.n), ds.z, ds.a, ds.x])
        # each plain instrument column must be an exact linear combination
        # of the first four basis columns
        coef, *_ = np.linalg.lstsq(b.u, inst, rcond=None)
        np.testing.assert_allclose(b.u @ coef, inst, atol=1e-8)

    def test_prefixes_are_nested_bit_for_bit(self, scenario2_ds):
        full = build_basis(scenario2_ds, SieveSpec(), 12)
        for k in (1, 4, 9):
            sub = build_basis(scenario2_ds, SieveSpec(), k)
            np.testing.assert_array_equal(full.u[:, :k], sub.u)

    def test_orthonormalized_prefixes_stay_nested(self, scenario2_ds):
        full = orthonormalize(build_basis(scenario2_ds, SieveSpec(), 12))
        sub = orthonormalize(build_basis(scenario2_ds, SieveSpec(), 4))
        np.testing.assert_allclose(full.u[:, :4], sub.u, atol=1e-10)

    def test_k_beyond_family_rejected(self, scenario1_ds):
        with pytest.raises(KTooLarge):
            build_basis(scenario1_ds, SieveSpec(z_degrees=1, x_degrees=0), 99)

    def test_k_below_one_rejected(self, scenario1_ds):
        with pytest.raises(KTooLarge):
            build_basis(scenario1_ds, SieveSpec(), 0)

    def test_total_terms_counts_the_family(self, scenario1_ds):
        spec = fit_sieve(SieveSpec(z_degrees=1, x_degrees=0), scenario1_ds)
        # constant, treatment, z1, and the a*z1 interaction
        assert total_terms(spec) == 4

    def test_total_terms_of_unfitted_spec_needs_data(self, scenario1_ds):
        with pytest.raises(DimensionMismatch, match="unfitted"):
            total_terms(SieveSpec())
        assert total_terms(SieveSpec(z_degrees=1, x_degrees=0), scenario1_ds) == 4


class TestOrthonormalize:
    def test_columns_have_identity_second_moment(self, scenario2_ds):
        b = orthonormalize(build_basis(scenario2_ds, SieveSpec(), 12))
        gram = b.u.T @ b.u / b.n
        np.testing.assert_allclose(gram, np.eye(12), atol=1e-10)
        assert b.orthonormal

    def test_random_matrix_orthonormalizes(self, rng):
        u = rng.normal(size=(100, 5))
        b = BasisMatrix(u=u, whitening=np.eye(5), term_names=tuple("abcde"), spec=SieveSpec())
        out = orthonormalize(b)
        np.testing.assert_allclose(out.u.T @ out.u / 100, np.eye(5), atol=1e-10)

    def test_idempotent_to_float_precision(self, scenario1_ds):
        once = orthonormalize(build_basis(scenario1_ds, SieveSpec(), 8))
        twice = orthonormalize(once)
        np.testing.assert_allclose(twice.u, once.u, atol=1e-8)

    def test_whitening_maps_raw_to_orthonormal(self, scenario1_ds):
        raw = build_basis(scenario1_ds, SieveSpec(), 8)
        onb = orthonormalize(raw)
        np.testing.assert_allclose(raw.u @ onb.whitening, onb.u, atol=1e-10)

    def test_whitening_is_upper_triangular(self, scenario1_ds):
        onb = orthonormalize(build_basis(scenario1_ds, SieveSpec(), 8))
        np.testing.assert_allclose(onb.whitening, np.triu(onb.whitening), atol=0)

    def test_duplicate_column_rejected(self, rng):
        col = rng.normal(size=(50, 1))
        u = np.column_stack([np.ones(50), col, col])
        b = BasisMatrix(u=u, whitening=np.eye(3), term_names=("1", "c", "c2"), spec=SieveSpec())
        with pytest.raises(RankDeficient, match="'c2'"):
            orthonormalize(b)

    def test_rank_deficiency_reports_longest_accepted_prefix(self, rng):
        c, d = rng.normal(size=(2, 50))
        u = np.column_stack([np.ones(50), c, d, c - 2 * d, rng.normal(size=50)])
        b = BasisMatrix(u=u, whitening=np.eye(5), term_names=tuple("1cdse"), spec=SieveSpec())
        with pytest.raises(RankDeficient) as info:
            orthonormalize(b)
        assert info.value.full_rank_prefix == 3
        # The reported prefix itself passes the test.
        prefix = BasisMatrix(u=u[:, :3], whitening=np.eye(3), term_names=tuple("1cd"),
                             spec=SieveSpec())
        assert orthonormalize(prefix).k == 3

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_bases_orthonormalize(self, k, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(60, k)) @ np.diag(1.0 + rng.random(k) * 9.0)
        b = BasisMatrix(u=u, whitening=np.eye(k), term_names=tuple(map(str, range(k))), spec=SieveSpec())
        out = orthonormalize(b)
        assert np.max(np.abs(out.u.T @ out.u / 60 - np.eye(k))) < 1e-8


class TestDegenerateInputs:
    def test_constant_proxy_column_rejected(self):
        ds = make_gaussian_dataset(n=40, seed=3)
        from dataclasses import replace

        bad = replace(ds, z=np.ones_like(ds.z))
        with pytest.raises(DegenerateColumn, match="'z1'"):
            build_basis(bad, SieveSpec(), 4)

    def test_constant_column_rejected_for_splines(self):
        ds = make_gaussian_dataset(n=40, seed=3)
        from dataclasses import replace

        bad = replace(ds, x=np.zeros_like(ds.x))
        with pytest.raises(DegenerateColumn):
            build_basis(bad, SieveSpec(family="bspline"), 4)


class TestEvaluateBasis:
    def test_reproduces_fitting_rows_exactly(self, scenario2_ds):
        ds = scenario2_ds
        raw = build_basis(ds, SieveSpec(), 12)
        rows = evaluate_basis(raw.spec, 12, ds.z, ds.a, ds.x)
        np.testing.assert_array_equal(rows, raw.u)

    def test_single_point_shape_and_constant_term(self, scenario1_ds):
        spec = build_basis(scenario1_ds, SieveSpec(), 6).spec
        row = evaluate_basis(spec, 6, z=[0.2], a=1.0, x=[0.1])
        assert row.shape == (6,)
        assert row[0] == 1.0
        assert row[1] == 1.0  # treatment passes through unstandardized

    def test_degree_one_term_vanishes_at_sample_mean(self, scenario1_ds):
        ds = scenario1_ds
        spec = build_basis(ds, SieveSpec(), 6).spec
        row = evaluate_basis(spec, 6, z=[float(ds.z.mean())], a=0.0, x=[0.0])
        assert row[2] == pytest.approx(0.0, abs=1e-12)

    def test_unfitted_spec_rejected(self):
        with pytest.raises(DimensionMismatch, match="fitted"):
            evaluate_basis(SieveSpec(), 4, z=[0.0], a=0.0, x=[0.0])

    def test_k_beyond_terms_rejected(self, scenario1_ds):
        spec = build_basis(scenario1_ds, SieveSpec(z_degrees=1, x_degrees=0), 3).spec
        with pytest.raises(KTooLarge):
            evaluate_basis(spec, 5, z=[0.0], a=0.0, x=[0.0])


class TestSplineFamily:
    def test_bspline_columns_built_and_named(self, scenario2_ds):
        b = build_basis(scenario2_ds, SieveSpec(family="bspline", interior_knots=0), 8)
        assert b.u.shape == (scenario2_ds.n, 8)
        assert b.term_names[0] == "1"
        assert any(":b" in t for t in b.term_names)

    def test_bspline_evaluation_matches_fitting_rows(self, scenario2_ds):
        ds = scenario2_ds
        raw = build_basis(ds, SieveSpec(family="bspline", interior_knots=0), 8)
        rows = evaluate_basis(raw.spec, 8, ds.z, ds.a, ds.x)
        np.testing.assert_allclose(rows, raw.u, atol=1e-12)


class TestSpecSerialization:
    def test_round_trip_preserves_fitted_state(self, scenario2_ds):
        spec = build_basis(scenario2_ds, SieveSpec(), 10).spec
        again = spec_from_json(spec_to_json(spec))
        assert again == spec
        row_a = evaluate_basis(spec, 10, z=[0.3], a=1.0, x=[-0.2])
        row_b = evaluate_basis(again, 10, z=[0.3], a=1.0, x=[-0.2])
        np.testing.assert_array_equal(row_a, row_b)

    def test_round_trip_for_spline_spec(self, scenario2_ds):
        spec = build_basis(scenario2_ds, SieveSpec(family="bspline", interior_knots=0), 6).spec
        again = spec_from_json(spec_to_json(spec))
        row_a = evaluate_basis(spec, 6, z=[0.1], a=0.0, x=[0.4])
        row_b = evaluate_basis(again, 6, z=[0.1], a=0.0, x=[0.4])
        np.testing.assert_array_equal(row_a, row_b)

    def test_unknown_family_rejected(self):
        with pytest.raises(DimensionMismatch):
            SieveSpec(family="fourier")
