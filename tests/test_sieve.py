"""Instrument-basis construction, ordering, and orthonormalization."""

from __future__ import annotations

import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import eager_terms, make_gaussian_dataset, row_major_basis
from proxigmm import (
    BasisMatrix,
    Dataset,
    OutcomeBridge,
    ScenarioConfig,
    SieveSpec,
    build_basis,
    generate,
    orthonormalize,
    select_k,
    sieve,
)
from proxigmm.errors import DegenerateColumn, KTooLarge, RankDeficient

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

    def test_exactly_identified_prefix_spans_plain_instruments(self, scenario1_ds):
        ds = scenario1_ds
        b = build_basis(ds, SieveSpec(), 4)
        inst = np.column_stack([np.ones(ds.n), ds.z, ds.a, ds.x])
        # each plain instrument column must be an exact linear combination
        # of the first four basis columns
        coef, *_ = np.linalg.lstsq(b.u, inst, rcond=None)
        np.testing.assert_allclose(b.u @ coef, inst, atol=1e-8)

    def test_prefixes_are_nested_bit_for_bit(self, scenario2_ds):
        # The moment-count fit orthonormalizes the leading K* columns of the
        # scan's basis in place of building the K*-column basis.
        full = build_basis(scenario2_ds, SieveSpec(), 30)
        for k in range(1, 31):
            sub, lead = build_basis(scenario2_ds, SieveSpec(), k), full.leading(k)
            np.testing.assert_array_equal(lead.u, sub.u)
            assert lead.term_names == sub.term_names

    def test_orthonormalized_prefixes_stay_nested(self, scenario2_ds):
        full = orthonormalize(build_basis(scenario2_ds, SieveSpec(), 12))
        sub = orthonormalize(build_basis(scenario2_ds, SieveSpec(), 4))
        np.testing.assert_allclose(full.u[:, :4], sub.u, atol=1e-10)

    def test_k_beyond_family_rejected(self, scenario1_ds):
        assert build_basis(scenario1_ds, SieveSpec(), 32).k == 32
        with pytest.raises(KTooLarge, match="k=33 exceeds the 32 available terms"):
            build_basis(scenario1_ds, SieveSpec(), 33)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_family_size_counts_the_enumerated_terms(self, d):
        names = tuple(f"v{j}" for j in range(d))
        terms = eager_terms(names)
        assert sieve.family_size(d) == len(terms) == len(set(terms))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_lazy_order_is_every_prefix_of_the_eager_enumeration(self, d):
        names = tuple(f"v{j}" for j in range(d))
        eager = eager_terms(names)
        lazy = sieve._term_order(names)
        for k, term in enumerate(eager, start=1):
            assert next(lazy) == term, f"term {k}"
        assert next(lazy, None) is None
        # _terms stops at k, also inside a total level's interactions.
        singles_end = 2 + 3 * d
        for k in {1, 2, singles_end, singles_end + 1, singles_end + 2,
                  len(eager) // 3, len(eager) // 2, len(eager) - 1, len(eager)}:
            assert sieve._terms(names, k) == eager[:k]

    def test_many_covariates_build_without_listing_the_family(self):
        # The sieve over 52 variables has 2·4^52 terms; the first k are
        # listed one total level at a time and the rest never.
        rng = np.random.default_rng(5)
        n, d_x = 300, 50
        ds = Dataset(
            y=rng.normal(size=n), a=(rng.random(n) < 0.5).astype(float),
            z=rng.normal(size=(n, 2)), w=rng.normal(size=(n, 2)), x=rng.normal(size=(n, d_x)),
            z_names=("z1", "z2"), w_names=("w1", "w2"),
            x_names=tuple(f"x{j + 1}" for j in range(d_x)),
        )
        k = OutcomeBridge.linear(2, d_x).n_params + 12
        b = build_basis(ds, SieveSpec(), k)
        variables = [*ds.z_names, *ds.x_names]
        squares = k - 2 - len(variables)
        assert b.u.shape == (n, k) and b.u.flags.f_contiguous
        assert b.term_names == ("1", "a", *variables, *(f"{v}^2" for v in variables[:squares]))
        x7 = ds.x[:, 6]
        np.testing.assert_array_equal(
            b.u[:, b.term_names.index("x7")], (x7 - np.mean(x7)) / np.std(x7)
        )

    def test_k_below_one_rejected(self, scenario1_ds):
        with pytest.raises(KTooLarge):
            build_basis(scenario1_ds, SieveSpec(), 0)


class TestColumnMajorLayout:
    @pytest.mark.parametrize("fixture", ["scenario1_ds", "scenario2_ds"])
    @pytest.mark.parametrize("k", [1, 4, 12, 32])
    def test_matches_the_row_major_reference_bit_for_bit(self, fixture, k, request):
        ds = request.getfixturevalue(fixture)
        b, ref = build_basis(ds, SieveSpec(), k), row_major_basis(ds, k)
        assert b.u.flags.f_contiguous
        np.testing.assert_array_equal(b.u, ref.u)
        assert b.term_names == ref.term_names

    @pytest.mark.parametrize("d_z, d_x", [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3)])
    def test_random_data_matches_the_row_major_reference(self, d_z, d_x):
        ds = make_gaussian_dataset(n=60, seed=d_z + 10 * d_x, d_z=d_z, d_x=d_x)
        full = build_basis(ds, SieveSpec(), sieve.family_size(d_z + d_x))
        ref = row_major_basis(ds, full.k)
        np.testing.assert_array_equal(full.u, ref.u)
        assert full.term_names == ref.term_names
        for k in range(1, full.k + 1, 7):
            np.testing.assert_array_equal(build_basis(ds, SieveSpec(), k).u, ref.u[:, :k])


class TestPowerFamily:
    def test_columns_are_powers_of_the_standardized_proxy(self, scenario2_ds):
        b = build_basis(scenario2_ds, SieveSpec(), 12)
        z = scenario2_ds.z[:, 0]
        std = (z - z.mean()) / z.std()
        for level, name in enumerate(("z1", "z1^2", "z1^3"), start=1):
            np.testing.assert_allclose(b.u[:, b.term_names.index(name)], std**level, rtol=1e-12)


class TestOrthonormalize:
    def test_columns_have_identity_second_moment(self, scenario2_ds):
        b = orthonormalize(build_basis(scenario2_ds, SieveSpec(), 12))
        gram = b.u.T @ b.u / b.n
        np.testing.assert_allclose(gram, np.eye(12), atol=1e-10)
        assert b.orthonormal

    def test_random_matrix_orthonormalizes(self, rng):
        u = rng.normal(size=(100, 5))
        b = BasisMatrix(u=u, term_names=tuple("abcde"))
        out = orthonormalize(b)
        np.testing.assert_allclose(out.u.T @ out.u / 100, np.eye(5), atol=1e-10)

    def test_idempotent_to_float_precision(self, scenario1_ds):
        once = orthonormalize(build_basis(scenario1_ds, SieveSpec(), 8))
        twice = orthonormalize(once)
        np.testing.assert_allclose(twice.u, once.u, atol=1e-8)

    def test_duplicate_column_rejected(self, rng):
        col = rng.normal(size=(50, 1))
        u = np.column_stack([np.ones(50), col, col])
        b = BasisMatrix(u=u, term_names=("1", "c", "c2"))
        with pytest.raises(RankDeficient, match="'c2'"):
            orthonormalize(b)

    def test_rank_deficiency_reports_longest_accepted_prefix(self, rng):
        c, d = rng.normal(size=(2, 50))
        u = np.column_stack([np.ones(50), c, d, c - 2 * d, rng.normal(size=50)])
        b = BasisMatrix(u=u, term_names=tuple("1cdse"))
        with pytest.raises(RankDeficient) as info:
            orthonormalize(b)
        assert info.value.full_rank_prefix == 3
        # The reported prefix itself passes the test.
        prefix = BasisMatrix(u=u[:, :3], term_names=tuple("1cd"))
        assert orthonormalize(prefix).k == 3

    def test_rank_deficiency_names_the_first_failing_column(self, rng):
        # The near-copy of c fails first; the exact copy of d has the smaller
        # pivot but comes after the accepted prefix ends.
        c, d, noise = rng.normal(size=(3, 200))
        u = np.column_stack([np.ones(200), c, c + 1e-12 * noise, d, d])
        b = BasisMatrix(u=u, term_names=("1", "c", "c_near", "d", "d_copy"))
        with pytest.raises(RankDeficient, match="'c_near'") as info:
            orthonormalize(b)
        assert info.value.full_rank_prefix == 2
        pivot = float(str(info.value).rsplit("relative pivot ", 1)[1].rstrip(")"))
        assert 0 < pivot < 1e-10

    def test_columns_beyond_the_row_count_are_dependent(self):
        # Twelve columns on eight rows: R has only eight diagonal entries,
        # so columns 9-12, dependent by construction, have no pivot of their
        # own. The scan falls back to the prefix and scores every K above 8
        # as infinite.
        ds = generate(ScenarioConfig("II", 8), 1)
        b = build_basis(ds, SieveSpec(), 12)
        with pytest.raises(RankDeficient, match=re.escape(f"'{b.term_names[8]}'")) as info:
            orthonormalize(b)
        assert info.value.full_rank_prefix == 8 and "relative pivot 0.00e+00" in str(info.value)
        assert orthonormalize(b.leading(8)).k == 8
        scan = select_k(ds, OutcomeBridge.linear(1, 1), SieveSpec(), 12)
        assert np.all(np.isinf(scan.scores[scan.k_grid.index(9):])) and scan.k_star <= 8

    @pytest.mark.parametrize("clone", [copy.copy, lambda e: pickle.loads(pickle.dumps(e))],
                             ids=["copy", "pickle"])
    def test_rank_deficiency_survives_copy_and_pickle(self, rng, clone):
        c = rng.normal(size=50)
        b = BasisMatrix(u=np.column_stack([np.ones(50), c, c]), term_names=("1", "c", "c2"))
        with pytest.raises(RankDeficient) as info:
            orthonormalize(b)
        err = info.value
        again = clone(err)
        assert type(again) is RankDeficient and again is not err
        assert (again.args, str(again), again.full_rank_prefix) == (
            err.args, str(err), err.full_rank_prefix
        )
        assert err.full_rank_prefix == 2

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_bases_orthonormalize(self, k, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(60, k)) @ np.diag(1.0 + rng.random(k) * 9.0)
        b = BasisMatrix(u=u, term_names=tuple(map(str, range(k))))
        out = orthonormalize(b)
        assert np.max(np.abs(out.u.T @ out.u / 60 - np.eye(k))) < 1e-8


class TestDegenerateInputs:
    @pytest.mark.parametrize("level", [0.0, 1e-13, 0.1, 1.0, 1e13])
    def test_constant_proxy_column_rejected(self, level):
        # Constant in any units: its deviations from its mean are zero or
        # rounding of the mean, far below 1e-12 of the mean's magnitude.
        ds = make_gaussian_dataset(n=40, seed=3)
        from dataclasses import replace

        bad = replace(ds, z=np.full_like(ds.z, level))
        with pytest.raises(DegenerateColumn, match="'z1'"):
            build_basis(bad, SieveSpec(), 4)

    @pytest.mark.parametrize("scale", [1e-13, 1e13])
    def test_a_varying_column_in_any_units_builds_the_same_basis(self, scale):
        # Standardizing removes the units: the basis matches to rounding.
        ds = make_gaussian_dataset(n=40, seed=3)
        from dataclasses import replace

        base = build_basis(ds, SieveSpec(), 8)
        scaled = build_basis(replace(ds, z=scale * ds.z, x=scale * ds.x), SieveSpec(), 8)
        np.testing.assert_allclose(scaled.u, base.u, rtol=1e-12, atol=1e-12)


def test_the_r_only_check_gives_the_errors_of_the_full_qr():
    # The treatment-bridge solve's design check forms R alone. It finds, in
    # each dataset of a stack, the error build_basis and orthonormalize
    # give it, and its R is the full QR's bit for bit.
    from dataclasses import replace

    ds = make_gaussian_dataset(n=40, seed=3)
    stack = [
        ds,
        replace(ds, z=np.full_like(ds.z, 2.0)),
        replace(ds, z=2.0 * ds.x + 1.0),
        replace(ds, z=np.tile([-1.0, 0.0, 2.0, 1.0], 10).reshape(-1, 1)),
    ]
    for k in (4, 8):
        got = sieve._basis_errors(stack, k)
        _, want = sieve._orthonormal_bases(stack, k)
        assert [type(e) for e in got] == [type(e) for e in want]
        assert [str(e) for e in got] == [str(e) for e in want]
        for one, error in zip(stack, got):
            if error is None:
                orthonormalize(build_basis(one, SieveSpec(), k))
            else:
                with pytest.raises(type(error), match=re.escape(str(error))):
                    orthonormalize(build_basis(one, SieveSpec(), k))
    assert [type(e).__name__ for e in sieve._basis_errors(stack, 8)] == [
        "NoneType", "DegenerateColumn", "RankDeficient", "NoneType",
    ]
    u = sieve._bases(stack, 8)[0] / np.sqrt(40)
    np.testing.assert_array_equal(np.linalg.qr(u, mode="r"), np.linalg.qr(u)[1])
