"""Dataset container, CSV IO, and the outcome-proxy distortions of
misspecified cells."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import write_csv
from proxigmm import Dataset, ScenarioConfig, VariableRoles, generate, load_csv
from proxigmm.errors import (
    DimensionMismatch,
    EmptyData,
    MissingColumn,
    NonBinaryTreatment,
    NonFiniteValue,
    UnknownColumn,
)
from proxigmm.simulation import _DISTORTIONS, MISSPEC_LEVELS


def _tiny_dataset() -> Dataset:
    return Dataset(
        y=[1.0, 2.0, 3.0],
        a=[0.0, 1.0, 0.0],
        z=[[0.1], [0.2], [0.3]],
        w=[[1.5], [-4.0], [0.0]],
        x=[[2.0], [0.5], [1.0]],
    )


class TestVariableRoles:
    def test_valid_roles_store_all_names(self):
        roles = VariableRoles("y", "a", ("z1",), ("w1",), ("x1", "x2"))
        assert roles.all_names() == ["y", "a", "z1", "w1", "x1", "x2"]

    def test_covariates_may_be_empty(self):
        roles = VariableRoles("y", "a", ("z1",), ("w1",))
        assert roles.covariates == ()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"outcome": ""},
            {"treatment": ""},
            {"proxies_z": ()},
            {"proxies_w": ()},
        ],
    )
    def test_missing_required_role_rejected(self, kwargs):
        base = dict(outcome="y", treatment="a", proxies_z=("z1",), proxies_w=("w1",))
        base.update(kwargs)
        with pytest.raises(MissingColumn):
            VariableRoles(**base)

    def test_name_shared_between_roles_rejected(self):
        with pytest.raises(UnknownColumn, match="more than one role"):
            VariableRoles("y", "a", ("dup",), ("dup",))

    @pytest.mark.parametrize("role", ["proxies_z", "proxies_w", "covariates"])
    def test_name_repeated_within_a_role_is_named_with_its_role(self, role):
        base = dict(outcome="y", treatment="a", proxies_z=("z1",), proxies_w=("w1",))
        base[role] = (f"{role}_col", "other", f"{role}_col")
        with pytest.raises(UnknownColumn, match=rf"{role} lists a column more than once: \['{role}_col'\]"):
            VariableRoles(**base)


class TestDataset:
    def test_shapes_and_counts(self):
        ds = _tiny_dataset()
        assert ds.n == 3
        assert ds.y.shape == (3,)
        assert ds.z.shape == (3, 1)
        assert ds.w.shape == (3, 1)
        assert ds.x.shape == (3, 1)

    def test_arrays_are_read_only(self):
        ds = _tiny_dataset()
        with pytest.raises(ValueError):
            ds.y[0] = 99.0

    def test_empty_covariate_block_allowed(self):
        ds = Dataset(y=[1.0], a=[1.0], z=[[0.0]], w=[[0.0]], x=np.empty((1, 0)), x_names=())
        assert ds.x.shape == (1, 0)

    def test_zero_rows_rejected(self):
        with pytest.raises(EmptyData):
            Dataset(y=[], a=[], z=np.empty((0, 1)), w=np.empty((0, 1)), x=np.empty((0, 1)))

    def test_treatment_value_two_rejected(self):
        with pytest.raises(NonBinaryTreatment, match="row 1"):
            Dataset(y=[1.0, 2.0], a=[0.0, 2.0], z=[[0.0], [0.0]], w=[[1.0], [1.0]], x=[[0.0], [0.0]])

    def test_nan_rejected_with_row_index(self):
        with pytest.raises(NonFiniteValue, match="row 1"):
            Dataset(y=[1.0, math.nan], a=[0.0, 1.0], z=[[0.0], [0.0]], w=[[1.0], [1.0]], x=[[0.0], [0.0]])

    def test_infinite_proxy_rejected(self):
        with pytest.raises(NonFiniteValue):
            Dataset(y=[1.0], a=[0.0], z=[[math.inf]], w=[[1.0]], x=[[0.0]])

    def test_name_count_must_match_block_width(self):
        with pytest.raises(MissingColumn):
            Dataset(y=[1.0], a=[0.0], z=[[1.0, 2.0]], w=[[1.0]], x=[[0.0]])

    @pytest.mark.parametrize(
        "shape,message",
        [
            (dict(z=[[0.0]] * 4), "block 'z' has 4 rows, expected 5"),
            (dict(a=[0.0, 1.0, 0.0]), "treatment column length differs from outcome"),
        ],
        ids=["block-rows", "treatment-length"],
    )
    def test_a_block_of_the_wrong_length_is_a_dimension_mismatch(self, shape, message):
        arrays = dict(y=[1.0] * 5, a=[0.0, 1.0] * 2 + [0.0], z=[[0.0]] * 5, w=[[1.0]] * 5,
                      x=[[0.0]] * 5)
        with pytest.raises(DimensionMismatch, match=message):
            Dataset(**{**arrays, **shape})


class TestCsvRoundTrip:
    ROLES = VariableRoles("y", "a", ("z1",), ("w1",), ("x1",))

    def test_three_row_file_loads(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,a,z1,w1,x1\n1.0,0,0.1,1.5,2.0\n2.0,1,0.2,-4.0,0.5\n3.0,0,0.3,0.0,1.0\n")
        ds = load_csv(str(p), self.ROLES)
        assert ds.n == 3
        np.testing.assert_allclose(ds.w[:, 0], [1.5, -4.0, 0.0])

    def test_a_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Spreadsheets' "CSV UTF-8" files begin with a UTF-8 byte-order mark.
        text = "y,a,z1,w1,x1\n1.0,0,0.1,1.5,2.0\n2.0,1,0.2,-4.0,0.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text)
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        ds = load_csv(str(marked), self.ROLES)
        np.testing.assert_array_equal(ds.y, load_csv(str(plain), self.ROLES).y)

    def test_write_then_load_is_byte_exact(self, tmp_path, scenario1_ds):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(scenario1_ds, str(first))
        again = load_csv(str(first), self.ROLES)
        write_csv(again, str(second))
        assert first.read_bytes() == second.read_bytes()
        np.testing.assert_array_equal(again.y, scenario1_ds.y)
        np.testing.assert_array_equal(again.w, scenario1_ds.w)

    def test_header_only_file_is_empty(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("y,a,z1,w1,x1\n")
        with pytest.raises(EmptyData, match="no observation rows"):
            load_csv(str(p), self.ROLES)

    def test_zero_byte_file_is_empty(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(EmptyData):
            load_csv(str(p), self.ROLES)

    def test_missing_column_names_file_and_column(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("y,a,z1,x1\n1.0,0,0.1,2.0\n")
        with pytest.raises(MissingColumn, match=r"w1"):
            load_csv(str(p), self.ROLES)

    def test_role_column_repeated_in_header_is_ambiguous(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("y,a,z1,w1,x1,y\n1.0,0,0.1,1.5,2.0,9.0\n")
        with pytest.raises(UnknownColumn, match=r"\['y'\] appear more than once"):
            load_csv(str(p), self.ROLES)
        # A repeated column that no role names is not read, so it is no error.
        p.write_text("y,a,z1,w1,x1,v,v\n1.0,0,0.1,1.5,2.0,3.0,4.0\n")
        assert load_csv(str(p), self.ROLES).y.tolist() == [1.0]

    def test_corrupt_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("y,a,z1,w1,x1\n1.0,0,0.1,oops,2.0\n")
        with pytest.raises(NonFiniteValue, match=r"row 0, column 'w1'"):
            load_csv(str(p), self.ROLES)

    def test_non_binary_treatment_in_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("y,a,z1,w1,x1\n1.0,0.5,0.1,1.0,2.0\n")
        with pytest.raises(NonBinaryTreatment):
            load_csv(str(p), self.ROLES)


class TestTransforms:
    # The distortion formulas of simulation.generate, checked against values
    # and formulas written out here.
    W = np.array([1.5, -4.0, 0.0])

    def test_minor_oracle(self):
        # 2 -> 2.4 pattern: v + 0.1 v^2 at v = 1.5, -4, 0
        np.testing.assert_allclose(_DISTORTIONS["minor"](self.W), [1.725, -2.4, 0.0])

    def test_minor_value_two_maps_to_2_4(self):
        assert _DISTORTIONS["minor"](np.array([2.0]))[0] == pytest.approx(2.4, abs=1e-12)

    def test_significant_oracle(self):
        np.testing.assert_allclose(
            _DISTORTIONS["significant"](self.W), [math.sqrt(1.5) + 1.0, 3.0, 1.0]
        )

    def test_moderate_zero_fixed_point(self):
        assert _DISTORTIONS["moderate"](self.W)[2] == 0.0

    def test_original_dataset_untouched(self):
        # No level writes into the true proxy; the correct level returns it.
        w = self.W.copy()
        for distort in _DISTORTIONS.values():
            distort(w)
        np.testing.assert_array_equal(w, self.W)
        assert _DISTORTIONS["correct"](w) is w

    @pytest.mark.parametrize("name", ["z1", "x1", "y", "a"])
    def test_only_outcome_proxies_transformable(self, name):
        # Every other column is drawn as in the plain cell, the outcome
        # included: it follows the true proxy. ``name[0]`` is its block.
        plain = getattr(generate(ScenarioConfig("II", 50), 1, 0), name[0])
        for level in MISSPEC_LEVELS:
            ds = generate(ScenarioConfig("II", 50, distortion=level), 1, 0)
            assert np.array_equal(getattr(ds, name[0]), plain), level

    def test_unknown_kind_rejected(self):
        # A cell derived from a valid one is checked as well.
        with pytest.raises(DimensionMismatch, match="unknown level 'extreme'"):
            dataclasses.replace(ScenarioConfig("II", 50), distortion="extreme")

    @given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    def test_transform_formulas_pointwise(self, v):
        w = np.array([v])
        assert _DISTORTIONS["minor"](w)[0] == pytest.approx(v + 0.1 * v * v)
        assert _DISTORTIONS["moderate"](w)[0] == pytest.approx(v + 0.5 * v * v)
        assert _DISTORTIONS["significant"](w)[0] == pytest.approx(math.sqrt(abs(v)) + 1.0)
