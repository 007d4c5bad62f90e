import numpy as np
import pytest

from picirc.data import Dataset, load_csv, parse_family, save_csv
from picirc.errors import SchemaError


def write(path, text):
    path.write_text(text)
    return path


class TestParseFamily:
    def test_accepts_the_three_families(self):
        assert parse_family("categorical:4") == ("categorical", 4)
        assert parse_family("binomial:10") == ("binomial", 10)
        assert parse_family("gaussian") == ("gaussian", None)

    def test_rejects_unknown_and_malformed(self):
        with pytest.raises(SchemaError, match="unknown column family"):
            parse_family("poisson:3")
        with pytest.raises(SchemaError, match="state count"):
            parse_family("categorical")
        with pytest.raises(SchemaError, match="state count"):
            parse_family("categorical:0")
        with pytest.raises(SchemaError, match="no state count"):
            parse_family("gaussian:2")


class TestLoadCsv:
    def test_one_cell_file(self, tmp_path):
        dataset = load_csv(write(tmp_path / "t.csv", "x\n3\n"), "categorical:4")
        assert dataset.values.shape == (1, 1)
        assert dataset.columns == ["x"]
        assert dataset.values[0, 0] == 3.0

    def test_value_at_state_count_is_out_of_range(self, tmp_path):
        path = write(tmp_path / "t.csv", "x\n256\n")
        with pytest.raises(SchemaError, match=r"valid range 0\.\.255"):
            load_csv(path, "categorical:256")

    def test_binomial_support_includes_trial_count(self, tmp_path):
        dataset = load_csv(write(tmp_path / "t.csv", "x\n5\n"), "binomial:5")
        assert dataset.values[0, 0] == 5.0
        with pytest.raises(SchemaError, match=r"valid range 0\.\.5"):
            load_csv(write(tmp_path / "u.csv", "x\n6\n"), "binomial:5")

    @pytest.mark.parametrize("schema, cell", [("categorical:4", "inf"), ("binomial:3", "-inf"), ("gaussian", "inf")])
    def test_infinite_value_rejected(self, tmp_path, schema, cell):
        path = write(tmp_path / "t.csv", f"x\n1\n{cell}\n")
        with pytest.raises(SchemaError, match=rf"row 1, column 'x': value {cell} outside"):
            load_csv(path, schema)

    def test_fractional_categorical_value_rejected(self, tmp_path):
        path = write(tmp_path / "t.csv", "x\n1.5\n")
        with pytest.raises(SchemaError, match="row 0, column 'x'"):
            load_csv(path, "categorical:4")

    def test_ragged_row_reports_position(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b\n1,2\n3\n")
        with pytest.raises(SchemaError, match="row 1 has 1 fields, header has 2"):
            load_csv(path, "categorical:4")

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = write(tmp_path / "t.csv", "a\nfoo\n")
        with pytest.raises(SchemaError, match="row 0"):
            load_csv(path, "gaussian")

    def test_empty_cell_becomes_nan(self, tmp_path):
        dataset = load_csv(write(tmp_path / "t.csv", "a,b\n1,\n,2\n"), "categorical:3")
        assert np.isnan(dataset.values[0, 1]) and np.isnan(dataset.values[1, 0])
        assert dataset.values[0, 0] == 1.0

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="header"):
            load_csv(write(tmp_path / "t.csv", ""), "gaussian")

    def test_per_column_schema_width_checked(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b\n1,2\n")
        with pytest.raises(SchemaError, match="schema lists 3 columns, file has 2"):
            load_csv(path, ["categorical:3", "categorical:3", "gaussian"])

    def test_mixed_schema(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b\n2,-1.5\n")
        dataset = load_csv(path, ["categorical:3", "gaussian"])
        assert dataset.families == [("categorical", 3), ("gaussian", None)]

    @pytest.mark.parametrize("family, message", [(("categorical", None), "categorical needs a positive state count"), (("poisson", 3), "unknown input family 'poisson'")])
    def test_invalid_family_rejected(self, family, message):
        dataset = Dataset(columns=["a"], families=[family], values=np.zeros((2, 1)))
        with pytest.raises(SchemaError, match=f"column 'a': {message}"):
            dataset.validate()


class TestRoundTrip:
    def test_large_gaussian_matrix_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((1000, 16))
        dataset = Dataset(
            columns=[f"x{j}" for j in range(16)],
            families=[("gaussian", None)] * 16,
            values=values,
        )
        path = tmp_path / "big.csv"
        save_csv(dataset, path)
        back = load_csv(path, "gaussian")
        np.testing.assert_array_equal(back.values, values)
        assert back.columns == dataset.columns

    def test_nan_cells_survive_round_trip(self, tmp_path):
        values = np.array([[1.0, np.nan], [np.nan, 0.0]])
        dataset = Dataset(columns=["a", "b"], families=[("categorical", 2)] * 2, values=values)
        path = tmp_path / "t.csv"
        save_csv(dataset, path)
        back = load_csv(path, "categorical:2")
        np.testing.assert_array_equal(back.values, values)
