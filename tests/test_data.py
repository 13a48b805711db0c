import tracemalloc

import numpy as np
import pytest

from causelab import data as data_module
from causelab.data import Dataset, infer_kind
from causelab.errors import UsageError


class TestKinds:
    def test_binary_detected(self):
        assert infer_kind(np.array([0.0, 1.0, 1.0])) == "binary"

    def test_categorical_detected(self):
        assert infer_kind(np.array([0.0, 3.0, 2.0, 3.0])) == "categorical"

    def test_real_detected(self):
        assert infer_kind(np.array([0.5, 1.7])) == "real"


class TestDataset:
    def test_unequal_lengths_rejected(self):
        with pytest.raises(UsageError):
            Dataset.from_columns({"A": [1.0, 2.0], "B": [1.0]})

    def test_missing_values_rejected(self):
        with pytest.raises(UsageError):
            Dataset.from_columns({"A": [1.0, float("nan")]})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinite_values_rejected(self, value):
        with pytest.raises(UsageError):
            Dataset.from_columns({"A": [1.0, value]})

    def test_non_integral_categorical_rejected(self):
        with pytest.raises(UsageError, match="categorical column 'a' has non-integral"):
            Dataset.from_columns({"a": [1.5, 2.0]}, kinds={"a": "categorical"})

    def test_columns_read_only(self):
        data = Dataset.from_columns({"A": [1.0, 2.0]})
        with pytest.raises(ValueError):
            data.column("A")[0] = 5.0

    def test_unknown_column(self):
        data = Dataset.from_columns({"A": [1.0]})
        with pytest.raises(UsageError):
            data.column("B")

    def test_matrix_and_subset(self):
        data = Dataset.from_columns({"A": [1.0, 2.0], "B": [3.0, 4.0]})
        assert data.matrix(["B", "A"]).tolist() == [[3.0, 1.0], [4.0, 2.0]]
        sub = data.subset(["B"])
        assert sub.columns == ("B",)


class TestCsv:
    def test_round_trip(self, tmp_path):
        data = Dataset.from_columns(
            {"T": [0.0, 1.0], "Y": [1.25, -3.5], "K": [2.0, 5.0]}
        )
        path = tmp_path / "d.csv"
        data.to_csv(path)
        back = Dataset.from_csv(path)
        assert back.columns == data.columns
        for c in data.columns:
            assert np.array_equal(back.column(c), data.column(c))
        assert back.kinds == {"T": "binary", "Y": "real", "K": "categorical"}

    def test_byte_stable(self, tmp_path):
        data = Dataset.from_columns({"A": [0.1, 0.2, 1e-17]})
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        data.to_csv(p1)
        Dataset.from_csv(p1).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_only_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("A,B\n")
        data = Dataset.from_csv(path)
        assert data.n == 0 and data.columns == ("A", "B")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "nothing.csv"
        path.write_text("")
        with pytest.raises(UsageError):
            Dataset.from_csv(path)

    def test_bad_cell_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(UsageError) as err:
            Dataset.from_csv(path)
        assert "line 3" in str(err.value)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("A,B\n1.0\n")
        with pytest.raises(UsageError):
            Dataset.from_csv(path)

    def test_utf8_bom_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfX,Y\n1.0,2.0\n")
        assert Dataset.from_csv(path).columns == ("X", "Y")

    def test_non_utf8_byte_named_with_its_offset(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"X,Y\n1.0,caf\xe9\n")
        with pytest.raises(UsageError) as err:
            Dataset.from_csv(path)
        assert str(err.value) == f"{path!r}: not UTF-8: byte 0xe9 at offset 11"

    def test_crlf_file_takes_the_block_reader(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        Dataset.from_columns({"A": rng.normal(size=3000), "B": rng.random(3000) < 0.5}).to_csv(lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        calls = []
        read_rows = data_module._csv_rows

        def counted(lines, first_line, path):
            calls.append(first_line)
            return read_rows(lines, first_line, path)

        monkeypatch.setattr(data_module, "_csv_rows", counted)
        want, got = Dataset.from_csv(lf), Dataset.from_csv(crlf)
        assert calls == [1, 1]  # each file's header only
        assert got.columns == want.columns and got.kinds == want.kinds
        for c in want.columns:
            assert got.column(c).tobytes() == want.column(c).tobytes()

    def test_reading_holds_no_per_row_lists(self, tmp_path):
        rows, cols = 50_000, 4
        rng = np.random.default_rng(3)
        path = tmp_path / "wide.csv"
        Dataset.from_columns({f"C{c}": rng.normal(size=rows) for c in range(cols)}).to_csv(path)
        tracemalloc.start()
        try:
            back = Dataset.from_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.n == rows
        # The parsed array, its per-column copies and one block's strings and
        # floats; per-row lists of cell strings take about 14 parsed arrays.
        assert peak < 3 * rows * cols * 8 + 16 * data_module._READ_HINT
