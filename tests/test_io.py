"""Tests for the CSV/TSV formats and price ingestion."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from tauscreen import DegenerateColumnError, InvalidInputError
from tauscreen.io import (
    PriceTable,
    ingest_prices,
    log_returns,
    read_data_csv,
    read_matrix_csv,
    read_price_csv,
    read_sector_csv,
    standardize_columns,
    write_data_csv,
    write_matrix_csv,
)
from tauscreen.rankcorr import DataMatrix
from tauscreen.screening import read_edges_tsv, read_partition_tsv


class TestDataCsv:
    def test_roundtrip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        data = DataMatrix(rng.normal(size=(7, 3)) * 1e-7, labels=("a", "b", "c"))
        path = tmp_path / "d.csv"
        write_data_csv(path, data)
        back = read_data_csv(path)
        assert back.labels == ("a", "b", "c")
        assert np.array_equal(back.values, data.values)

    def test_headerless_detected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.5,2\n3,4\n")
        back = read_data_csv(path)
        assert back.labels is None
        assert np.array_equal(back.values, [[1.5, 2.0], [3.0, 4.0]])

    def test_tab_delimiter_detected(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("x\ty\n1\t2\n3\t4\n")
        back = read_data_csv(path)
        assert back.labels == ("x", "y")
        assert back.values.shape == (2, 2)

    def test_bad_cell_reported(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(InvalidInputError, match="row 2"):
            read_data_csv(path)

    def test_non_finite_cell_located(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n3, nan\ninf,4\n")
        with pytest.raises(InvalidInputError, match="row 2, column 2: bad value 'nan'"):
            read_data_csv(path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(InvalidInputError):
            read_data_csv(path)

    def test_header_wider_than_rows_located(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,z\n1,2\n3,4\n")
        with pytest.raises(InvalidInputError) as err:
            read_data_csv(path)
        assert str(err.value) == f"{path}: row 1 has 2 cells for 3 header labels"

    def test_single_observation_located(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(InvalidInputError) as err:
            read_data_csv(path)
        assert str(err.value) == f"{path}: need at least 2 observations, got 1"


class TestMatrixCsv:
    def test_roundtrip(self, tmp_path):
        m = np.random.default_rng(1).normal(size=(4, 4))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        assert np.array_equal(read_matrix_csv(path), m)


    @pytest.mark.parametrize("text,message", [
        ("1,2\n3,nan\n", "row 2, column 2: bad value 'nan'"),
        ("1,2\n-inf,4\n", "row 2, column 1: bad value '-inf'"),
        ("1,2,3\n4,5,oops\n", "row 2, column 3: bad value 'oops'"),
        ("1,2\n3,\n", "row 2, column 2: bad value ''"),
    ], ids=["nan", "inf", "word", "empty"])
    def test_bad_cell_located(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=message):
            read_matrix_csv(path)

    def test_ragged_located(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n\n3,4,5\n")
        with pytest.raises(InvalidInputError, match="row 2 has 3 cells, expected 2"):
            read_matrix_csv(path)


def price_table(prices, tickers=None, dates=None):
    prices = np.asarray(prices, dtype=np.float64)
    t, p = prices.shape
    tickers = tickers or tuple(f"T{j}" for j in range(p))
    dates = dates or tuple(f"2020-01-{d + 1:02d}" for d in range(t))
    return PriceTable(dates=tuple(dates), tickers=tuple(tickers), prices=prices)


class TestPrices:
    def test_log_returns_hand_values(self):
        table = price_table([[100.0], [110.0], [99.0]])
        raw = log_returns(table)
        assert raw.values[:, 0] == pytest.approx([math.log(1.1), math.log(0.9)])

    def test_standardized_moments(self):
        rng = np.random.default_rng(2)
        table = price_table(np.exp(np.cumsum(rng.normal(0, 0.02, size=(40, 5)), axis=0)) * 100)
        out = ingest_prices(table)
        assert np.max(np.abs(out.values.mean(axis=0))) <= 1e-12
        sds = out.values.std(axis=0, ddof=1)
        assert np.max(np.abs(sds - 1.0)) <= 1e-12
        assert out.labels == table.tickers

    def test_constant_prices_rejected(self):
        table = price_table([[50.0], [50.0], [50.0], [50.0]])
        with pytest.raises(DegenerateColumnError):
            ingest_prices(table)

    def test_constant_growth_rejected(self):
        # exactly constant returns also have zero variance
        table = price_table([[100.0], [110.0], [121.0]])
        with pytest.raises(DegenerateColumnError):
            ingest_prices(table)

    def test_read_price_csv(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,AAA,BBB\n2020-01-01,10,20\n2020-01-02,11,19\n2020-01-03,12,21\n")
        table = read_price_csv(path)
        assert table.tickers == ("AAA", "BBB")
        assert table.dates[0] == "2020-01-01"
        assert table.prices.shape == (3, 2)

    def test_nonpositive_price_names_cell(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,AAA\n2020-01-01,10\n2020-01-02,-3\n2020-01-03,12\n")
        with pytest.raises(InvalidInputError, match="2020-01-02.*AAA"):
            read_price_csv(path)

    def test_price_error_names_file_line_after_blank_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,AAA\n2020-01-01,10\n\n2020-01-02,11\n2020-01-03,0\n")
        with pytest.raises(InvalidInputError, match="at row 5 "):
            read_price_csv(path)

    def test_missing_price_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,AAA,BBB\n2020-01-01,10,20\n2020-01-02,,19\n2020-01-03,12,21\n")
        with pytest.raises(InvalidInputError, match="missing or bad price"):
            read_price_csv(path)

    def test_sectors_carried(self, tmp_path):
        spath = tmp_path / "s.csv"
        spath.write_text("ticker,sector\nAAA,Tech\nBBB,Energy\n")
        sectors = read_sector_csv(spath)
        path = tmp_path / "p.csv"
        path.write_text("date,AAA,BBB\n2020-01-01,10,20\n2020-01-02,11,19\n2020-01-03,12,21\n")
        table = read_price_csv(path, sectors=sectors)
        assert table.sectors == ("Tech", "Energy")

    def test_sector_error_names_file_line_after_blank_line(self, tmp_path):
        spath = tmp_path / "s.csv"
        spath.write_text("ticker,sector\nAAA,Tech\n\nBBB\n")
        with pytest.raises(InvalidInputError, match="row 4 needs ticker and sector"):
            read_sector_csv(spath)

    def test_missing_sector_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,AAA,BBB\n2020-01-01,10,20\n2020-01-02,11,19\n2020-01-03,12,21\n")
        with pytest.raises(InvalidInputError, match="BBB"):
            read_price_csv(path, sectors={"AAA": "Tech"})


class TestStandardize:
    def test_zero_variance_named(self):
        data = DataMatrix(np.column_stack([np.arange(5.0), np.ones(5)]),
                          labels=("ok", "flat"))
        with pytest.raises(DegenerateColumnError) as err:
            standardize_columns(data)
        assert err.value.column == "flat"


# every reader of the package, with a first line it accepts
HEADERS = {
    read_data_csv: b"x,y",
    read_matrix_csv: b"1,2",
    read_price_csv: b"date,AAA",
    read_sector_csv: b"ticker,sector",
    read_edges_tsv: b"j\tj'\tvalue",
    read_partition_tsv: b"node\tcomponent",
}
READERS = pytest.mark.parametrize("reader", HEADERS, ids=lambda reader: reader.__name__)


@READERS
def test_non_utf8_line_located_after_blank_line(tmp_path, reader):
    path = tmp_path / "in.txt"
    path.write_bytes(HEADERS[reader] + b"\n\n\xff\xfe\n")
    with pytest.raises(InvalidInputError) as err:
        reader(path)
    assert str(err.value) == f"{path}: line 3 is not UTF-8 text"


@READERS
def test_blank_file_is_empty(tmp_path, reader):
    path = tmp_path / "in.txt"
    path.write_bytes(b"\n \r\n\t\n")
    with pytest.raises(InvalidInputError) as err:
        reader(path)
    assert str(err.value) == f"{path}: empty file"


def test_only_the_row_reader_opens_files_for_reading():
    """Every table goes through ``io.read_rows``; only the config loader reads
    another file. A new reader must not open a file strictly on its own."""
    src = Path(__file__).resolve().parents[1] / "src" / "tauscreen"
    reads = re.compile(r"\bopen\(|\.read_text\(|\.read_bytes\(|loadtxt\(|genfromtxt\(")
    writes = re.compile(r"""\bopen\([^,]+,\s*["'][wax]""")
    readers = []
    for path in sorted(src.glob("*.py")):
        func = None
        for line in path.read_text().splitlines():
            defined = re.match(r"\s*def (\w+)", line)
            if defined:
                func = defined.group(1)
            if reads.search(line) and not writes.search(line):
                readers.append(f"{path.name}:{func}")
    assert readers == ["cli.py:_load_config", "io.py:read_rows"]
