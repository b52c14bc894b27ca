"""Tests for the CSV/TSV formats and price ingestion."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import tauscreen.io
from tauscreen import DegenerateColumnError, InvalidInputError, evalbench, screening
from tauscreen.io import (
    ingest_prices,
    log_returns,
    read_data_csv,
    read_matrix_csv,
    read_price_csv,
    standardize_columns,
    write_data_csv,
    write_matrix_csv,
)
from tauscreen.evalbench import SweepResult, write_experiment_csv, write_sweep_csv
from tauscreen.io import write_rows
from tauscreen.rankcorr import DataMatrix
from tauscreen.screening import (
    EdgeSet,
    Partition,
    read_edges_tsv,
    read_partition_tsv,
    write_edges_tsv,
    write_partition_tsv,
)


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


BOM = "\ufeff".encode()


@pytest.mark.parametrize("reader,text", [
    (read_data_csv, "1.5,2\n3,4\n5,6\n7,8\n"),
    (read_data_csv, "x,y\n1.5,2\n3,4\n"),
    (read_price_csv, "date,AAA,BBB\nd1,10,20\nd2,11,19\nd3,12,21\n"),
], ids=["data-headerless", "data-labelled", "price-header"])
def test_utf8_bom_reads_as_without(tmp_path, reader, text):
    """A UTF-8 byte-order mark (Excel's "CSV UTF-8") is not part of the
    first cell: the file reads exactly as it does without one."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())

    def fields(table):  # a dataclass that holds arrays
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(table).items()}

    assert fields(reader(marked)) == fields(reader(plain))


def test_bom_then_bad_byte_located(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(BOM + b"\xff1,2\n3,4\n")
    with pytest.raises(InvalidInputError) as err:
        read_data_csv(path)
    assert str(err.value) == f"{path}: line 1 is not UTF-8 text"


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


def price_table(prices):
    prices = np.asarray(prices, dtype=np.float64)
    return DataMatrix(prices, labels=tuple(f"T{j}" for j in range(prices.shape[1])))


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
        assert out.labels == table.labels

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
        assert table.labels == ("AAA", "BBB")
        assert table.values.shape == (3, 2)

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

    # each cell sits in column BBB of a row that follows a blank line, so the
    # error must name the ticker and the row by its line in the file
    @pytest.mark.parametrize("cell,expected", [
        ("", "missing or bad price"),
        ("abc", "missing or bad price"),
        ("nan", "nonpositive price nan"),
        ("inf", "nonpositive price inf"),
        ("-1", "nonpositive price -1.0"),
        ("0", "nonpositive price 0.0"),
        ("-0", "nonpositive price -0.0"),
        (" 7.5 ", 7.5),
        ("1_0", 10.0),
    ], ids=["empty", "word", "nan", "inf", "negative", "zero", "minus-zero", "padded",
            "underscore"])
    def test_price_cells(self, tmp_path, cell, expected):
        path = tmp_path / "p.csv"
        path.write_text(f"date,AAA,BBB\nd1,10,20\n\nd2,11,{cell}\nd3,12,21\n")
        if isinstance(expected, str):
            with pytest.raises(InvalidInputError) as err:
                read_price_csv(path)
            assert str(err.value) == f"{path}: {expected} at row 4 (d2), ticker BBB"
            return
        table = read_price_csv(path)
        assert table.labels == ("AAA", "BBB")
        assert table.values.tolist() == [[10.0, 20.0], [11.0, expected], [12.0, 21.0]]

    def test_prices_parse_like_data_cells(self, tmp_path):
        rng = np.random.default_rng(4)
        values = np.exp(rng.normal(0.0, 30.0, size=(20, 6)))
        cells = [[repr(v) for v in row[:3]] + [f"{v + 1.0:.6f}" for v in row[3:]]
                 for row in values.tolist()]
        prices, data = tmp_path / "p.csv", tmp_path / "d.csv"
        prices.write_text("date,A,B,C,D,E,F\n" + "".join(
            f"d{i}," + ",".join(row) + "\n" for i, row in enumerate(cells)))
        data.write_text("A,B,C,D,E,F\n" + "".join(",".join(row) + "\n" for row in cells))
        got, want = read_price_csv(prices).values, read_data_csv(data).values
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("rows", [1, 2])
    def test_fewer_than_two_returns_located(self, tmp_path, rows):
        path = tmp_path / "p.csv"
        path.write_text("date,AAA\n" + "".join(f"d{i},{10 + i}\n" for i in range(rows)))
        with pytest.raises(InvalidInputError) as err:
            read_price_csv(path)
        assert str(err.value) == (
            f"{path}: need a header and at least 3 price rows (2 returns), got {rows}")


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


# every table writer of the package, with a tiny input and its exact bytes:
# 0.1 at 17 significant digits, -0.0, integer cells, an empty f_used cell and
# a labels header
WRITTEN = [
    (write_data_csv, (DataMatrix([[0.1, -0.0], [3, 1e-300]], labels=("a", "b")),),
     b"a,b\n0.10000000000000001,-0\n3,1e-300\n"),
    (write_matrix_csv, ([[0.1, -0.0], [3, 2.5]],),
     b"0.10000000000000001,-0\n3,2.5\n"),
    (write_edges_tsv, (EdgeSet(3, [(1, 2), (0, 2)]),
                       np.array([[0, 0, 0.1], [0, 0, -0.0], [0, 0, 0]])),
     b"j\tj'\tvalue\n1\t3\t0.10000000000000001\n2\t3\t-0\n"),
    (write_partition_tsv, (Partition(3, (1, 2, 1)),),
     b"node\tcomponent\n1\t1\n2\t2\n3\t1\n"),
    (write_experiment_csv, ([(0, 0.1, "kendall", "C", 1, 0, 2, 0, 0.0, -0.0, 1, ""),
                             (1, 0.25, "pearson", "B", 2, 1, 0, 0, 1.0, 0.0, 3, 1.5)],),
     b"replicate,q_or_gamma,estimator,scenario,tp,fp,tn,fn,fpr,fnr,edge_count,f_used\n"
     b"0,0.10000000000000001,kendall,C,1,0,2,0,0,-0,1,\n"
     b"1,0.25,pearson,B,2,1,0,0,1,0,3,1.5\n"),
    (write_sweep_csv, (SweepResult(grid=(0.0, 0.1), mean_tpr=(1.0, 0.5), mean_fpr=(1.0, -0.0)),),
     b"gamma,mean_fpr,mean_tpr\n0,1,1\n0.10000000000000001,-0,0.5\n"),
]


def _defined(module, prefix):
    """The functions ``module`` defines whose names start with ``prefix``."""
    return {fn for name, fn in vars(module).items()
            if name.startswith(prefix) and getattr(fn, "__module__", None) == module.__name__}


def test_reader_and_writer_tables_are_complete():
    """HEADERS and WRITTEN list exactly the public table readers and writers
    of ``io`` and ``screening`` and the CSV writers of ``evalbench``, so an
    added or deleted reader or writer cannot leave them stale. The row
    reader and row writer that they are all built on are not tables."""
    readers = _defined(tauscreen.io, "read_") | _defined(screening, "read_")
    writers = (_defined(tauscreen.io, "write_") | _defined(screening, "write_")
               | {fn for fn in _defined(evalbench, "write_") if fn.__name__.endswith("_csv")})
    assert set(HEADERS) == readers - {tauscreen.io.read_rows}
    assert {writer for writer, _, _ in WRITTEN} == writers - {write_rows}


@pytest.mark.parametrize("writer,args,expected", WRITTEN,
                         ids=[writer.__name__ for writer, _, _ in WRITTEN])
def test_writer_bytes(tmp_path, writer, args, expected):
    path = tmp_path / "out"
    writer(path, *args)
    assert path.read_bytes() == expected


def _calls_by_function(pattern):
    """``file:function`` of each line of the package's modules that matches
    ``pattern``, in file order."""
    src = Path(__file__).resolve().parents[1] / "src" / "tauscreen"
    found = []
    for path in sorted(src.glob("*.py")):
        func = None
        for line in path.read_text().splitlines():
            defined = re.match(r"\s*def (\w+)", line)
            if defined:
                func = defined.group(1)
            if pattern(line):
                found.append(f"{path.name}:{func}")
    return found


_WRITES = re.compile(r"""\bopen\([^,]+,\s*["'][wax]|\.write_text\(|\.write_bytes\(|savetxt\(""")


def test_only_the_row_reader_opens_files_for_reading():
    """Every table goes through ``io.read_rows``; only the config loader reads
    another file. A new reader must not open a file strictly on its own."""
    reads = re.compile(r"\bopen\(|\.read_text\(|\.read_bytes\(|loadtxt\(|genfromtxt\(")
    readers = _calls_by_function(lambda line: reads.search(line) and not _WRITES.search(line))
    assert readers == ["cli.py:_load_config", "io.py:read_rows"]


def test_one_row_parse_for_numeric_cells():
    """Data, matrix and price tables turn cells into floats in one place."""
    parsers = _calls_by_function(lambda line: "np.fromiter(map(float" in line)
    assert len(parsers) == 1 and parsers[0].startswith("io.py:")


def test_only_the_row_writer_opens_files_for_writing():
    """Every table goes out through ``io.write_rows``; only the JSON report is
    written on its own, because it is not a row table."""
    writers = _calls_by_function(_WRITES.search)
    assert writers == ["evalbench.py:write_json_report", "io.py:write_rows"]


@pytest.mark.parametrize("rows,header", [([("ok", 1.5), ("a,b", 2)], None),
                                         ([("ok", 1.5)], ("x", "y,z"))],
                         ids=["row-cell", "header-cell"])
def test_writer_refuses_a_cell_holding_the_delimiter(tmp_path, rows, header):
    path = tmp_path / "out.csv"
    with pytest.raises(InvalidInputError, match=r"cell '(a,b|y,z)' holds the delimiter ','"):
        write_rows(path, rows, header=header)
    if header is not None:
        assert not path.exists()  # the header is checked before the file opens
    write_rows(path, [("a,b", 1)], delimiter="\t")  # a comma is fine in a TSV
    assert path.read_bytes() == b"a,b\t1\n"
