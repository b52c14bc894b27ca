"""End-to-end tests of the command line, including byte determinism and the
pipeline/in-process consistency check."""

import json
import os
import subprocess
import sys
import warnings
from unittest import mock

import click
import numpy as np
import pytest
from click.testing import CliRunner

from tauscreen import (
    SimConfig,
    ThresholdSpec,
    generate_ground_truth,
    run_experiments,
)
from tauscreen import cli, evalbench, rankcorr
from tauscreen.cli import main
from tauscreen.evalbench import experiment_rows, write_experiment_csv
from tauscreen.errors import SingularMatrixError
from tauscreen.io import read_data_csv, read_matrix_csv, write_data_csv, write_matrix_csv
from tauscreen.linalg import _openblas_calls, blas_threads
from tauscreen.rankcorr import (
    CorrMatrix,
    jackknife_matrix,
    kendall_matrix,
    kendall_tau_naive,
    sine_transform,
)
from tauscreen.screening import (
    connected_components,
    screen_edges,
    threshold_matrix,
    write_edges_tsv,
    write_partition_tsv,
)
from tauscreen.simgen import precision_support

from oracles import as_set, confusion, read_edge_pairs


# past any size numpy can index (and past int64)
BIG = str(10**20)


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def read_bytes_map(root):
    out = {}
    for name in sorted(os.listdir(root)):
        full = os.path.join(root, name)
        if os.path.isfile(full):
            with open(full, "rb") as fh:
                out[name] = fh.read()
    return out


def write_price_fixture(path, tickers=3, days=30, seed=0):
    rng = np.random.default_rng(seed)
    rets = rng.normal(0.0, 0.02, size=(days, tickers))
    prices = 100.0 * np.exp(np.cumsum(rets, axis=0))
    lines = ["date," + ",".join(f"S{j:02d}" for j in range(tickers))]
    for d in range(days):
        lines.append(f"2020-02-{d + 1:02d}," + ",".join(f"{v:.6f}" for v in prices[d]))
    path.write_text("\n".join(lines) + "\n")


class TestSimulate:
    def test_scenario_c_ground_truth(self, runner, tmp_path):
        result = invoke(runner, ["simulate", "--scenario", "C", "--n", "10", "--p", "3",
                                 "--out-dir", str(tmp_path), "--prefix", "t"])
        assert result.exit_code == 0, result.output
        sigma = read_matrix_csv(tmp_path / "t_sigma.csv")
        assert np.array_equal(sigma, [[1.0, 0.3, 0.09], [0.3, 1.0, 0.3], [0.09, 0.3, 1.0]])
        summary = json.loads(result.output)
        assert summary["edge_count"] == 2
        assert set(summary) == {"edge_count", "lambda_min", "lambda_max"}

    @pytest.mark.parametrize("scenario,p", [("A", 40), ("B", 20), ("C", 6), ("D", 20)])
    def test_edges_file_is_the_precision_support(self, runner, tmp_path, scenario, p):
        invoke(runner, ["simulate", "--scenario", scenario, "--n", "10", "--p", str(p),
                        "--seed", "2", "--out-dir", str(tmp_path)])
        support = precision_support(read_matrix_csv(tmp_path / "sim_precision.csv"))
        edges, _ = read_edge_pairs(tmp_path / "sim_edges.tsv", p=p)
        assert len(edges) > 0
        assert as_set(support) == as_set(edges)

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = ["simulate", "--scenario", "B", "--n", "30", "--p", "20", "--base", "t",
                "--theta", "5", "--transform", "npn", "--seed", "11"]
        d1, d2 = tmp_path / "one", tmp_path / "two"
        r1 = invoke(runner, args + ["--out-dir", str(d1)])
        r2 = invoke(runner, args + ["--out-dir", str(d2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert r1.output == r2.output
        assert read_bytes_map(d1) == read_bytes_map(d2)

    def test_divisibility_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--scenario", "B", "--n", "10",
                                      "--p", "55", "--out-dir", str(tmp_path)])
        assert result.exit_code == 2

    def test_missing_flags_usage_error(self, runner):
        result = runner.invoke(main, ["simulate", "--scenario", "C"])
        assert result.exit_code == 2

    def test_infinite_theta_is_usage_error(self, runner, tmp_path):
        out_dir = tmp_path / "sim"
        result = runner.invoke(main, ["simulate", "--scenario", "C", "--n", "10", "--p", "3",
                                      "--base", "t", "--theta", "inf",
                                      "--out-dir", str(out_dir)])
        assert result.exit_code == 2
        assert "finite theta > 2" in result.output
        assert not out_dir.exists()

    def test_huge_integer_theta_runs(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--scenario", "C", "--n", "50", "--p", "10",
                                      "--base", "t", "--theta", "1e308",
                                      "--out-dir", str(tmp_path / "sim")])
        assert result.exit_code == 0, result.output
        assert read_data_csv(tmp_path / "sim" / "sim_data.csv").values.shape == (50, 10)


class TestScreen:
    def test_gamma_above_one_empty(self, runner, tmp_path):
        sim_dir = tmp_path / "sim"
        invoke(runner, ["simulate", "--scenario", "C", "--n", "40", "--p", "5",
                        "--seed", "3", "--out-dir", str(sim_dir)])
        out = tmp_path / "edges.tsv"
        result = invoke(runner, ["screen", "--data", str(sim_dir / "sim_data.csv"),
                                 "--gamma", "1.1", "--out", str(out)])
        assert result.exit_code == 0
        edges, _ = read_edge_pairs(out, p=5)
        assert len(edges) == 0

    @pytest.mark.parametrize("flag,value,message", [
        ("--gamma", "nan", "fixed mode needs gamma >= 0 and finite"),
        ("--rate", "nan,0.25", "rate mode needs C1 > 0 and finite"),
        ("--fpr-f", "nan", "fpr mode needs f > 0 and finite"),
        ("--fpr-f", "inf", "fpr mode needs f > 0 and finite"),
    ], ids=["gamma-nan", "rate-nan", "fpr-f-nan", "fpr-f-inf"])
    def test_non_finite_threshold_is_usage_error(self, runner, tmp_path, flag, value, message):
        data = tmp_path / "d.csv"
        data.write_text("1,2,3\n2,1,3\n3,3,1\n4,2,2\n")
        result = runner.invoke(main, ["screen", "--data", str(data), flag, value,
                                      "--components", "--out", str(tmp_path / "e.tsv")])
        assert result.exit_code == 2
        assert message in result.output
        assert list(tmp_path.iterdir()) == [data]

    def test_exactly_one_threshold_flag(self, runner, tmp_path):
        result = runner.invoke(main, ["screen", "--data", "x.csv", "--out", "y.tsv",
                                      "--gamma", "0.5", "--fpr-q", "0.1"])
        assert result.exit_code == 2

    def test_fpr_needs_enough_rows(self, runner, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1,2\n2,1\n")
        result = runner.invoke(main, ["screen", "--data", str(data), "--fpr-q", "0.1",
                                      "--out", str(tmp_path / "e.tsv")])
        assert result.exit_code == 1

    @pytest.mark.parametrize("flag,value", [("--fpr-q", "0.1"), ("--fpr-f", "2")],
                             ids=["q", "f"])
    def test_fpr_needs_two_columns(self, runner, tmp_path, flag, value):
        data = tmp_path / "d.csv"
        data.write_text("1\n2\n3\n4\n")
        result = runner.invoke(main, ["screen", "--data", str(data), flag, value,
                                      "--out", str(tmp_path / "e.tsv")])
        assert result.exit_code == 1
        assert result.stderr == "error: fpr mode needs p >= 2 columns, got p=1\n"
        assert list(tmp_path.iterdir()) == [data]

    def test_components_output(self, runner, tmp_path):
        sim_dir = tmp_path / "sim"
        invoke(runner, ["simulate", "--scenario", "B", "--n", "200", "--p", "20",
                        "--seed", "5", "--out-dir", str(sim_dir)])
        out = tmp_path / "edges.tsv"
        comp = tmp_path / "parts.tsv"
        result = invoke(runner, ["screen", "--data", str(sim_dir / "sim_data.csv"),
                                 "--gamma", "0.9", "--out", str(out),
                                 "--components", "--components-out", str(comp)])
        assert result.exit_code == 0
        assert comp.exists()
        summary = json.loads(result.output)
        assert "components" in summary


    @pytest.mark.parametrize("reference_tau", ["kendall_matrix", "kendall_tau_naive"])
    def test_fpr_one_sign_pass_matches_two_pass_reference(self, runner, tmp_path,
                                                          sign_passes, reference_tau):
        sim_dir = tmp_path / "sim"
        invoke(runner, ["simulate", "--scenario", "B", "--n", "150", "--p", "20",
                        "--base", "t", "--transform", "npn", "--seed", "8",
                        "--out-dir", str(sim_dir)])
        data_path = sim_dir / "sim_data.csv"
        out = tmp_path / "edges.tsv"
        sign_passes.clear()
        result = invoke(runner, ["screen", "--data", str(data_path), "--fpr-q", "0.05",
                                 "--components", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert sign_passes == ["_sign_moments"]
        assert json.loads(result.output)["edge_count"] > 0

        # reference: separate tau and jackknife passes. reference_tau picks
        # how the reference's tau is computed: by kendall_matrix's own sign
        # pass, or pair by pair with the quadratic reference
        # kendall_tau_naive.
        data = read_data_csv(data_path)
        if reference_tau == "kendall_matrix":
            tau = kendall_matrix(data)
        else:
            tau = np.eye(data.p)
            for j in range(data.p):
                for k in range(j + 1, data.p):
                    tau[j, k] = tau[k, j] = kendall_tau_naive(data.values[:, j],
                                                              data.values[:, k])
            tau = CorrMatrix(tau, "kendall-raw")
        corr = sine_transform(tau)
        _, omega2 = jackknife_matrix(data)
        gammas = threshold_matrix(ThresholdSpec.fpr(q=0.05), data.n, data.p, omega2=omega2)
        edges = screen_edges(corr, gammas)
        ref_edges, ref_comp = tmp_path / "ref.tsv", tmp_path / "ref.components.tsv"
        write_edges_tsv(ref_edges, edges, corr)
        write_partition_tsv(ref_comp, connected_components(edges))
        assert out.read_bytes() == ref_edges.read_bytes()
        assert (tmp_path / "edges.tsv.components.tsv").read_bytes() == ref_comp.read_bytes()


    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_threads_is_usage_error(self, runner, tmp_path, value, source):
        data = tmp_path / "d.csv"
        write_data_csv(data, __import__("tauscreen").DataMatrix(np.eye(4)))
        out = tmp_path / "e.tsv"
        args = ["screen", "--data", str(data), "--gamma", "0.3", "--out", str(out)]
        if source == "flag":
            args += ["--threads", str(value)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"threads": value}))
            args += ["--config", str(cfg)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert f"--threads must be an integer >= 1, got {value}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("mode", [["--fpr-q", "0.05"], ["--rate", "0.9,0.25"]],
                             ids=["fpr", "rate"])
    def test_threads_byte_identical(self, runner, tmp_path, sign_passes, mode):
        sim_dir = tmp_path / "sim"
        invoke(runner, ["simulate", "--scenario", "B", "--n", "120", "--p", "20",
                        "--base", "t", "--transform", "npn", "--seed", "9",
                        "--out-dir", str(sim_dir)])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"e{threads}.tsv"
            sign_passes.clear()
            result = invoke(runner, ["screen", "--data", str(sim_dir / "sim_data.csv"),
                                     *mode, "--components", "--out", str(out),
                                     "--threads", threads])
            assert result.exit_code == 0, result.output
            assert sign_passes == ["_sign_moments"]
            outputs.append((result.output, out.read_bytes(),
                            (tmp_path / f"e{threads}.tsv.components.tsv").read_bytes()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["edge_count"] > 0


    def test_default_threads_are_the_affinity_cpus(self, runner, tmp_path, monkeypatch):
        from tauscreen import rankcorr

        threads = []
        kernel = rankcorr._sign_moments

        def recording(*args, **kwargs):
            threads.append(kwargs["threads"])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(rankcorr, "_sign_moments", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        data = tmp_path / "d.csv"
        write_data_csv(data, __import__("tauscreen").DataMatrix(
            np.random.default_rng(0).normal(size=(30, 4))))
        result = invoke(runner, ["screen", "--data", str(data), "--fpr-q", "0.1",
                                 "--out", str(tmp_path / "e.tsv")])
        assert result.exit_code == 0, result.output
        assert threads == [1]


class TestIngestPrices:
    def test_happy_path_and_determinism(self, runner, tmp_path):
        prices = tmp_path / "p.csv"
        write_price_fixture(prices, tickers=4, days=25, seed=1)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        r1 = invoke(runner, ["ingest-prices", "--prices", str(prices), "--out", str(out1)])
        r2 = invoke(runner, ["ingest-prices", "--prices", str(prices), "--out", str(out2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        returns = read_data_csv(out1)
        assert returns.n == 24 and returns.p == 4
        assert np.max(np.abs(returns.values.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(returns.values.std(axis=0, ddof=1) - 1.0)) <= 1e-12

    def test_constant_prices_fail(self, runner, tmp_path):
        # a constant column and a constant-growth column both leave constant
        # log returns; the reader cannot see that, so the command names the file
        prices = tmp_path / "p.csv"
        for column in (["5", "5", "5"], ["1", "2", "4", "8"]):
            prices.write_text("date,AAA,BBB\n" + "".join(
                f"d{i},{price},{10 + i * i}\n" for i, price in enumerate(column)))
            result = runner.invoke(main, ["ingest-prices", "--prices", str(prices),
                                          "--out", str(tmp_path / "r.csv")])
            assert result.exit_code == 1
            assert result.stderr == (f"error: {prices}: column 'AAA' has zero variance "
                                     "after log returns\n")
            assert list(tmp_path.iterdir()) == [prices]

    # the ratio of two finite prices can overflow to inf or underflow to 0,
    # and its log would not be a finite return
    @pytest.mark.parametrize("first,second", [("1e-308", "1e308"), ("1e308", "1e-308")],
                             ids=["overflow", "underflow"])
    def test_out_of_range_price_ratio_fails_naming_the_cell(self, runner, tmp_path,
                                                            first, second):
        prices = tmp_path / "p.csv"
        prices.write_text(f"date,AAA,BBB\nd1,10,20\nd2,11,{first}\nd3,12,{second}\nd4,13,1\n")
        result = runner.invoke(main, ["ingest-prices", "--prices", str(prices),
                                      "--out", str(tmp_path / "r.csv")])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (f"error: {prices}: price ratio {float(second)}/{float(first)} "
                                 "out of range at row 4 (d3), ticker BBB\n")
        assert list(tmp_path.iterdir()) == [prices]

    def test_ticker_holding_the_output_delimiter_fails_before_writing(self, runner, tmp_path):
        # a tab-delimited table may name a ticker "BRK,B"; written into the
        # comma-delimited returns CSV it would read back as two columns
        prices = tmp_path / "p.tsv"
        prices.write_text("date\tAAA\tBRK,B\nd1\t10\t20\nd2\t11\t19\nd3\t12\t22\n")
        out = tmp_path / "r.csv"
        result = runner.invoke(main, ["ingest-prices", "--prices", str(prices), "--out", str(out)])
        assert result.exit_code == 1
        assert "cell 'BRK,B' holds the delimiter ','" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("prices_text,named", [
        ("date,AAA,AAA\nd1,10,20\nd2,11,19\nd3,12,22\n",
         "{prices}: row 1: ticker 'AAA' repeats"),
    ], ids=["price-ticker"])
    def test_repeated_ticker_fails_before_writing(self, runner, tmp_path, prices_text, named):
        prices = tmp_path / "p.csv"
        prices.write_text(prices_text)
        result = runner.invoke(main, ["ingest-prices", "--prices", str(prices),
                                      "--out", str(tmp_path / "r.csv")])
        assert result.exit_code == 1
        assert result.stderr == "error: " + named.format(prices=prices) + "\n"
        assert list(tmp_path.iterdir()) == [prices]

    def test_two_price_rows_fail_naming_the_file(self, runner, tmp_path):
        # two prices give one return, and a data matrix needs two observations
        prices = tmp_path / "p.csv"
        prices.write_text("date,AAA,BBB\nd1,10,20\nd2,11,19\n")
        result = runner.invoke(main, ["ingest-prices", "--prices", str(prices),
                                      "--out", str(tmp_path / "r.csv")])
        assert result.exit_code == 1
        assert result.stderr == (f"error: {prices}: need a header and at least 3 price rows "
                                 "(2 returns), got 2\n")
        assert list(tmp_path.iterdir()) == [prices]

    # "\ufeff7203": the returns CSV would start with a byte-order mark, which
    # the reader drops before it looks at the first cell
    @pytest.mark.parametrize("ticker", ["7203", "INF", "1_0", "\ufeff7203"])
    def test_numeric_first_ticker_fails_before_writing(self, runner, tmp_path, ticker):
        # the data CSV reader takes a first line whose first cell is a number
        # for an observation, so the header would read back as a row
        prices = tmp_path / "p.csv"
        prices.write_text(f"date,{ticker},BBB\nd1,10,20\nd2,11,19\nd3,12,22\n",
                          encoding="utf-8")
        out = tmp_path / "r.csv"
        result = runner.invoke(main, ["ingest-prices", "--prices", str(prices), "--out", str(out)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (f"error: {out}: first label {ticker!r} reads as a number, "
                                 "so the header would read back as an observation\n")
        assert list(tmp_path.iterdir()) == [prices]

    def test_numeric_later_ticker_reads_back_as_header(self, runner, tmp_path):
        prices = tmp_path / "p.csv"
        write_price_fixture(prices, tickers=3, days=30, seed=3)
        lines = prices.read_text().splitlines()
        prices.write_text("\n".join(["date,AAA,7203,BBB"] + lines[1:]) + "\n")
        out = tmp_path / "r.csv"
        ingested = json.loads(invoke(runner, ["ingest-prices", "--prices", str(prices),
                                              "--out", str(out)]).output)
        screened = json.loads(invoke(runner, ["screen", "--data", str(out), "--gamma", "0.5",
                                              "--out", str(tmp_path / "e.tsv")]).output)
        assert ingested == {"rows": 29, "tickers": 3}
        assert screened["n"] == ingested["rows"] and screened["p"] == 3
        assert read_data_csv(out).labels == ("AAA", "7203", "BBB")

    def test_sectors_flag_is_gone(self, runner, tmp_path):
        prices = tmp_path / "p.csv"
        write_price_fixture(prices, tickers=2, days=10, seed=2)
        sectors = tmp_path / "s.csv"
        sectors.write_text("ticker,sector\nS00,Tech\nS01,Energy\n")
        result = runner.invoke(main, ["ingest-prices", "--prices", str(prices), "--sectors",
                                      str(sectors), "--out", str(tmp_path / "r.csv")])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--sectors" in result.output
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sectors_path": str(sectors)}))
        result = runner.invoke(main, ["ingest-prices", "--config", str(cfg), "--prices",
                                      str(prices), "--out", str(tmp_path / "r.csv")])
        assert result.exit_code == 2
        assert "unknown config keys: ['sectors_path']" in result.output
        assert sorted(tmp_path.iterdir()) == [cfg, prices, sectors]


class TestBench:
    def test_table_mode_and_threads_byte_identical(self, runner, tmp_path):
        base = ["bench", "--mode", "table", "--scenario", "C", "--n", "40", "--p", "12",
                "--replicates", "4", "--seed", "9", "--q", "0.1,0.3"]
        csv1, json1 = tmp_path / "a.csv", tmp_path / "a.json"
        csv2, json2 = tmp_path / "b.csv", tmp_path / "b.json"
        r1 = invoke(runner, base + ["--threads", "1", "--out-csv", str(csv1), "--out-json", str(json1)])
        r2 = invoke(runner, base + ["--threads", "4", "--out-csv", str(csv2), "--out-json", str(json2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert csv1.read_bytes() == csv2.read_bytes()
        assert json1.read_bytes() == json2.read_bytes()
        doc = json.loads(json1.read_text())
        assert doc["mode"] == "table"
        for row in doc["table"]:
            assert {"mean_edge_count", "mean_fpr", "mean_fnr", "q_or_gamma"} <= set(row)

    def test_json_sim_block_reproduces_csv_rows(self, runner, tmp_path):
        # scenario A redraws its graph in every replicate
        out_csv, out_json = tmp_path / "b.csv", tmp_path / "b.json"
        result = invoke(runner, ["bench", "--scenario", "A", "--n", "30", "--p", "40",
                                 "--replicates", "3", "--seed", "5", "--q", "0.05,0.1",
                                 "--out-csv", str(out_csv), "--out-json", str(out_json)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out_json.read_text())
        sim = SimConfig(**doc["sim"])
        rows = []
        for cell in doc["table"]:
            result, = run_experiments(sim, doc["estimator"], cell["replicates"],
                                      [ThresholdSpec.fpr(q=cell["q"])])
            rows.extend(experiment_rows(result))
        write_experiment_csv(tmp_path / "in_process.csv", rows)
        assert (tmp_path / "in_process.csv").read_bytes() == out_csv.read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("flag,values,kernel", [
        ("--q", ["0.05", "0.1", "0.3"], "jackknife_matrix"),
        ("--gamma", ["0.3", "0.5"], "kendall_matrix"),
    ], ids=["q", "gamma"])
    def test_list_cells_equal_single_value_runs(self, runner, tmp_path, monkeypatch,
                                                flag, values, kernel, threads):
        calls = []
        for name in ("jackknife_matrix", "kendall_matrix"):
            def counted(*args, _fn=getattr(evalbench, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(evalbench, name, counted)
        base = ["bench", "--scenario", "A", "--n", "30", "--p", "20", "--replicates", "3",
                "--seed", "11", "--threads", threads]

        def run(value, name):
            csv, js = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            result = invoke(runner, base + [flag, value, "--out-csv", str(csv),
                                            "--out-json", str(js)])
            assert result.exit_code == 0, result.output
            return csv.read_text().splitlines(), json.loads(js.read_text())

        lines, doc = run(",".join(values), "list")
        # the whole list: one draw and one sign pass per replicate
        assert calls == [kernel] * 3
        singles = [run(value, f"single{i}") for i, value in enumerate(values)]
        assert lines[0] == singles[0][0][0]
        assert lines[1:] == [line for single, _ in singles for line in single[1:]]
        assert doc["table"] == [cell for _, single in singles for cell in single["table"]]
        assert {k: v for k, v in doc.items() if k != "table"} == {
            k: v for k, v in singles[0][1].items() if k != "table"}

    def test_sweep_mode(self, runner, tmp_path):
        result = invoke(runner, ["bench", "--mode", "sweep", "--scenario", "C", "--n", "40",
                                 "--p", "10", "--replicates", "2", "--seed", "3",
                                 "--grid", "0,1,5",
                                 "--out-csv", str(tmp_path / "s.csv"),
                                 "--out-json", str(tmp_path / "s.json")])
        assert result.exit_code == 0
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "gamma,mean_fpr,mean_tpr"
        assert len(lines) == 6
        doc = json.loads((tmp_path / "s.json").read_text())
        assert 0.0 <= doc["auc"] <= 1.0

    def test_sweep_threads_byte_identical(self, runner, tmp_path):
        base = ["bench", "--mode", "sweep", "--scenario", "A", "--n", "30", "--p", "20",
                "--replicates", "5", "--seed", "8", "--grid", "0,1,11"]
        outs = []
        for threads in ("1", "4"):
            csv, js = tmp_path / f"s{threads}.csv", tmp_path / f"s{threads}.json"
            result = invoke(runner, base + ["--threads", threads,
                                            "--out-csv", str(csv), "--out-json", str(js)])
            assert result.exit_code == 0
            outs.append((csv.read_bytes(), js.read_bytes(), result.output))
        assert outs[0] == outs[1]

    def test_sweep_replicates_run_on_calling_thread(self, runner, tmp_path, monkeypatch):
        import threading

        from tauscreen import evalbench

        idents = []
        score_cells = evalbench._score_cells

        def recording(*args):
            idents.append(threading.get_ident())
            return score_cells(*args)

        monkeypatch.setattr(evalbench, "_score_cells", recording)
        base = ["bench", "--scenario", "A", "--n", "30", "--p", "20", "--replicates", "4",
                "--seed", "8", "--out-csv", str(tmp_path / "s.csv"),
                "--out-json", str(tmp_path / "s.json")]
        # the sweep whatever --threads says; a table at --threads 1
        for args in (["--mode", "sweep", "--grid", "0,1,5", "--threads", "4"],
                     ["--mode", "table", "--gamma", "0.3,0.5", "--threads", "1"]):
            idents.clear()
            result = invoke(runner, base + args)
            assert result.exit_code == 0
            assert idents == [threading.get_ident()] * 4

    @pytest.mark.parametrize("grid,message", [
        ("0,1,-1", "COUNT must be an integer >= 2"),
        ("0,1,0", "COUNT must be an integer >= 2"),
        ("0,1,1", "COUNT must be an integer >= 2"),
        ("0,1,2.5", "COUNT must be an integer >= 2"),
        ("0,nan,5", "MIN and MAX must be finite"),
        ("0,inf,3", "MIN and MAX must be finite"),
        ("-0.5,1,3", "need 0 <= MIN <= MAX"),
        ("0.8,0.2,3", "need 0 <= MIN <= MAX"),
        ("0,,1,5", "--grid: empty item in '0,,1,5'"),
    ], ids=["count-negative", "count-zero", "count-one", "count-fraction", "max-nan", "max-inf",
            "min-negative", "min-above-max", "empty-item"])
    def test_bad_grid_is_usage_error(self, runner, tmp_path, grid, message):
        result = runner.invoke(main, ["bench", "--mode", "sweep", "--scenario", "C",
                                      "--n", "20", "--p", "5", "--replicates", "1",
                                      "--grid", grid,
                                      "--out-csv", str(tmp_path / "s.csv"),
                                      "--out-json", str(tmp_path / "s.json")])
        assert result.exit_code == 2
        assert message in result.output
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("key,value", [
        ("replicates", 0), ("replicates", -2), ("threads", 0), ("threads", -3),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_replicates_or_threads_is_usage_error(self, runner, tmp_path, key, value,
                                                      source):
        args = ["bench", "--mode", "sweep", "--scenario", "C", "--n", "20", "--p", "5",
                "--out-csv", str(tmp_path / "s.csv"), "--out-json", str(tmp_path / "s.json")]
        if source == "flag":
            args += [f"--{key}", str(value)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            args += ["--config", str(cfg)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert f"--{key} must be an integer >= 1, got {value}" in result.output
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--q", "1.5", "fpr mode needs q in (0, 1)"),
        ("--q", "0", "fpr mode needs q in (0, 1)"),
        ("--gamma", "-1", "fixed mode needs gamma >= 0"),
        ("--rate", "0,0.25", "rate mode needs C1 > 0"),
        ("--rate", "1,0.7", "rate mode needs kappa in (0, 1/2)"),
        ("--q", "nan", "fpr mode needs q in (0, 1)"),
        ("--gamma", "nan", "fixed mode needs gamma >= 0 and finite"),
        ("--gamma", "inf", "fixed mode needs gamma >= 0 and finite"),
        ("--rate", "nan,0.25", "rate mode needs C1 > 0 and finite"),
        ("--rate", "inf,0.25", "rate mode needs C1 > 0 and finite"),
        ("--rate", "1,nan", "rate mode needs kappa in (0, 1/2)"),
        ("--q", "0.05,", "--q: empty item in '0.05,'"),
        ("--gamma", "0.3, ,0.5", "--gamma: empty item in '0.3, ,0.5'"),
        ("--rate", ",0.5,0.25", "--rate: empty item in ',0.5,0.25'"),
    ], ids=["q-above-one", "q-zero", "gamma-negative", "rate-c1-zero", "rate-kappa-high",
            "q-nan", "gamma-nan", "gamma-inf", "rate-c1-nan", "rate-c1-inf", "rate-kappa-nan",
            "q-empty-item", "gamma-empty-item", "rate-empty-item"])
    def test_bad_threshold_is_usage_error(self, runner, tmp_path, flag, value, message):
        result = runner.invoke(main, ["bench", "--mode", "table", "--scenario", "C",
                                      "--n", "20", "--p", "5", "--replicates", "1",
                                      flag, value,
                                      "--out-csv", str(tmp_path / "t.csv"),
                                      "--out-json", str(tmp_path / "t.json")])
        assert result.exit_code == 2
        assert message in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode,key,value", [
        ("sweep", "q", "0.05"), ("sweep", "gamma", "0.3"), ("sweep", "rate", "0.6,0.25"),
        ("table", "grid", "0,1,5"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_flag_of_other_mode_is_usage_error(self, runner, tmp_path, mode, key, value,
                                               source):
        inputs = tmp_path / "in"
        inputs.mkdir()
        args = ["bench", "--mode", mode, "--scenario", "C", "--n", "20", "--p", "5",
                "--replicates", "1",
                "--out-csv", str(tmp_path / "t.csv"), "--out-json", str(tmp_path / "t.json")]
        if mode == "table":
            args += ["--gamma", "0.3"]
        if source == "flag":
            args += [f"--{key}", value]
        else:
            cfg = inputs / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            args += ["--config", str(cfg)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert f"{mode} mode does not take --{key}" in result.output
        assert [p.name for p in tmp_path.iterdir()] == ["in"]

    def test_fpr_with_two_rows_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["bench", "--scenario", "C", "--n", "2", "--p", "10",
                                      "--q", "0.05",
                                      "--out-csv", str(tmp_path / "t.csv"),
                                      "--out-json", str(tmp_path / "t.json")])
        assert result.exit_code == 2
        assert "fpr mode needs n >= 3" in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("scenario,p", [("D", 10), ("C", 2)])
    def test_fpr_without_true_non_edges_is_named(self, runner, tmp_path, scenario, p):
        # a complete true graph: q times zero non-edges is no budget
        result = runner.invoke(main, ["bench", "--scenario", scenario, "--n", "20",
                                      "--p", str(p), "--q", "0.1",
                                      "--out-csv", str(tmp_path / "t.csv"),
                                      "--out-json", str(tmp_path / "t.json")])
        assert result.exit_code == 1
        assert result.output == ("error: replicate 0 failed: the true graph has no "
                                 "non-edges, so q sets no budget\n")
        assert list(tmp_path.iterdir()) == []

    def test_non_integer_config_replicates_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"replicates": "3"}))
        result = runner.invoke(main, ["bench", "--scenario", "C", "--n", "20", "--p", "5",
                                      "--q", "0.1", "--config", str(cfg),
                                      "--out-csv", str(tmp_path / "s.csv"),
                                      "--out-json", str(tmp_path / "s.json")])
        assert result.exit_code == 2
        assert 'replicates must be an integer, got "3"' in result.output

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "C", "n": 30, "p": 8, "replicates": 2,
                                   "q": "0.2", "seed": 4}))
        result = invoke(runner, ["bench", "--config", str(cfg), "--n", "40",
                                 "--out-csv", str(tmp_path / "o.csv"),
                                 "--out-json", str(tmp_path / "o.json")])
        assert result.exit_code == 0
        doc = json.loads((tmp_path / "o.json").read_text())
        assert doc["sim"]["n"] == 40  # flag wins over config
        assert doc["sim"]["scenario"] == "C"

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "C", "wat": 1}))
        result = runner.invoke(main, ["bench", "--config", str(cfg),
                                      "--out-csv", "o.csv", "--out-json", "o.json"])
        assert result.exit_code == 2
        assert "wat" in result.output


class TestDistinctOutputs:
    @pytest.mark.parametrize("command,args,message", [
        ("bench", ["--scenario", "C", "--n", "20", "--p", "5", "--replicates", "2",
                   "--gamma", "0.3", "--out-csv", "same.out", "--out-json", "same.out"],
         "--out-csv and --out-json name the same file same.out"),
        ("bench", ["--mode", "sweep", "--scenario", "C", "--n", "20", "--p", "5",
                   "--out-csv", "same.out", "--out-json", "sub/../same.out"],
         "--out-csv and --out-json name the same file sub/../same.out"),
        ("screen", ["--data", "zv.csv", "--fpr-q", "0.05", "--out", "zv.tsv",
                    "--components-out", "zv.tsv"],
         "--out and --components-out name the same file zv.tsv"),
    ], ids=["bench-table", "bench-sweep", "screen"])
    def test_shared_output_path_is_usage_error(self, runner, tmp_path, monkeypatch,
                                               command, args, message):
        # the inputs do not exist: the outputs are checked before any read
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == 2
        assert message in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,args,message", [
        ("screen", ["--data", "d.csv", "--gamma", "0.1", "--out", "d.csv"],
         "--data and --out name the same file d.csv"),
        ("screen", ["--data", "d.csv", "--gamma", "0.1", "--out", "e.tsv",
                    "--components-out", "d.csv"],
         "--data and --components-out name the same file d.csv"),
        ("screen", ["--data", "e.tsv.components.tsv", "--gamma", "0.1", "--components",
                    "--out", "e.tsv"],
         "--data and --components-out name the same file e.tsv.components.tsv"),
        ("screen", ["--data", "d.csv", "--gamma", "0.1", "--out", "link.tsv"],
         "--data and --out name the same file link.tsv"),
        ("screen", ["--data", "d.csv", "--gamma", "0.1", "--out", "hard.tsv"],
         "--data and --out name the same file hard.tsv"),
        ("screen", ["--config", "c.json", "--data", "d.csv", "--gamma", "0.1",
                    "--out", "sub/../c.json"],
         "--config and --out name the same file sub/../c.json"),
        ("ingest-prices", ["--prices", "p.csv", "--out", "p.csv"],
         "--prices and --out name the same file p.csv"),
        ("diagnose", ["--sigma", "s.csv", "--precision", "w.csv", "--n", "30", "--out", "s.csv"],
         "--sigma and --out name the same file s.csv"),
        ("bench", ["--config", "c.json", "--scenario", "C", "--n", "20", "--p", "5",
                   "--gamma", "0.3", "--out-csv", "o.csv", "--out-json", "c.json"],
         "--config and --out-json name the same file c.json"),
        ("simulate", ["--config", "sim_config.json", "--out-dir", "."],
         "--config and --out-dir name the same file ./sim_config.json"),
    ], ids=["screen-data", "screen-components-out", "screen-derived-components",
            "screen-symlink", "screen-hard-link", "screen-config", "ingest-prices",
            "diagnose", "bench-config", "simulate-config"])
    def test_output_naming_an_input_is_usage_error(self, runner, tmp_path, monkeypatch,
                                                   command, args, message):
        # the inputs hold no valid table: the rule refuses before any is read
        monkeypatch.chdir(tmp_path)
        for name in ("d.csv", "e.tsv.components.tsv", "p.csv", "s.csv", "w.csv", "g.tsv"):
            (tmp_path / name).write_text(f"{name}\n")
        (tmp_path / "c.json").write_text("{}")
        (tmp_path / "sim_config.json").write_text('{"scenario": "C", "n": 10, "p": 5}')
        (tmp_path / "link.tsv").symlink_to("d.csv")
        os.link(tmp_path / "d.csv", tmp_path / "hard.tsv")
        (tmp_path / "sub").mkdir()
        before = read_bytes_map(tmp_path)
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == 2
        assert f"Error: {message}\n" in result.output
        assert read_bytes_map(tmp_path) == before
        assert sorted(os.listdir(tmp_path)) == sorted([*before, "sub"])
        assert (tmp_path / "link.tsv").is_symlink()

    # Each command's flags, besides its paths, that carry it to the file rule.
    RULE_ARGS = {
        "simulate": ["--scenario", "C", "--n", "10", "--p", "5"],
        "screen": ["--gamma", "0.3"],
        "ingest-prices": [],
        "bench": ["--scenario", "C", "--n", "20", "--p", "5", "--replicates", "1",
                  "--gamma", "0.3"],
        "diagnose": ["--n", "30"],
    }

    @pytest.mark.parametrize("command", sorted(main.commands))
    def test_every_path_option_is_in_the_rule(self, runner, tmp_path, monkeypatch, command):
        """Every click.Path option, --config and --out-dir included, is a read
        or a write of the file rule, so a new path flag cannot skip it."""
        options = [p for p in main.commands[command].params if isinstance(p.type, click.Path)]
        paths = {opt.opts[0]: str(tmp_path / opt.name) for opt in options}
        (tmp_path / "config").write_text("{}")
        checked = []
        file_keys = cli._file_keys
        monkeypatch.setattr(cli, "_file_keys", lambda path: checked.append(path) or file_keys(path))
        args = [command, *self.RULE_ARGS[command]]
        for flag, path in paths.items():
            args += [flag, path]
        runner.invoke(main, args)
        assert "--config" in paths
        for flag, path in paths.items():
            assert any(path in (p, os.path.dirname(p)) for p in checked), flag


class TestConfig:
    @pytest.mark.parametrize("command,config,message", [
        ("screen", {"gamma": 0.3, "components": "no"}, 'components must be true or false, got "no"'),
        ("bench", {"mode": "swep", "q": "0.1", "replicates": 1}, "'swep' is not one of"),
        ("screen", {"gamma": 0.3, "estimator": "spearman"}, "'spearman' is not one of"),
        ("screen", {"gamma": "abc"}, 'gamma must be a number, got "abc"'),
        ("simulate", {"n": 40, "seed": "abc"}, 'seed must be an integer, got "abc"'),
        ("simulate", {"n": "40"}, 'n must be an integer, got "40"'),
        ("screen", {"gamma": 0.3, "threads": 1.5}, "threads must be an integer, got 1.5"),
        ("bench", {"q": "0.1", "replicates": "3"}, 'replicates must be an integer, got "3"'),
        ("screen", {"data_path": "d\u0000.csv", "gamma": 0.3}, "data_path must not hold a NUL byte"),
    ], ids=["flag-string", "choice-typo", "choice-unknown", "float-string", "int-string",
            "int-numeral-string", "int-fraction", "count-string", "path-nul"])
    def test_bad_value_is_usage_error(self, runner, tmp_path, command, config, message):
        inputs = tmp_path / "in"
        inputs.mkdir()
        data = inputs / "d.csv"
        write_data_csv(data, __import__("tauscreen").DataMatrix(np.eye(4)))
        cfg = inputs / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = {
            "screen": ["--data", str(data), "--out", str(tmp_path / "e.tsv")],
            "bench": ["--scenario", "C", "--n", "20", "--p", "5",
                      "--out-csv", str(tmp_path / "t.csv"), "--out-json", str(tmp_path / "t.json")],
            "simulate": ["--scenario", "C", "--p", "5", "--out-dir", str(tmp_path / "sim")],
        }[command]
        result = runner.invoke(main, [command, *args, "--config", str(cfg)])
        assert result.exit_code == 2
        assert message in result.output
        assert [p.name for p in tmp_path.iterdir()] == ["in"]

    def test_non_utf8_config_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"n": "\xff"}')
        result = runner.invoke(main, ["simulate", "--scenario", "C", "--n", "10", "--p", "5",
                                      "--out-dir", str(tmp_path / "sim"), "--config", str(cfg)])
        assert result.exit_code == 2
        assert f"cannot read config {cfg}: 'utf-8' codec can't decode" in result.output
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_screen_paths_from_config(self, runner, tmp_path):
        sim_dir = tmp_path / "sim"
        invoke(runner, ["simulate", "--scenario", "C", "--n", "40", "--p", "10",
                        "--seed", "3", "--out-dir", str(sim_dir)])
        data = str(sim_dir / "sim_data.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data_path": data, "out": str(tmp_path / "a.tsv"),
                                   "fpr_q": 0.1, "components": True}))
        by_config = invoke(runner, ["screen", "--config", str(cfg)])
        by_flags = invoke(runner, ["screen", "--data", data, "--fpr-q", "0.1", "--components",
                                   "--out", str(tmp_path / "b.tsv")])
        assert by_config.exit_code == 0 and by_flags.exit_code == 0
        assert by_config.output == by_flags.output
        for suffix in ("", ".components.tsv"):
            assert ((tmp_path / f"a.tsv{suffix}").read_bytes()
                    == (tmp_path / f"b.tsv{suffix}").read_bytes())


class TestDiagnose:
    def test_from_scenario(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = invoke(runner, ["diagnose", "--scenario", "B", "--p", "30", "--seed", "2",
                                 "--n", "100", "--hoeffding-n", "50,100",
                                 "--hoeffding-t", "0.1,0.2", "--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["assumptions"]["max_nonedge_corr"] == 0.0
        assert doc["conditioning"]["beta_exceeds_one"] is True
        assert len(doc["hoeffding"]) == 4
        assert doc["neighborhood_size_bound"] > 0

    @pytest.mark.parametrize("scenario,p", [("A", 150), ("B", 200), ("C", 30), ("D", 40)])
    def test_from_files_matches_scenario(self, runner, tmp_path, scenario, p):
        """The ground-truth check accepts simulate's files (doubles at 17
        digits), and the report from them is the scenario's, byte for byte."""
        sim_dir = tmp_path / "sim"
        invoke(runner, ["simulate", "--scenario", scenario, "--n", "60", "--p", str(p),
                        "--seed", "5", "--out-dir", str(sim_dir)])
        by_files, by_scenario = tmp_path / "files.json", tmp_path / "scenario.json"
        result = invoke(runner, ["diagnose", "--sigma", str(sim_dir / "sim_sigma.csv"),
                                 "--precision", str(sim_dir / "sim_precision.csv"),
                                 "--n", "60", "--out", str(by_files)])
        assert result.exit_code == 0, result.output
        invoke(runner, ["diagnose", "--scenario", scenario, "--p", str(p), "--seed", "5",
                        "--n", "60", "--out", str(by_scenario)])
        assert by_files.read_bytes() == by_scenario.read_bytes()

    def test_edgeless_graph_report_is_valid_json(self, runner, tmp_path):
        # independent variables: identity sigma and precision, no edges
        identity = tmp_path / "identity.csv"
        write_matrix_csv(identity, np.eye(10))
        out = tmp_path / "report.json"
        result = invoke(runner, ["diagnose", "--sigma", str(identity),
                                 "--precision", str(identity), "--n", "100", "--out", str(out)])
        assert result.exit_code == 0

        def refuse(token):
            raise AssertionError(f"{token} is not JSON")

        for text in (out.read_text(), result.output):
            doc = json.loads(text, parse_constant=refuse)
            assert doc["assumptions"]["min_edge_corr"] is None
            assert doc["conditioning"]["min_scaled_precision"] is None

    @pytest.mark.parametrize("flag,value,fields", [
        ("--alpha", "400", [("assumptions", "eigenvalue_cap")]),
        ("--c1", "1e-300", [("conditioning", "n_required"), (None, "neighborhood_size_bound")]),
    ], ids=["alpha", "c1"])
    def test_overflowing_constant_reports_null(self, runner, tmp_path, flag, value, fields):
        out = tmp_path / "report.json"
        result = invoke(runner, ["diagnose", "--scenario", "C", "--p", "5", "--n", "100",
                                 flag, value, "--out", str(out)])
        assert result.exit_code == 0, result.output
        for text in (out.read_text(), result.output):
            doc = json.loads(text)
            for section, key in fields:
                assert (doc[section] if section else doc)[key] is None

    def test_requires_inputs(self, runner):
        result = CliRunner().invoke(main, ["diagnose", "--n", "50", "--out", "r.json"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("given", [("--sigma",), ("--precision",)])
    def test_partial_files_are_usage_error(self, runner, tmp_path, given):
        # the files do not exist: the flags are checked before any read
        files = [arg for flag in given for arg in (flag, str(tmp_path / "in.csv"))]
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["diagnose", "--scenario", "C", "--p", "5", "--n", "100",
                                      *files, "--out", str(out)])
        assert result.exit_code == 2
        assert "--sigma and --precision go together" in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("extra,config,named", [
        (["--p", "99", "--seed", "7", "--scenario", "A"], None, "--scenario, --p, --seed"),
        (["--p", "12"], None, "--p"),
        (["--seed", "0"], None, "--seed"),
        (["--scenario", "C"], None, "--scenario"),
        ([], {"seed": 7}, "--seed"),
    ], ids=["all-three", "p", "default-seed", "scenario", "seed-from-config"])
    def test_files_take_no_scenario_flags(self, runner, tmp_path, extra, config, named):
        sim_dir = tmp_path / "sim"
        invoke(runner, ["simulate", "--scenario", "C", "--n", "50", "--p", "12",
                        "--out-dir", str(sim_dir)])
        args = ["diagnose", "--sigma", str(sim_dir / "sim_sigma.csv"),
                "--precision", str(sim_dir / "sim_precision.csv"), "--n", "80", *extra,
                "--out", str(tmp_path / "r.json")]
        if config is not None:
            cfg = sim_dir / "cfg.json"
            cfg.write_text(json.dumps(config))
            args += ["--config", str(cfg)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert f"--sigma/--precision do not take {named}" in result.output
        assert not (tmp_path / "r.json").exists()

    def test_bad_scenario_shape_is_usage_error(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["diagnose", "--scenario", "D", "--p", "15",
                                      "--n", "100", "--out", str(out)])
        assert result.exit_code == 2
        assert "scenario D requires p divisible by 10, got 15" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--hoeffding-n", "2.7", "--hoeffding-n: sample sizes must be integers >= 2"),
        ("--hoeffding-n", "1", "--hoeffding-n: sample sizes must be integers >= 2"),
        ("--hoeffding-t", "0", "--hoeffding-t: deviations must be finite and > 0"),
        ("--hoeffding-t", "nan", "--hoeffding-t: deviations must be finite and > 0"),
        ("--hoeffding-t", "inf", "--hoeffding-t: deviations must be finite and > 0"),
        ("--hoeffding-n", "50,,100", "--hoeffding-n: empty item in '50,,100'"),
    ], ids=["n-fraction", "n-one", "t-zero", "t-nan", "t-inf", "n-empty-item"])
    def test_bad_hoeffding_value_is_usage_error(self, runner, tmp_path, flag, value, message):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["diagnose", "--scenario", "B", "--p", "30",
                                      "--n", "100", flag, value, "--out", str(out)])
        assert result.exit_code == 2
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--n", "1", "need n >= 2"),
        ("--kappa", "0.7", "kappa must lie in (0, 1/2)"),
        ("--xi", "0.6", "xi must lie in (0, 1 - 2*kappa)"),
        ("--c1", "0", "C1 and C2 must be positive"),
        ("--c2", "-1", "C1 and C2 must be positive"),
        ("--alpha", "-0.5", "alpha must be nonnegative"),
        ("--c1", "nan", "C1 and C2 must be positive and finite"),
        ("--c2", "inf", "C1 and C2 must be positive and finite"),
        ("--alpha", "inf", "alpha must be nonnegative and finite"),
    ], ids=["n", "kappa", "xi", "c1", "c2", "alpha", "c1-nan", "c2-inf", "alpha-inf"])
    @pytest.mark.parametrize("source", ["scenario", "files"])
    def test_bad_theory_constant_is_usage_error(self, runner, tmp_path, flag, value, message,
                                                source):
        # the files do not exist: the constants are checked before any read
        inputs = (["--scenario", "B", "--p", "30"] if source == "scenario" else
                  ["--sigma", str(tmp_path / "s.csv"), "--precision", str(tmp_path / "o.csv")])
        args = ["diagnose", *inputs, "--n", "100", flag, value,
                "--out", str(tmp_path / "report.json")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert message in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("which,edit,message", [
        ("sigma", lambda m: 2.0 * m, "sigma diagonal is not 1"),
        ("precision", lambda m: np.eye(len(m)), "sigma * omega deviates from identity by 0.3"),
    ], ids=["twice-sigma", "identity-precision"])
    def test_files_that_disagree_are_refused(self, runner, tmp_path, which, edit, message):
        sim_dir = tmp_path / "sim"
        invoke(runner, ["simulate", "--scenario", "C", "--n", "50", "--p", "4",
                        "--out-dir", str(sim_dir)])
        files = {"sigma": sim_dir / "sim_sigma.csv", "precision": sim_dir / "sim_precision.csv"}
        bad = tmp_path / f"bad_{which}"
        write_matrix_csv(bad, edit(read_matrix_csv(files[which])))
        files[which] = bad
        out = tmp_path / "report.json"
        result = runner.invoke(main, [
            "diagnose", "--sigma", str(files["sigma"]), "--precision", str(files["precision"]),
            "--n", "50", "--out", str(out)])
        assert result.exit_code == 1
        assert result.stdout == ""
        named = f"{files['sigma']}, {files['precision']}"
        assert result.stderr == f"error: {named}: not one ground truth: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("which,edit,message", [
        ("sigma", lambda m: m[:, :3], "matrix must be square, got shape (4, 3)"),
        ("precision", lambda m: m[:3, :3], "matrix is 3x3, but {sigma} is 4x4"),
        ("sigma", lambda m: m + np.triu(np.full_like(m, 0.01), 1),
         "matrix is not symmetric"),
        ("precision", lambda m: m + np.triu(np.full_like(m, 0.01), 1),
         "matrix is not symmetric"),
    ], ids=["sigma-not-square", "precision-other-size", "sigma-asymmetric",
            "precision-asymmetric"])
    def test_bad_matrix_file_fails_before_writing(self, runner, tmp_path, which, edit,
                                                  message):
        sim_dir = tmp_path / "sim"
        invoke(runner, ["simulate", "--scenario", "C", "--n", "50", "--p", "4",
                        "--out-dir", str(sim_dir)])
        files = {"sigma": sim_dir / "sim_sigma.csv", "precision": sim_dir / "sim_precision.csv"}
        bad = tmp_path / f"bad_{which}.csv"
        write_matrix_csv(bad, edit(read_matrix_csv(files[which])))
        files[which] = bad
        out = tmp_path / "report.json"
        result = runner.invoke(main, [
            "diagnose", "--sigma", str(files["sigma"]), "--precision", str(files["precision"]),
            "--n", "200", "--out", str(out)])
        assert result.exit_code == 1
        assert result.stderr == f"error: {bad}: {message.format(sigma=files['sigma'])}\n"
        assert not out.exists()

class TestErrorBoundary:
    """A runtime error of any command ends at the ``main`` group as one
    ``error:`` line and exit 1, never as a raw exception."""

    @pytest.mark.parametrize("case", ["screen", "ingest-prices", "diagnose-sigma",
                                      "simulate-out-dir", "bench-sweep", "bench-table"])
    def test_runtime_error_is_one_line(self, runner, tmp_path, monkeypatch, case):
        not_utf8 = tmp_path / "bad.csv"
        not_utf8.write_bytes(b"1,2\n\xff\xfe,1\n")
        regular = tmp_path / "file"
        regular.write_text("")
        bench = ["bench", "--scenario", "C", "--n", "20", "--p", "5", "--replicates", "2",
                 "--out-csv", str(tmp_path / "b.csv"), "--out-json", str(tmp_path / "b.json")]
        args, message = {
            "screen": (["screen", "--data", str(not_utf8), "--gamma", "0.3",
                        "--out", str(tmp_path / "e.tsv")], f"{not_utf8}: line 2 is not UTF-8"),
            "ingest-prices": (["ingest-prices", "--prices", str(not_utf8),
                               "--out", str(tmp_path / "r.csv")],
                              f"{not_utf8}: line 2 is not UTF-8"),
            "diagnose-sigma": (["diagnose", "--sigma", str(not_utf8), "--precision",
                                str(not_utf8), "--n", "50", "--out", str(tmp_path / "r.json")],
                               f"{not_utf8}: line 2 is not UTF-8"),
            "simulate-out-dir": (["simulate", "--scenario", "C", "--n", "10", "--p", "3",
                                  "--out-dir", str(regular / "sub")], "Not a directory"),
            "bench-sweep": (bench + ["--mode", "sweep"], "replicate 0 failed: not pd"),
            "bench-table": (bench + ["--gamma", "0.3"], "replicate 0 failed: not pd"),
        }[case]

        def singular(*args, **kwargs):
            raise SingularMatrixError("not pd")

        if case.startswith("bench"):
            monkeypatch.setattr(evalbench, "generate_ground_truth", singular)
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a raw exception
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert message in result.stderr


    @pytest.mark.parametrize("error,line", [
        (MemoryError("Unable to allocate 728. TiB for an array"),
         "error: Unable to allocate 728. TiB for an array\n"),
        (MemoryError(), "error: MemoryError\n"),
    ], ids=["numpy-message", "bare"])
    def test_memory_error_is_one_line(self, runner, tmp_path, monkeypatch, error, line):
        # a stand-in for numpy's refusal of a huge array: no real allocation is tried
        def no_memory(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "generate_ground_truth", no_memory)
        result = runner.invoke(main, ["simulate", "--scenario", "C", "--n", "10", "--p", "10",
                                      "--out-dir", str(tmp_path / "sim")], catch_exceptions=False)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args,message", [
        (["simulate", "--scenario", "C", "--n", BIG, "--p", "10"],
         f"n={BIG} is too large: numpy cannot index an n x 10 array"),
        (["simulate", "--scenario", "C", "--n", "10", "--p", BIG],
         f"p={BIG} is too large: numpy cannot index a p x p matrix"),
        (["simulate", "--scenario", "C", "--n", str(2 * 10**16), "--p", "10", "--base", "t",
          "--theta", "100"], "numpy cannot index an n x 100 array"),
        (["bench", "--scenario", "C", "--n", BIG, "--p", "10", "--q", "0.1"],
         "numpy cannot index an n x 10 array"),
        (["bench", "--mode", "sweep", "--scenario", "C", "--n", "20", "--p", "10",
          "--grid", "0,1,1e20"], "--grid: COUNT must be an integer >= 2 and <= "),
        (["diagnose", "--scenario", "C", "--p", BIG, "--n", "10"],
         "numpy cannot index a p x p matrix"),
        (["diagnose", "--scenario", "C", "--p", "10", "--n", "1" + "0" * 400],
         "n is too large to convert to a float"),
    ], ids=["simulate-n", "simulate-p", "simulate-theta", "bench-n", "bench-grid-count",
            "diagnose-p", "diagnose-n-float"])
    def test_size_numpy_cannot_hold_is_usage_error(self, runner, tmp_path, monkeypatch,
                                                   args, message):
        # refused before any draw: a ground truth or a grid is never built
        def no_draw(*args, **kwargs):
            raise AssertionError("a refused size reached a draw")

        for name in ("generate_ground_truth", "run_experiments", "roc_sweep"):
            monkeypatch.setattr(cli, name, no_draw)
        monkeypatch.setattr(cli.np, "linspace", no_draw)
        outputs = {"simulate": ["--out-dir", str(tmp_path / "sim")],
                   "bench": ["--out-csv", str(tmp_path / "b.csv"),
                             "--out-json", str(tmp_path / "b.json")],
                   "diagnose": ["--out", str(tmp_path / "r.json")]}[args[0]]
        result = runner.invoke(main, args + outputs, catch_exceptions=False)
        assert result.exit_code == 2
        assert message in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_diagnose_judges_a_huge_n(self, runner, tmp_path):
        # diagnose draws no sample, so an n past any array size is still judged
        result = runner.invoke(main, ["diagnose", "--scenario", "C", "--p", "10", "--n", BIG,
                                      "--out", str(tmp_path / "r.json")], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["assumptions"]["n"] == int(BIG)

    @pytest.mark.parametrize("command", ["screen", "ingest-prices", "diagnose-sigma"])
    @pytest.mark.parametrize("csv,line", [
        (b"\xff\xfea,b\n1,2\n3,4\n", 1),
        (b"1,2\n3,4\n\n5,\xe9\n", 4),
    ], ids=["bom-header", "after-blank-line"])
    def test_non_utf8_input_names_file_and_line(self, runner, tmp_path, command, csv, line):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(csv)
        args = {
            "screen": ["screen", "--data", str(bad), "--gamma", "0.3",
                       "--out", str(tmp_path / "e.tsv")],
            "ingest-prices": ["ingest-prices", "--prices", str(bad),
                              "--out", str(tmp_path / "r.csv")],
            "diagnose-sigma": ["diagnose", "--sigma", str(bad), "--precision", str(bad),
                               "--n", "50", "--out", str(tmp_path / "r.json")],
        }[command]
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 1
        assert result.stderr == f"error: {bad}: line {line} is not UTF-8 text\n"
        assert sorted(tmp_path.iterdir()) == [bad]


class TestWarnings:
    """A warning of a command is one ``warning:`` line on stderr, and the
    process's warning settings come back when the command returns."""

    @pytest.mark.parametrize("command", ["screen", "bench"])
    def test_warning_is_one_line(self, runner, tmp_path, command):
        data = tmp_path / "const.csv"  # column b is constant: zero jackknife variance
        data.write_text("a,b,c\n1,5,2\n2,5,1\n3,5,4\n4,5,3\n5,5,6\n")
        args = {
            "screen": ["screen", "--data", str(data), "--fpr-q", "0.1",
                       "--out", str(tmp_path / "e.tsv")],
            "bench": ["bench", "--scenario", "C", "--n", "4", "--p", "5", "--q", "0.1",
                      "--replicates", "2", "--out-csv", str(tmp_path / "b.csv"),
                      "--out-json", str(tmp_path / "b.json")],
        }[command]
        before = warnings.showwarning, list(warnings.filters)
        result = runner.invoke(main, args, catch_exceptions=False)
        assert (warnings.showwarning, warnings.filters) == before
        assert result.exit_code == 0, result.output
        assert result.stderr == ("warning: degenerate pair(s) with zero jackknife variance: "
                                 "their threshold is 0 and they are kept whenever |corr| > 0\n")
        assert json.loads(result.stdout)


class TestSignBlocks:
    """CLI bytes do not depend on how many rows the tau-only sign kernel
    takes per matrix product."""

    @pytest.mark.parametrize("command", ["bench-sweep", "screen-gamma", "screen-rate"])
    def test_bytes_do_not_depend_on_block_rows(self, runner, tmp_path, command):
        data = tmp_path / "sim" / "sim_data.csv"
        invoke(runner, ["simulate", "--scenario", "B", "--n", "60", "--p", "20",
                        "--base", "t", "--transform", "npn", "--seed", "4",
                        "--out-dir", str(data.parent)])
        outputs = []
        for rows in (1, rankcorr._SIGN_BLOCK_ROWS):
            out = tmp_path / f"rows{rows}"
            out.mkdir()
            args = {
                "bench-sweep": ["bench", "--mode", "sweep", "--scenario", "B", "--n", "40",
                                "--p", "20", "--replicates", "3", "--seed", "6",
                                "--out-csv", str(out / "s.csv"),
                                "--out-json", str(out / "s.json")],
                "screen-gamma": ["screen", "--data", str(data), "--gamma", "0.2",
                                 "--components", "--out", str(out / "e.tsv")],
                "screen-rate": ["screen", "--data", str(data), "--rate", "0.9,0.25",
                                "--components", "--out", str(out / "e.tsv")],
            }[command]
            with mock.patch.object(rankcorr, "_SIGN_BLOCK_ROWS", rows):
                result = invoke(runner, args)
            assert result.exit_code == 0, result.output
            outputs.append((result.output, read_bytes_map(out)))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1]) == 2
        if command != "bench-sweep":
            assert json.loads(outputs[0][0])["edge_count"] > 0


class TestPipelineConsistency:
    def test_cli_pipeline_matches_in_process_experiment(self, runner, tmp_path):
        """simulate -> screen on files reproduces run_experiments exactly."""
        seed = 31337
        sim = SimConfig(scenario="C", n=60, p=12, seed=seed)
        sim_dir = tmp_path / "sim"
        invoke(runner, ["simulate", "--scenario", "C", "--n", "60", "--p", "12",
                        "--seed", str(seed), "--out-dir", str(sim_dir)])
        edges_out = tmp_path / "est.tsv"
        invoke(runner, ["screen", "--data", str(sim_dir / "sim_data.csv"),
                        "--rate", "0.5,0.25", "--out", str(edges_out)])
        est, _ = read_edge_pairs(edges_out, p=12)
        truth, _ = read_edge_pairs(sim_dir / "sim_edges.tsv", p=12)
        cli_metrics = confusion(est, truth)

        result, = run_experiments(sim, "kendall", 1, [ThresholdSpec.rate(0.5, 0.25)])
        assert result.counts.tolist() == [list(cli_metrics)]

    def test_cli_pipeline_matches_fpr_mode_with_explicit_budget(self, runner, tmp_path):
        seed = 777
        sim = SimConfig(scenario="D", n=50, p=20, seed=seed)
        gt = generate_ground_truth(sim)
        f = 0.1 * gt.nonedge_count()
        sim_dir = tmp_path / "sim"
        invoke(runner, ["simulate", "--scenario", "D", "--n", "50", "--p", "20",
                        "--seed", str(seed), "--out-dir", str(sim_dir)])
        edges_out = tmp_path / "est.tsv"
        invoke(runner, ["screen", "--data", str(sim_dir / "sim_data.csv"),
                        "--fpr-f", f"{f:.17g}", "--out", str(edges_out)])
        est, _ = read_edge_pairs(edges_out, p=20)
        truth, _ = read_edge_pairs(sim_dir / "sim_edges.tsv", p=20)
        cli_metrics = confusion(est, truth)

        result, = run_experiments(sim, "kendall", 1, [ThresholdSpec.fpr(q=0.1)])
        assert result.counts.tolist() == [list(cli_metrics)]


class TestBlasThreads:
    """The CLI runs numpy's and scipy's OpenBLAS on one thread, so its bytes
    do not depend on ``OPENBLAS_NUM_THREADS``."""

    @pytest.mark.parametrize("command", ["simulate", "screen", "bench", "diagnose",
                                         "ingest-prices"])
    def test_every_command_pins_blas(self, runner, tmp_path, command):
        import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS, whatever ran before)

        calls = _openblas_calls()
        if None in calls.values():
            pytest.skip("numpy or scipy does not bundle OpenBLAS here")
        for set_threads, _ in calls.values():
            set_threads(2)
        data = tmp_path / "d.csv"
        write_data_csv(data, __import__("tauscreen").DataMatrix(
            np.random.default_rng(0).normal(size=(30, 4))))
        prices = tmp_path / "prices.csv"
        write_price_fixture(prices)
        args = {
            "simulate": ["simulate", "--scenario", "C", "--n", "20", "--p", "5",
                         "--out-dir", str(tmp_path / "sim")],
            "screen": ["screen", "--data", str(data), "--gamma", "0.3",
                       "--out", str(tmp_path / "e.tsv")],
            "bench": ["bench", "--scenario", "C", "--n", "20", "--p", "5", "--replicates",
                      "1", "--gamma", "0.3", "--out-csv", str(tmp_path / "b.csv"),
                      "--out-json", str(tmp_path / "b.json")],
            "diagnose": ["diagnose", "--scenario", "C", "--p", "5", "--n", "20",
                         "--out", str(tmp_path / "g.json")],
            "ingest-prices": ["ingest-prices", "--prices", str(prices),
                              "--out", str(tmp_path / "r.csv")],
        }[command]
        assert invoke(runner, args).exit_code == 0
        assert blas_threads() == {"numpy": 1, "scipy": 1}

    def test_bytes_do_not_depend_on_openblas_threads(self, tmp_path):
        # shapes at which numpy's threaded products and Cholesky factors differ
        # in the last bits between one and two OpenBLAS threads
        data = tmp_path / "d.csv"
        write_data_csv(data, __import__("tauscreen").DataMatrix(
            np.random.default_rng(4).normal(size=(200, 300))))
        bench = ["bench", "--scenario", "A", "--n", "100", "--p", "150",
                 "--replicates", "2", "--seed", "3"]
        commands = [["simulate", "--scenario", "A", "--n", "200", "--p", "300",
                     "--seed", "5", "--out-dir", "{out}/sim"],
                    ["screen", "--data", str(data), "--gamma", "0.2",
                     "--estimator", "pearson", "--out", "{out}/pearson.tsv"]]
        for estimator in ("kendall", "pearson"):
            for mode in (["--mode", "sweep"], ["--q", "0.05"]):
                name = f"{{out}}/{estimator}-{mode[-1]}"
                commands.append(bench + ["--estimator", estimator, *mode,
                                         "--out-csv", name + ".csv",
                                         "--out-json", name + ".json"])
        script = (
            "import json, sys\n"
            "from tauscreen.cli import main\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    args = [a.replace('{out}', sys.argv[2]) for a in args]\n"
            "    main.main(args=args, standalone_mode=False)\n")
        src = os.path.dirname(os.path.dirname(__import__("tauscreen").__file__))
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            result = subprocess.run([sys.executable, "-c", script, json.dumps(commands),
                                     str(out)], env=env, capture_output=True, text=True,
                                    timeout=300)
            assert result.returncode == 0, result.stderr[-2000:]
            trees.append((result.stdout, read_bytes_map(out), read_bytes_map(out / "sim")))
        assert len(trees[0][1]) == 9 and len(trees[0][2]) == 5
        assert trees[0] == trees[1]


class TestScipyImports:
    """``screen``, ``ingest-prices``, ``diagnose`` from files and ``--help``
    load no scipy module; the commands that simulate load it, with its
    OpenBLAS on one thread. Each case runs in a fresh interpreter, under two
    OpenBLAS threads by default."""

    SCRIPT = (
        "import json, sys\n"
        "from tauscreen.cli import main\n"
        "from tauscreen.linalg import blas_threads\n"
        "assert main.main(args=json.loads(sys.argv[1]), standalone_mode=False) in (None, 0)\n"
        "print(json.dumps({'scipy': [m for m in sys.modules if m.split('.')[0] == 'scipy'],\n"
        "                  'blas': blas_threads()}))\n")

    def _run(self, args):
        src = os.path.dirname(os.path.dirname(__import__("tauscreen").__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(args)],
                                env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr[-2000:]
        return json.loads(result.stdout.splitlines()[-1])

    @pytest.mark.parametrize("command", ["screen --gamma", "screen --rate", "screen --fpr-q",
                                         "screen --fpr-f", "ingest-prices",
                                         "diagnose from files", "--help"])
    def test_no_scipy_module(self, runner, tmp_path, command):
        data = tmp_path / "d.csv"
        write_data_csv(data, __import__("tauscreen").DataMatrix(
            np.random.default_rng(1).normal(size=(40, 12))))
        screen = ["screen", "--data", str(data), "--components", "--out", str(tmp_path / "e.tsv")]
        prices = tmp_path / "p.csv"
        write_price_fixture(prices)
        sim = tmp_path / "sim"
        if command == "diagnose from files":
            invoke(runner, ["simulate", "--scenario", "B", "--n", "50", "--p", "20",
                            "--out-dir", str(sim)])
        args = {
            "screen --gamma": screen + ["--gamma", "0.3"],
            "screen --rate": screen + ["--rate", "0.9,0.25"],
            "screen --fpr-q": screen + ["--fpr-q", "0.05"],
            "screen --fpr-f": screen + ["--fpr-f", "2"],
            "ingest-prices": ["ingest-prices", "--prices", str(prices),
                              "--out", str(tmp_path / "r.csv")],
            "diagnose from files": ["diagnose", "--sigma", str(sim / "sim_sigma.csv"),
                                    "--precision", str(sim / "sim_precision.csv"),
                                    "--n", "50", "--out", str(tmp_path / "g.json")],
            "--help": ["--help"],
        }[command]
        loaded = self._run(args)
        assert loaded["scipy"] == []
        assert loaded["blas"]["scipy"] == "not loaded"

    @pytest.mark.parametrize("command", ["simulate", "bench sweep", "bench table"])
    def test_simulation_pins_scipy_blas(self, tmp_path, command):
        bench = ["bench", "--scenario", "A", "--n", "40", "--p", "30", "--replicates", "4",
                 "--out-csv", str(tmp_path / "b.csv"), "--out-json", str(tmp_path / "b.json")]
        args = {
            "simulate": ["simulate", "--scenario", "A", "--n", "40", "--p", "30",
                         "--out-dir", str(tmp_path / "sim")],
            "bench sweep": bench + ["--mode", "sweep"],
            "bench table": bench + ["--q", "0.1", "--threads", "4"],
        }[command]
        loaded = self._run(args)
        if None in loaded["blas"].values():
            pytest.skip("numpy or scipy does not bundle OpenBLAS here")
        assert "scipy.linalg" in loaded["scipy"]
        assert loaded["blas"] == {"numpy": 1, "scipy": 1}
