"""The benchmark tracer still sees the layer calls its metrics read.

``benchmarks/tracing.py`` times the package by rebinding the layer functions
that ``cli``, ``evalbench`` and ``simgen`` import by name. An import renamed
or moved out of those globals hides its calls from the tracer, and the
per-layer metric built on them reads zero without failing a run; here each
benchmark-style op runs on tiny shapes under the tracer and must leave the
spans those metrics are computed from.
"""

import importlib.util
from pathlib import Path

import pytest
from click.testing import CliRunner

from tauscreen.cli import main

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "benchmarks" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


@pytest.mark.parametrize("args,spans", [
    (["screen", "--data", "{data}", "--fpr-q", "0.05", "--components", "--out", "{out}.tsv"],
     {"io.read_data_csv", "rankcorr.jackknife_matrix", "screening.threshold_matrix",
      "screening.screen_edges", "screening.connected_components",
      "screening.write_edges_tsv"}),
    (["bench", "--mode", "sweep", "--scenario", "B", "--n", "20", "--p", "10",
      "--replicates", "2", "--out-csv", "{out}.csv", "--out-json", "{out}.json"],
     {"simgen.generate_ground_truth", "simgen.sample", "rankcorr.kendall_matrix",
      "rankcorr.sine_transform"}),
    (["bench", "--scenario", "B", "--n", "20", "--p", "10", "--replicates", "2",
      "--gamma", "0.3", "--threads", "1", "--out-csv", "{out}.csv", "--out-json", "{out}.json"],
     {"evalbench.screen_data", "evalbench.confusion"}),
], ids=["screen-fpr", "bench-sweep", "bench-table"])
def test_op_leaves_layer_spans(tmp_path, args, spans):
    runner = CliRunner()
    sim_dir = tmp_path / "sim"
    result = runner.invoke(main, ["simulate", "--scenario", "B", "--n", "30", "--p", "10",
                                  "--out-dir", str(sim_dir)], catch_exceptions=False)
    assert result.exit_code == 0
    filled = [a.format(data=sim_dir / "sim_data.csv", out=tmp_path / "op") for a in args]
    tracer = load_tracer()()
    with tracer.instrumented():
        result = runner.invoke(main, filled, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    seen = {span["name"] for span in tracer.spans}
    assert spans <= seen, sorted(spans - seen)
