"""Self-test of the benchmark on tiny shapes of all its workloads.

    python3 benchmarks/selftest.py

Checks that every metric BENCHMARK.json names, and failed_frac, is printed
with its unit in both trace modes, that the last line holds the result
object, and that an op whose edge file has one line flipped is counted as
failed, both by the content check and by the comparison with the warm-up
op. Exits non-zero on the first failure; takes about half a minute on two
cores.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import sys

import run
from workloads import WORKLOADS

TINY = {
    "screen-fpr-long": {"n": 40, "p": 10},
    "bench-sweep": {"n": 30, "p": 10, "replicates": 2},
}
SEED = 3
SECONDS = 0.3
OUT = run.OUT_ROOT / "selftest"
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+)$")


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def run_quietly(wl, trace: bool, runner_cls=run.OpRunner) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.run_workload(wl, SEED, SECONDS, trace, OUT, runner_cls)
        print(json.dumps(result))
    return result, buf.getvalue()


def check_report(name: str, trace: bool, expected: dict[str, str]) -> None:
    result, text = run_quietly(tiny(name), trace)
    lines = text.strip().splitlines()
    printed = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            float(m.group(2))
            printed[m.group(1)] = m.group(3)
    want = dict(expected, failed_frac="frac")
    if printed != want:
        raise AssertionError(f"{name} trace={trace}: printed {printed}, expected {want}")
    last = json.loads(lines[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{name}: last line keys {sorted(last)}")
    units = {k: v["unit"] for k, v in last["metrics"].items()}
    if units != expected or not all(isinstance(v["value"], (int, float))
                                     for v in last["metrics"].values()):
        raise AssertionError(f"{name}: result metrics {last['metrics']}")
    if not (last["correct"] and last["failed"] == 0 and last["attempted"] >= 1):
        raise AssertionError(f"{name} trace={trace}: ops failed at tiny shape: {text}")


def flip_first_edge(path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    if len(lines) < 2:
        raise AssertionError("tiny screen wrote no edge to flip")
    a, b, value = lines[1].rstrip("\n").split("\t")
    lines[1] = f"{a}\t{b}\t{value[1:] if value.startswith('-') else '-' + value}\n"
    path.write_text("".join(lines))


class FlipEveryOp(run.OpRunner):
    """Corrupts every op's edge file, the warm-up's too, so only the content
    check can tell."""

    def _invoke(self):
        out = super()._invoke()
        flip_first_edge(self.out_dir / "edges.tsv")
        return out


class FlipFirstTimedOp(run.OpRunner):
    """Corrupts the first op after the warm-up only."""

    calls = 0

    def _invoke(self):
        out = super()._invoke()
        self.calls += 1
        if self.calls == 2:
            flip_first_edge(self.out_dir / "edges.tsv")
        return out


def check_corruption() -> None:
    wl = tiny("screen-fpr-long")
    pairs = run.CHECK_PAIRS
    run.CHECK_PAIRS = wl.pairs_per_op  # check every pair, the flipped one too
    try:
        result, text = run_quietly(wl, False, FlipEveryOp)
    finally:
        run.CHECK_PAIRS = pairs
    if result["correct"] or result["failed"] != result["attempted"]:
        raise AssertionError(f"flipped edge lines passed the content check:\n{text}")
    if "check failed: pair" not in text:
        raise AssertionError(f"content check did not name the flipped pair:\n{text}")
    result, text = run_quietly(wl, False, FlipFirstTimedOp)
    if result["correct"] or result["failed"] != 1:
        raise AssertionError(f"one flipped op was not counted as one failure:\n{text}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in TINY:
        check_report(name, False, e2e)
        check_report(name, True, layer)
        print(f"ok {name}")
    check_corruption()
    print("ok corrupted edge file counted as failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
