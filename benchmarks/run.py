"""tauscreen benchmark: one workload, timed end to end or traced layer by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; it imports the package from the
checkout's ``src`` and writes only under ``.bench_out/`` there. Set-up runs
``gen_inputs.py`` in a fresh interpreter several times, then one untimed
warm-up op. The run then calls ``tauscreen`` CLI commands in-process through
the click entry point, one after another, until ``--seconds`` have passed.
Every op is checked: a non-zero exit, an exception, outputs that differ from
the warm-up op's, or warm-up outputs that fail the content checks count it
as failed. The last line of stdout is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of the traced
ops (untraced ops alternate with them to measure the trace's overhead). The
spans and a full result with machine facts go to ``.bench_out/results/``.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import LAYER_METRICS, Tracer, op_metrics
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

SETUP_REPEATS = 3
CHECK_PAIRS = 32
CUTOFF_MARGIN = 1e-9  # sampled pairs this close to their cutoff are skipped
VALUE_TOL = 1e-12  # written value vs. the naive reference's sine
CHILD_TIMEOUT_S = 60

E2E_METRICS = {
    "op_p50_s": "s",
    "pairs_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class OpResult:
    exit_code: int
    error: str | None
    wall: float
    cpu: float
    stdout: str
    outputs: dict[str, bytes] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        h = hashlib.sha256(self.stdout.encode())
        for name in sorted(self.outputs):
            h.update(name.encode() + b"\0" + self.outputs[name])
        return h.hexdigest()


class OpRunner:
    """Runs one workload's op through the click entry point and checks it."""

    def __init__(self, wl: Workload, seed: int, data_csv: Path | None, out_dir: Path,
                 threads: int):
        from tauscreen.cli import main

        self.main = main
        self.wl = wl
        self.seed = seed
        self.data_csv = data_csv
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.args = wl.op_args(seed, str(data_csv), str(out_dir), threads)

    def _invoke(self) -> tuple[int, str | None, str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = 0, None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rv = self.main.main(args=self.args, prog_name="tauscreen", standalone_mode=False)
                code = rv if isinstance(rv, int) else 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an op that raises counts as failed; the run goes on
                code, error = 1, traceback.format_exc()
        if code != 0 and error is None:
            error = stderr.getvalue().strip() or f"exit code {code}"
        return code, error, stdout.getvalue()

    def run(self) -> OpResult:
        for name in self.wl.output_names():
            (self.out_dir / name).unlink(missing_ok=True)
        gc.collect()  # start every op from the same heap state, outside the timing
        start, cpu0 = time.perf_counter(), time.process_time()
        code, error, stdout = self._invoke()
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
        res = OpResult(code, error, wall, cpu, stdout)
        for name in self.wl.output_names():
            path = self.out_dir / name
            if path.is_file():
                res.outputs[name] = path.read_bytes()
        return res

    def check(self, res: OpResult) -> list[str]:
        """Content checks of one op's outputs; returns the problems found."""
        if res.exit_code != 0:
            return [f"exit code {res.exit_code}: {res.error}"]
        missing = [n for n in self.wl.output_names() if n not in res.outputs]
        if missing:
            return [f"missing outputs {missing}"]
        try:
            summary = json.loads(res.stdout)
            if self.wl.command == "screen":
                return self._check_screen(summary, res.outputs["edges.tsv"].decode())
            if not 0.5 <= summary["auc"] <= 1.0:
                return [f"auc {summary['auc']} outside [0.5, 1]"]
            return []
        except (ValueError, KeyError) as exc:  # malformed stdout or output file
            return [f"unreadable output: {exc!r}"]

    def _check_screen(self, summary: dict, edges_tsv: str) -> list[str]:
        import numpy as np
        from scipy.special import ndtri
        from tauscreen.rankcorr import jackknife_variance, kendall_tau_naive

        problems = []
        lines = edges_tsv.splitlines()
        if not lines or lines[0] != "j\tj'\tvalue":
            return ["edge TSV header missing"]
        if summary["edge_count"] != len(lines) - 1:
            problems.append(f"stdout edge_count {summary['edge_count']} but "
                            f"{len(lines) - 1} TSV data lines")
        written = {}
        for line in lines[1:]:
            a, b, value = line.split("\t")
            written[(int(a) - 1, int(b) - 1)] = float(value)

        x = np.loadtxt(self.data_csv, delimiter=",", ndmin=2)
        n, p = x.shape
        if self.wl.flag("--fpr-q") is not None:
            # f = q p(p-1)/2, as ThresholdSpec.resolve_f takes q without a truth
            q = float(self.wl.flag("--fpr-q"))
            z = float(ndtri(1.0 - q / 2.0))

            def cutoff(j, k):
                return (math.pi / 2.0) * math.sqrt(jackknife_variance(x, j, k)) * z / math.sqrt(n)
        else:
            c1, kappa = (float(v) for v in self.wl.flag("--rate").split(","))
            gamma = (2.0 / 3.0) * c1 * float(n) ** (-kappa)

            def cutoff(j, k):
                return gamma

        jj, kk = np.triu_indices(p, 1)
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(jj.size, size=min(CHECK_PAIRS, jj.size), replace=False)
        for idx in sorted(picks.tolist()):
            j, k = int(jj[idx]), int(kk[idx])
            corr = math.sin((math.pi / 2.0) * kendall_tau_naive(x[:, j], x[:, k]))
            gamma_jk = cutoff(j, k)
            if abs(abs(corr) - gamma_jk) <= CUTOFF_MARGIN:
                continue
            kept = abs(corr) > gamma_jk
            if kept != ((j, k) in written):
                problems.append(f"pair ({j + 1}, {k + 1}): |corr| {abs(corr):.17g} vs cutoff "
                                f"{gamma_jk:.17g}, but the edge is {'absent' if kept else 'present'}")
            elif kept and abs(written[(j, k)] - corr) > VALUE_TOL:
                problems.append(f"pair ({j + 1}, {k + 1}): written {written[(j, k)]:.17g}, "
                                f"reference {corr:.17g}")
        return problems


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def cold_setups(wl: Workload, seed: int, work: Path) -> tuple[list[float], Path | None]:
    """Run ``gen_inputs.py`` SETUP_REPEATS times; returns the wall time of each
    process and the input CSV (None for bench workloads)."""
    walls, csvs = [], []
    for rep in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "gen_inputs.py")]
        if wl.command == "screen":
            csv = work / f"setup{rep}" / "data.csv"
            csv.parent.mkdir(parents=True, exist_ok=True)
            csvs.append(csv)
            cmd += ["--out", str(csv), "--scenario", wl.scenario, "--n", str(wl.n),
                    "--p", str(wl.p), "--base", wl.base, "--transform", wl.transform,
                    "--seed", str(seed)]
        start = time.perf_counter()
        subprocess.run(cmd, env=_child_env(), check=True, timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
    if not csvs:
        return walls, None
    if len({c.read_bytes() for c in csvs}) != 1:
        raise RuntimeError("set-up repeats wrote different input files for one seed")
    return walls, csvs[0]


def _blas() -> dict:
    import numpy as np

    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts(threads: int) -> dict:
    from importlib.metadata import version

    cpu_count = os.cpu_count()
    return {
        "affinity_cpus": threads,
        "os_cpu_count": cpu_count,
        # the CLI's default --threads is os.cpu_count(); the benchmark passes
        # the affinity count, so a mismatch means the default oversubscribes
        "cpu_count_mismatch": threads != cpu_count,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 out_root: Path = OUT_ROOT, runner_cls=OpRunner) -> dict:
    """Set up, warm up, measure ``wl`` for ``seconds`` and check every op.

    Prints a report and returns the final result object. ``runner_cls`` lets
    the self-test substitute a runner that corrupts outputs.
    """
    import tauscreen

    if Path(tauscreen.__file__).resolve().parent != SRC / "tauscreen":
        raise RuntimeError(f"imported tauscreen from {tauscreen.__file__}, not from {SRC}")
    threads = len(os.sched_getaffinity(0))
    tag = f"{wl.name}-seed{seed}-trace{int(trace)}"
    work = out_root / "work" / f"{tag}-{os.getpid()}"
    results_dir = out_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_walls, data_csv = cold_setups(wl, seed, work)
        runner = runner_cls(wl, seed, data_csv, work / "out", threads)
        warm = runner.run()
        setup_s = statistics.median(setup_walls) + warm.wall

        tracer = Tracer() if trace else None
        ops = []
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(ops) % 2 == 1
            if traced:
                with tracer.instrumented(), tracer.op(len(ops)):
                    res = runner.run()
            else:
                res = runner.run()
            ops.append({"wall": res.wall, "cpu": res.cpu, "traced": traced,
                        "exit_code": res.exit_code, "error": res.error,
                        "same_as_warmup": res.digest == warm.digest})
            if time.perf_counter() >= deadline and (not trace or len(ops) >= 2):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # Ops whose outputs equal the warm-up's share its content verdict, so
        # the costly reference check runs once, after peak RSS is read.
        warm_problems = runner.check(warm)
        failed = 0
        for op in ops:
            problems = []
            if op["exit_code"] != 0:
                problems.append(f"exit code {op['exit_code']}: {op['error']}")
            elif not op["same_as_warmup"]:
                problems.append("outputs differ from the warm-up op's")
            else:
                problems.extend(warm_problems)
            op["problems"] = problems
            failed += bool(problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [op for op in ops if not op["traced"]]
    op_p50 = statistics.median(op["wall"] for op in untraced)
    if trace:
        per_op = []
        for i, op in enumerate(ops):
            if op["traced"]:
                spans = [s for s in tracer.spans if s["op"] == i]
                per_op.append(op_metrics(spans, op["wall"], threads))
        metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
        traced_p50 = statistics.median(op["wall"] for op in ops if op["traced"])
        metrics["trace.overhead_frac"] = traced_p50 / op_p50 - 1.0
        units = LAYER_METRICS
        with open(results_dir / f"{tag}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        # Throughput and CPU cost are totals over the whole run, which average
        # the host's second-to-second speed swings better than a median does.
        wall_total = sum(op["wall"] for op in untraced)
        passed = sum(not op["problems"] for op in untraced)
        metrics = {
            "op_p50_s": op_p50,
            "pairs_per_s": wl.pairs_per_op * passed / wall_total,
            "cpu_s_per_op": sum(op["cpu"] for op in untraced) / len(untraced),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        units = E2E_METRICS

    facts = machine_facts(threads)
    attempted = len(ops)
    print(f"workload {wl.name} seed {seed} ops {attempted} threads {threads} "
          f"op walls {[round(op['wall'], 4) for op in ops]}")
    print("facts " + json.dumps(facts, sort_keys=True))
    if facts["cpu_count_mismatch"]:
        print(f"warning: affinity allows {threads} CPUs but os.cpu_count() is "
              f"{facts['os_cpu_count']}")
    for problem in warm_problems:
        print(f"check failed: {problem}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(f"metric failed_frac {failed / attempted!r} frac")
    if trace:
        layers = ("rankcorr", "io", "screening", "evalbench", "simgen")
        shares = {f"{m}.self_s": metrics[f"{m}.self_s"] / op_p50 for m in layers}
        shares["linalg.s"] = metrics["linalg.s"] / op_p50
        shares["cli.self_s"] = metrics["cli.self_s"] / op_p50
        print("share of untraced op_p50_s " + json.dumps({k: round(v, 4) for k, v in shares.items()}))

    result = {
        "correct": failed == 0 and not warm_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail = dict(result, workload=wl.name, seed=seed, seconds=seconds, trace=trace,
                  facts=facts, setup_walls=setup_walls, warmup_wall=warm.wall,
                  failed_frac=failed / attempted, warmup_problems=warm_problems, ops=ops,
                  output_sha256={n: hashlib.sha256(b).hexdigest()
                                 for n, b in sorted(warm.outputs.items())})
    with open(results_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2)
        fh.write("\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one tauscreen benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "tauscreen" / "__init__.py").is_file():
        print(f"error: no tauscreen package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
