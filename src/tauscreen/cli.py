"""Command-line workbench: simulate | screen | ingest-prices | bench | diagnose.

Every command accepts ``--config FILE`` with a JSON object of defaults, keyed
by parameter name; it becomes click's default map, so each value is converted
and checked as the flag's would be, and explicit flags override it. Unknown
keys, values of the wrong JSON type (bool for a switch, integer for an
int flag, number for a float flag, string otherwise) and strings that hold a
NUL byte are usage errors.
Exit codes: 0 success, 1 runtime error, 2 usage error. A usage error writes
no file; an output that names an input or another output is one. Runtime
errors of every command (a model error, an OS error, input that is not UTF-8,
a failed allocation) meet one boundary, the ``main`` group, which prints one
``error: ...`` line to stderr; no input ends in a traceback. All outputs are
deterministic functions of the flags and seed, byte-for-byte: BLAS runs on
one thread, so ``OPENBLAS_NUM_THREADS`` does not change them. Only the
commands that simulate (``simulate``, ``bench``, ``diagnose --scenario``)
load scipy, on their first draw; ``screen``, ``ingest-prices``, ``diagnose``
from files and ``--help`` import no scipy module.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import warnings

import click
import numpy as np

from .diagnostics import (check_assumptions, check_constants, check_proposition1,
                          hoeffding_bound, neighborhood_size_bound)
from .errors import InvalidInputError, TauscreenError
from .evalbench import (
    ESTIMATORS,
    auc,
    experiment_rows,
    roc_sweep,
    run_experiments,
    screen_data,
    write_experiment_csv,
    write_json_report,
    write_sweep_csv,
)
from .io import (
    ingest_prices,
    read_data_csv,
    read_matrix_csv,
    read_price_csv,
    write_data_csv,
    write_matrix_csv,
)
from .linalg import check_symmetric, eig_extremes, pin_blas_threads
from .screening import ThresholdSpec, connected_components, write_edges_tsv, write_partition_tsv
from .simgen import (MAX_ARRAY_ENTRIES, SCENARIOS, GroundTruth, RngStream, SimConfig,
                     generate_ground_truth, sample)

_BASE_FLAGS = {"gaussian": "gaussian", "t": "student-t"}
_TRANSFORM_FLAGS = {"none": "none", "npn": "nonparanormal"}


# The JSON types a config value may take, by its flag's click type. Checked
# before click converts: its INT would turn 1.5 into 1 and accept "3", and its
# BOOL would read "no" as false.
_CONFIG_TYPES = {
    click.types.BoolParamType: ("true or false", (bool,)),
    click.types.IntParamType: ("an integer", (int,)),
    click.types.FloatParamType: ("a number", (int, float)),
}


def _load_config(ctx, param, value):
    """Check the config file's keys and JSON types; it becomes click's default map."""
    if value is None:
        return
    ctx.meta["tauscreen.config"] = value  # a read of the file rule (_check_paths)
    try:
        with open(value, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise click.UsageError(f"cannot read config {value}: {exc}")
    if not isinstance(doc, dict):
        raise click.UsageError(f"config {value} must hold a JSON object")
    params = {p.name: p for p in ctx.command.params if p.expose_value}
    unknown = set(doc) - set(params)
    if unknown:
        raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, item in doc.items():
        kind, types = _CONFIG_TYPES.get(type(params[key].type), ("a string", (str,)))
        if type(item) not in types:
            raise click.UsageError(
                f"config {value}: {key} must be {kind}, got {json.dumps(item)}")
        if type(item) is str and "\0" in item:  # no path or choice holds NUL
            raise click.UsageError(f"config {value}: {key} must not hold a NUL byte")
    ctx.default_map = doc


def _config_option(fn):
    return click.option("--config", callback=_load_config, is_eager=True,
                        expose_value=False, type=click.Path(),
                        help="JSON file of flag defaults.")(fn)


def _check_count(ctx, param, value):
    if value is not None and value < 1:
        raise click.UsageError(f"--{param.name} must be an integer >= 1, got {value}")
    return value


def _threads_option(fn):
    return click.option("--threads", type=int, default=None, callback=_check_count,
                        help="Threads to use (default: the CPUs this process may "
                             "run on): screen splits its sign pass by rows over "
                             "them, bench runs its table-mode replicates in a pool "
                             "of them; the ROC sweep runs on one thread. BLAS "
                             "always runs on one thread.")(fn)


def _resolve_threads(threads):
    if threads:
        return threads
    if hasattr(os, "sched_getaffinity"):  # absent off Linux
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _echo_json(doc: dict) -> None:
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


@contextlib.contextmanager
def _usage_errors():
    """Turn a value the model refuses (InvalidInputError) into a usage error."""
    try:
        yield
    except InvalidInputError as exc:
        raise click.UsageError(str(exc))


def _sim_config(params) -> SimConfig:
    with _usage_errors():
        return SimConfig(
            scenario=params["scenario"],
            n=params["n"],
            p=params["p"],
            base=_BASE_FLAGS[params["base"]],
            theta=params["theta"],
            transform=_TRANSFORM_FLAGS[params["transform"]],
            seed=params["seed"],
        )


def _file_keys(path) -> set:
    """A file, to the file rule: its resolved path and, once it exists, its
    (device, inode), so a symlink, a hard link or ``..`` names its target."""
    keys = {os.path.realpath(path)}
    with contextlib.suppress(OSError):
        st = os.stat(path)
        keys.add((st.st_dev, st.st_ino))
    return keys


def _check_paths(reads, writes) -> None:
    """The file rule, checked before a command reads or writes any file: a
    write may not name a read (``--config`` among them) or another write;
    reads may share a file. ``reads`` and ``writes`` are (flag, path) pairs,
    path None if unset."""
    config = click.get_current_context().meta.get("tauscreen.config")
    seen = []  # (flag, is_write, keys) of each path checked so far
    for flag, path, is_write in ([("--config", config, False)] + [(*r, False) for r in reads]
                                 + [(*w, True) for w in writes]):
        if not path:
            continue
        keys = _file_keys(path)
        for other_flag, other_write, other_keys in seen:
            if (is_write or other_write) and keys & other_keys:
                raise click.UsageError(f"{other_flag} and {flag} name the same file {path}")
        seen.append((flag, is_write, keys))


def _parse_float_list(text: str, flag: str) -> list[float]:
    tokens = text.split(",")
    if not text.strip():
        raise click.UsageError(f"{flag}: empty list")
    if not all(tok.strip() for tok in tokens):
        raise click.UsageError(f"{flag}: empty item in {text!r}")
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise click.UsageError(f"{flag}: {exc}")


def _threshold_spec(gamma=None, rate=None, f=None, q=None) -> ThresholdSpec:
    """The ThresholdSpec of one threshold flag's value (``rate`` as its
    'C1,KAPPA' text); a value the spec refuses is a usage error."""
    with _usage_errors():
        if rate is not None:
            parts = _parse_float_list(rate, "--rate")
            if len(parts) != 2:
                raise click.UsageError("--rate expects 'C1,KAPPA'")
            return ThresholdSpec.rate(*parts)
        if gamma is not None:
            return ThresholdSpec.fixed(gamma)
        return ThresholdSpec.fpr(f=f, q=q)


class _Main(click.Group):
    """Prints a command's warnings as one ``warning:`` line each and ends its
    runtime error as one ``error:`` line and exit 1; any other exception is
    a bug and keeps its traceback."""

    def invoke(self, ctx):
        with warnings.catch_warnings():  # the process's settings come back on return
            warnings.showwarning = lambda message, *_: click.echo(f"warning: {message}", err=True)
            try:
                return super().invoke(ctx)
            except (TauscreenError, OSError, UnicodeDecodeError, MemoryError) as exc:
                click.echo(f"error: {str(exc) or type(exc).__name__}", err=True)
                sys.exit(1)


@click.group(cls=_Main)
@click.version_option(package_name="tauscreen")
def main():
    """Graph screening workbench built on rank correlations."""
    pin_blas_threads()


@main.command()
@click.option("--scenario", type=click.Choice(SCENARIOS), required=True)
@click.option("--n", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option("--base", type=click.Choice(sorted(_BASE_FLAGS)), default="gaussian")
@click.option("--theta", type=float, default=5.0, help="Degrees of freedom for --base t.")
@click.option("--transform", type=click.Choice(sorted(_TRANSFORM_FLAGS)), default="none")
@click.option("--seed", type=int, default=0)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--prefix", default="sim")
@_config_option
def simulate(**params):
    """Generate a synthetic dataset plus its ground truth files."""
    cfg = _sim_config(params)
    out = {name: os.path.join(params["out_dir"], f"{params['prefix']}_{name}") for name in
           ("data.csv", "sigma.csv", "precision.csv", "edges.tsv", "config.json")}
    _check_paths([], [("--out-dir", path) for path in out.values()])
    rng = RngStream(cfg.seed)
    gt = generate_ground_truth(cfg, rng)
    data = sample(gt, cfg, rng)
    os.makedirs(params["out_dir"], exist_ok=True)
    write_data_csv(out["data.csv"], data)
    write_matrix_csv(out["sigma.csv"], gt.sigma)
    write_matrix_csv(out["precision.csv"], gt.omega)
    write_edges_tsv(out["edges.tsv"], gt.edges, gt.omega)
    write_json_report(out["config.json"], cfg.to_json_dict())
    lam_min, lam_max = eig_extremes(gt.sigma)
    _echo_json({"edge_count": len(gt.edges), "lambda_min": lam_min, "lambda_max": lam_max})


@main.command()
@click.option("--data", "data_path", type=click.Path(), required=True)
@click.option("--gamma", type=float, default=None, help="Fixed threshold.")
@click.option("--rate", default=None, help="'C1,KAPPA' for the rate threshold (2/3)C1 n^-kappa.")
@click.option("--fpr-q", type=float, default=None, help="Target false-positive rate q in (0,1).")
@click.option("--fpr-f", type=float, default=None, help="Expected false-positive count budget f.")
@click.option("--estimator", type=click.Choice(ESTIMATORS), default="kendall")
@click.option("--components", is_flag=True, default=False)
@click.option("--components-out", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), required=True)
@_threads_option
@_config_option
def screen(**params):
    """Screen edges of a data CSV by thresholding a correlation estimate."""
    if sum(params[key] is not None for key in ("gamma", "rate", "fpr_q", "fpr_f")) != 1:
        raise click.UsageError("exactly one of --gamma, --rate, --fpr-q, --fpr-f is required")
    tspec = _threshold_spec(gamma=params["gamma"], rate=params["rate"],
                            f=params["fpr_f"], q=params["fpr_q"])
    comp_path = params["components_out"] or (
        params["out"] + ".components.tsv" if params["components"] else None)
    _check_paths([("--data", params["data_path"])],
                 [("--out", params["out"]), ("--components-out", comp_path)])

    threads = _resolve_threads(params["threads"])
    data = read_data_csv(params["data_path"])
    corr, edges = screen_data(data, params["estimator"], tspec, threads=threads)
    write_edges_tsv(params["out"], edges, corr)
    summary = {"edge_count": len(edges), "n": data.n, "p": data.p}
    if comp_path is not None:
        labels = connected_components(data.p, edges)
        write_partition_tsv(comp_path, labels)
        summary["components"] = int(labels.max())
    _echo_json(summary)


@main.command("ingest-prices")
@click.option("--prices", "prices_path", type=click.Path(), required=True)
@click.option("--out", type=click.Path(), required=True)
@_config_option
def ingest_prices_cmd(**params):
    """Turn a price table into a standardized log-return data CSV."""
    _check_paths([("--prices", params["prices_path"])], [("--out", params["out"])])
    prices = read_price_csv(params["prices_path"])
    try:
        returns = ingest_prices(prices)
    except TauscreenError as exc:
        raise InvalidInputError(f"{params['prices_path']}: {exc}") from None
    write_data_csv(params["out"], returns)
    _echo_json({"rows": returns.n, "tickers": returns.p})


@main.command()
@click.option("--mode", type=click.Choice(["table", "sweep"]), default="table")
@click.option("--scenario", type=click.Choice(SCENARIOS), required=True)
@click.option("--n", type=int, default=100)
@click.option("--p", type=int, default=200)
@click.option("--base", type=click.Choice(sorted(_BASE_FLAGS)), default="gaussian")
@click.option("--theta", type=float, default=5.0)
@click.option("--transform", type=click.Choice(sorted(_TRANSFORM_FLAGS)), default="none")
@click.option("--estimator", type=click.Choice(ESTIMATORS), default="kendall")
@click.option("--replicates", type=int, default=50, callback=_check_count)
@click.option("--seed", type=int, default=0)
@click.option("--q", default=None,
              help="Comma list of target FPR levels (table mode only).")
@click.option("--gamma", default=None,
              help="Comma list of fixed thresholds (table mode only).")
@click.option("--rate", default=None, help="'C1,KAPPA' rate threshold (table mode only).")
@click.option("--grid", default=None,
              help="'MIN,MAX,COUNT' threshold grid (sweep mode only); finite "
                   "0 <= MIN <= MAX, COUNT an integer >= 2.")
@click.option("--out-csv", type=click.Path(), required=True)
@click.option("--out-json", type=click.Path(), required=True)
@_threads_option
@_config_option
def bench(**params):
    """Run replicated experiments (table mode) or an ROC sweep (sweep mode)."""
    sim = _sim_config(params)
    _check_paths([], [("--out-csv", params["out_csv"]), ("--out-json", params["out_json"])])
    chosen = [k for k in ("q", "gamma", "rate") if params[k] is not None]
    if params["mode"] == "sweep":
        if chosen:
            raise click.UsageError(
                f"sweep mode does not take {', '.join('--' + k for k in chosen)}")
        grid = None
        if params["grid"] is not None:
            parts = _parse_float_list(params["grid"], "--grid")
            if len(parts) != 3:
                raise click.UsageError("--grid expects 'MIN,MAX,COUNT'")
            lo, hi, count = parts
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise click.UsageError("--grid: MIN and MAX must be finite")
            if not 0 <= lo <= hi:
                raise click.UsageError("--grid: need 0 <= MIN <= MAX")
            if not (count.is_integer() and 2 <= count <= MAX_ARRAY_ENTRIES):  # auc needs two points
                raise click.UsageError(f"--grid: COUNT must be an integer >= 2 and <= {MAX_ARRAY_ENTRIES}")
            grid = tuple(np.linspace(lo, hi, int(count)).tolist())
        sweep = roc_sweep(sim, params["estimator"], params["replicates"], grid=grid)
        write_sweep_csv(params["out_csv"], sweep)
        doc = {"mode": "sweep", "sim": sim.to_json_dict(), "estimator": params["estimator"],
               "replicates": params["replicates"], "auc": auc(sweep)}
        write_json_report(params["out_json"], doc)
        _echo_json({"auc": doc["auc"], "grid_points": len(sweep.grid)})
        return

    if params["grid"] is not None:
        raise click.UsageError("table mode does not take --grid")
    if len(chosen) != 1:
        raise click.UsageError("table mode needs exactly one of --q, --gamma, --rate")
    key = chosen[0]  # --q and --gamma take comma lists, --rate one 'C1,KAPPA'
    values = [params["rate"]] if key == "rate" else _parse_float_list(params[key], f"--{key}")
    thresholds = [_threshold_spec(**{key: v}) for v in values]
    # a refused argument stops the run before any replicate (exit 2); a failing
    # replicate raises a plain TauscreenError, which stays a runtime error
    with _usage_errors():
        results = run_experiments(sim, params["estimator"], params["replicates"], thresholds,
                                  threads=_resolve_threads(params["threads"]))
    rows = [row for result in results for row in experiment_rows(result)]
    write_experiment_csv(params["out_csv"], rows)
    doc = {"mode": "table", "sim": sim.to_json_dict(), "estimator": params["estimator"],
           "table": [result.aggregate() for result in results]}
    write_json_report(params["out_json"], doc)
    _echo_json({"rows": len(rows), "cells": len(results)})


def _read_symmetric(path) -> np.ndarray:
    """A matrix CSV that must hold a square, exactly symmetric matrix; an
    error names the path."""
    matrix = read_matrix_csv(path)
    try:
        return check_symmetric(matrix)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


@main.command()
@click.option("--sigma", "sigma_path", type=click.Path(), default=None)
@click.option("--precision", "precision_path", type=click.Path(), default=None,
              help="Inverse of --sigma; the true edges are its off-diagonal "
                   "entries with |value| > 1e-12.")
@click.option("--scenario", type=click.Choice(SCENARIOS), default=None)
@click.option("--p", type=int, default=None)
@click.option("--seed", type=int, default=None, help="Scenario mode only (default 0).")
@click.option("--n", type=int, required=True, help="Sample size the conditions are judged at.")
@click.option("--c1", type=float, default=0.6)
@click.option("--kappa", type=float, default=0.25)
@click.option("--xi", type=float, default=0.3)
@click.option("--c2", type=float, default=1.0)
@click.option("--alpha", type=float, default=0.5)
@click.option("--hoeffding-n", default=None,
              help="Comma list of sample sizes for the bound curve; integers >= 2.")
@click.option("--hoeffding-t", default=None,
              help="Comma list of deviations for the bound curve; finite, > 0.")
@click.option("--out", type=click.Path(), required=True)
@_config_option
def diagnose(**params):
    """Report the screening-theory health checks for a ground truth."""
    with _usage_errors():
        check_constants(params["n"], params["c1"], params["kappa"], params["xi"],
                        params["c2"], params["alpha"])
    files = [params[k] is not None for k in ("sigma_path", "precision_path")]
    from_files = all(files)
    if any(files) and not from_files:
        raise click.UsageError("--sigma and --precision go together")
    scenario_flags = [f"--{k}" for k in ("scenario", "p", "seed") if params[k] is not None]
    if from_files and scenario_flags:
        raise click.UsageError(
            f"--sigma/--precision do not take {', '.join(scenario_flags)}")
    if not from_files:
        if params["scenario"] is None or params["p"] is None:
            raise click.UsageError("supply --sigma/--precision or --scenario/--p")
        seed = params["seed"] or 0
        with _usage_errors():  # no sample is drawn, so --n does not size an array here
            cfg = SimConfig(scenario=params["scenario"], n=2, p=params["p"], seed=seed)
    ns, ts = [params["n"]], [0.1, 0.2]
    if params["hoeffding_n"]:
        ns = _parse_float_list(params["hoeffding_n"], "--hoeffding-n")
        if not all(v.is_integer() and v >= 2 for v in ns):
            raise click.UsageError("--hoeffding-n: sample sizes must be integers >= 2")
        ns = [int(v) for v in ns]
    if params["hoeffding_t"]:
        ts = _parse_float_list(params["hoeffding_t"], "--hoeffding-t")
        if not all(math.isfinite(v) and v > 0 for v in ts):
            raise click.UsageError("--hoeffding-t: deviations must be finite and > 0")
    _check_paths([("--sigma", params["sigma_path"]), ("--precision", params["precision_path"])],
                 [("--out", params["out"])])
    if from_files:
        sigma, omega = (_read_symmetric(params[k]) for k in ("sigma_path", "precision_path"))
        if omega.shape != sigma.shape:
            raise InvalidInputError(
                f"{params['precision_path']}: matrix is {len(omega)}x{len(omega)}, "
                f"but {params['sigma_path']} is {len(sigma)}x{len(sigma)}")
        gt = GroundTruth(sigma=sigma, omega=omega)
        try:  # each file passed its own checks; now they must agree
            gt.validate()
        except TauscreenError as exc:
            raise InvalidInputError(f"{params['sigma_path']}, {params['precision_path']}: "
                                    f"not one ground truth: {exc}") from None
    else:  # a scenario's ground truth is valid by construction
        gt = generate_ground_truth(cfg, RngStream(seed))
    report = check_assumptions(gt, params["n"], params["c1"], params["kappa"],
                               params["xi"], params["c2"], params["alpha"])
    conditioning = check_proposition1(gt, params["n"], params["c1"],
                                      params["kappa"], params["xi"])
    bound = neighborhood_size_bound(gt, params["n"], params["c1"], params["kappa"])
    doc = {
        "assumptions": report.to_json_dict(),
        "conditioning": conditioning.to_json_dict(),
        "neighborhood_size_bound": bound if math.isfinite(bound) else None,
    }
    if params["hoeffding_n"] or params["hoeffding_t"]:
        doc["hoeffding"] = [
            {"n": nn, "t": tt, "bound": hoeffding_bound(nn, tt)}
            for nn in ns for tt in ts
        ]
    write_json_report(params["out"], doc)
    _echo_json(doc)


if __name__ == "__main__":
    main()
