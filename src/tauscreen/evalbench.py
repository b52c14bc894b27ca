"""Replicated screening experiments: confusion metrics, FPR-target runs, and
ROC sweeps over a fixed threshold grid.

Each replicate r draws its own stream seeded with ``sim.seed XOR r``. For
scenarios with random graphs (A, B) the ground truth is re-drawn inside every
replicate, so averages cover both graph and sampling randomness; C and D have
deterministic ground truths. Replicates run independently and are aggregated
in replicate order, so results do not depend on scheduling. Table-mode
replicates always run in a pool of ``threads`` workers, 1 included; the ROC
sweep runs its replicates on the calling thread.

A threshold list (:func:`run_experiments`) and an ROC sweep score each replicate
with :func:`_score_cells`: one draw and one sign pass serve the whole list or grid.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidInputError, TauscreenError
# private name: benchmarks/tracing.py wraps public names, and would time the writers as io
from .io import write_rows as _write_rows
from .rankcorr import (
    CorrMatrix,
    DataMatrix,
    jackknife_matrix,
    kendall_matrix,
    pearson_matrix,
    sine_transform,
)
from .screening import EdgeSet, ThresholdSpec, screen_edges, threshold_matrix
from .simgen import RngStream, SimConfig, generate_ground_truth, sample

ESTIMATORS = ("kendall", "pearson")


@dataclass(frozen=True)
class ConfusionMetrics:
    """Counts and rates over all unordered node pairs."""

    tp: int
    fp: int
    tn: int
    fn: int
    fpr: float
    fnr: float
    edge_count: int

    @staticmethod
    def from_counts(tp: int, fp: int, tn: int, fn: int) -> "ConfusionMetrics":
        fpr = fp / (fp + tn) if (fp + tn) > 0 else 0.0
        fnr = fn / (tp + fn) if (tp + fn) > 0 else 0.0
        return ConfusionMetrics(tp=tp, fp=fp, tn=tn, fn=fn, fpr=fpr, fnr=fnr,
                                edge_count=tp + fp)


def confusion(est: EdgeSet, truth: EdgeSet) -> ConfusionMetrics:
    """Score an estimated edge set against the truth on the same node set."""
    if est.p != truth.p:
        raise InvalidInputError(f"node counts differ: {est.p} vs {truth.p}")
    total = est.p * (est.p - 1) // 2
    # pair (j, k) as the code j * p + k, unique within each edge set
    est_codes, truth_codes = (e.edges[:, 0] * e.p + e.edges[:, 1] for e in (est, truth))
    tp = len(np.intersect1d(est_codes, truth_codes, assume_unique=True))
    fp = len(est) - tp
    fn = len(truth) - tp
    tn = total - tp - fp - fn
    return ConfusionMetrics.from_counts(tp, fp, tn, fn)


@dataclass(frozen=True)
class ExperimentSpec:
    """One replicated screening experiment."""

    sim: SimConfig
    threshold: ThresholdSpec
    estimator: str = "kendall"
    replicates: int = 50

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise InvalidInputError(f"estimator must be one of {ESTIMATORS}")
        if self.replicates < 1:
            raise InvalidInputError("need at least 1 replicate")
        if self.threshold.mode == "fpr" and self.sim.n < 3:
            raise InvalidInputError("fpr mode needs n >= 3")


@dataclass(frozen=True)
class ExperimentResult:
    """Per-replicate metrics of an experiment. In fpr mode ``f_per_replicate``
    holds each replicate's false-positive budget f (it varies with the
    replicate's ground truth in scenarios A and B); otherwise it is None."""

    spec: ExperimentSpec
    per_replicate: tuple[ConfusionMetrics, ...]
    f_per_replicate: tuple[float, ...] | None

    @property
    def q_convention(self) -> str | None:
        """How the fpr budget f was set: given directly, or q times each
        replicate's true non-edge count; None outside fpr mode."""
        threshold = self.spec.threshold
        if threshold.mode != "fpr":
            return None
        return "f-direct" if threshold.f is not None else "q-times-true-nonedges"

    @property
    def q_or_gamma(self) -> float:
        """The threshold's value: gamma, the rate cutoff at n, q, or f given directly."""
        threshold = self.spec.threshold
        if threshold.mode == "fixed":
            return threshold.gamma
        if threshold.mode == "rate":
            return threshold.rate_gamma(self.spec.sim.n)
        return threshold.f if threshold.f is not None else threshold.q

    @property
    def f_used(self) -> float | None:
        """Mean false-positive budget over the replicates (fpr mode)."""
        if self.f_per_replicate is None:
            return None
        return float(np.mean(self.f_per_replicate))

    @property
    def mean_fpr(self) -> float:
        return float(np.mean([m.fpr for m in self.per_replicate]))

    @property
    def mean_fnr(self) -> float:
        return float(np.mean([m.fnr for m in self.per_replicate]))

    @property
    def mean_edge_count(self) -> float:
        return float(np.mean([m.edge_count for m in self.per_replicate]))

    def aggregate(self) -> dict:
        out = {
            "scenario": self.spec.sim.scenario,
            "estimator": self.spec.estimator,
            "n": self.spec.sim.n,
            "p": self.spec.sim.p,
            "replicates": self.spec.replicates,
            "threshold_mode": self.spec.threshold.mode,
            "q_or_gamma": self.q_or_gamma,
            "mean_fpr": self.mean_fpr,
            "mean_fnr": self.mean_fnr,
            "mean_edge_count": self.mean_edge_count,
            "mean_tp": float(np.mean([m.tp for m in self.per_replicate])),
            "mean_fp": float(np.mean([m.fp for m in self.per_replicate])),
            "mean_tn": float(np.mean([m.tn for m in self.per_replicate])),
            "mean_fn": float(np.mean([m.fn for m in self.per_replicate])),
        }
        if self.spec.threshold.mode == "fpr":
            out["f_used"] = self.f_used
            out["f_min"] = min(self.f_per_replicate)
            out["f_max"] = max(self.f_per_replicate)
            out["q"] = self.spec.threshold.q
            out["q_convention"] = self.q_convention
        elif self.spec.threshold.mode == "rate":
            out["c1"] = self.spec.threshold.c1
            out["kappa"] = self.spec.threshold.kappa
        else:
            out["gamma"] = self.spec.threshold.gamma
        return out


def estimator_matrix(data: DataMatrix, estimator: str, tau: CorrMatrix | None = None,
                     threads: int = 1):
    """The screened correlation estimate. A raw ``tau`` of ``data`` (as
    :func:`jackknife_matrix` returns it) spares the kendall estimator its own
    sign pass; otherwise that pass splits its rows over ``threads``. Replicate
    pools leave ``threads`` at 1, so pools never nest."""
    if estimator == "kendall":
        if tau is None:
            tau = kendall_matrix(data, threads=threads)
        return sine_transform(tau)
    if estimator == "pearson":
        return pearson_matrix(data)
    raise InvalidInputError(f"unknown estimator {estimator!r}")


def screen_data(data: DataMatrix, estimator: str, spec: ThresholdSpec,
                threads: int = 1) -> tuple[CorrMatrix, EdgeSet]:
    """The screened correlation estimate of ``data`` and its edges under
    ``spec``. In fpr mode one sign pass gives both the kendall estimator's
    tau and the thresholds' jackknife omega^2; ``threads`` splits it by rows."""
    tau = jack = None
    if spec.mode == "fpr":
        tau, jack = jackknife_matrix(data, threads=threads)
    corr = estimator_matrix(data, estimator, tau=tau, threads=threads)
    return corr, screen_edges(corr, threshold_matrix(spec, data.n, data.p, jack=jack))


def _replicate(sim: SimConfig, score, r: int):
    """``score(gt, data)`` of replicate r, drawn from the stream ``sim.seed ^ r``."""
    try:
        rng = RngStream(sim.seed ^ r)
        gt = generate_ground_truth(sim, rng)
        return score(gt, sample(gt, sim, rng))
    except TauscreenError as exc:
        raise TauscreenError(f"replicate {r} failed: {exc}") from exc


def _score_cells(estimator: str, thresholds: tuple, gt, data) -> list[tuple]:
    """Each threshold's metrics on one replicate and, in fpr mode, its budget
    f (the spec's f, or q times this replicate's true non-edge count), from
    one sign pass: the jackknife's if any cell is fpr. A cell keeps the pairs
    with |corr| > cutoff, as :func:`screen_edges` does: an fpr cell compares
    with its :func:`threshold_matrix`, and all scalar cutoffs are counted by
    one sort and search of each strength vector."""
    fpr = any(t.mode == "fpr" for t in thresholds)
    tau, jack = jackknife_matrix(data) if fpr else (None, None)
    corr = estimator_matrix(data, estimator, tau=tau)
    upper, truth = np.triu_indices(data.p, 1), tuple(gt.edges.edges.T)
    strength, true_strength = np.abs(corr.entries[upper]), np.abs(corr.entries[truth])
    total, edges = strength.size, true_strength.size
    scalar = [t.gamma if t.mode == "fixed" else t.rate_gamma(data.n)
              for t in thresholds if t.mode != "fpr"]
    # side="right" counts the pairs with |corr| <= gamma, so what remains
    # is the strict |corr| > gamma rule of screen_edges, ties included
    kept = iter((total - np.searchsorted(np.sort(strength), scalar, side="right")).tolist())
    hits = iter((edges - np.searchsorted(np.sort(true_strength), scalar, side="right")).tolist())
    cells = []
    for t in thresholds:
        f = None
        if t.mode == "fpr":
            f = t.f if t.f is not None else t.q * gt.nonedge_count()
            cut = threshold_matrix(ThresholdSpec.fpr(f=f), data.n, data.p, jack=jack)
            k = int(np.count_nonzero(strength > cut[upper]))
            tp = int(np.count_nonzero(true_strength > cut[truth]))
        else:
            k, tp = next(kept), next(hits)
        cells.append((ConfusionMetrics.from_counts(tp, k - tp, total - edges - k + tp,
                                                   edges - tp), f))
    return cells


def run_experiments(specs, threads: int = 1) -> list[ExperimentResult]:
    """A list of specs that differ only in their threshold, run as one: a
    pool of ``threads`` workers draws each replicate once, and its one sign
    pass serves every spec. One result per spec, in spec order. A failing
    replicate ends the run: the pool cancels the replicates still queued."""
    if threads < 1:
        raise InvalidInputError(f"threads must be >= 1, got {threads}")
    shared = {(spec.sim, spec.estimator, spec.replicates) for spec in specs}
    if len(shared) != 1:
        raise InvalidInputError("need experiments that share sim, estimator and replicates")
    (sim, estimator, replicates), = shared
    score = partial(_score_cells, estimator, tuple(spec.threshold for spec in specs))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        rows = list(pool.map(partial(_replicate, sim, score), range(replicates)))
    return [ExperimentResult(spec, metrics, f_values if spec.threshold.mode == "fpr" else None)
            for spec, (metrics, f_values) in zip(specs, (zip(*cells) for cells in zip(*rows)))]


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> ExperimentResult:
    """The one-spec :func:`run_experiments`."""
    return run_experiments([spec], threads=threads)[0]


@dataclass(frozen=True)
class SweepResult:
    """Mean ROC curve over a fixed ascending threshold grid."""

    grid: tuple[float, ...]
    mean_tpr: tuple[float, ...]
    mean_fpr: tuple[float, ...]


def default_grid() -> tuple[float, ...]:
    """Fifty evenly spaced thresholds covering [0, 1]."""
    return tuple(np.linspace(0.0, 1.0, 50).tolist())


def roc_sweep(sim: SimConfig, estimator: str, replicates: int, grid=None) -> SweepResult:
    """ROC points at every grid value (:func:`default_grid` if None), each
    scored as a fixed-threshold cell of :func:`_score_cells`.

    The replicates run one after another on the calling thread. A sweep
    replicate is many small NumPy calls with the GIL taken between them, so
    a pool of 2 gained little on an idle 2-vCPU VM and lost to serial when
    the host was busy: with both vCPUs busy the VM lost about five times as
    much CPU time to the host, and the op time varied with it.
    """
    if estimator not in ESTIMATORS:
        raise InvalidInputError(f"estimator must be one of {ESTIMATORS}")
    if replicates < 1:
        raise InvalidInputError("need at least 1 replicate")
    grid = default_grid() if grid is None else tuple(float(g) for g in grid)
    if len(grid) < 1:
        raise InvalidInputError("grid must be non-empty")
    if not all(np.isfinite(grid)):
        raise InvalidInputError("grid values must be finite")
    if any(g < 0 for g in grid) or list(grid) != sorted(grid):
        raise InvalidInputError("grid values must be >= 0 and ascending")
    score = partial(_score_cells, estimator, tuple(ThresholdSpec.fixed(g) for g in grid))
    tpr, fpr = [], []
    for r in range(replicates):  # each replicate's rates, not its metrics, outlive it
        cells = _replicate(sim, score, r)
        tpr.append([1.0 - m.fnr for m, _ in cells])
        fpr.append([m.fpr for m, _ in cells])
    return SweepResult(grid=grid, mean_tpr=tuple(np.mean(tpr, axis=0).tolist()),
                       mean_fpr=tuple(np.mean(fpr, axis=0).tolist()))


def auc(sweep: SweepResult) -> float:
    """Trapezoidal area under the mean (FPR, TPR) polyline, anchored at
    (0, 0) and (1, 1)."""
    if len(sweep.grid) < 2:
        raise InvalidInputError("need at least 2 grid points")
    return auc_points(sweep.mean_fpr, sweep.mean_tpr)


def auc_points(fpr, tpr) -> float:
    """Trapezoid rule over arbitrary ROC points (sorted by FPR, anchored)."""
    pts = sorted(zip([float(v) for v in fpr], [float(v) for v in tpr]))
    pts = [(0.0, 0.0)] + pts + [(1.0, 1.0)]
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts[:-1], pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


EXPERIMENT_CSV_COLUMNS = ("replicate", "q_or_gamma", "estimator", "scenario",
                          "tp", "fp", "tn", "fn", "fpr", "fnr", "edge_count", "f_used")


def experiment_rows(result: ExperimentResult) -> list[tuple]:
    """One row per replicate; ``f_used`` is that replicate's budget f in fpr
    mode and empty otherwise."""
    spec, q_or_gamma = result.spec, result.q_or_gamma
    f_values = result.f_per_replicate or ("",) * len(result.per_replicate)
    return [(r, q_or_gamma, spec.estimator, spec.sim.scenario,
             m.tp, m.fp, m.tn, m.fn, m.fpr, m.fnr, m.edge_count, f)
            for r, (m, f) in enumerate(zip(result.per_replicate, f_values))]


def write_experiment_csv(path, rows) -> None:
    _write_rows(path, rows, header=EXPERIMENT_CSV_COLUMNS)


def write_sweep_csv(path, sweep: SweepResult) -> None:
    _write_rows(path, zip(sweep.grid, sweep.mean_fpr, sweep.mean_tpr),
                header=("gamma", "mean_fpr", "mean_tpr"))


def write_json_report(path, doc: dict) -> None:
    """Write ``doc`` as indented JSON. The text is built before the file is
    opened, so a value JSON cannot hold (nan, inf) leaves no file behind."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
