"""Replicated screening experiments: confusion metrics, FPR-target runs, and
ROC sweeps over a fixed threshold grid.

Each replicate r draws its own stream seeded with ``sim.seed XOR r``. For
scenarios with random graphs (A, B) the ground truth is re-drawn inside every
replicate, so averages cover both graph and sampling randomness; C and D have
deterministic ground truths. Replicates run independently and are aggregated
in replicate order, so results do not depend on scheduling. Table-mode
replicates always run in a pool of ``threads`` workers, 1 included; the ROC
sweep runs its replicates on the calling thread.
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
    JackknifeVarMatrix,
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


def estimator_matrix(data: DataMatrix, estimator: str, jack: JackknifeVarMatrix | None = None,
                     threads: int = 1):
    """The screened correlation estimate. A jackknife matrix that carries tau
    (as :func:`jackknife_matrix` returns it) spares the kendall estimator its
    own sign pass; otherwise that pass splits its rows over ``threads``.
    Replicate pools leave ``threads`` at 1, so pools never nest."""
    if estimator == "kendall":
        if jack is not None and jack.tau is not None:
            tau = jack.tau
        else:
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
    jack = jackknife_matrix(data, threads=threads) if spec.mode == "fpr" else None
    corr = estimator_matrix(data, estimator, jack=jack, threads=threads)
    return corr, screen_edges(corr, threshold_matrix(spec, data.n, data.p, jack=jack))


def _replicate(sim: SimConfig, score, r: int):
    """``score(gt, data)`` of replicate r, drawn from the stream ``sim.seed ^ r``."""
    try:
        rng = RngStream(sim.seed ^ r)
        gt = generate_ground_truth(sim, rng)
        return score(gt, sample(gt, sim, rng))
    except TauscreenError as exc:
        raise TauscreenError(f"replicate {r} failed: {exc}") from exc


def _table_replicate(spec: ExperimentSpec, gt, data) -> tuple[ConfusionMetrics, float | None]:
    """A replicate's metrics and, in fpr mode, its budget f: the spec's f, or
    q times this replicate's true non-edge count."""
    tspec, f = spec.threshold, None
    if tspec.mode == "fpr":
        f = tspec.f if tspec.f is not None else tspec.q * gt.nonedge_count()
        tspec = ThresholdSpec.fpr(f=f)
    _, est = screen_data(data, spec.estimator, tspec)
    return confusion(est, gt.edges), f


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> ExperimentResult:
    """Run all replicates in a pool of ``threads`` workers and collect their
    metrics in replicate order. A failing replicate ends the run: the pool
    cancels the replicates still queued."""
    if threads < 1:
        raise InvalidInputError(f"threads must be >= 1, got {threads}")
    with ThreadPoolExecutor(max_workers=threads) as pool:
        replicate = partial(_replicate, spec.sim, partial(_table_replicate, spec))
        rows = list(pool.map(replicate, range(spec.replicates)))
    f_values = tuple(f for _, f in rows) if spec.threshold.mode == "fpr" else None
    return ExperimentResult(spec=spec, per_replicate=tuple(m for m, _ in rows),
                            f_per_replicate=f_values)


@dataclass(frozen=True)
class SweepResult:
    """Mean ROC curve over a fixed ascending threshold grid, plus the
    per-replicate curves it was averaged from."""

    grid: tuple[float, ...]
    mean_tpr: tuple[float, ...]
    mean_fpr: tuple[float, ...]
    per_replicate_tpr: tuple[tuple[float, ...], ...]
    per_replicate_fpr: tuple[tuple[float, ...], ...]


def default_grid() -> tuple[float, ...]:
    """Fifty evenly spaced thresholds covering [0, 1]."""
    return tuple(np.linspace(0.0, 1.0, 50).tolist())


def _sweep_replicate(estimator: str, grid: tuple[float, ...], gt, data):
    """A replicate's (TPR, FPR) points at every grid value."""
    corr = estimator_matrix(data, estimator)
    strength = np.abs(corr.entries[np.triu_indices(data.p, 1)])
    true_strength = np.abs(corr.entries[gt.edges.edges[:, 0], gt.edges.edges[:, 1]])
    total, edges = strength.size, true_strength.size
    # side="right" counts the pairs with |corr| <= gamma, so what remains
    # is the strict |corr| > gamma rule of screen_edges, ties included
    points = np.asarray(grid, dtype=np.float64)
    kept = total - np.searchsorted(np.sort(strength), points, side="right")
    hits = edges - np.searchsorted(np.sort(true_strength), points, side="right")
    tprs, fprs = [], []
    for k, tp in zip(kept.tolist(), hits.tolist()):
        fp = k - tp
        m = ConfusionMetrics.from_counts(tp, fp, total - edges - fp, edges - tp)
        tprs.append(1.0 - m.fnr)
        fprs.append(m.fpr)
    return tuple(tprs), tuple(fprs)


def roc_sweep(sim: SimConfig, estimator: str, replicates: int, grid=None) -> SweepResult:
    """ROC points at every grid value (:func:`default_grid` if None) from one sort per replicate.

    Each replicate sorts the upper-triangle |corr| of its correlation matrix
    once, and separately the strengths of its true edges; the kept and
    true-positive counts at every grid value gamma are then binary searches
    for the pairs with |corr| > gamma, the same strict rule as
    :func:`screen_edges`.

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
    score = partial(_sweep_replicate, estimator, grid)
    rows = [_replicate(sim, score, r) for r in range(replicates)]
    tpr = np.array([row[0] for row in rows])
    fpr = np.array([row[1] for row in rows])
    return SweepResult(
        grid=grid,
        mean_tpr=tuple(np.mean(tpr, axis=0).tolist()),
        mean_fpr=tuple(np.mean(fpr, axis=0).tolist()),
        per_replicate_tpr=tuple(tuple(row) for row in tpr.tolist()),
        per_replicate_fpr=tuple(tuple(row) for row in fpr.tolist()),
    )


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
