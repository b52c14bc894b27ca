"""Replicated screening experiments: confusion counts of threshold lists,
FPR-target runs, and ROC sweeps over a fixed threshold grid.

Each replicate r draws its own stream seeded with ``sim.seed XOR r``. For
scenarios with random graphs (A, B) the ground truth is re-drawn inside every
replicate, so averages cover both graph and sampling randomness; C and D have
deterministic ground truths. Replicates run independently and are aggregated
in replicate order, so results do not depend on scheduling.

One runner, :func:`run_experiments`, takes a simulation, an estimator, a
replicate count and a list of thresholds, and loops over the replicates: in a
pool of ``threads`` workers, or on the calling thread if ``threads`` is 1. A
``bench`` table and an ROC sweep (its grid as fixed thresholds, on one thread)
are one call each, and :func:`_score_cells` scores each replicate from one
draw and one sign pass. A result holds its counts as one (R, 4) array of tp,
fp, tn and fn per replicate; FPR and FNR are derived from it only by
:meth:`ExperimentResult.rates`.
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
from .screening import ThresholdSpec, screen_edges, threshold_matrix
from .simgen import RngStream, SimConfig, generate_ground_truth, sample

ESTIMATORS = ("kendall", "pearson")


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """One threshold's experiment: ``counts`` is a read-only (R, 4) int array
    of each replicate's tp, fp, tn and fn over all unordered node pairs. In
    fpr mode ``f_per_replicate`` holds each replicate's false-positive budget
    f (it varies with the replicate's ground truth in scenarios A and B);
    otherwise it is None."""

    sim: SimConfig
    estimator: str
    threshold: ThresholdSpec
    counts: np.ndarray
    f_per_replicate: tuple[float, ...] | None

    def rates(self) -> tuple[np.ndarray, np.ndarray]:
        """Each replicate's FPR fp/(fp+tn) and FNR fn/(tp+fn), 0.0 where the
        denominator is 0 (no true non-edges, or no true edges)."""
        tp, fp, tn, fn = self.counts.T
        return tuple(np.divide(num, den, out=np.zeros(len(den)), where=den > 0)
                     for num, den in ((fp, fp + tn), (fn, tp + fn)))

    @property
    def q_or_gamma(self) -> float:
        """The threshold's value: gamma, the rate cutoff at n, q, or f given directly."""
        threshold = self.threshold
        if threshold.mode != "fpr":
            return threshold.cutoff(self.sim.n)
        return threshold.f if threshold.f is not None else threshold.q

    def aggregate(self) -> dict:
        fpr, fnr = self.rates()
        tp, fp, _, _ = self.counts.T
        # integer sums are exact in float64, so the order of the adds is moot
        mean_tp, mean_fp, mean_tn, mean_fn = self.counts.mean(axis=0).tolist()
        out = {
            "scenario": self.sim.scenario,
            "estimator": self.estimator,
            "n": self.sim.n,
            "p": self.sim.p,
            "replicates": len(self.counts),
            "threshold_mode": self.threshold.mode,
            "q_or_gamma": self.q_or_gamma,
            "mean_fpr": float(np.mean(fpr)),
            "mean_fnr": float(np.mean(fnr)),
            "mean_edge_count": float(np.mean(tp + fp)),
            "mean_tp": mean_tp,
            "mean_fp": mean_fp,
            "mean_tn": mean_tn,
            "mean_fn": mean_fn,
        }
        if self.threshold.mode == "fpr":
            out["f_used"] = float(np.mean(self.f_per_replicate))
            out["f_min"] = min(self.f_per_replicate)
            out["f_max"] = max(self.f_per_replicate)
            out["q"] = self.threshold.q
            # how f was set: given directly, or q times each replicate's true non-edges
            out["q_convention"] = ("f-direct" if self.threshold.f is not None
                                   else "q-times-true-nonedges")
        elif self.threshold.mode == "rate":
            out["c1"] = self.threshold.c1
            out["kappa"] = self.threshold.kappa
        else:
            out["gamma"] = self.threshold.gamma
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
                threads: int = 1) -> tuple[CorrMatrix, np.ndarray]:
    """The screened correlation estimate of ``data`` and its edges under
    ``spec``. In fpr mode one sign pass gives both the kendall estimator's
    tau and the thresholds' jackknife omega^2; ``threads`` splits it by rows."""
    tau = omega2 = None
    if spec.mode == "fpr":
        tau, omega2 = jackknife_matrix(data, threads=threads)
    corr = estimator_matrix(data, estimator, tau=tau, threads=threads)
    return corr, screen_edges(corr, threshold_matrix(spec, data.n, data.p, omega2=omega2))


def _replicate(sim: SimConfig, score, r: int):
    """``score(gt, data)`` of replicate r, drawn from the stream ``sim.seed ^ r``."""
    try:
        rng = RngStream(sim.seed ^ r)
        gt = generate_ground_truth(sim, rng)
        return score(gt, sample(gt, sim, rng))
    except TauscreenError as exc:
        raise TauscreenError(f"replicate {r} failed: {exc}") from exc


def _score_cells(estimator: str, thresholds: tuple, gt, data) -> tuple[np.ndarray, tuple]:
    """Each threshold's tp, fp, tn and fn on one replicate, as one row of a
    (T, 4) int array, and each cell's budget f: in fpr mode the threshold's
    f, or q times this replicate's true non-edge count; None for a scalar
    cell. One sign pass serves every cell: the jackknife's if any cell is
    fpr. A cell keeps the pairs with |corr| > cutoff, as :func:`screen_edges`
    does: an fpr cell compares with its :func:`threshold_matrix`, and all
    scalar cutoffs are counted by one search of each sorted strength vector."""
    is_fpr = np.array([t.mode == "fpr" for t in thresholds])
    tau, omega2 = jackknife_matrix(data) if is_fpr.any() else (None, None)
    corr = estimator_matrix(data, estimator, tau=tau)
    upper, truth = np.triu_indices(data.p, 1), tuple(gt.edges.T)
    strength, true_strength = np.abs(corr.entries[upper]), np.abs(corr.entries[truth])
    total, edges = strength.size, true_strength.size
    kept, hits = np.empty(len(thresholds), np.int64), np.empty(len(thresholds), np.int64)
    scalar = [t.cutoff(data.n) for t in thresholds if t.mode != "fpr"]
    # side="right" counts the pairs with |corr| <= gamma, so what remains
    # is the strict |corr| > gamma rule of screen_edges, ties included
    kept[~is_fpr] = total - np.searchsorted(np.sort(strength), scalar, side="right")
    hits[~is_fpr] = edges - np.searchsorted(np.sort(true_strength), scalar, side="right")
    budgets = [None] * len(thresholds)
    for i in np.flatnonzero(is_fpr):
        t = thresholds[i]
        if t.f is None and gt.nonedge_count() == 0:
            raise InvalidInputError("the true graph has no non-edges, so q sets no budget")
        budgets[i] = t.f if t.f is not None else t.q * gt.nonedge_count()
        cut = threshold_matrix(ThresholdSpec.fpr(f=budgets[i]), data.n, data.p, omega2=omega2)
        kept[i] = np.count_nonzero(strength > cut[upper])
        hits[i] = np.count_nonzero(true_strength > cut[truth])
    counts = np.stack([hits, kept - hits, total - edges - kept + hits, edges - hits], axis=1)
    return counts, tuple(budgets)


def run_experiments(sim: SimConfig, estimator: str, replicates: int, thresholds,
                    threads: int = 1) -> list[ExperimentResult]:
    """Every threshold's experiment on the same ``replicates`` draws of
    ``sim``: a pool of ``threads`` workers (the calling thread if ``threads``
    is 1) draws each replicate once, and its one sign pass serves every
    threshold. One result per threshold, in list order. The arguments are
    checked before any replicate is drawn; a failing replicate ends the run,
    and the pool cancels the replicates still queued."""
    thresholds = tuple(thresholds)
    if estimator not in ESTIMATORS:
        raise InvalidInputError(f"estimator must be one of {ESTIMATORS}")
    if replicates < 1:
        raise InvalidInputError("need at least 1 replicate")
    if not thresholds:
        raise InvalidInputError("need at least 1 threshold")
    if sim.n < 3 and any(t.mode == "fpr" for t in thresholds):
        raise InvalidInputError("fpr mode needs n >= 3")
    if threads < 1:
        raise InvalidInputError(f"threads must be >= 1, got {threads}")
    score = partial(_score_cells, estimator, thresholds)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        counts, budgets = zip(*(pool.map if threads > 1 else map)(
            partial(_replicate, sim, score), range(replicates)))
    counts = np.stack(counts, axis=1)  # (T, R, 4): result i takes counts[i]
    counts.flags.writeable = False
    budgets = list(zip(*budgets))
    return [ExperimentResult(sim, estimator, t, counts[i], budgets[i] if t.mode == "fpr" else None)
            for i, t in enumerate(thresholds)]


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
    """ROC points at every grid value (:func:`default_grid` if None), each a
    fixed threshold of one :func:`run_experiments` call on the calling
    thread: a sweep replicate is many small NumPy calls with the GIL taken
    between them, so a pool gains little on an idle host and loses on a busy one."""
    grid = default_grid() if grid is None else tuple(float(g) for g in grid)
    if not grid or list(grid) != sorted(grid):
        raise InvalidInputError("grid must be non-empty and ascending")
    results = run_experiments(sim, estimator, replicates, [ThresholdSpec.fixed(g) for g in grid])
    # the (R, G) rates: the mean over axis 0 adds each grid value's rates in replicate order
    fpr, fnr = np.stack([result.rates() for result in results], axis=2)
    return SweepResult(grid=grid, mean_tpr=tuple(np.mean(1.0 - fnr, axis=0).tolist()),
                       mean_fpr=tuple(np.mean(fpr, axis=0).tolist()))


def auc(sweep: SweepResult) -> float:
    """Trapezoidal area under the mean (FPR, TPR) points sorted by FPR,
    anchored at (0, 0) and (1, 1)."""
    if len(sweep.grid) < 2:
        raise InvalidInputError("need at least 2 grid points")
    pts = sorted(zip(map(float, sweep.mean_fpr), map(float, sweep.mean_tpr)))
    area = 0.0
    for (x0, y0), (x1, y1) in zip([(0.0, 0.0)] + pts, pts + [(1.0, 1.0)]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


EXPERIMENT_CSV_COLUMNS = ("replicate", "q_or_gamma", "estimator", "scenario",
                          "tp", "fp", "tn", "fn", "fpr", "fnr", "edge_count", "f_used")


def experiment_rows(result: ExperimentResult) -> list[tuple]:
    """One row per replicate; ``f_used`` is that replicate's budget f in fpr
    mode and empty otherwise."""
    q_or_gamma = result.q_or_gamma
    fpr, fnr = (rate.tolist() for rate in result.rates())
    f_values = result.f_per_replicate or ("",) * len(fpr)
    return [(r, q_or_gamma, result.estimator, result.sim.scenario,
             tp, fp, tn, fn, fpr[r], fnr[r], tp + fp, f_values[r])
            for r, (tp, fp, tn, fn) in enumerate(result.counts.tolist())]


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
