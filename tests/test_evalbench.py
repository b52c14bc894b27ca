"""Tests for confusion counts, experiment runs, and ROC sweeps."""

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauscreen import (
    DataMatrix,
    ExperimentResult,
    InvalidInputError,
    RngStream,
    SimConfig,
    SweepResult,
    ThresholdSpec,
    auc,
    default_grid,
    estimator_matrix,
    generate_ground_truth,
    jackknife_matrix,
    roc_sweep,
    run_experiments,
    sample,
    screen_edges,
    threshold_matrix,
)
from tauscreen import evalbench
from tauscreen.errors import SingularMatrixError, TauscreenError
from tauscreen.evalbench import (
    experiment_rows,
    screen_data,
    write_experiment_csv,
    write_json_report,
    write_sweep_csv,
)

from oracles import as_set, confusion, edge_array


def reference_rates(tp, fp, tn, fn):
    """(FPR, FNR) of one replicate's counts by Python division, 0.0 where
    the denominator is 0."""
    return fp / (fp + tn) if fp + tn else 0.0, fn / (tp + fn) if tp + fn else 0.0


class TestConfusion:
    def test_perfect(self):
        t = edge_array(((0, 1), (2, 3)))
        assert confusion(t, t, 4) == (2, 0, 4, 0)

    def test_empty_estimate(self):
        t = edge_array(((0, 1),))
        assert confusion(edge_array(()), t, 4) == (0, 0, 5, 1)

    def test_hand_counts(self):
        truth = edge_array(((0, 1), (2, 3)))
        est = edge_array(((0, 1), (0, 2)))
        assert confusion(est, truth, 4) == (1, 1, 3, 1)

    def test_degenerate_denominators(self):
        empty = edge_array(())
        assert confusion(empty, empty, 3) == (0, 0, 3, 0)
        complete = edge_array(((0, 1), (0, 2), (1, 2)))
        assert confusion(complete, complete, 3) == (3, 0, 0, 0)

    def test_size_mismatch(self):
        with pytest.raises(InvalidInputError, match="outside the 3 nodes"):
            confusion(edge_array(()), edge_array(((0, 3),)), 3)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=12), st.randoms(use_true_random=False))
    def test_matches_set_reference(self, p, rnd):
        pairs = [(j, k) for j in range(p) for k in range(j + 1, p)]
        est_pairs = rnd.sample(pairs, rnd.randint(0, len(pairs)))
        truth_pairs = rnd.sample(pairs, rnd.randint(0, len(pairs)))
        m = confusion(edge_array(est_pairs), edge_array(truth_pairs), p)
        e, t = set(est_pairs), set(truth_pairs)
        tp, fp, fn = len(e & t), len(e - t), len(t - e)
        assert m == (tp, fp, len(pairs) - tp - fp - fn, fn)
        assert all(type(v) is int for v in m)


class TestRates:
    def test_zero_denominator_is_zero(self):
        # rows: no true edges, no true non-edges, no pairs at all, and a hand case
        counts = np.array([[0, 2, 1, 0], [2, 0, 0, 1], [0, 0, 0, 0], [1, 1, 3, 1]])
        result = ExperimentResult(SimConfig(scenario="C", n=20, p=4), "kendall",
                                  ThresholdSpec.fixed(0.3), counts, None)
        fpr, fnr = result.rates()
        assert fpr.tolist() == [2 / 3, 0.0, 0.0, 0.25]
        assert fnr.tolist() == [0.0, 1 / 3, 0.0, 0.5]
        assert fpr.dtype == fnr.dtype == np.float64

    def test_counts_cover_every_pair_and_are_read_only(self):
        sim = SimConfig(scenario="B", n=30, p=20, seed=8)
        thresholds = [ThresholdSpec.fixed(0.3), ThresholdSpec.fpr(q=0.1),
                      ThresholdSpec.rate(0.6, 0.25)]
        for result in run_experiments(sim, "kendall", 3, thresholds, threads=2):
            assert result.counts.shape == (3, 4)
            assert np.issubdtype(result.counts.dtype, np.integer)
            assert result.counts.sum(axis=1).tolist() == [20 * 19 // 2] * 3
            assert not result.counts.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                result.counts[0, 0] = 0


class TestRunExperiment:
    def test_single_replicate_reduces_to_direct_computation(self):
        sim = SimConfig(scenario="C", n=80, p=10, seed=99)
        result, = run_experiments(sim, "kendall", 1, [ThresholdSpec.rate(0.5, 0.25)])
        rng = RngStream(99)
        gt = generate_ground_truth(sim, rng)
        data = sample(gt, sim, rng)
        corr = estimator_matrix(data, "kendall")
        gammas = threshold_matrix(ThresholdSpec.rate(0.5, 0.25), 80, 10)
        expect = confusion(screen_edges(corr, gammas), gt.edges, 10)
        assert result.counts.tolist() == [list(expect)]

    def test_deterministic(self):
        sim = SimConfig(scenario="B", n=40, p=20, seed=5)
        a, = run_experiments(sim, "kendall", 4, [ThresholdSpec.fpr(q=0.2)])
        b, = run_experiments(sim, "kendall", 4, [ThresholdSpec.fpr(q=0.2)])
        assert np.array_equal(a.counts, b.counts)
        assert a.aggregate() == b.aggregate()

    def test_threads_identical(self):
        sim = SimConfig(scenario="A", n=40, p=25, seed=17)
        a, = run_experiments(sim, "kendall", 6, [ThresholdSpec.fixed(0.3)], threads=1)
        b, = run_experiments(sim, "kendall", 6, [ThresholdSpec.fixed(0.3)], threads=4)
        assert np.array_equal(a.counts, b.counts)

    def test_aggregate_is_plain_mean(self):
        sim = SimConfig(scenario="C", n=30, p=8, seed=3)
        result, = run_experiments(sim, "pearson", 5, [ThresholdSpec.fixed(0.2)])
        rows = result.counts.tolist()
        agg = result.aggregate()
        assert agg["mean_fpr"] == float(np.mean([reference_rates(*m)[0] for m in rows]))
        assert agg["mean_fnr"] == float(np.mean([reference_rates(*m)[1] for m in rows]))
        assert agg["mean_edge_count"] == float(np.mean([tp + fp for tp, fp, _, _ in rows]))
        assert [agg[k] for k in ("mean_tp", "mean_fp", "mean_tn", "mean_fn")] == [
            float(np.mean(column)) for column in zip(*rows)]

    def test_q_converts_through_true_nonedges(self):
        sim = SimConfig(scenario="D", n=50, p=20, seed=1)
        result, = run_experiments(sim, "kendall", 1, [ThresholdSpec.fpr(q=0.1)])
        gt = generate_ground_truth(sim)
        agg = result.aggregate()
        assert agg["f_used"] == pytest.approx(0.1 * gt.nonedge_count())
        assert agg["q"] == 0.1 and agg["q_convention"] == "q-times-true-nonedges"


    def test_f_reported_per_replicate(self, tmp_path):
        # scenario A redraws its graph per replicate, so f = q * |non-edges| varies
        sim = SimConfig(scenario="A", n=30, p=100, seed=3)
        result, = run_experiments(sim, "kendall", 5, [ThresholdSpec.fpr(q=0.05)])
        expect = [0.05 * generate_ground_truth(sim, RngStream(3 ^ r)).nonedge_count()
                  for r in range(5)]
        assert len(set(expect)) > 1
        path = tmp_path / "rows.csv"
        write_experiment_csv(path, experiment_rows(result))
        lines = path.read_text().splitlines()
        col = lines[0].split(",").index("f_used")
        assert [float(line.split(",")[col]) for line in lines[1:]] == expect
        agg = result.aggregate()
        assert agg["f_used"] == pytest.approx(np.mean(expect), rel=1e-15)
        assert agg["f_min"] == min(expect) and agg["f_max"] == max(expect)

    def test_direct_f_is_every_replicates_budget(self, tmp_path):
        sim = SimConfig(scenario="A", n=30, p=20, seed=3)
        result, = run_experiments(sim, "kendall", 3, [ThresholdSpec.fpr(f=2.0)])
        assert result.f_per_replicate == (2.0,) * 3
        agg = result.aggregate()
        assert (agg["f_used"], agg["f_min"], agg["f_max"]) == (2.0, 2.0, 2.0)
        assert agg["q"] is None and agg["q_convention"] == "f-direct"
        path = tmp_path / "rows.csv"
        write_experiment_csv(path, experiment_rows(result))
        lines = path.read_text().splitlines()
        col = lines[0].split(",").index("f_used")
        assert [float(line.split(",")[col]) for line in lines[1:]] == [2.0] * 3

    def test_fixed_mode_has_no_budget(self, tmp_path):
        sim = SimConfig(scenario="A", n=30, p=20, seed=3)
        result, = run_experiments(sim, "kendall", 3, [ThresholdSpec.fixed(0.3)])
        assert result.f_per_replicate is None
        assert not {"f_used", "q_convention"} & set(result.aggregate())
        path = tmp_path / "rows.csv"
        write_experiment_csv(path, experiment_rows(result))
        lines = path.read_text().splitlines()
        col = lines[0].split(",").index("f_used")
        assert [line.split(",")[col] for line in lines[1:]] == [""] * 3

    def test_fpr_q_threads_identical(self):
        # scenario A redraws its graph per replicate, so each f differs
        sim = SimConfig(scenario="A", n=30, p=40, seed=9)
        a, = run_experiments(sim, "kendall", 5, [ThresholdSpec.fpr(q=0.05)], threads=1)
        b, = run_experiments(sim, "kendall", 5, [ThresholdSpec.fpr(q=0.05)], threads=3)
        assert np.array_equal(a.counts, b.counts)
        assert a.f_per_replicate == b.f_per_replicate
        assert len(set(a.f_per_replicate)) > 1
        assert a.aggregate() == b.aggregate()

    def test_zero_threads_is_invalid(self):
        with pytest.raises(InvalidInputError, match="threads must be >= 1, got 0"):
            run_experiments(SimConfig(scenario="C", n=20, p=5), "kendall", 2,
                            [ThresholdSpec.fixed(0.3)], threads=0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_replicate_cancels_the_queue(self, monkeypatch, threads):
        drawn = []
        real = evalbench.generate_ground_truth

        def first_fails(sim, rng):
            drawn.append(rng)
            if len(drawn) == 1:
                raise SingularMatrixError("not pd")
            time.sleep(0.2)  # the replicates still running when the failure lands
            return real(sim, rng)

        monkeypatch.setattr(evalbench, "generate_ground_truth", first_fails)
        with pytest.raises(TauscreenError, match="^replicate 0 failed: not pd$"):
            run_experiments(SimConfig(scenario="C", n=20, p=5), "kendall", 40,
                            [ThresholdSpec.fixed(0.3)], threads=threads)
        # replicate 0 plus at most one replicate per worker started before the cancel
        assert len(drawn) <= threads + 1

    @pytest.mark.parametrize("estimator", ["kendall", "pearson"])
    def test_fpr_replicate_makes_one_sign_pass(self, sign_passes, estimator):
        sim = SimConfig(scenario="B", n=40, p=20, seed=5)
        run_experiments(sim, estimator, 3, [ThresholdSpec.fpr(q=0.2)], threads=1)
        assert sign_passes == ["_sign_moments"] * 3


class TestQOrGamma:
    @pytest.mark.parametrize("tspec,value", [
        (ThresholdSpec.fixed(0.3), 0.3),
        (ThresholdSpec.rate(0.6, 0.25), (2.0 / 3.0) * 0.6 * 30.0 ** -0.25),
        (ThresholdSpec.fpr(q=0.1), 0.1),
        (ThresholdSpec.fpr(f=4.0), 4.0),
    ], ids=["fixed", "rate", "fpr-q", "fpr-f"])
    def test_column_and_key_are_the_thresholds_value(self, tmp_path, tspec, value):
        result, = run_experiments(SimConfig(scenario="C", n=30, p=8), "kendall", 2, [tspec])
        assert result.q_or_gamma == value
        assert result.aggregate()["q_or_gamma"] == value
        path = tmp_path / "rows.csv"
        write_experiment_csv(path, experiment_rows(result))
        lines = path.read_text().splitlines()
        col = lines[0].split(",").index("q_or_gamma")
        assert [float(line.split(",")[col]) for line in lines[1:]] == [value] * 2


class TestScreenData:
    @pytest.mark.parametrize("estimator", ["kendall", "pearson"])
    @pytest.mark.parametrize("tspec", [ThresholdSpec.fixed(0.25), ThresholdSpec.rate(0.6, 0.25),
                                       ThresholdSpec.fpr(q=0.1), ThresholdSpec.fpr(f=4.0)],
                             ids=["fixed", "rate", "fpr-q", "fpr-f"])
    def test_matches_hand_wired_layers(self, sign_passes, estimator, tspec):
        sim = SimConfig(scenario="B", n=60, p=20, base="student-t", seed=0)
        rng = RngStream(11)
        data = sample(generate_ground_truth(sim, rng), sim, rng)
        fpr = tspec.mode == "fpr"
        corr, edges = screen_data(data, estimator, tspec, threads=2)
        # kendall needs the one sign pass for tau, pearson only for fpr's omega^2
        assert sign_passes == ["_sign_moments"] * (estimator == "kendall" or fpr)

        tau, omega2 = jackknife_matrix(data) if fpr else (None, None)
        ref_corr = estimator_matrix(data, estimator, tau=tau)
        ref = screen_edges(ref_corr, threshold_matrix(tspec, data.n, data.p, omega2=omega2))
        assert np.array_equal(corr.entries, ref_corr.entries)
        assert np.array_equal(edges, ref)
        assert len(edges) > 0


class TestReplicateErrors:
    @pytest.mark.parametrize("raised,expected,message", [
        (SingularMatrixError("not pd"), TauscreenError, "^replicate 0 failed: not pd$"),
        (ZeroDivisionError("a bug"), ZeroDivisionError, "^a bug$"),
    ], ids=["model-error-names-replicate", "other-error-keeps-type"])
    @pytest.mark.parametrize("runner", ["table", "sweep"])
    def test_replicate_error(self, monkeypatch, raised, expected, message, runner):
        def failing(*args, **kwargs):
            raise raised

        monkeypatch.setattr(evalbench, "generate_ground_truth", failing)
        sim = SimConfig(scenario="C", n=20, p=5)
        with pytest.raises(expected, match=message) as info:
            if runner == "table":
                run_experiments(sim, "kendall", 2, [ThresholdSpec.fixed(0.3)])
            else:
                roc_sweep(sim, "kendall", replicates=2)
        assert type(info.value) is expected
        if expected is TauscreenError:
            assert info.value.__cause__ is raised

    @pytest.mark.parametrize("n,estimator,replicates,thresholds,message", [
        (2, "kendall", 2, [ThresholdSpec.fixed(0.3), ThresholdSpec.fpr(q=0.1)],
         "fpr mode needs n >= 3"),
        (20, "spearman", 2, [ThresholdSpec.fixed(0.3)], "estimator must be one of"),
        (20, "kendall", 0, [ThresholdSpec.fixed(0.3)], "need at least 1 replicate"),
        (20, "kendall", 2, [], "need at least 1 threshold"),
    ], ids=["fpr-n2", "unknown-estimator", "zero-replicates", "no-thresholds"])
    def test_fpr_spec_needs_three_rows(self, monkeypatch, n, estimator, replicates,
                                       thresholds, message):
        """Each refusal comes before the first replicate is drawn."""
        drawn = []
        real = evalbench.generate_ground_truth

        def counted(sim, rng):
            drawn.append(rng)
            return real(sim, rng)

        monkeypatch.setattr(evalbench, "generate_ground_truth", counted)
        with pytest.raises(InvalidInputError, match=message):
            run_experiments(SimConfig(scenario="C", n=n, p=5), estimator, replicates,
                            thresholds)
        assert drawn == []


class TestRocSweep:
    def test_extreme_grid_points(self):
        # n = 62 makes n(n-1)/2 odd, so a tie-free tau numerator is odd and
        # can never be exactly zero; gamma = 0 then keeps every pair
        sim = SimConfig(scenario="C", n=62, p=8, seed=11)
        sweep = roc_sweep(sim, "kendall", replicates=2, grid=(0.0, 1.05))
        assert sweep.mean_tpr[0] == 1.0 and sweep.mean_fpr[0] == 1.0
        # gamma > 1: nothing kept
        assert sweep.mean_tpr[-1] == 0.0 and sweep.mean_fpr[-1] == 0.0

    def test_monotone_along_grid(self):
        sim = SimConfig(scenario="B", n=50, p=20, seed=2)
        sweep = roc_sweep(sim, "kendall", replicates=3, grid=tuple(np.linspace(0, 1, 21)))
        for row in (sweep.mean_tpr, sweep.mean_fpr):
            diffs = np.diff(row)
            assert np.all(diffs <= 1e-15)
        for rep_t, rep_f in zip(*replicate_sweeps(sim, "kendall", 3, sweep.grid)):
            assert np.all(np.diff(rep_t) <= 1e-15)
            assert np.all(np.diff(rep_f) <= 1e-15)

    def test_grid_validation(self):
        sim = SimConfig(scenario="C", n=20, p=5, seed=0)
        with pytest.raises(InvalidInputError):
            roc_sweep(sim, "kendall", 1, grid=(0.5, 0.2))
        with pytest.raises(InvalidInputError):
            roc_sweep(sim, "kendall", 1, grid=(-0.1, 0.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_grid_rejected(self, bad):
        sim = SimConfig(scenario="C", n=20, p=5, seed=0)
        with pytest.raises(InvalidInputError, match="finite"):
            roc_sweep(sim, "kendall", 1, grid=(0.1, bad))

    def test_default_grid(self):
        grid = default_grid()
        assert len(grid) == 50
        assert grid[0] == 0.0 and grid[-1] == 1.0


def replicate_data(sim, r):
    """Replicate r's truth and data, drawn from ``RngStream(sim.seed ^ r)``
    in the order both bench modes draw them."""
    rng = RngStream(sim.seed ^ r)
    gt = generate_ground_truth(sim, rng)
    return gt, sample(gt, sim, rng)


def replicate_draw(sim, estimator, r):
    """Replicate r's truth and correlation estimate."""
    gt, data = replicate_data(sim, r)
    return gt, estimator_matrix(data, estimator)


def reference_sweep(sim, estimator, replicates, grid):
    """Per-replicate TPR and FPR tuples from one ``screen_edges`` and
    ``confusion`` pass per grid value."""
    tprs, fprs = [], []
    for r in range(replicates):
        gt, corr = replicate_draw(sim, estimator, r)
        rep_tpr, rep_fpr = [], []
        for gamma in grid:
            fpr, fnr = reference_rates(*confusion(
                screen_edges(corr, np.full((sim.p, sim.p), gamma)), gt.edges, sim.p))
            rep_tpr.append(1.0 - fnr)
            rep_fpr.append(fpr)
        tprs.append(tuple(rep_tpr))
        fprs.append(tuple(rep_fpr))
    return tuple(tprs), tuple(fprs)


def replicate_sweeps(sim, estimator, replicates, grid):
    """Per-replicate TPR and FPR tuples of ``roc_sweep``: replicate r of a
    sweep at seed s is the one replicate of a sweep at seed s ^ r, and the
    mean of one replicate is its value."""
    sweeps = [roc_sweep(replace(sim, seed=sim.seed ^ r), estimator, 1, grid=grid)
              for r in range(replicates)]
    return tuple(s.mean_tpr for s in sweeps), tuple(s.mean_fpr for s in sweeps)


def assert_sweep_matches_reference(sim, estimator, replicates, grid):
    """Each replicate's rates and the mean rates equal the screen loop's."""
    sweep = roc_sweep(sim, estimator, replicates=replicates, grid=grid)
    ref_tpr, ref_fpr = reference_sweep(sim, estimator, replicates, grid)
    assert replicate_sweeps(sim, estimator, replicates, grid) == (ref_tpr, ref_fpr)
    assert sweep.mean_tpr == tuple(np.mean(ref_tpr, axis=0).tolist())
    assert sweep.mean_fpr == tuple(np.mean(ref_fpr, axis=0).tolist())
    return sweep


def tie_grid(sim, estimator, replicates):
    """Every distinct upper-triangle |corr| value of every replicate, so each
    grid point ties with some pair, plus repeated points, 0, 1 and 1.5."""
    values = set()
    for r in range(replicates):
        _, corr = replicate_draw(sim, estimator, r)
        values.update(np.abs(corr.entries[np.triu_indices(sim.p, 1)]).tolist())
    distinct = sorted(values)
    return tuple(sorted(distinct + distinct[::5] + [0.0, 0.0, 1.0, 1.0, 1.5]))


class TestSweepMatchesScreenLoop:
    """The sort-once sweep against the per-grid-value screen loop it replaced;
    rates must be equal, not close."""

    @pytest.mark.parametrize("estimator", ["kendall", "pearson"])
    @pytest.mark.parametrize("scenario,n,p", [("A", 30, 20), ("B", 25, 20),
                                              ("C", 15, 12), ("D", 25, 20)])
    def test_tie_at_every_grid_point(self, scenario, n, p, estimator):
        sim = SimConfig(scenario=scenario, n=n, p=p, seed=41)
        assert_sweep_matches_reference(sim, estimator, 2, tie_grid(sim, estimator, 2))

    @pytest.mark.parametrize("estimator", ["kendall", "pearson"])
    @pytest.mark.parametrize("scenario,p", [("A", 2), ("B", 10), ("C", 2), ("D", 10)])
    def test_smallest_p(self, scenario, p, estimator):
        sim = SimConfig(scenario=scenario, n=9, p=p, seed=7)
        assert_sweep_matches_reference(sim, estimator, 3, tie_grid(sim, estimator, 3))

    @pytest.mark.parametrize("estimator", ["kendall", "pearson"])
    def test_no_true_edges(self, estimator):
        # seed 7 draws no scenario-A edge on 15 pairs in any of the 3 replicates
        sim = SimConfig(scenario="A", n=12, p=6, seed=7)
        assert all(len(replicate_draw(sim, estimator, r)[0].edges) == 0 for r in range(3))
        sweep = assert_sweep_matches_reference(sim, estimator, 3, tie_grid(sim, estimator, 3))
        assert set(sweep.mean_tpr) == {1.0}

    def test_makes_no_screen_or_confusion_call(self, screen_calls):
        sim = SimConfig(scenario="C", n=20, p=8, seed=0)
        roc_sweep(sim, "kendall", replicates=2)
        # table mode scores with the sweep's counts too
        run_experiments(sim, "kendall", 2, [ThresholdSpec.fpr(q=0.1)])
        assert screen_calls == []
        # the counter sees the call that screen_data makes
        screen_data(replicate_data(sim, 0)[1], "kendall", ThresholdSpec.fixed(0.3))
        assert screen_calls == ["screen_edges"]


def reference_cells(estimator, thresholds, gt, data):
    """Each threshold's ((tp, fp, tn, fn), f) from its own ``threshold_matrix``,
    ``screen_edges`` and ``confusion`` on the same draw."""
    fpr = any(t.mode == "fpr" for t in thresholds)
    tau, omega2 = jackknife_matrix(data) if fpr else (None, None)
    corr = estimator_matrix(data, estimator, tau=tau)
    cells = []
    for t in thresholds:
        f = None
        if t.mode == "fpr":
            f = t.f if t.f is not None else t.q * gt.nonedge_count()
            t = ThresholdSpec.fpr(f=f)
        est = screen_edges(corr, threshold_matrix(t, data.n, data.p, omega2=omega2))
        cells.append((confusion(est, gt.edges, data.p), f))
    return cells


def assert_cells_match_reference(estimator, thresholds, gt, data):
    """``_score_cells`` gives the reference's counts, one int row per
    threshold, and its budgets; returns the counts."""
    counts, budgets = evalbench._score_cells(estimator, thresholds, gt, data)
    reference = reference_cells(estimator, thresholds, gt, data)
    assert counts.tolist() == [list(m) for m, _ in reference]
    assert budgets == tuple(f for _, f in reference)
    assert counts.shape == (len(thresholds), 4) and np.issubdtype(counts.dtype, np.integer)
    return counts


def observed_strengths(estimator, gt, data):
    """The upper-triangle |corr| values and the true edges' |corr| values."""
    corr = estimator_matrix(data, estimator).entries
    return (np.abs(corr[np.triu_indices(data.p, 1)]),
            np.abs(corr[tuple(gt.edges.T)]))


class TestScoreCells:
    """The one scorer of both bench modes against the screen-and-confusion
    reference: every count and rate must be equal."""

    @pytest.mark.parametrize("with_fpr", [True, False], ids=["jackknife-pass", "tau-pass"])
    @pytest.mark.parametrize("estimator", ["kendall", "pearson"])
    @pytest.mark.parametrize("scenario,n,p", [("A", 30, 20), ("B", 25, 20),
                                              ("C", 15, 12), ("D", 25, 20)])
    def test_matches_screen_and_confusion(self, scenario, n, p, estimator, with_fpr):
        sim = SimConfig(scenario=scenario, n=n, p=p, seed=23)
        gt, data = replicate_data(sim, 1)
        strength, true_strength = observed_strengths(estimator, gt, data)
        # cutoffs equal to an observed |corr|: kept only above it
        ties = [float(np.median(strength)), float(strength.max())]
        if true_strength.size:
            ties.append(float(true_strength.min()))
        thresholds = [ThresholdSpec.fixed(g) for g in [0.0, 0.25, *ties, 1.5]]
        thresholds.insert(2, ThresholdSpec.rate(0.6, 0.25))
        if with_fpr:
            thresholds[1:1] = [ThresholdSpec.fpr(q=0.1), ThresholdSpec.fpr(f=4.0)]
            thresholds.append(ThresholdSpec.fpr(q=0.3))
        thresholds = tuple(thresholds)
        counts = assert_cells_match_reference(estimator, thresholds, gt, data)
        assert len(set((counts[:, 0] + counts[:, 1]).tolist())) > 2

    @pytest.mark.filterwarnings("ignore:degenerate pair")
    @pytest.mark.parametrize("estimator", ["kendall", "pearson"])
    def test_three_rows_with_zero_variance_pairs(self, estimator):
        sim = SimConfig(scenario="B", n=3, p=10, seed=4)
        gt, data = replicate_data(sim, 0)
        _, omega2 = jackknife_matrix(data)
        assert np.any(omega2[np.triu_indices(10, 1)] == 0.0)
        strength, _ = observed_strengths(estimator, gt, data)
        thresholds = (ThresholdSpec.fpr(q=0.3), ThresholdSpec.fixed(float(np.median(strength))),
                      ThresholdSpec.fpr(f=2.0), ThresholdSpec.rate(0.6, 0.25))
        counts = assert_cells_match_reference(estimator, thresholds, gt, data)
        assert counts[0, 0] + counts[0, 1] > 0

    @pytest.mark.filterwarnings("ignore:degenerate pair")
    def test_constant_column_is_not_kept_at_its_zero_cutoff(self):
        # a constant column has tau 0 and jackknife variance 0 with every
        # other column, so each of its pairs ties its fpr cutoff 0
        sim = SimConfig(scenario="C", n=12, p=10, seed=3)
        gt, data = replicate_data(sim, 0)
        values = data.values.copy()
        values[:, 0] = 1.0
        data = DataMatrix(values)
        assert (0, 1) in as_set(gt.edges)
        thresholds = (ThresholdSpec.fpr(q=0.5), ThresholdSpec.fpr(f=30.0), ThresholdSpec.fixed(0.0))
        assert_cells_match_reference("kendall", thresholds, gt, data)


class TestRunExperiments:
    LISTS = {
        "fpr": [ThresholdSpec.fpr(q=0.05), ThresholdSpec.fpr(q=0.1), ThresholdSpec.fpr(f=3.0)],
        "fixed": [ThresholdSpec.fixed(0.3), ThresholdSpec.fixed(0.5)],
        "mixed": [ThresholdSpec.rate(0.6, 0.25), ThresholdSpec.fpr(q=0.2),
                  ThresholdSpec.fixed(0.2)],
    }

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("estimator", ["kendall", "pearson"])
    @pytest.mark.parametrize("cells", sorted(LISTS))
    def test_list_equals_single_runs(self, cells, estimator, threads):
        # scenario A redraws its graph per replicate, so each f differs
        sim = SimConfig(scenario="A", n=30, p=40, seed=6)
        thresholds = self.LISTS[cells]
        results = run_experiments(sim, estimator, 3, thresholds, threads=threads)
        assert [(r.sim, r.estimator, r.threshold) for r in results] == [
            (sim, estimator, t) for t in thresholds]
        for result, t in zip(results, thresholds):
            single, = run_experiments(sim, estimator, 3, [t], threads=1)
            assert np.array_equal(result.counts, single.counts)
            assert result.f_per_replicate == single.f_per_replicate
            assert result.aggregate() == single.aggregate()
            assert experiment_rows(result) == experiment_rows(single)

    @pytest.mark.parametrize("cells,kernel", [("fpr", "jackknife_matrix"),
                                              ("fixed", "kendall_matrix"),
                                              ("mixed", "jackknife_matrix")])
    def test_one_draw_and_one_sign_pass_per_replicate(self, monkeypatch, sign_passes,
                                                      cells, kernel):
        calls = []
        for name in ("jackknife_matrix", "kendall_matrix", "generate_ground_truth", "sample"):
            def counted(*args, _fn=getattr(evalbench, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(evalbench, name, counted)
        sim = SimConfig(scenario="B", n=30, p=20, seed=5)
        run_experiments(sim, "kendall", 4, self.LISTS[cells], threads=1)
        assert calls == ["generate_ground_truth", "sample", kernel] * 4
        assert sign_passes == ["_sign_moments"] * 4

    @pytest.mark.parametrize("estimator", ["kendall", "pearson"])
    def test_sweep_point_is_the_table_row(self, estimator):
        sim = SimConfig(scenario="A", n=30, p=20, seed=12)
        gt, data = replicate_data(sim, 0)
        gamma = float(np.median(observed_strengths(estimator, gt, data)[0]))
        table, = run_experiments(sim, estimator, 3, [ThresholdSpec.fixed(gamma)])
        tprs, fprs = replicate_sweeps(sim, estimator, 3, (0.1, gamma, 0.9))
        fpr, fnr = table.rates()
        assert [(t[1], f[1]) for t, f in zip(tprs, fprs)] == [
            (1.0 - b, a) for a, b in zip(fpr.tolist(), fnr.tolist())]


class TestAuc:
    def test_perfect_step(self):
        sweep = SweepResult(grid=(0.1, 0.9), mean_tpr=(1.0, 1.0), mean_fpr=(0.0, 0.0))
        assert auc(sweep) == pytest.approx(1.0)

    def test_diagonal(self):
        sweep = SweepResult(grid=(0.2, 0.5, 0.8),
                            mean_tpr=(0.75, 0.5, 0.25), mean_fpr=(0.75, 0.5, 0.25))
        assert auc(sweep) == pytest.approx(0.5)

    def test_hand_polyline(self):
        # points (0.2, 0.6), (0.5, 0.9) plus anchors:
        # trapezoids: 0.2*0.3 + 0.3*0.75 + 0.5*0.95 = 0.76
        # a sweep lists them by ascending gamma, so by descending FPR
        sweep = SweepResult(grid=(0.1, 0.3), mean_tpr=(0.9, 0.6), mean_fpr=(0.5, 0.2))
        assert auc(sweep) == pytest.approx(0.76)

    def test_needs_two_points(self):
        sweep = SweepResult(grid=(0.5,), mean_tpr=(0.5,), mean_fpr=(0.5,))
        with pytest.raises(InvalidInputError):
            auc(sweep)


class TestWriters:
    def test_experiment_csv(self, tmp_path):
        sim = SimConfig(scenario="C", n=30, p=6, seed=0)
        result, = run_experiments(sim, "kendall", 2, [ThresholdSpec.fixed(0.4)])
        path = tmp_path / "rows.csv"
        write_experiment_csv(path, experiment_rows(result))
        lines = path.read_text().splitlines()
        assert lines[0] == ("replicate,q_or_gamma,estimator,scenario,tp,fp,tn,fn,fpr,fnr,"
                            "edge_count,f_used")
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "kendall"

    def test_sweep_csv(self, tmp_path):
        sim = SimConfig(scenario="C", n=30, p=6, seed=0)
        sweep = roc_sweep(sim, "pearson", replicates=1, grid=(0.1, 0.5))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma,mean_fpr,mean_tpr"
        assert len(lines) == 3

    def test_json_report_refuses_nan_and_infinity(self, tmp_path):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="not JSON compliant"):
                write_json_report(tmp_path / "r.json", {"auc": value})

    def test_json_report_refused_leaves_no_file(self, tmp_path):
        path = tmp_path / "r.json"
        with pytest.raises(ValueError):
            write_json_report(path, {"x": float("nan")})
        assert not path.exists()
