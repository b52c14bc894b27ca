"""Reference helpers that only the tests call: an edge array as a Python set,
the edge array of a written edge TSV, set-based confusion counts (tp, fp, tn, fn),
partition equality up to relabelling, and the Monte Carlo normality check of
the standardized tau statistic."""

import math
from pathlib import Path

import numpy as np

from tauscreen import InvalidInputError, RngStream, jackknife_matrix


def as_set(edges: np.ndarray) -> set[tuple[int, int]]:
    """An edge array as a set of (j, k) pairs, j < k."""
    return set(map(tuple, edges.tolist()))


def edge_array(pairs) -> np.ndarray:
    """The (E, 2) intp array of (j, k) pairs, j < k, in lexicographic order:
    the form of the package's edge arrays."""
    return np.array(sorted(map(tuple, pairs)), dtype=np.intp).reshape(-1, 2)


def read_edge_pairs(path, p: int) -> tuple[np.ndarray, dict[tuple[int, int], float]]:
    """The edge array and per-edge values of an edge TSV that ``screen`` or
    ``simulate`` wrote: a header line, then ``j<TAB>j'<TAB>value`` per edge
    with 1-based j < j' <= p, the lines in strictly increasing (j, j') order."""
    _, *lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [line.split() for line in lines]
    pairs = np.array([(int(j) - 1, int(k) - 1) for j, k, _ in rows], dtype=np.intp).reshape(-1, 2)
    j, k = pairs.T
    assert np.all((0 <= j) & (j < k) & (k < p)), f"{path}: a pair out of range for p={p}"
    codes = j * p + k
    assert np.all(codes[1:] > codes[:-1]), f"{path}: pairs not sorted and unique"
    return pairs, {(a, b): float(v) for (a, b), (_, _, v) in zip(pairs.tolist(), rows)}


def confusion(est: np.ndarray, truth: np.ndarray, p: int) -> tuple[int, int, int, int]:
    """The (tp, fp, tn, fn) counts of an estimated edge array against the
    true one on the same p nodes, over all unordered node pairs."""
    if any(len(e) and e[:, 1].max() >= p for e in (est, truth)):
        raise InvalidInputError(f"an edge lies outside the {p} nodes")
    total = p * (p - 1) // 2
    # pair (j, k) as the code j * p + k, unique within each edge array
    est_codes, truth_codes = (e[:, 0] * p + e[:, 1] for e in (est, truth))
    tp = len(np.intersect1d(est_codes, truth_codes, assume_unique=True))
    fp = len(est) - tp
    fn = len(truth) - tp
    tn = total - tp - fp - fn
    return tp, fp, tn, fn


def compare_partitions(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff the two label arrays induce the same equivalence relation."""
    if len(a) != len(b):
        raise InvalidInputError(f"partition sizes differ: {len(a)} vs {len(b)}")
    remap: dict[int, int] = {}
    for la, lb in zip(a.tolist(), b.tolist()):
        if la not in remap:
            remap[la] = lb
        elif remap[la] != lb:
            return False
    return len(set(remap.values())) == len(remap)


def normality_check(n: int, rho: float, replicates: int, rng: RngStream) -> tuple[float, float]:
    """Mean and sample variance of sqrt(n) (tau_hat - tau) / omega_hat across
    seeded bivariate-Gaussian replicates with latent correlation ``rho``.

    tau_hat and omega_hat^2 come from :func:`tauscreen.jackknife_matrix`, the
    fpr rule's statistic, called once per 25 replicates on their stacked
    (x, y) columns: the kernel is exact per pair and call-bound at small p.
    The reference tau is the exact arcsine relation tau = (2/pi) asin(rho).
    """
    if n < 10:
        raise InvalidInputError("need n >= 10")
    if not abs(rho) < 1:
        raise InvalidInputError("need |rho| < 1")
    if replicates < 100:
        raise InvalidInputError("need at least 100 replicates")
    tau_true = (2.0 / math.pi) * math.asin(rho)
    mix = math.sqrt(1.0 - rho * rho)
    stats = []
    for lo in range(0, replicates, 25):
        draws = [rng.standard_normal((n, 2)) for _ in range(min(25, replicates - lo))]
        tau, omega2 = jackknife_matrix(np.column_stack(
            [col for z in draws for col in (z[:, 0], rho * z[:, 0] + mix * z[:, 1])]))
        for x in range(0, 2 * len(draws), 2):
            tau_hat = float(tau.entries[x, x + 1])
            stats.append(math.sqrt(n) * (tau_hat - tau_true) / math.sqrt(omega2[x, x + 1]))
    return float(np.mean(stats)), float(np.var(stats, ddof=1))
