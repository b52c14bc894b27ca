"""Reference helpers that only the tests call: an edge set as a Python set,
the edges of a written edge TSV, set-based confusion counts (tp, fp, tn, fn),
and partition equality up to relabelling."""

from pathlib import Path

import numpy as np

from tauscreen import EdgeSet, InvalidInputError, Partition


def as_set(edges: EdgeSet) -> set[tuple[int, int]]:
    """The edges as a set of (j, k) pairs, j < k."""
    return set(map(tuple, edges.edges.tolist()))


def read_edge_pairs(path, p: int) -> tuple[EdgeSet, dict[tuple[int, int], float]]:
    """The edges and per-edge values of an edge TSV that ``screen`` or
    ``simulate`` wrote: a header line, then ``j<TAB>j'<TAB>value`` per edge
    with 1-based j < j'."""
    _, *lines = Path(path).read_text(encoding="utf-8").splitlines()
    values = {(int(j) - 1, int(k) - 1): float(v) for j, k, v in map(str.split, lines)}
    return EdgeSet(p, tuple(values)), values


def confusion(est: EdgeSet, truth: EdgeSet) -> tuple[int, int, int, int]:
    """The (tp, fp, tn, fn) counts of an estimated edge set against the truth
    on the same node set, over all unordered node pairs."""
    if est.p != truth.p:
        raise InvalidInputError(f"node counts differ: {est.p} vs {truth.p}")
    total = est.p * (est.p - 1) // 2
    # pair (j, k) as the code j * p + k, unique within each edge set
    est_codes, truth_codes = (e.edges[:, 0] * e.p + e.edges[:, 1] for e in (est, truth))
    tp = len(np.intersect1d(est_codes, truth_codes, assume_unique=True))
    fp = len(est) - tp
    fn = len(truth) - tp
    tn = total - tp - fp - fn
    return tp, fp, tn, fn


def compare_partitions(a: Partition, b: Partition) -> bool:
    """True iff the two partitions induce the same equivalence relation."""
    if a.p != b.p:
        raise InvalidInputError(f"partition sizes differ: {a.p} vs {b.p}")
    remap: dict[int, int] = {}
    for la, lb in zip(a.component_id, b.component_id):
        if la not in remap:
            remap[la] = lb
        elif remap[la] != lb:
            return False
    return len(set(remap.values())) == len(remap)
