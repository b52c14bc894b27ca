"""Edge and neighborhood screening by thresholding a correlation estimate.

Three threshold rules are supported:

* ``fixed``: one constant cutoff gamma.
* ``rate``: the sample-size-scaled cutoff (2/3) * C1 * n^(-kappa), which keeps
  every sufficiently strong edge with high probability.
* ``fpr``: per-pair cutoffs (pi/2) * omega_hat * z / sqrt(n) with
  z = Phi^{-1}(1 - f / (p(p-1))), built from the jackknife variance estimates,
  which targets an expected false-positive budget of f non-edges.

Edges are kept on strict inequality |corr| > gamma. Node indices are 0-based
in memory and 1-based in the TSV interchange format.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import InvalidInputError, MissingInputError
from .io import read_rows, write_rows
from .rankcorr import CorrMatrix, JackknifeVarMatrix


@dataclass(frozen=True, eq=False)
class EdgeSet:
    """An undirected graph on p nodes. ``edges`` is a read-only (E, 2) intp
    array of the pairs (j, k), j < k, in lexicographic order; the constructor
    accepts any sequence of pairs."""

    p: int
    edges: np.ndarray

    def __post_init__(self):
        if self.p < 1:
            raise InvalidInputError("node count must be >= 1")
        pairs = np.array(self.edges, dtype=np.intp)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InvalidInputError(f"edges must be (j, k) pairs, got shape {pairs.shape}")
        j, k = pairs.T
        bad = np.flatnonzero((j < 0) | (j >= k) | (k >= self.p))
        if bad.size:
            raise InvalidInputError(f"edge ({j[bad[0]]}, {k[bad[0]]}) out of range for p={self.p}")
        pairs = pairs[np.lexsort((k, j))]
        repeat = np.flatnonzero((pairs[1:] == pairs[:-1]).all(axis=1))
        if repeat.size:
            a, b = pairs[repeat[0]]
            raise InvalidInputError(f"duplicate edge ({a}, {b})")
        pairs.flags.writeable = False
        object.__setattr__(self, "edges", pairs)

    def __len__(self) -> int:
        return len(self.edges)

    def as_set(self) -> set[tuple[int, int]]:
        return set(map(tuple, self.edges.tolist()))

    def neighbors(self, j: int) -> set[int]:
        if not 0 <= j < self.p:
            raise InvalidInputError(f"node {j} out of range for p={self.p}")
        # an edge's other end sits in the other column of its row
        return set(self.edges[:, ::-1][self.edges == j].tolist())


@dataclass(frozen=True)
class Partition:
    """Connected-component labels, 1..k in order of first appearance."""

    p: int
    component_id: tuple[int, ...]

    def __post_init__(self):
        if len(self.component_id) != self.p:
            raise InvalidInputError("component_id length must equal p")
        labels = tuple(int(c) for c in self.component_id)
        k = max(labels) if labels else 0
        if sorted(set(labels)) != list(range(1, k + 1)):
            raise InvalidInputError("component labels must form a contiguous range 1..k")
        object.__setattr__(self, "component_id", labels)

    @property
    def n_components(self) -> int:
        return max(self.component_id)


@dataclass(frozen=True)
class ThresholdSpec:
    """Which threshold rule to apply; exactly one mode is active."""

    mode: str
    gamma: float | None = None
    c1: float | None = None
    kappa: float | None = None
    f: float | None = None
    q: float | None = None

    def __post_init__(self):
        if self.mode == "fixed":
            if self.gamma is None or not 0 <= self.gamma < math.inf:
                raise InvalidInputError("fixed mode needs gamma >= 0 and finite")
        elif self.mode == "rate":
            if self.c1 is None or not 0 < self.c1 < math.inf:
                raise InvalidInputError("rate mode needs C1 > 0 and finite")
            if self.kappa is None or not 0 < self.kappa < 0.5:
                raise InvalidInputError("rate mode needs kappa in (0, 1/2)")
        elif self.mode == "fpr":
            has_f = self.f is not None
            has_q = self.q is not None
            if has_f == has_q:
                raise InvalidInputError("fpr mode needs exactly one of f or q")
            if has_f and not 0 < self.f < math.inf:
                raise InvalidInputError("fpr mode needs f > 0 and finite")
            if has_q and not 0 < self.q < 1:
                raise InvalidInputError("fpr mode needs q in (0, 1)")
        else:
            raise InvalidInputError(f"unknown threshold mode {self.mode!r}")

    @staticmethod
    def fixed(gamma: float) -> "ThresholdSpec":
        return ThresholdSpec("fixed", gamma=float(gamma))

    @staticmethod
    def rate(c1: float, kappa: float) -> "ThresholdSpec":
        return ThresholdSpec("rate", c1=float(c1), kappa=float(kappa))

    @staticmethod
    def fpr(f: float | None = None, q: float | None = None) -> "ThresholdSpec":
        return ThresholdSpec(
            "fpr",
            f=None if f is None else float(f),
            q=None if q is None else float(q),
        )

    def resolve_f(self, p: int) -> float:
        """False-positive budget f for dimension p.

        When only the rate q is known, f defaults to q * p(p-1)/2, i.e. q is
        interpreted against all unordered pairs. Callers holding the true
        non-edge count should convert q themselves and pass f explicitly.
        """
        if self.mode != "fpr":
            raise InvalidInputError("resolve_f is only meaningful in fpr mode")
        if self.f is not None:
            return self.f
        return self.q * p * (p - 1) / 2.0

    def rate_gamma(self, n: int) -> float:
        """The rate rule's cutoff (2/3) * C1 * n^(-kappa) at sample size n."""
        if self.mode != "rate":
            raise InvalidInputError("rate_gamma is only meaningful in rate mode")
        return (2.0 / 3.0) * self.c1 * float(n) ** (-self.kappa)


def threshold_matrix(spec: ThresholdSpec, n: int, p: int, jack: JackknifeVarMatrix | None = None) -> np.ndarray:
    """Materialize the p x p matrix of per-pair cutoffs for a threshold rule.

    The diagonal is set to 0 and never used (screening only inspects j < k).
    """
    if p < 1 or n < 2:
        raise InvalidInputError("need p >= 1 and n >= 2")
    if spec.mode == "fixed":
        out = np.full((p, p), spec.gamma, dtype=np.float64)
    elif spec.mode == "rate":
        out = np.full((p, p), spec.rate_gamma(n), dtype=np.float64)
    else:
        if jack is None:
            raise MissingInputError("fpr mode requires a jackknife variance matrix")
        if jack.dim != p:
            raise InvalidInputError(f"variance matrix is {jack.dim}x{jack.dim}, expected p={p}")
        if n < 3:
            raise InvalidInputError("fpr mode needs n >= 3")
        f = spec.resolve_f(p)
        if not f < p * (p - 1) / 2.0:
            raise InvalidInputError(f"need f < p(p-1)/2, got f={f} with p={p}")
        z = float(ndtri(1.0 - f / (p * (p - 1))))
        omega = np.sqrt(jack.entries)
        if p > 1:
            off = omega[~np.eye(p, dtype=bool)]
            if np.any(off == 0.0):
                warnings.warn(
                    "degenerate pair(s) with zero jackknife variance: "
                    "their threshold is 0 and they are kept whenever |corr| > 0",
                    stacklevel=2,
                )
        out = (np.pi / 2.0) * omega * z / np.sqrt(n)
    np.fill_diagonal(out, 0.0)
    return out


def screen_edges(corr: CorrMatrix, thresholds: np.ndarray) -> EdgeSet:
    """Edges (j, k), j < k, with |corr[j, k]| strictly above thresholds[j, k]."""
    if not isinstance(corr, CorrMatrix):
        raise InvalidInputError("screen_edges expects a CorrMatrix")
    if corr.kind not in ("kendall-sine", "pearson"):
        raise InvalidInputError(f"cannot screen on kind {corr.kind!r}; use kendall-sine or pearson")
    t = np.asarray(thresholds, dtype=np.float64)
    p = corr.dim
    if t.shape != (p, p):
        raise InvalidInputError(f"threshold matrix shape {t.shape} does not match p={p}")
    return EdgeSet(p, np.argwhere(np.triu(np.abs(corr.entries) > t, 1)))


def connected_components(e: EdgeSet) -> Partition:
    """Partition of the nodes of ``e`` into connected components, labelled
    1..k in order of each component's lowest node."""
    # imported here: csgraph costs ~4 MB of RSS and 30-45 ms to import, which
    # callers that never ask for components (the ROC sweep) should not pay
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components as label_components

    j, k = e.edges.T
    graph = coo_array((np.ones(len(e), dtype=np.int8), (j, k)), shape=(e.p, e.p))
    _, labels = label_components(graph, directed=False)
    return Partition(e.p, tuple((labels + 1).tolist()))


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


def write_edges_tsv(path, edges: EdgeSet, values: np.ndarray | CorrMatrix) -> None:
    """Write an edge list as TSV with 1-based indices and per-edge values."""
    v = values.entries if isinstance(values, CorrMatrix) else np.asarray(values, dtype=np.float64)
    if v.shape != (edges.p, edges.p):
        raise InvalidInputError("value matrix shape does not match edge set")
    j, k = edges.edges.T
    write_rows(path, zip((j + 1).tolist(), (k + 1).tolist(), v[j, k].tolist()),
               delimiter="\t", header=("j", "j'", "value"))


def _read_tsv_rows(path, header: str, what: str, noun: str, kinds: tuple):
    """Yield the 1-based line number and the cells parsed by ``kinds`` of each
    non-blank line after the header, whose first cell must be ``header``. A
    malformed line, or one whose cells before the last repeat an earlier
    line's (a duplicate ``noun``), raises an error naming its line number."""
    rows = read_rows(path, delimiter="\t")
    cells = next(rows)[1]
    if len(cells) < 2 or cells[0] != header:
        raise InvalidInputError(f"{path}: missing {what} TSV header")
    first_line = {}
    for lineno, cells in rows:
        if len(cells) != len(kinds):
            raise InvalidInputError(
                f"{path}: line {lineno} has {len(cells)} cells, expected {len(kinds)}")
        try:
            parsed = [kind(cell) for kind, cell in zip(kinds, cells)]
        except ValueError as exc:
            raise InvalidInputError(f"{path}: line {lineno}: {exc}") from None
        *ids, _ = parsed
        key = ids[0] if len(ids) == 1 else tuple(ids)
        if key in first_line:
            raise InvalidInputError(
                f"{path}: line {lineno}: duplicate {noun} {key}, first on line {first_line[key]}")
        first_line[key] = lineno
        yield lineno, parsed


def read_edges_tsv(path, p: int | None = None) -> tuple[EdgeSet, dict[tuple[int, int], float]]:
    """Read an edge-list TSV; returns the edge set and the per-edge values.

    Each line must hold 1 <= j < j' (and j' <= p when ``p`` is given) and
    name a pair no earlier line named. When ``p`` is omitted the node count is
    inferred as the largest index present (isolated trailing nodes cannot be
    recovered from the file).
    """
    values = {}
    for lineno, (a, b, val) in _read_tsv_rows(path, "j", "edge", "edge", (int, int, float)):
        if not 1 <= a < b or (p is not None and b > p):
            bound = "" if p is None else f" <= p={p}"
            raise InvalidInputError(
                f"{path}: line {lineno}: edge ({a}, {b}) needs 1 <= j < j'{bound}")
        values[(a - 1, b - 1)] = val
    if p is None:
        p = max((k for _, k in values), default=0) + 1
    return EdgeSet(p, tuple(values)), values


def write_partition_tsv(path, part: Partition) -> None:
    """Write a node-to-component table as TSV with 1-based node indices."""
    write_rows(path, enumerate(part.component_id, 1), delimiter="\t",
               header=("node", "component"))


def read_partition_tsv(path) -> Partition:
    """Read a node-to-component TSV: one line per node 1..p, in any order."""
    labels = {}
    for lineno, (node, label) in _read_tsv_rows(path, "node", "partition", "node", (int, int)):
        if node < 1:
            raise InvalidInputError(f"{path}: line {lineno}: node {node} must be >= 1")
        labels[node - 1] = label
    p = max(labels) + 1 if labels else 0
    missing = next((i for i in range(p) if i not in labels), None)
    if missing is not None:
        raise InvalidInputError(f"{path}: no line for node {missing + 1}")
    return Partition(p, tuple(labels[i] for i in range(p)))
