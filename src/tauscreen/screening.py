"""Edge and neighborhood screening by thresholding a correlation estimate.

Three threshold rules are supported:

* ``fixed``: one constant cutoff gamma.
* ``rate``: the sample-size-scaled cutoff (2/3) * C1 * n^(-kappa), which keeps
  every sufficiently strong edge with high probability.
* ``fpr``: per-pair cutoffs (pi/2) * omega_hat * z / sqrt(n) with
  z = Phi^{-1}(1 - f / (p(p-1))), built from the jackknife variance estimates,
  which targets an expected false-positive budget of f non-edges. Phi^{-1}
  is :func:`_ndtri`, a port of the cephes routine behind
  ``scipy.special.ndtri`` that returns the same doubles.

Edges are kept on strict inequality |corr| > gamma. Node indices are 0-based
in memory and 1-based in the TSV interchange format.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

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


# The cephes ndtri coefficients, leading first: P0/Q0 for |y - 1/2| <= 3/8,
# P1/Q1 for sqrt(-2 log y) in [2, 8), P2/Q2 for [8, 64). Each Q leads with the
# 1 that cephes's p1evl implies; 1.0 * x + c is x + c exactly.
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
             2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242E0


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule, leading coefficient first (cephes ``polevl``)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Phi^{-1}(y0) for y0 in [0, 1], the same double as ``scipy.special.ndtri``:
    the cephes algorithm, step for step, so the fpr cutoffs need no scipy."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    negate = True
    y = y0
    if y > 1.0 - _EXP_MINUS_2:
        y = 1.0 - y
        negate = False
    if y > _EXP_MINUS_2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x


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
        z = _ndtri(1.0 - f / (p * (p - 1)))
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
    # Hook and shortcut: each node points at a lower or equal node, and after
    # the shortcut at its tree's root, the tree's lowest node. While an edge
    # joins two trees, the higher root hooks onto the lowest root it meets.
    roots = np.arange(e.p)
    j, k = e.edges.T
    while True:
        rj, rk = roots[j], roots[k]
        apart = rj != rk
        if not apart.any():
            break
        rj, rk = rj[apart], rk[apart]
        np.minimum.at(roots, np.maximum(rj, rk), np.minimum(rj, rk))
        while True:
            jumped = roots[roots]
            if np.array_equal(jumped, roots):
                break
            roots = jumped
    _, labels = np.unique(roots, return_inverse=True)
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
