"""The benchmark workloads and the CLI arguments of their operations.

One operation ("op") is one ``tauscreen`` CLI command. Screen workloads read a
data CSV that set-up generates from the benchmark seed; the bench workload
gets the seed as a flag and simulates its own replicates.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "screen" or "bench"
    scenario: str
    n: int
    p: int
    flags: tuple[str, ...]  # mode flags passed verbatim
    base: str = "gaussian"  # CLI spellings, as in `tauscreen simulate`
    transform: str = "none"
    replicates: int = 1

    def flag(self, name: str) -> str | None:
        """Value that follows ``name`` in ``flags``, or None."""
        if name not in self.flags:
            return None
        return self.flags[self.flags.index(name) + 1]

    @property
    def pairs_per_op(self) -> int:
        """Column pairs one op estimates: p(p-1)/2 per correlation matrix, one
        matrix per screen and one per replicate of a bench sweep."""
        return self.replicates * self.p * (self.p - 1) // 2

    def output_names(self) -> tuple[str, ...]:
        if self.command == "screen":
            return ("edges.tsv", "edges.tsv.components.tsv")
        return ("bench.csv", "bench.json")

    def op_args(self, seed: int, data_csv: str, out_dir: str, threads: int) -> list[str]:
        """argv of one op; outputs land in ``out_dir`` under ``output_names``."""
        if self.command == "screen":
            return ["screen", "--data", data_csv, *self.flags,
                    "--out", f"{out_dir}/edges.tsv", "--threads", str(threads)]
        return ["bench", "--scenario", self.scenario, "--n", str(self.n), "--p", str(self.p),
                "--base", self.base, "--transform", self.transform,
                "--replicates", str(self.replicates), "--seed", str(seed), *self.flags,
                "--out-csv", f"{out_dir}/bench.csv", "--out-json", f"{out_dir}/bench.json",
                "--threads", str(threads)]


# Each module a later change is likely to optimise does most of the work in
# one workload and little in another; README.md gives the measured shares.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="screen-fpr-long",
        why="long sample, fpr screen: 4pn^2 exceeds the 1 GiB cube budget, so both "
            "O(p^2 n^2) sign passes run the per-row path and dominate the op",
        command="screen", scenario="B", n=1257, p=200, base="t", transform="npn",
        flags=("--fpr-q", "0.05", "--components")),
    Workload(
        name="bench-sweep",
        why="ROC sweep: per replicate a simulation, then 50 small screens with set-based "
            "confusion, across a 2-thread pool; screen_edges and simgen's linalg dominate",
        command="bench", scenario="A", n=100, p=150, replicates=24,
        flags=("--mode", "sweep", "--grid", "0,1,50")),
)}
