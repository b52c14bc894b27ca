"""One cold set-up: import the package and, for a screen workload, write its
input data CSV.

    python3 benchmarks/gen_inputs.py [--out FILE --scenario S --n N --p P
                                      --base B --transform T --seed SEED]

run.py starts this in a fresh interpreter several times per run, with the
repository's ``src`` on PYTHONPATH, and times each whole process. Without
``--out`` it only imports: bench workloads simulate their data inside the op.
The flags use the spellings of ``tauscreen simulate``, and the draws are the
ones that command makes for its data CSV.
"""

from __future__ import annotations

import argparse

import tauscreen.cli  # noqa: F401  (the import is part of what set-up times)
from tauscreen.io import write_data_csv
from tauscreen.simgen import RngStream, SimConfig, generate_ground_truth, sample

_BASES = {"gaussian": "gaussian", "t": "student-t"}
_TRANSFORMS = {"none": "none", "npn": "nonparanormal"}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out")
    ap.add_argument("--scenario")
    ap.add_argument("--n", type=int)
    ap.add_argument("--p", type=int)
    ap.add_argument("--base", choices=sorted(_BASES))
    ap.add_argument("--transform", choices=sorted(_TRANSFORMS))
    ap.add_argument("--seed", type=int)
    args = ap.parse_args()
    if args.out is None:
        return
    cfg = SimConfig(scenario=args.scenario, n=args.n, p=args.p, base=_BASES[args.base],
                    transform=_TRANSFORMS[args.transform], seed=args.seed)
    rng = RngStream(cfg.seed)
    gt = generate_ground_truth(cfg, rng)
    write_data_csv(args.out, sample(gt, cfg, rng))


if __name__ == "__main__":
    main()
