"""One set-up in a fresh process: import the package, then draw and write the
first session's inputs.  ``run.py`` times this process from start to exit.

    python3 perfbench/setup_probe.py --workload tables --seed 1 --workdir DIR
"""

import argparse
from pathlib import Path

from load import import_package, session_rng


def main() -> None:
    import_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    WORKLOADS[args.workload].make_inputs(session_rng(args.seed, 0), workdir, 0)


if __name__ == "__main__":
    main()
