"""Pass counts of the seeded MC rate checks over many master seeds.

Each check below fits a convergence rate to an MC ladder drawn from one
master seed, so whether it passes is itself random.  This script reruns
each check's ladder at the default master seed and at seeds 1 .. count-1
and prints how many seeds pass, so a change to the MC streams or to a
check's power can be re-measured::

    PYTHONPATH=src python tests/seed_sweep.py 30

The checks are the ones in ``test_acceptance.py`` (criterion 2's MC half
and criterion 4); the script imports their ladder and bound from that
module.  pytest does not collect it.  At count 30 it takes about three
minutes on two cores.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import test_acceptance  # noqa: E402
from sobolbench.harness import DEFAULT_MASTER_SEED  # noqa: E402

CHECKS = {
    "c2-MC": lambda seed: test_acceptance.c2_mc_passes(
        test_acceptance.c2_mc_alphas(seed)
    ),
    "c4": lambda seed: test_acceptance.c4_passes(test_acceptance.c4_alphas(seed)),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("count", type=int, help="number of master seeds")
    args = parser.parse_args(argv)
    seeds = [DEFAULT_MASTER_SEED] + list(range(1, args.count))
    for name, check in CHECKS.items():
        failed = [seed for seed in seeds if not check(seed)]
        print(
            f"{name}: {len(seeds) - len(failed)}/{len(seeds)} pass"
            + (f" (fail at seeds {failed})" if failed else ""),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
