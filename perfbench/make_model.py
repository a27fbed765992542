#!/usr/bin/env python3
"""Make the selector model that ``generate_large`` and ``observed_large``
predict with, ``perfbench/selector_model.txt``, anew.

Run from the root of a checkout:

    python3 perfbench/make_model.py

It sweeps the ``paper_grid`` cells at n=100 with six networks per cell under
a fixed master seed, trains the selector with ``harness.train_eval`` and
saves the model. The result is a pure function of the package's code.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from commselect import harness, lfr, selector  # noqa: E402

from workloads import GRID_MU_T, GRID_MU_W, MODEL_FILE  # noqa: E402

MASTER_SEED = 20240
REPS = 6


def main() -> int:
    rows = harness.run_sweep(harness.SweepConfig(
        lfr.GenParams(n=100, mu_t=0.0, mu_w=0.0), GRID_MU_T, GRID_MU_W,
        reps=REPS, master_seed=MASTER_SEED))
    result = harness.train_eval(rows)
    selector.save_model(result.model, MODEL_FILE)
    print(result.report)
    print(f"wrote {MODEL_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
