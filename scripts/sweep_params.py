#!/usr/bin/env python3
"""Sensitivity sweeps over the bundled case.

Default: the gain fraction eta from 0 to 1 in steps of 0.1.  Pass extra
--grid specs to sweep theta, delta, sigma and kappa as well, e.g.

    python scripts/sweep_params.py --grid sigma=0.1:1:0.1 --grid kappa=0.1:1:0.1
"""

import argparse
import pathlib
import sys

from s3wgdm.cli import main as cli_main

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE.parent / "tests" / "data"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", action="append",
                        default=None, metavar="NAME=START:STOP:STEP")
    parser.add_argument("--out", default=str(HERE / "sweep.csv"))
    args = parser.parse_args()
    grids = args.grid or ["eta=0:1:0.1"]
    argv = ["sweep",
            "--case", str(DATA / "sle_case.json"),
            "--params", str(DATA / "sle_params.json"),
            "--out", args.out]
    for g in grids:
        argv += ["--grid", g]
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
