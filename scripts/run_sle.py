#!/usr/bin/env python3
"""Run the bundled lupus-diagnosis case end to end and print the report.

Writes the JSON report next to this script unless --out is given.
"""

import argparse
import pathlib
import sys

from s3wgdm.cli import main as cli_main
from s3wgdm.engine import NEG_DIRECTIONS

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE.parent / "tests" / "data"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(HERE / "sle_report.json"))
    parser.add_argument("--neg-direction", choices=NEG_DIRECTIONS, default="asc")
    args = parser.parse_args()
    return cli_main([
        "decide",
        "--case", str(DATA / "sle_case.json"),
        "--params", str(DATA / "sle_params.json"),
        "--out", args.out,
        "--neg-direction", args.neg_direction,
    ])


if __name__ == "__main__":
    sys.exit(main())
