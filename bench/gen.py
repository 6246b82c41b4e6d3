"""Seeded synthetic case generator.

The same arguments give a byte-identical case file.  Cells hold 1 to
max_terms terms with integer subscripts on the 3x3 double hierarchy
scale, as the bundled case does.  Attribute weights are distinct, so a
case with m attributes has m nested attribute subsets, and every third
attribute, starting with the second heaviest, points away from the
concept, so fusion is followed by real orientation work.

Run ``python3 bench/gen.py --n 1000 --m 6 --e 3 --max-terms 3 --seed 1
--out case.json`` to write a case by hand.
"""

from __future__ import annotations

import argparse
import json
import random

TAU = 3
SIGMA_SCALE = 3


def case_dict(n: int, m: int, e: int, max_terms: int, seed: int) -> dict:
    """The case document for (n, m, e, max_terms, seed)."""
    if min(n, m, e, max_terms) < 1:
        raise ValueError("n, m, e and max_terms must all be at least 1")
    # The seed draws the cells only.  Weights and orientation are fixed,
    # so cases of one shape differ in values, not in how much work the
    # decision levels do (a seeded weight order changes which attribute
    # leads level 1, and with it every later universe).
    rng = random.Random(seed)
    ramp_total = m * (m + 1) / 2
    attributes = [
        {"id": f"a{j + 1}", "weight": (m - j) / ramp_total, "kind": "benefit",
         "align_with_concept": j % 3 != 1}
        for j in range(m)
    ]
    expert_raw = [2 + k % 4 for k in range(e)]
    experts = []
    for k in range(e):
        table = []
        for _ in range(n):
            row = []
            for _ in range(m):
                terms = [
                    f"s_{rng.randint(-TAU, TAU)}<o_{rng.randint(-SIGMA_SCALE, SIGMA_SCALE)}>"
                    for _ in range(rng.randint(1, max_terms))]
                row.append("{" + ",".join(terms) + "}")
            table.append(row)
        experts.append({"id": f"E{k + 1}", "weight": expert_raw[k] / sum(expert_raw),
                        "table": table})
    return {
        "scale": {"tau": TAU, "sigma_scale": SIGMA_SCALE},
        "alternatives": [f"x{i + 1}" for i in range(n)],
        "attributes": attributes,
        "experts": experts,
    }


def case_text(case: dict) -> str:
    return json.dumps(case, separators=(",", ":")) + "\n"


def write_case(path: str, case: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(case_text(case))


def main() -> None:
    parser = argparse.ArgumentParser(description="write a seeded synthetic case file")
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--m", type=int, default=6)
    parser.add_argument("--e", type=int, default=3)
    parser.add_argument("--max-terms", type=int, default=3)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_case(args.out, case_dict(args.n, args.m, args.e, args.max_terms, args.seed))


if __name__ == "__main__":
    main()
