#!/usr/bin/env python3
"""Run every verification property at the preset parameters.

Exact structural identities must pass on all trials; genericity claims at
the 95% threshold.  The full default suite stays well under ten minutes on
a commodity machine; pass --quick for a smoke-sized run.
"""

import argparse
import sys
import time

from ranklab.labkit import experiments as ex

# (property, params, trials): every property at the preset parameters
PLAN = [
    ("nb-rank", (2, 7, 8, 4, 2), 20),
    ("nb-rank", (2, 3, 5, 2, 1), 20),
    ("q0-span", (2, 7, 8, 4, 2), 10),
    ("q0-span", (2, 3, 5, 2, 1), 10),
    ("lt-independence", (2, 7, 8, 4, 2), 10),
    ("lt-independence", (4, 5, 8, 3, 2), 10),
    ("q1-correspondence", (2, 7, 8, 4, 2), 10),
    ("q1-correspondence", (2, 3, 5, 2, 1), 10),
    ("q1-correspondence", (3, 5, 8, 3, 2), 10),
    ("q1-correspondence", (9, 3, 6, 2, 1), 10),
    ("unfold-sm", (2, 3, 5, 2, 1), 10),
    ("unfold-sm", (4, 5, 8, 3, 2), 10),
    ("mm-rank", (2, 3, 5, 2, 1), 50),
    ("mm-rank", (2, 7, 8, 4, 2), 50),
    ("mm-rank", (2, 7, 10, 3, 2), 50),
    ("mm-rank", (2, 7, 12, 5, 2), 50),
    ("mm-rank", (4, 5, 8, 3, 2), 50),
    ("syzygy-count", (2, 7, 8, 4, 2), 20),
    ("hybrid-correct", (2, 7, 12, 5, 2), 30),
    ("hybrid-correct", (3, 4, 7, 3, 1), 10),
    ("hybrid-correct", (5, 3, 6, 2, 1), 10),
    ("hybrid-correct-minrank", (2, 6, 8, 14, 2), 30),
    ("hybrid-correct-minrank", (3, 3, 5, 6, 1), 10),
    ("hybrid-correct-minrank", (2, 2, 3, 2, 1), 10),     # K = m: trials redraw
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="3 trials per property instead of the defaults")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    t0 = time.perf_counter()
    all_ok = True
    for prop, params, trials in PLAN:
        rep = ex.verify(prop, params, trials=3 if args.quick else trials,
                        seed=args.seed)
        print(rep.one_line())
        for f in rep.failures:
            print(f"    {f}")
        all_ok = all_ok and rep.verdict
    total = time.perf_counter() - t0
    print(f"\nsuite {'PASSED' if all_ok else 'FAILED'} in {total:.1f}s")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
