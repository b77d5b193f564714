#!/usr/bin/env python3
"""Run the quotient oracle over a battery of presentations and print one
status line per run, including the orientation and letter-order adjudication
for the case-2 inputs, and how many emitted generators are 1 in G (britton).

Exits 1 on a theorem violation, or where the paper's corollary fails: G is
residually p exactly when every emitted generator is 1 in G.

Example:
    python scripts/verify_examples.py --k-max 2 --s-max 6
"""

import argparse
import time

from rosegbs import Bounds, Budget, RoseGbs, britton, residually_p, verify_theorem

BATTERY = [
    # (loops, p, catalog max order)
    ([(2, 12)], 2, 16),
    ([(2, 3)], 2, 16),
    ([(2, 12), (3, 3)], 2, 16),
    ([(3, 1)], 2, 16),
    ([(1, 3)], 2, 16),
    ([(3, -1)], 2, 16),
    ([(3, 1), (5, 1)], 2, 16),
    ([(2, 2), (4, 4)], 2, 16),
    ([(-2, 2)], 2, 16),
    ([(3, 12)], 3, 27),
    ([(3, 12), (2, 5)], 3, 27),
    ([(3, 3), (9, 9)], 3, 27),
    ([(5, 5)], 5, 125),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-max", type=int, default=2)
    ap.add_argument("--comm-len", type=int, default=6)
    ap.add_argument("--s-max", type=int, default=6)
    args = ap.parse_args()
    bounds = Bounds(k_max=args.k_max, comm_word_len=args.comm_len)

    worst = 0
    for pairs, p, max_order in BATTERY:
        pres = RoseGbs.from_pairs(pairs)
        t0 = time.time()
        rep = verify_theorem(pres, p, bounds, Budget(max_order, args.s_max))
        dt = time.time() - t0
        cls = rep.classification
        case = (f"case 1, xi={cls.xi}" if cls.xi is not None
                else f"case 2, Sigma={cls.sigma_total}")
        entries = rep.generator_set.entries
        trivial = sum(not britton(pres, e.word).letters for e in entries)
        line = (f"{str(pairs):24s} p={p}  {case:18s} status={rep.status:6s} "
                f"checks={len(rep.checks):3d}  trivial={trivial}/{len(entries)}"
                f"  {dt:5.2f}s")
        if rep.orientation_report:
            seps = rep.orientation_report["separations"]
            line += f"  orientation separations={seps}"
        print(line)
        for msg in rep.inconclusive:
            print(f"    inconclusive: {msg}")
        for c in rep.violations:
            print(f"    VIOLATION: {c.family} {c.detail} {c.word}")
            worst = 1
        if (trivial == len(entries)) != residually_p(pres, p).decision:
            print("    COROLLARY: residually_p disagrees with the trivial generators")
            worst = 1
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
