#!/usr/bin/env python3
"""Run the algebra-vs-combinatorics cross-checks over a seeded random corpus.

For every instance and operator, prints the two count identities that the
operator's ``StructureCounts`` record decides: the closed-form H class
count against the matching bipartition count, and the N pair count against
the residue-valid multipartition count (where a kind exists for the
uniformity). Prints one line per (instance, operator) and a final summary;
exits nonzero on any mismatch.

Usage: python scripts/run_crosschecks.py [--seed N] [--budget N]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zerolap.corpus import mixed_corpus  # noqa: E402
from zerolap.eigenstructure import solve_components  # noqa: E402
from zerolap.names import ZERO_EIG_OPERATORS  # noqa: E402

STATUS = {True: "ok", False: "MISMATCH", None: "skipped"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=77)
    ap.add_argument("--budget", type=int, default=200_000)
    args = ap.parse_args()

    failures = 0
    instances = mixed_corpus(args.seed, args.budget)
    for idx, h in enumerate(instances):
        solved = solve_components(h, budget=args.budget)
        for operator in ZERO_EIG_OPERATORS:
            counts = solved[operator]
            failures += (counts.h_matched is False) + (counts.n_matched is False)
            line = (
                f"[{idx:02d}] k={h.k} n={h.n} |E|={h.edge_count} {operator:9s} "
                f"H={counts.h_count} expected={counts.h_expected} "
                f"({STATUS[counts.h_matched]})"
            )
            kind = counts.n_kind
            if kind is not None and counts.n_expected is None:
                line += f"  Npairs {kind}: skipped (budget)"
            elif kind is not None:
                line += (
                    f"  Npairs={counts.n_pair_count} {kind}={counts.n_expected} "
                    f"({STATUS[counts.n_matched]})"
                )
            print(line)

    print(f"\n{len(instances)} instances checked, {failures} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
