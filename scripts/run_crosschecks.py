#!/usr/bin/env python3
"""Run the algebra-vs-combinatorics cross-checks over a seeded random corpus.

For every instance: the closed-form H class count per operator is compared
against the matching bipartition count, and the N pair count against the
residue-valid multipartition inventory (where a kind exists for the
uniformity). Prints one line per (instance, operator) and a final summary;
exits nonzero on any mismatch.

Usage: python scripts/run_crosschecks.py [--seed N] [--budget N]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zerolap.corpus import mixed_corpus  # noqa: E402
from zerolap.eigenstructure import crosscheck, solve_components  # noqa: E402
from zerolap.zk_solver import ZERO_EIG_OPERATORS  # noqa: E402

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
            result = crosscheck(h, solved[operator], args.budget)
            rep = result.counts
            failures += (rep.crosscheck_matched is False) + (result.n_matched is False)
            line = (
                f"[{idx:02d}] k={h.k} n={h.n} |E|={h.edge_count} {operator:9s} "
                f"H={rep.h_count} expected={rep.crosscheck_expected} "
                f"({STATUS[rep.crosscheck_matched]})"
            )
            kind = result.n_kind
            if kind is not None and result.n_expected is None:
                line += f"  Npairs {kind}: skipped (budget)"
            elif kind is not None:
                line += (
                    f"  Npairs={rep.n_pair_count} {kind}={result.n_expected} "
                    f"({STATUS[result.n_matched]})"
                )
            print(line)

    print(f"\n{len(instances)} instances checked, {failures} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
