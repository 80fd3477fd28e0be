#!/usr/bin/env python3
"""Print the literal-vs-residue disagreement tables for every multipartition kind.

For each kind, every size-k value multiset over Z_k is classified under the
kind's clause list and under the exponent-sum residue condition; the
rows below are the patterns where the two disagree. A "residue only" row is
a pattern the clause list omits; a "literal only" row is a listed
clause whose exponent sum misses the required residue.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zerolap.kinds import KIND_SPECS, discrepancy_scan  # noqa: E402


def main() -> int:
    for kind in KIND_SPECS:
        report = discrepancy_scan(kind)
        print(f"== {kind}  (modulus {report['modulus']}, required residue {report['rhs']})")
        if not report["disagreements"]:
            print("   clause list and residue condition agree on every pattern")
        for d in report["disagreements"]:
            side = "residue only" if d["residue_valid"] else "literal only"
            print(f"   {{{', '.join(map(str, d['values']))}}}  [{side}]")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
