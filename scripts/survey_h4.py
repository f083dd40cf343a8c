#!/usr/bin/env python3
"""Survey cohomology shapes across the group catalog.

Prints one row per (group, degree) with the invariant factors and wall
time; the benchmark proper is perfbench/run.py.  The full order-12 catalog at degrees 1..4 runs in about seven
minutes and stays under 2 GB if --keep-caches is off.

    python3 scripts/survey_h4.py --max-order 12 --degrees 1,2,3,4
    python3 scripts/survey_h4.py --max-order 8 --cross-check
"""

import argparse
import time
from dataclasses import dataclass

from cohomkit.cohomology import clear_caches, compute_cohomology
from cohomkit.groups import catalog_labels, from_label
from cohomkit.modular import clear_caches as clear_modular_caches
from cohomkit.modular import invariant_factors_modular


@dataclass
class SurveyConfig:
    max_order: int = 12
    degrees: tuple[int, ...] = (1, 2, 3, 4)
    cross_check: bool = False
    keep_caches: bool = False


def shape(factors: list[int]) -> str:
    if not factors:
        return "0"
    return " + ".join(f"Z/{f}" for f in factors)


def run(config: SurveyConfig) -> None:
    labels = catalog_labels(config.max_order)
    width = max(len(label) for label in labels)
    grand_start = time.perf_counter()
    for label in labels:
        group = from_label(label)
        for degree in config.degrees:
            start = time.perf_counter()
            factors = compute_cohomology(group, degree).invariant_factors
            elapsed = time.perf_counter() - start
            tag = ""
            if config.cross_check:
                other = invariant_factors_modular(group, degree)
                tag = "  [agrees]" if other == factors else \
                    f"  [MISMATCH: modular says {other}]"
            print(f"{label:<{width}}  H^{degree} = {shape(factors):<24}"
                  f"{elapsed:8.2f} s{tag}")
        if not config.keep_caches:
            # order-12 degree-4 eliminations are large; drop them per group
            clear_caches()
            clear_modular_caches()
    total = time.perf_counter() - grand_start
    print(f"\n{len(labels)} groups, degrees {list(config.degrees)}, "
          f"total {total:.1f} s")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-order", type=int, default=12)
    parser.add_argument("--degrees", default="1,2,3,4",
                        help="comma-separated list, default 1,2,3,4")
    parser.add_argument("--cross-check", action="store_true",
                        help="also run the independent modular pipeline")
    parser.add_argument("--keep-caches", action="store_true",
                        help="skip cache clearing between groups (faster, "
                             "more memory)")
    args = parser.parse_args()
    config = SurveyConfig(
        max_order=args.max_order,
        degrees=tuple(int(d) for d in args.degrees.split(",")),
        cross_check=args.cross_check,
        keep_caches=args.keep_caches)
    run(config)


if __name__ == "__main__":
    main()
