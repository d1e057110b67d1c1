#!/usr/bin/env python3
"""Wall-time sweep of the reconstruction kernel over (width, support) grids.

Generates random sparse distributions, runs the full reconstruction, and
prints a timing table with the logical and the computed pair counts.
Useful for checking that the shared pair pass stays within budget as the
support grows. The default sizes lie on both sides of
``hamrec.analysis.ROW_HISTOGRAM_COLUMNS`` (512), the block width from
which the pass histograms its distance rows one at a time.

    PYTHONPATH=src python scripts/benchmark_hammer.py --widths 10 16 --sizes 150 600
"""

import argparse
import time

import numpy as np

from hamrec import Distribution, hammer


def random_support(rng: np.random.Generator, width: int, size: int) -> Distribution:
    values = np.unique(rng.integers(0, 2 ** width, size=size * 2))
    rng.shuffle(values)
    values = values[:size]
    raw = rng.random(len(values)) + 0.01
    raw /= raw.sum()
    entries = {format(int(v), f"0{width}b"): float(p) for v, p in zip(values, raw)}
    return Distribution(width=width, entries=entries, kind="probabilities")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--widths", type=int, nargs="+", default=[10, 16, 24])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[150, 600, 1000, 5000, 10000, 20000]
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.Generator(np.random.PCG64(args.seed))
    print(f"{'width':>6}{'support':>9}{'logical':>14}{'computed':>14}{'seconds':>10}")
    for width in args.widths:
        for size in args.sizes:
            if size > 2 ** width:
                continue
            d = random_support(rng, width, size)
            start = time.perf_counter()
            report = hammer(d)
            elapsed = time.perf_counter() - start
            pairs = report.pair_evaluations_step1 + report.pair_evaluations_step3
            print(f"{width:>6}{len(d):>9}{pairs:>14}{report.pairs_computed:>14}{elapsed:>10.3f}")


if __name__ == "__main__":
    main()
