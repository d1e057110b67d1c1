#!/usr/bin/env python3
"""Max-Cut cost-ratio study on a noisy QAOA-style outcome distribution.

Builds a ring graph, synthesizes a distribution peaked on one optimal
cut with bit-flip noise, reconstructs it, and compares the cost ratio
and cumulative quality curve before and after.
"""

import argparse

from hamrec import (CutGraph, NoiseModel, UsageError, c_min, hammer, ideal_bv, qaoa_report,
                    sample_noisy)


def run(args: argparse.Namespace) -> None:
    n = args.vertices
    graph = CutGraph(n, tuple((i, (i + 1) % n, 1.0) for i in range(n)))  # a ring
    # an alternating assignment cuts every edge of an even ring
    optimal = "01" * (n // 2) + "0" * (n % 2)
    model = NoiseModel(per_bit_flip=args.flip, seed=args.seed)
    counts = sample_noisy(ideal_bv(optimal), model, args.trials)
    cmin = c_min(graph)
    noisy = qaoa_report(graph, counts, c_min_override=cmin)
    recon = qaoa_report(graph, hammer(counts).output, c_min_override=cmin)

    print(f"ring graph n={n}  c_min={cmin}  "
          f"flip={args.flip}  trials={args.trials}  seed={args.seed}")
    print()
    print(f"{'quantity':<16}{'noisy':>12}{'reconstructed':>16}")
    print(f"{'<C>':<16}{noisy.c_exp:>12.4f}{recon.c_exp:>16.4f}")
    print(f"{'cost ratio':<16}{noisy.cr:>12.4f}{recon.cr:>16.4f}")
    print()
    print("cumulative quality curve (reconstructed):")
    for ratio, mass in recon.curve.points[:8]:
        print(f"  cr >= {ratio:+.4f}: {mass:.4f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=8, help="ring size")
    parser.add_argument("--flip", type=float, default=0.06)
    parser.add_argument("--trials", type=int, default=16384)
    parser.add_argument("--seed", type=int, default=7)
    try:
        run(parser.parse_args())
    except UsageError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    main()
