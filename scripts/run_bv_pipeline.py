#!/usr/bin/env python3
"""End-to-end Bernstein-Vazirani noise study.

Samples a noisy BV circuit output for a secret key, reconstructs the
distribution, and prints success/selectivity/error-distance metrics
before and after. The defaults reproduce the 10-bit key experiment with
a weak bit-flip channel plus one correlated 2-bit error.
"""

import argparse

from hamrec import (
    NoiseModel,
    UsageError,
    ehd,
    hammer,
    ideal_bv,
    ist,
    normalize,
    pst,
    sample_noisy,
    tvd,
)
from hamrec.cli import _parse_corr


def run(args: argparse.Namespace) -> None:
    if args.corr is None:
        correlated = (("0000110000", 0.2),) if args.key == "1010101010" else ()
    else:
        correlated = tuple(_parse_corr(c) for c in args.corr)
    ideal = ideal_bv(args.key)
    model = NoiseModel(
        per_bit_flip=args.flip, correlated_errors=correlated, seed=args.seed
    )
    counts = sample_noisy(ideal, model, args.trials)
    noisy = normalize(counts)
    report = hammer(counts)
    recon = report.output
    correct = {args.key}

    print(f"key={args.key}  trials={args.trials}  flip={args.flip}  seed={args.seed}")
    for mask, q in correlated:
        print(f"correlated error {mask} @ {q}")
    print(f"observed outcomes: {len(noisy)}")
    print()
    print(f"{'metric':<10}{'noisy':>14}{'reconstructed':>16}")
    print(f"{'pst':<10}{pst(noisy, correct):>14.6f}{pst(recon, correct):>16.6f}")
    print(f"{'ist':<10}{ist(noisy, correct):>14.6f}{ist(recon, correct):>16.6f}")
    print(f"{'ehd':<10}{ehd(noisy, correct):>14.6f}{ehd(recon, correct):>16.6f}")
    print(f"{'tvd/ideal':<10}{tvd(noisy, ideal):>14.6f}{tvd(recon, ideal):>16.6f}")
    print()
    print(f"pair evaluations: {report.pair_evaluations_step1} (clustering) "
          f"+ {report.pair_evaluations_step3} (scoring)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--key", default="1010101010", help="secret bitstring")
    parser.add_argument("--flip", type=float, default=0.02, help="per-bit flip probability")
    parser.add_argument(
        "--corr",
        action="append",
        default=None,
        metavar="MASK:PROB",
        help="correlated error mask, repeatable (default 0000110000:0.2)",
    )
    parser.add_argument("--trials", type=int, default=32768)
    parser.add_argument("--seed", type=int, default=42)
    try:
        run(parser.parse_args())
    except UsageError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    main()
