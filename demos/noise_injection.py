"""Corrupt a clean label set with pairflip and symmetric noise.

Builds the two transition matrices, injects noise into a balanced label
vector, and reports how close the realized flip fraction lands to the
nominal rate, plus where the flips went for the pairflip case.
"""

import argparse

import numpy as np

from jocot.noise import build_noise_matrix, inject_noise


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--classes", type=int, default=12)
    parser.add_argument("--per-class", type=int, default=960)
    parser.add_argument("--rate", type=float, default=0.4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    labels = np.repeat(np.arange(args.classes), args.per_class)
    print(f"clean labels: {labels.size} samples, {args.classes} classes")

    for kind in ("pairflip", "symmetric"):
        matrix = build_noise_matrix(kind, args.rate, args.classes)
        print(f"\n{kind} matrix at rate {args.rate} (first 3 rows):")
        with np.printoptions(precision=3, suppress=True):
            print(matrix[:3])
        mask = inject_noise(labels, matrix, args.seed)
        print(f"flipped {mask.num_flipped}/{labels.size} "
              f"({mask.flipped_fraction:.4f} realized vs {args.rate} nominal)")
        if kind == "pairflip":
            delta = (mask.noisy_labels[mask.flipped]
                     - mask.true_labels[mask.flipped]) % args.classes
            # every pairflip corruption moves a label to the next class
            print(f"all flips land on the next class: {bool((delta == 1).all())}")


if __name__ == "__main__":
    main()
