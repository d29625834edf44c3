"""Walk through the clean-sample selection machinery on toy numbers.

Shows the remember-rate schedule, picks the small-loss subset of one
batch, and composes the four per-network selection masks into the inner
and outer consensus that defines the presumed-clean set.
"""

import argparse

import numpy as np

from jocot.selection import consensus, remember_rate, small_loss_select


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tau", type=float, default=0.4)
    parser.add_argument("--gradual", type=int, default=10)
    args = parser.parse_args()

    print(f"remember rate, tau={args.tau}, ramp over {args.gradual} epochs:")
    for epoch in (0, 2, 5, args.gradual, args.gradual + 5):
        rate = remember_rate(epoch, args.gradual, args.tau)
        print(f"  epoch {epoch:>2}: keep {rate:.2f} of each batch")

    batch = np.array([10, 11, 12, 13, 14])
    losses = np.array([0.9, 0.1, 0.1, 2.0, 0.4])
    kept = batch[small_loss_select(losses, 0.6)]
    print(f"\nbatch {batch.tolist()} with losses {losses.tolist()}")
    print(f"keep 60% -> global indices {kept.tolist()} "
          "(ties break toward the smaller index)")

    # four selections for one batch, two per teacher module, each a boolean
    # mask over the batch; each module's inner consensus is the consensus of
    # its two masks, and the clean set the consensus of the inner masks
    p1, p2 = np.isin(batch, [10, 11, 12, 14]), np.isin(batch, [11, 12, 13, 14])
    q1, q2 = np.isin(batch, [10, 11, 12]), np.isin(batch, [11, 12, 14])
    i_p = consensus(p1, p2)
    i_q = consensus(q1, q2)
    i_con = consensus(i_p, i_q)
    print(f"\nmodule F selections {batch[p1].tolist()} & {batch[p2].tolist()} "
          f"-> {batch[i_p].tolist()}")
    print(f"module G selections {batch[q1].tolist()} & {batch[q2].tolist()} "
          f"-> {batch[i_q].tolist()}")
    print(f"consensus across modules -> {batch[i_con].tolist()}")


if __name__ == "__main__":
    main()
