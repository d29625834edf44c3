"""Verify the hand-derived backprop against finite differences.

Builds a small network, then compares the analytic gradient of each loss
(cross-entropy, symmetric KL against a fixed peer, and their weighted
joint) with a central-difference estimate, entry by entry.
"""

import argparse

import numpy as np

from jocot.losses import make_ce_loss_fn, make_joint_loss_fn
from jocot.network import activations, forward, gradient, init_params


def fd_gradient(params, features, scalar_loss, h=1e-5):
    d_weights = [np.zeros_like(w) for w in params.weights]
    d_biases = [np.zeros_like(b) for b in params.biases]
    for arrs, outs in ((params.weights, d_weights), (params.biases, d_biases)):
        for arr, darr in zip(arrs, outs):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = scalar_loss(forward(params, features))
                arr[idx] = orig - h
                down = scalar_loss(forward(params, features))
                arr[idx] = orig
                darr[idx] = (up - down) / (2.0 * h)
    return d_weights, d_biases


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    dims = [5, 8, 4]
    params = init_params(dims, rng)
    features = rng.standard_normal((args.batch, dims[0]))
    labels = rng.integers(0, dims[-1], size=args.batch)
    peer_probs = rng.dirichlet(np.ones(dims[-1]), size=args.batch)

    cases = {
        "cross-entropy": make_ce_loss_fn(labels),
        "symmetric KL": make_joint_loss_fn(peer_probs, labels, 1.0),
        "joint (lambda=0.85)": make_joint_loss_fn(peer_probs, labels, 0.85),
    }
    for name, loss_fn in cases.items():
        acts = activations(params, features)
        analytic = gradient(params, acts, loss_fn(acts[-1])[1])
        fd_w, fd_b = fd_gradient(
            params, features, lambda probs: float(np.mean(loss_fn(probs)[0])))
        worst = 0.0
        for a, n in zip(analytic.weights + analytic.biases, fd_w + fd_b):
            denom = np.maximum(np.abs(n), 1e-3)
            worst = max(worst, float((np.abs(a - n) / denom).max()))
        print(f"{name:>20}: max relative gradient error {worst:.2e}")


if __name__ == "__main__":
    main()
