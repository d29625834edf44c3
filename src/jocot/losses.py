"""Per-sample losses: cross-entropy, symmetric KL, and the joint objective.

Each *_batch function evaluates its loss row by row over (n, M) probability
matrices; a single sample is a one-row batch. The make_*_loss_fn closures
adapt each loss to the callback signature of network.gradient, returning
per-sample losses together with their derivatives w.r.t. the probabilities.
The pair step in training reads the same values through _ce, _ce_prob_grad
and _jocor_terms, computed once over a whole batch.
"""

from __future__ import annotations

import numpy as np

# clamp applied before every log; keeps saturated softmax outputs finite
# while staying far below any test tolerance
PROB_FLOOR = 1e-12


def _floor(probs: np.ndarray) -> np.ndarray:
    return np.maximum(probs, PROB_FLOOR)


def _check_labels(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        bad = int(np.argmax((labels < 0) | (labels >= n_classes)))
        raise ValueError(
            f"label {int(labels[bad])} at position {bad} outside [0, {n_classes - 1}]"
        )
    return labels.astype(np.intp)


def ce_batch(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """-log(probs[i, labels[i]]) for each row, with the probability floor."""
    probs = np.asarray(probs)
    return _ce(probs, _check_labels(labels, probs.shape[1]))


def _ce(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """ce_batch for labels that _check_labels has passed."""
    return -np.log(_floor(probs[np.arange(probs.shape[0]), labels]))


def symmetric_kl_batch(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise D_KL(p||q) + D_KL(q||p), both arguments floored before logs."""
    p, q = np.asarray(p), np.asarray(q)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {q.shape}")
    pf, qf = _floor(p), _floor(q)
    log_p, log_q = np.log(pf), np.log(qf)
    # per-entry pair summed first so kl(p,q) == kl(q,p) bitwise
    terms = pf * (log_p - log_q) + qf * (log_q - log_p)
    return terms.sum(axis=1)


def jocor_batch(probs1: np.ndarray, probs2: np.ndarray, labels: np.ndarray,
                lambda_weight: float) -> np.ndarray:
    """(1-lambda)*(ce1 + ce2) + lambda*(symmetric KL), per sample."""
    _check_lambda(lambda_weight)
    ce = ce_batch(probs1, labels) + ce_batch(probs2, labels)
    return (1.0 - lambda_weight) * ce + lambda_weight * symmetric_kl_batch(probs1, probs2)


def _check_lambda(lambda_weight: float) -> None:
    if not 0.0 <= lambda_weight <= 1.0:
        raise ValueError(f"lambda_weight {lambda_weight} outside [0, 1]")


def _ce_prob_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(ce)/d(probs); zero wherever the floor clamps."""
    grad = np.zeros_like(probs)
    rows = np.arange(probs.shape[0])
    picked = probs[rows, labels]
    active = picked > PROB_FLOOR
    grad[rows[active], labels[active]] = -1.0 / picked[active]
    return grad


def _symmetric_kl_prob_grad(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """d(symmetric KL)/dp with q held constant; zero where the floor clamps p."""
    pf, qf = _floor(p), _floor(q)
    grad = np.log(pf) - np.log(qf) + 1.0 - qf / pf
    grad[p <= PROB_FLOOR] = 0.0
    return grad


def make_ce_loss_fn(labels: np.ndarray):
    """Loss callback for network.gradient: plain supervised cross-entropy."""
    labels = np.asarray(labels)

    def loss_fn(probs: np.ndarray):
        checked = _check_labels(labels, probs.shape[1])
        return _ce(probs, checked), _ce_prob_grad(probs, checked)

    return loss_fn


def make_joint_loss_fn(other_probs: np.ndarray, labels: np.ndarray, lambda_weight: float):
    """Loss callback for one peer's update under the joint objective.

    The other network's probabilities enter as constants: the returned
    per-sample values are the full joint loss, but only the calling
    network's probabilities carry gradient. The losses and the gradient take
    the dtype of the probabilities.
    """
    other_probs = np.asarray(other_probs)
    labels = np.asarray(labels)

    def loss_fn(probs: np.ndarray):
        checked = _check_labels(labels, probs.shape[1])
        losses = jocor_batch(probs, other_probs, checked, lambda_weight)
        grad = (1.0 - lambda_weight) * _ce_prob_grad(probs, checked)
        grad += lambda_weight * _symmetric_kl_prob_grad(probs, other_probs)
        return losses, grad

    return loss_fn


def _jocor_terms(probs1: np.ndarray, probs2: np.ndarray, labels: np.ndarray,
                 lambda_weight: float):
    """What a jocor pair step reads of one batch, each computed once over
    every row, for labels that _check_labels has passed: each peer's
    ranking loss (1-lambda)*own CE + lambda*symmetric KL, the joint loss
    jocor_batch gives (the same for both peers, since + and the symmetric
    KL commute bit for bit), and the joint loss's derivative w.r.t. each
    peer's probabilities with the other's held constant, as the
    make_joint_loss_fn of either peer computes it on the same rows."""
    _check_lambda(lambda_weight)
    ce1, ce2 = _ce(probs1, labels), _ce(probs2, labels)
    f1, f2 = _floor(probs1), _floor(probs2)
    log1, log2 = np.log(f1), np.log(f2)
    d12, d21 = log1 - log2, log2 - log1
    kl = (f1 * d12 + f2 * d21).sum(axis=1)
    rank1 = (1.0 - lambda_weight) * ce1 + lambda_weight * kl
    rank2 = (1.0 - lambda_weight) * ce2 + lambda_weight * kl
    joint = (1.0 - lambda_weight) * (ce1 + ce2) + lambda_weight * kl
    dprobs = []
    for probs, d, own, other in ((probs1, d12, f1, f2), (probs2, d21, f2, f1)):
        kl_grad = d + 1.0 - other / own
        kl_grad[probs <= PROB_FLOOR] = 0.0
        grad = (1.0 - lambda_weight) * _ce_prob_grad(probs, labels)
        grad += lambda_weight * kl_grad
        dprobs.append(grad)
    return rank1, rank2, joint, dprobs[0], dprobs[1]
