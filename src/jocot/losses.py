"""Per-sample losses: cross-entropy, symmetric KL, and the joint objective.

Each *_batch function evaluates its loss row by row over (n, M) probability
matrices; a single sample is a one-row batch. The make_*_loss_fn closures
are the reference functions of one network's probabilities: each returns
(losses, dprobs), the per-sample losses and their derivatives w.r.t. the
probabilities, the dprobs that network.gradient back-propagates. Training
reads the same values through _ce, _ce_prob_grad and _jocor_terms, computed
once over a whole batch for both peers at once: they take (..., n, M)
probabilities with one (n,) label vector. The tests hold the pair step to
the make_*_loss_fn values bit for bit.
"""

from __future__ import annotations

import math

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


def _label_cells(shape: tuple, labels: np.ndarray) -> np.ndarray:
    """Flat C-order positions, in an array of ``shape`` (..., n, M), of each
    row's label entry: a (..., n) index array for take and put, which copy
    far faster than indexing by rows and labels."""
    *lead, n, m = shape
    cells = np.arange(n) * m + labels
    return cells + (np.arange(math.prod(lead)) * (n * m)).reshape(*lead, 1)


def _ce(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """ce_batch for labels that _check_labels has passed."""
    picked = _floor(np.take(probs, _label_cells(probs.shape, labels)))
    np.log(picked, out=picked)
    return np.negative(picked, out=picked)


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
    cells = _label_cells(probs.shape, labels)
    picked = np.take(probs, cells)
    step = np.zeros_like(picked)
    np.divide(-1.0, picked, out=step, where=picked > PROB_FLOOR)
    grad = np.zeros(probs.shape, probs.dtype)
    np.put(grad, cells, step)
    return grad


def _symmetric_kl_prob_grad(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """d(symmetric KL)/dp with q held constant; zero where the floor clamps p."""
    pf, qf = _floor(p), _floor(q)
    grad = np.log(pf) - np.log(qf) + 1.0 - qf / pf
    grad[p <= PROB_FLOOR] = 0.0
    return grad


def make_ce_loss_fn(labels: np.ndarray):
    """Reference (losses, dprobs) function of the probabilities for plain
    supervised cross-entropy."""
    labels = np.asarray(labels)

    def loss_fn(probs: np.ndarray):
        checked = _check_labels(labels, probs.shape[1])
        return _ce(probs, checked), _ce_prob_grad(probs, checked)

    return loss_fn


def make_joint_loss_fn(other_probs: np.ndarray, labels: np.ndarray, lambda_weight: float):
    """Reference (losses, dprobs) function of one peer's probabilities
    under the joint objective.

    The other network's probabilities enter as constants: the returned
    per-sample values are the full joint loss, but only the given
    probabilities carry gradient. The losses and the derivative take the
    dtype of the probabilities.
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


def _jocor_terms(probs: np.ndarray, labels: np.ndarray, lambda_weight: float):
    """What a jocor pair step reads of one batch, each computed once over
    every row, for the (2, n, M) probabilities of both peers and labels that
    _check_labels has passed: each peer's (2, n) ranking loss (1-lambda)*own
    CE + lambda*symmetric KL, the (n,) joint loss jocor_batch gives (the
    same for both peers, since + and the symmetric KL commute bit for bit),
    and the (2, n, M) derivative of the joint loss w.r.t. each peer's
    probabilities with the other's held constant, as the make_joint_loss_fn
    of either peer computes it on the same rows."""
    _check_lambda(lambda_weight)
    ce = _ce(probs, labels)
    f = _floor(probs)
    log = np.log(f)
    # d[0] = log1 - log2, d[1] = log2 - log1: the other peer is row [::-1]
    d = log - log[::-1]
    terms = f * d
    terms[0] += terms[1]
    kl = np.add.reduce(terms[0], axis=-1)
    rank = (1.0 - lambda_weight) * ce + lambda_weight * kl
    joint = (1.0 - lambda_weight) * (ce[0] + ce[1]) + lambda_weight * kl
    # in place, each step rounding as d + 1.0 - other / own and
    # (1-lambda) * ce_grad + lambda * kl_grad would
    kl_grad = d
    kl_grad += 1.0
    kl_grad -= np.divide(f[::-1], f, out=log)
    kl_grad[probs <= PROB_FLOOR] = 0.0
    kl_grad *= lambda_weight
    dprobs = _ce_prob_grad(probs, labels)
    dprobs *= 1.0 - lambda_weight
    dprobs += kl_grad
    return rank, joint, dprobs
