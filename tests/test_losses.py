"""Loss-function checks: closed forms, scalar re-summation, finite differences."""

import numpy as np
import numpy.testing as npt
import pytest

from jocot.losses import (
    PROB_FLOOR,
    ce_batch,
    jocor_batch,
    make_ce_loss_fn,
    make_joint_loss_fn,
    symmetric_kl_batch,
)
from jocot.network import activations, forward, gradient, init_params
from _oracles import fd_gradient, scalar_kl


def one_hot(label, m):
    v = np.zeros(m)
    v[label] = 1.0
    return v


def row(probs):
    """One sample as a one-row batch."""
    return np.asarray(probs, dtype=np.float64)[None, :]


def test_ce_one_hot_correct_is_zero():
    assert ce_batch(row(one_hot(3, 12)), [3])[0] == 0.0


def test_ce_uniform_is_log_m():
    probs = np.full(12, 1 / 12)
    assert ce_batch(row(probs), [5])[0] == pytest.approx(np.log(12), rel=1e-12)


def test_ce_half_is_log_two():
    assert ce_batch(row([0.5, 0.3, 0.2]), [0])[0] == pytest.approx(np.log(2), rel=1e-12)


def test_ce_label_out_of_range():
    with pytest.raises(ValueError, match="label"):
        ce_batch(row(np.full(4, 0.25)), [4])
    with pytest.raises(ValueError, match="label"):
        ce_batch(np.full((2, 4), 0.25), [0, -1])


def test_ce_zero_probability_is_floored():
    loss = ce_batch(row([0.0, 1.0]), [0])[0]
    assert loss == pytest.approx(-np.log(PROB_FLOOR))
    assert np.isfinite(loss)


def test_ce_strictly_decreasing_in_true_probability():
    losses = []
    for p_true in [0.1, 0.3, 0.5, 0.7, 0.9]:
        probs = np.array([p_true, (1 - p_true) * 0.6, (1 - p_true) * 0.4])
        losses.append(ce_batch(row(probs), [0])[0])
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_pair_loss_trivial_cases():
    m = 12
    uniform = np.full(m, 1 / m)

    # each peer's cross-entropy; the pair sums to the combined supervised loss
    def pair_loss(probs1, probs2, label):
        return ce_batch(row(probs1), [label])[0], ce_batch(row(probs2), [label])[0]

    assert pair_loss(one_hot(2, m), one_hot(2, m), 2) == (0.0, 0.0)
    l1, l2 = pair_loss(uniform, one_hot(7, m), 7)
    assert l1 == pytest.approx(np.log(12), rel=1e-12)
    assert l2 == 0.0
    l1, l2 = pair_loss(uniform, uniform.copy(), 0)
    assert l1 + l2 == pytest.approx(2 * np.log(12), rel=1e-12)


def test_symmetric_kl_identical_is_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert symmetric_kl_batch(row(p), row(p.copy()))[0] == 0.0


def test_symmetric_kl_closed_form_two_class():
    val = symmetric_kl_batch(row([0.9, 0.1]), row([0.1, 0.9]))[0]
    assert val == pytest.approx(1.6 * np.log(9.0), rel=1e-12)


def test_symmetric_kl_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        p = rng.dirichlet(np.ones(12))
        q = rng.dirichlet(np.ones(12))
        expected = scalar_kl(p, q) + scalar_kl(q, p)
        assert symmetric_kl_batch(row(p), row(q))[0] == pytest.approx(expected, rel=1e-10)


def test_symmetric_kl_exact_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        pq = symmetric_kl_batch(row(p), row(q))[0]
        assert pq == symmetric_kl_batch(row(q), row(p))[0]  # bitwise


def test_symmetric_kl_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        symmetric_kl_batch(row([0.5, 0.5]), row([0.3, 0.3, 0.4]))


def test_symmetric_kl_nonnegative():
    rng = np.random.default_rng(9)
    p = rng.dirichlet(np.ones(5), size=200)
    q = rng.dirichlet(np.ones(5), size=200)
    assert (symmetric_kl_batch(p, q) >= 0).all()


def test_jocor_lambda_zero_reduces_to_pair_sum():
    rng = np.random.default_rng(1)
    p1, p2 = row(rng.dirichlet(np.ones(5))), row(rng.dirichlet(np.ones(5)))
    l1, l2 = ce_batch(p1, [3])[0], ce_batch(p2, [3])[0]
    assert jocor_batch(p1, p2, [3], 0.0)[0] == pytest.approx(l1 + l2, rel=1e-12)


def test_jocor_lambda_one_identical_predictions_is_zero():
    p = row([0.1, 0.2, 0.7])
    for label in range(3):
        assert jocor_batch(p, p.copy(), [label], 1.0)[0] == 0.0


def test_jocor_one_hot_correct_identical_zero_for_any_lambda():
    p = row(one_hot(1, 4))
    for lam in [0.0, 0.3, 0.85, 1.0]:
        assert jocor_batch(p, p.copy(), [1], lam)[0] == 0.0


def test_jocor_affine_in_lambda():
    rng = np.random.default_rng(2)
    p1 = rng.dirichlet(np.ones(6), size=8)
    p2 = rng.dirichlet(np.ones(6), size=8)
    labels = rng.integers(0, 6, size=8)
    at_0 = jocor_batch(p1, p2, labels, 0.0)
    at_half = jocor_batch(p1, p2, labels, 0.5)
    at_1 = jocor_batch(p1, p2, labels, 1.0)
    npt.assert_allclose(at_half, 0.5 * (at_0 + at_1), rtol=1e-12)


def test_jocor_lambda_out_of_range():
    with pytest.raises(ValueError, match="lambda"):
        jocor_batch(np.full((1, 2), 0.5), np.full((1, 2), 0.5), [0], 1.5)


def test_all_losses_nonnegative_random():
    rng = np.random.default_rng(3)
    p1 = rng.dirichlet(np.ones(12), size=100)
    p2 = rng.dirichlet(np.ones(12), size=100)
    labels = rng.integers(0, 12, size=100)
    assert (ce_batch(p1, labels) >= 0).all()
    assert (jocor_batch(p1, p2, labels, 0.85) >= 0).all()


def test_ce_loss_fn_gradient_matches_fd():
    rng = np.random.default_rng(20)
    params = init_params([5, 7, 4], rng)
    x = rng.normal(size=(6, 5))
    labels = rng.integers(0, 4, size=6)
    loss_fn = make_ce_loss_fn(labels)
    acts = activations(params, x)
    grads = gradient(params, acts, loss_fn(acts[-1])[1])
    fd_w, fd_b = fd_gradient(params, x, lambda p: loss_fn(p)[0].mean())
    for a, n in zip(grads.weights + grads.biases, fd_w + fd_b):
        npt.assert_allclose(a, n, rtol=1e-5, atol=1e-8)


def test_joint_loss_fn_gradient_matches_fd():
    rng = np.random.default_rng(21)
    params = init_params([4, 6, 3], rng)
    other = init_params([4, 6, 3], rng)
    x = rng.normal(size=(5, 4))
    labels = rng.integers(0, 3, size=5)
    other_probs = forward(other, x)
    for lam in [0.0, 0.5, 0.85, 1.0]:
        loss_fn = make_joint_loss_fn(other_probs, labels, lam)
        acts = activations(params, x)
        grads = gradient(params, acts, loss_fn(acts[-1])[1])
        fd_w, fd_b = fd_gradient(params, x, lambda p: loss_fn(p)[0].mean())
        for a, n in zip(grads.weights + grads.biases, fd_w + fd_b):
            npt.assert_allclose(a, n, rtol=1e-5, atol=1e-8)


def test_joint_contrastive_gradient_zero_when_predictions_coincide():
    # lambda=1: if the constant peer probabilities equal this net's output,
    # the contrastive gradient w.r.t. the logits must vanish
    rng = np.random.default_rng(22)
    params = init_params([4, 3], rng)
    x = rng.normal(size=(5, 4))
    probs = forward(params, x)
    labels = rng.integers(0, 3, size=5)
    acts = activations(params, x)
    grads = gradient(params, acts, make_joint_loss_fn(probs, labels, 1.0)(acts[-1])[1])
    for g in grads.weights + grads.biases:
        npt.assert_allclose(g, np.zeros_like(g), atol=1e-12)


def test_losses_keep_the_dtype_of_the_probabilities():
    rng = np.random.default_rng(23)
    p1 = rng.dirichlet(np.ones(5), size=20)
    p2 = rng.dirichlet(np.ones(5), size=20)
    labels = rng.integers(0, 5, size=20)
    q1, q2 = p1.astype(np.float32), p2.astype(np.float32)
    losses, grad = make_joint_loss_fn(q2, labels, 0.85)(q1)
    assert losses.dtype == grad.dtype == np.float32
    want, want_grad = make_joint_loss_fn(p2, labels, 0.85)(p1)
    assert want.dtype == want_grad.dtype == np.float64
    npt.assert_allclose(losses, want, rtol=1e-5)
    losses, grad = make_ce_loss_fn(labels)(q1)
    assert losses.dtype == grad.dtype == np.float32
    assert ce_batch(q1, labels).dtype == symmetric_kl_batch(q1, q2).dtype == np.float32
