"""Network forward/backward/optimizer checks against independent oracles."""

import numpy as np
import numpy.testing as npt
import pytest

from jocot.network import (
    ModelParams,
    TrainConfig,
    adam_init,
    adam_step,
    forward,
    gradient,
    init_params,
    lr_at,
)
from _oracles import fd_gradient


def make_net(dims, seed):
    rng = np.random.default_rng(seed)
    return init_params(dims, rng), rng


def test_forward_rows_are_distributions():
    params, rng = make_net([5, 8, 4], 0)
    x = rng.normal(size=(7, 5))
    probs = forward(params, x)
    assert probs.shape == (7, 4)
    assert (probs > 0).all()
    npt.assert_allclose(probs.sum(axis=1), np.ones(7), rtol=0, atol=1e-12)


def test_forward_shift_invariance_of_softmax():
    # adding a constant to every output logit must not change probabilities
    params, rng = make_net([3, 4], 1)
    x = rng.normal(size=(5, 3))
    base = forward(params, x)
    shifted = ModelParams([w.copy() for w in params.weights],
                          [params.biases[0] + 500.0])
    npt.assert_allclose(forward(shifted, x), base, rtol=1e-12)


def test_forward_dimension_mismatch_raises():
    params, rng = make_net([5, 4], 2)
    with pytest.raises(ValueError, match="configuration"):
        forward(params, rng.normal(size=(3, 6)))


def test_forward_nonfinite_input_raises():
    params, _ = make_net([4, 3], 3)
    x = np.ones((2, 4))
    x[1, 2] = np.nan
    with pytest.raises(ValueError, match="input"):
        forward(params, x)


def test_init_params_ranges():
    params, _ = make_net([10, 20, 6], 4)
    for w in params.weights:
        limit = np.sqrt(6.0 / w.shape[0])
        assert np.abs(w).max() <= limit
        assert np.abs(w).max() > 0.5 * limit  # rules out degenerate all-zero draw
    for b in params.biases:
        npt.assert_array_equal(b, np.zeros_like(b))


def quadratic_loss(probs):
    losses = np.sum(probs ** 2, axis=1)
    return losses, 2.0 * probs


def entropy_loss(probs):
    losses = -np.sum(probs * np.log(probs), axis=1)
    return losses, -(np.log(probs) + 1.0)


@pytest.mark.parametrize("dims,loss_fn,seed", [
    ([4, 3], quadratic_loss, 10),
    ([5, 6, 3], quadratic_loss, 11),
    ([6, 8, 5, 4], quadratic_loss, 12),
    ([4, 3], entropy_loss, 13),
    ([5, 7, 4], entropy_loss, 14),
])
def test_gradient_matches_finite_differences(dims, loss_fn, seed):
    params, rng = make_net(dims, seed)
    x = rng.normal(size=(6, dims[0]))
    grads = gradient(params, x, loss_fn)
    fd_w, fd_b = fd_gradient(params, x, lambda p: loss_fn(p)[0].mean())
    for a, n in zip(grads.weights, fd_w):
        npt.assert_allclose(a, n, rtol=1e-5, atol=1e-8)
    for a, n in zip(grads.biases, fd_b):
        npt.assert_allclose(a, n, rtol=1e-5, atol=1e-8)


def test_gradient_nonfinite_loss_raises():
    params, rng = make_net([3, 2], 5)
    x = rng.normal(size=(4, 3))

    def bad_loss(probs):
        losses = np.zeros(probs.shape[0])
        losses[2] = np.inf
        return losses, np.zeros_like(probs)

    with pytest.raises(FloatingPointError, match="index 2"):
        gradient(params, x, bad_loss)


def test_adam_first_step_scalar_oracle():
    # single 1x1 layer, constant gradient g: after one step the update is
    # exactly lr * g / (|g| + eps) because bias correction cancels
    g = 0.25
    params = ModelParams([np.array([[1.0]])], [np.array([0.5])])
    state = adam_init(params)
    w0, flat = params.weights[0], params.flat
    adam_step(params, state, ModelParams([np.array([[g]])], [np.array([g])]), lr=0.01)
    expected = 0.01 * g / (abs(g) + 1e-8)
    npt.assert_allclose(params.weights[0][0, 0], 1.0 - expected, rtol=1e-12)
    npt.assert_allclose(params.biases[0][0], 0.5 - expected, rtol=1e-12)
    assert state.step_count == 1
    # in-place update: the arrays held before the step hold the new values
    assert params.flat is flat and params.weights[0] is w0
    assert w0[0, 0] == flat[0] != 1.0


def test_adam_many_steps_match_reference_loop():
    # textbook Adam recomputed with explicit python loops
    rng = np.random.default_rng(6)
    params, _ = make_net([3, 2], 6)
    state = adam_init(params)
    ref_w = [w.copy() for w in params.weights]
    ref_b = [b.copy() for b in params.biases]
    ref_mw = [np.zeros_like(w) for w in ref_w]
    ref_vw = [np.zeros_like(w) for w in ref_w]
    ref_mb = [np.zeros_like(b) for b in ref_b]
    ref_vb = [np.zeros_like(b) for b in ref_b]
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.003
    for t in range(1, 8):
        gw = [rng.normal(size=w.shape) for w in ref_w]
        gb = [rng.normal(size=b.shape) for b in ref_b]
        adam_step(params, state, ModelParams(gw, gb), lr)
        for i in range(len(ref_w)):
            ref_mw[i] = b1 * ref_mw[i] + (1 - b1) * gw[i]
            ref_vw[i] = b2 * ref_vw[i] + (1 - b2) * gw[i] ** 2
            ref_w[i] = ref_w[i] - lr * (ref_mw[i] / (1 - b1 ** t)) / (
                np.sqrt(ref_vw[i] / (1 - b2 ** t)) + eps)
            ref_mb[i] = b1 * ref_mb[i] + (1 - b1) * gb[i]
            ref_vb[i] = b2 * ref_vb[i] + (1 - b2) * gb[i] ** 2
            ref_b[i] = ref_b[i] - lr * (ref_mb[i] / (1 - b1 ** t)) / (
                np.sqrt(ref_vb[i] / (1 - b2 ** t)) + eps)
    for a, r in zip(params.weights, ref_w):
        npt.assert_allclose(a, r, rtol=1e-12)
    for a, r in zip(params.biases, ref_b):
        npt.assert_allclose(a, r, rtol=1e-12)


def test_adam_shape_mismatch_raises():
    params, _ = make_net([3, 2], 7)
    state = adam_init(params)
    bad = ModelParams([np.zeros((2, 2))], [np.zeros(2)])
    with pytest.raises(ValueError, match="layer_dims"):
        adam_step(params, state, bad, 0.01)


def test_lr_schedule_values():
    cfg = TrainConfig()
    assert lr_at(0, cfg) == pytest.approx(1e-4)
    assert lr_at(79, cfg) == pytest.approx(1e-4)
    assert lr_at(80, cfg) == pytest.approx(1e-4)
    assert lr_at(190, cfg) == pytest.approx(5e-5)
    assert lr_at(300, cfg) == 0.0
    with pytest.raises(ValueError):
        lr_at(-1, cfg)
    with pytest.raises(ValueError):
        lr_at(301, cfg)


def test_lr_schedule_linear_between_knots():
    cfg = TrainConfig(base_lr=2e-3, total_epochs=100, decay_start_epoch=40)
    # halfway through the decay window
    assert lr_at(70, cfg) == pytest.approx(1e-3)
    # piecewise-linear: equally spaced epochs give equal decrements
    steps = [lr_at(e, cfg) - lr_at(e + 1, cfg) for e in range(40, 99)]
    npt.assert_allclose(steps, steps[0], rtol=1e-12)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lambda_weight=0.96)
    with pytest.raises(ValueError):
        TrainConfig(lambda_weight=0.04)
    with pytest.raises(ValueError):
        TrainConfig(decay_start_epoch=300, total_epochs=300)
    with pytest.raises(ValueError):
        TrainConfig(noise_rate_tau=1.0)
    with pytest.raises(ValueError):
        TrainConfig(hidden_dims=(0,))


def test_model_params_flat_layout():
    # one vector in the order w0, b0, w1, b1; the per-layer arrays are views
    params, _ = make_net([3, 4, 2], 9)
    w0, b0, w1, b1 = params.weights[0], params.biases[0], params.weights[1], params.biases[1]
    npt.assert_array_equal(params.flat, np.concatenate([w0.ravel(), b0, w1.ravel(), b1]))
    params.flat[:] = np.arange(params.flat.size)
    assert w0[0, 1] == 1 and b0[0] == 12 and w1[0, 0] == 16 and b1[1] == 25
    copy = params.copy()
    copy.flat[0] = -1.0
    assert params.weights[0][0, 0] == 0.0
    same = ModelParams.from_flat([3, 4, 2], params.flat)
    assert same.flat is params.flat and same.layer_dims == [3, 4, 2]
    with pytest.raises(ValueError, match="does not fit"):
        ModelParams.from_flat([3, 4, 2], params.flat[:-1])


def test_model_params_validate():
    params, _ = make_net([3, 4, 2], 8)
    params.validate()
    params.weights[1] = np.zeros((5, 2))
    with pytest.raises(ValueError, match="fan-in"):
        params.validate()
