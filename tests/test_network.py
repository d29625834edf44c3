"""Network forward/backward/optimizer checks against independent oracles."""

import copy
import pickle

import numpy as np
import numpy.testing as npt
import pytest

from jocot.network import (
    FieldError,
    ModelParams,
    OptimizerState,
    TrainConfig,
    _softmax,
    activations,
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_softmax_equals_the_row_max_shift_bitwise(dtype, layout):
    # the row max is taken over a transposed copy; a max is exact in any
    # order, so the probabilities match the plain row-max shift bit for bit
    rng = np.random.default_rng(9)
    logits = (rng.normal(size=(64, 24)) * 30).astype(dtype)
    logits[0] = 0.0
    logits[0, ::3] = -0.0  # a row whose max is a signed zero
    logits[1, :5] = logits[1].max()  # a tied max
    if layout == "F":
        logits = np.asfortranarray(logits)
    elif layout == "strided":
        logits = logits[::2, ::2]
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    want = e / e.sum(axis=1, keepdims=True)
    got = _softmax(logits)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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


def loss_gradient(params, acts, loss_fn, out=None):
    """gradient of the mean of loss_fn(acts[-1])'s losses."""
    return gradient(params, acts, loss_fn(acts[-1])[1], out=out)


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
    grads = loss_gradient(params, activations(params, x), loss_fn)
    fd_w, fd_b = fd_gradient(params, x, lambda p: loss_fn(p)[0].mean())
    for a, n in zip(grads.weights, fd_w):
        npt.assert_allclose(a, n, rtol=1e-5, atol=1e-8)
    for a, n in zip(grads.biases, fd_b):
        npt.assert_allclose(a, n, rtol=1e-5, atol=1e-8)


def test_activations_list_ends_in_forward():
    params, rng = make_net([5, 7, 6, 4], 6)
    x = rng.normal(size=(3, 5))
    acts = activations(params, x)
    assert [a.shape for a in acts] == [(3, 5), (3, 7), (3, 6), (3, 4)]
    npt.assert_array_equal(acts[0], x)
    assert all((a >= 0).all() for a in acts[1:-1])
    npt.assert_array_equal(acts[-1], forward(params, x))


@pytest.mark.parametrize("rows", [[0, 2, 3, 7, 8], [4], [8, 1]])
def test_gradient_on_rows_of_a_batch_forward_pass(rows):
    # an update reads its rows of the ranking forward pass instead of
    # running the forward pass again on the subset
    params, rng = make_net([5, 7, 6, 4], 15)
    x = rng.normal(size=(9, 5))
    acts = activations(params, x)
    grads = loss_gradient(params, [a[rows] for a in acts], entropy_loss)
    alone = loss_gradient(params, activations(params, x[rows]), entropy_loss)
    npt.assert_allclose(grads.flat, alone.flat, rtol=1e-10, atol=1e-14)


def test_gradient_needs_one_array_per_layer_input_and_the_probabilities():
    params, rng = make_net([3, 4, 2], 16)
    x = rng.normal(size=(5, 3))
    with pytest.raises(ValueError, match="3 activation arrays, got 5"):
        gradient(params, x, np.ones((5, 2)))


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


def test_gradient_into_out_matches_allocating_call():
    params, rng = make_net([5, 7, 6, 4], 17)
    acts = activations(params, rng.normal(size=(9, 5)))
    want = loss_gradient(params, acts, entropy_loss)
    out = ModelParams.from_flat(params.layer_dims, np.full(params.flat.size, np.nan))
    assert loss_gradient(params, acts, entropy_loss, out=out) is out
    npt.assert_array_equal(out.flat, want.flat)
    with pytest.raises(ValueError, match="out layer_dims"):
        loss_gradient(params, acts, entropy_loss, out=init_params([5, 7, 4], rng))


def test_adam_step_with_scratch_matches_allocating_call_and_expression():
    # bitwise: the scratch keeps the rounding order of the textbook expression
    rng = np.random.default_rng(18)
    params, _ = make_net([4, 6, 3], 18)
    alloc, scratched = params.copy(), params.copy()
    opt_a, opt_s = adam_init(alloc), adam_init(scratched)
    scratch = np.full((2, params.flat.size), np.nan)
    m, v, flat = np.zeros_like(params.flat), np.zeros_like(params.flat), params.flat.copy()
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.003
    for t in range(1, 6):
        g = ModelParams.from_flat(params.layer_dims, rng.normal(size=params.flat.size))
        adam_step(alloc, opt_a, g, lr)
        adam_step(scratched, opt_s, g, lr, scratch)
        m = b1 * m + (1.0 - b1) * g.flat
        v = b2 * v + (1.0 - b2) * g.flat * g.flat
        flat = flat - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        for opt, net in ((opt_a, alloc), (opt_s, scratched)):
            npt.assert_array_equal(net.flat, flat)
            npt.assert_array_equal(opt.m, m)
            npt.assert_array_equal(opt.v, v)
    with pytest.raises(ValueError, match="scratch"):
        adam_step(scratched, opt_s, g, lr, scratch[:, 1:])


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
    # a negative seed used to fail inside training, in numpy's SeedSequence
    with pytest.raises(FieldError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)


@pytest.mark.parametrize("key,value", [
    ("hidden_dims", (32.7,)), ("batch_size", 16.0), ("seed", True), ("base_lr", "fast")])
def test_train_config_rejects_values_it_would_coerce(key, value):
    with pytest.raises(ValueError, match=key):
        TrainConfig(**{key: value})


def test_train_config_stores_numpy_scalars_as_python_types():
    cfg = TrainConfig(base_lr=np.float64(1e-3), lambda_weight=np.float32(0.5),
                      noise_rate_tau=0, batch_size=np.int64(32), hidden_dims=(np.int32(8),))
    assert [type(v) for v in (cfg.base_lr, cfg.lambda_weight, cfg.noise_rate_tau,
                              cfg.batch_size, cfg.hidden_dims[0])] == [float, float, float, int, int]
    assert (cfg.base_lr, cfg.lambda_weight, cfg.batch_size) == (1e-3, 0.5, 32)


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


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["deepcopy", "pickle"])
def test_model_params_copies_keep_views_into_flat(clone):
    params, rng = make_net([3, 4, 2], 10)
    x = rng.normal(size=(5, 3))
    before = forward(params, x)
    q = clone(params)
    assert q.layer_dims == [3, 4, 2] and not np.shares_memory(q.flat, params.flat)
    assert all(np.shares_memory(q.flat, a) for a in q.weights + q.biases)
    npt.assert_array_equal(forward(q, x), before)
    q.flat += 1.0  # an in-place update must reach forward through the views
    assert not np.array_equal(forward(q, x), before)
    npt.assert_array_equal(forward(params, x), before)


def test_params_keep_a_floating_dtype_and_make_anything_else_float64():
    w32, b32 = np.ones((2, 3), np.float32), np.zeros(3, np.float32)
    assert ModelParams([w32], [b32]).flat.dtype == np.float32
    assert ModelParams([np.ones((2, 3), int)], [np.zeros(3, int)]).flat.dtype == np.float64
    flat32 = np.arange(9, dtype=np.float32)
    assert ModelParams.from_flat([2, 3], flat32).flat is flat32
    assert ModelParams.from_flat([2, 3], np.arange(9)).flat.dtype == np.float64
    assert ModelParams.from_flat([2, 3], flat32).copy().flat.dtype == np.float32


def test_float32_init_is_the_float64_draw_rounded():
    wide = init_params([5, 7, 3], np.random.default_rng(19))
    narrow = init_params([5, 7, 3], np.random.default_rng(19), np.float32)
    assert wide.flat.dtype == np.float64 and narrow.flat.dtype == np.float32
    npt.assert_array_equal(narrow.flat, wide.flat.astype(np.float32))


def test_gradient_out_of_another_dtype_raises():
    params = init_params([4, 5, 3], np.random.default_rng(20), np.float32)
    acts = activations(params, np.ones((2, 4)))
    out = ModelParams.from_flat(params.layer_dims, np.empty(params.flat.size))
    with pytest.raises(ValueError, match="out is float64, the parameters are float32"):
        loss_gradient(params, acts, quadratic_loss, out=out)


def test_adam_step_rejects_a_gradient_of_another_dtype():
    params = init_params([4, 3], np.random.default_rng(21), np.float32)
    grads = ModelParams.from_flat(params.layer_dims, np.ones(params.flat.size))
    before = params.flat.copy()
    with pytest.raises(ValueError, match="gradient is float64, the parameters are float32"):
        adam_step(params, adam_init(params), grads, 0.01)
    npt.assert_array_equal(params.flat, before)


@pytest.mark.parametrize("moment", ["m", "v"])
def test_adam_step_rejects_adam_state_of_another_dtype(moment):
    params = init_params([4, 3], np.random.default_rng(22), np.float32)
    state = adam_init(params)
    setattr(state, moment, getattr(state, moment).astype(np.float64))
    grads = ModelParams.from_flat(params.layer_dims, np.ones(params.flat.size, np.float32))
    with pytest.raises(ValueError, match=f"Adam {moment} is float64"):
        adam_step(params, state, grads, 0.01)
    assert state.step_count == 0


def test_adam_step_scratch_follows_the_parameter_dtype():
    params = init_params([4, 3], np.random.default_rng(23), np.float32)
    grads = ModelParams.from_flat(params.layer_dims, np.ones(params.flat.size, np.float32))
    with pytest.raises(ValueError, match=r"scratch must be a \(2, 15\) float32 array"):
        adam_step(params, adam_init(params), grads, 0.01, np.empty((2, params.flat.size)))
    adam_step(params, adam_init(params), grads, 0.01, np.empty((2, 15), np.float32))


def test_float64_step_is_bitwise_the_spelled_out_expressions():
    # the float64 path: forward, backward and Adam against the textbook
    # expressions in their rounding order, element for element
    params, rng = make_net([5, 7, 6, 4], 24)
    x = rng.normal(size=(9, 5))
    acts = activations(params, x)
    h = [x]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h.append(np.maximum(h[-1] @ w + b, 0.0))
    logits = h[-1] @ params.weights[-1] + params.biases[-1]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    for got, want in zip(acts, h + [probs]):
        assert got.dtype == np.float64
        npt.assert_array_equal(got, want)

    out = ModelParams.from_flat(params.layer_dims, np.full(params.flat.size, np.nan))
    grads = loss_gradient(params, acts, entropy_loss, out=out)
    _, dprobs = entropy_loss(probs)
    delta = probs * (dprobs - np.sum(dprobs * probs, axis=1, keepdims=True)) / 9
    want_w, want_b = [], []
    for layer in range(2, -1, -1):
        want_w.insert(0, h[layer].T @ delta)
        want_b.insert(0, delta.sum(axis=0))
        delta = (delta @ params.weights[layer].T) * (h[layer] > 0.0)
    npt.assert_array_equal(grads.flat, np.concatenate(
        [a.ravel() for pair in zip(want_w, want_b) for a in pair]))

    state, flat = adam_init(params), params.flat.copy()
    adam_step(params, state, grads, np.float64(0.003), np.empty((2, flat.size)))
    g, zeros = grads.flat, np.zeros_like(flat)
    m = 0.9 * zeros + (1.0 - 0.9) * g
    v = 0.999 * zeros + (1.0 - 0.999) * g * g
    want = flat - 0.003 * (m / (1.0 - 0.9)) / (np.sqrt(v / (1.0 - 0.999)) + 1e-8)
    for got, expected in ((state.m, m), (state.v, v), (params.flat, want)):
        assert got.dtype == np.float64
        npt.assert_array_equal(got, expected)


def rowwise_entropy_loss(probs):
    """entropy_loss over the last axis, for (n, M) and (peers, k, M) alike."""
    losses = -np.sum(probs * np.log(probs), axis=-1)
    return losses, -(np.log(probs) + 1.0)


def stacked_pair(dims, seed, dtype):
    """Two peers of one layout, alone and as one (2, P) network."""
    rng = np.random.default_rng(seed)
    peers = [init_params(dims, rng, dtype) for _ in range(2)]
    both = ModelParams.from_flat(dims, np.stack([p.flat for p in peers]))
    return peers, both, rng


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stacked_peers_step_bitwise_as_each_peer_alone(dtype):
    # one forward pass, one backward pass over each peer's own rows and one
    # Adam update for both peers, against each peer's own calls
    dims = [5, 7, 6, 4]
    peers, both, rng = stacked_pair(dims, 25, dtype)
    x = rng.normal(size=(11, 5))
    acts = activations(both, x)
    alone = [activations(p, x) for p in peers]
    assert [a.shape for a in acts] == [(11, 5), (2, 11, 7), (2, 11, 6), (2, 11, 4)]
    for p in range(2):
        for got, want in zip(acts[1:], alone[p][1:]):
            assert got.dtype == dtype and got[p].tobytes() == want.tobytes()

    rows = np.array([[0, 3, 4, 9], [1, 2, 7, 10]])  # each peer's rows, ascending
    peer = np.arange(2)[:, None]
    gathered = [acts[0][rows]] + [a[peer, rows] for a in acts[1:]]
    out = ModelParams.from_flat(dims, np.full_like(both.flat, np.nan))
    grads = loss_gradient(both, gathered, rowwise_entropy_loss, out=out)
    assert grads is out
    state = OptimizerState(np.zeros_like(both.flat), np.zeros_like(both.flat), 3)
    scratch = np.empty((2, *both.flat.shape), dtype)
    adam_step(both, state, grads, 0.01, scratch)
    for p, net in enumerate(peers):
        g = loss_gradient(net, [a[rows[p]] for a in alone[p]], rowwise_entropy_loss)
        assert grads.flat[p].tobytes() == g.flat.tobytes()
        opt = OptimizerState(np.zeros_like(net.flat), np.zeros_like(net.flat), 3)
        adam_step(net, opt, g, 0.01)
        for a, b in ((both.flat, net.flat), (state.m, opt.m), (state.v, opt.v)):
            assert a[p].tobytes() == b.tobytes()
    assert state.step_count == 4


@pytest.mark.parametrize("clone", [lambda p: ModelParams.from_flat(p.layer_dims, p.flat),
                                   lambda p: p.copy(), copy.deepcopy,
                                   lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["from_flat", "copy", "deepcopy", "pickle"])
def test_stacked_params_keep_every_layer_in_one_block(clone):
    _, both, _ = stacked_pair([3, 4, 2], 26, np.float32)
    q = clone(both)
    assert q.layer_dims == [3, 4, 2] and q.flat.shape == (2, 26)
    assert [w.shape for w in q.weights] == [(2, 3, 4), (2, 4, 2)]
    assert [b.shape for b in q.biases] == [(2, 4), (2, 2)]
    assert all(np.shares_memory(q.flat, a) for a in q.weights + q.biases)
    npt.assert_array_equal(q.flat, both.flat)
    q.flat[1, 16] = 5.0  # peer 1's w1[0, 0]
    assert q.weights[1][1, 0, 0] == 5.0 and q.weights[1][0, 0, 0] != 5.0
    with pytest.raises(ValueError, match="does not fit"):
        ModelParams.from_flat([3, 4, 2], np.zeros((2, 2, 26)))


def test_stacked_step_rejects_buffers_of_one_peer():
    peers, both, rng = stacked_pair([3, 2], 28, np.float64)
    acts = activations(both, rng.normal(size=(4, 3)))
    with pytest.raises(ValueError, match="do not match"):
        loss_gradient(both, acts, quadratic_loss, out=peers[0].copy())
    with pytest.raises(ValueError, match="do not match"):
        adam_step(both, adam_init(both), peers[0], 0.01)
    with pytest.raises(ValueError, match=r"scratch must be a \(2, 2, 8\) float64 array"):
        adam_step(both, adam_init(both), both.copy(), 0.01, np.empty((2, 16)))
