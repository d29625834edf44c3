"""Dense feed-forward classifier with hand-derived gradients and Adam.

All five networks in a trinity run (four teacher peers plus the student)
share this substrate: float64 dense layers, ReLU hidden activations, a
softmax output, and an explicit backward pass for any loss expressed on
the output probabilities. There is no autodiff; the chain rule is spelled
out once, through the softmax Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

# loss_fn(probs[n, M]) -> (losses[n], dlosses_dprobs[n, M])
ProbLossFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


class ModelParams:
    """Weights and biases of one network in one contiguous float64 vector.

    ``flat`` holds the layers in the order w0, b0, w1, b1, ...; ``weights[i]``
    (shape (fan_in, fan_out)) and ``biases[i]`` are views into it, so an
    in-place update of ``flat`` updates every layer. The constructor packs
    the given arrays into a fresh vector.
    """

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        if len(weights) != len(biases) or not weights:
            raise ValueError("need one bias vector per weight matrix")
        arrays = [np.asarray(a, dtype=np.float64) for pair in zip(weights, biases) for a in pair]
        self._bind(np.concatenate([a.ravel() for a in arrays]), [a.shape for a in arrays])

    @classmethod
    def from_flat(cls, layer_dims: Sequence[int], flat: np.ndarray) -> "ModelParams":
        """Views of ``flat`` as a layer_dims network; ValueError if its length does not fit."""
        dims = _check_dims(layer_dims)
        shapes = [s for fan_in, fan_out in zip(dims[:-1], dims[1:])
                  for s in ((fan_in, fan_out), (fan_out,))]
        params = cls.__new__(cls)
        params._bind(np.ascontiguousarray(flat, dtype=np.float64), shapes)
        return params

    def _bind(self, flat: np.ndarray, shapes) -> None:
        ends = np.cumsum([math.prod(s) for s in shapes])
        if flat.shape != (ends[-1],):
            raise ValueError(f"a flat vector of shape {flat.shape} does not fit "
                             f"layers of shapes {shapes}")
        views = [flat[end - math.prod(s):end].reshape(s) for s, end in zip(shapes, ends)]
        self.flat, self.weights, self.biases = flat, views[0::2], views[1::2]

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def copy(self) -> "ModelParams":
        return ModelParams.from_flat(self.layer_dims, self.flat.copy())

    def validate(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need one bias vector per weight matrix")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i}: weight fan-out {w.shape[1]} != bias size {b.shape[0]}")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: fan-in {w.shape[0]} does not match previous fan-out")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: non-finite parameter values")


@dataclass
class OptimizerState:
    """Adam moment accumulators, laid out like the ModelParams.flat they update."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def copy(self) -> "OptimizerState":
        return replace(self, m=self.m.copy(), v=self.v.copy())


@dataclass
class TrainConfig:
    """Hyperparameters shared by every training loop in the package.

    Defaults follow the benchmark recipe: Adam with momentum 0.9, initial
    learning rate 1e-4, batch size 128, 300 epochs with a linear decay to
    zero starting at epoch 80. ``noise_rate_tau`` is the assumed label
    corruption rate that drives the remember-rate schedule, and
    ``num_gradual_T`` the number of epochs over which the kept fraction
    decays from 1 to 1 - tau.
    """

    base_lr: float = 1e-4
    batch_size: int = 128
    total_epochs: int = 300
    decay_start_epoch: int = 80
    lambda_weight: float = 0.85
    num_gradual_T: int = 10
    noise_rate_tau: float = 0.0
    seed: int = 0
    hidden_dims: tuple[int, ...] = (256, 128)
    # jocor_shared_ranking: both peers rank by the same per-sample joint loss
    # (selections identical); default ranks per network so the inner
    # consensus is non-trivial.
    jocor_shared_ranking: bool = False

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.total_epochs < 1 or self.num_gradual_T < 1:
            raise ValueError("batch_size, total_epochs and num_gradual_T must be positive")
        if not 0 < self.decay_start_epoch < self.total_epochs:
            raise ValueError("decay_start_epoch must lie strictly between 0 and total_epochs")
        if not 0.05 <= self.lambda_weight <= 0.95:
            raise ValueError("lambda_weight must be in [0.05, 0.95]")
        if not 0.0 <= self.noise_rate_tau < 1.0:
            raise ValueError("noise_rate_tau must be in [0, 1)")
        if any(int(h) < 1 for h in self.hidden_dims):
            raise ValueError("hidden_dims must be positive")
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)


def _check_dims(layer_dims: Sequence[int]) -> list[int]:
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"layer_dims must be >=2 positive integers, got {dims}")
    return dims


def init_params(layer_dims: Sequence[int], rng: np.random.Generator) -> ModelParams:
    """Fresh network: weights uniform in +-sqrt(6/fan_in), biases zero."""
    dims = _check_dims(layer_dims)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights, biases)


def _check_features(params: ModelParams, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be a 2-d batch, got shape {features.shape}")
    expected = params.weights[0].shape[0]
    if features.shape[1] != expected:
        raise ValueError(
            f"configuration error: feature dimension {features.shape[1]} "
            f"does not match network input dimension {expected}"
        )
    if not np.isfinite(features).all():
        raise ValueError("input error: non-finite feature values")
    return features


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch; each row sums to 1."""
    probs, _, _ = _forward_cached(params, features)
    return probs


def _forward_cached(params: ModelParams, features: np.ndarray):
    """Forward pass keeping per-layer inputs and hidden pre-activations."""
    a = _check_features(params, features)
    layer_inputs = [a]
    hidden_pre = []
    n_layers = len(params.weights)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        if i < n_layers - 1:
            hidden_pre.append(z)
            a = np.maximum(z, 0.0)
            layer_inputs.append(a)
        else:
            probs = _softmax(z)
    return probs, layer_inputs, hidden_pre


def gradient(params: ModelParams, features: np.ndarray, loss_fn: ProbLossFn) -> ModelParams:
    """Gradient of the mean per-sample loss over the batch, laid out like params.

    ``loss_fn`` maps the batch probabilities to per-sample losses and their
    derivatives w.r.t. the probabilities; the softmax Jacobian and the
    dense/ReLU stack are back-propagated here. Raises FloatingPointError
    naming the first sample whose loss is non-finite.
    """
    probs, layer_inputs, hidden_pre = _forward_cached(params, features)
    losses, dprobs = loss_fn(probs)
    bad = ~np.isfinite(losses)
    if bad.any():
        raise FloatingPointError(f"non-finite loss at sample index {int(np.argmax(bad))}")
    n = probs.shape[0]
    # dL/dlogit_j = p_j * (dL/dp_j - sum_m p_m dL/dp_m); /n for the batch mean
    inner = np.sum(dprobs * probs, axis=1, keepdims=True)
    delta = probs * (dprobs - inner) / n

    # per layer (d_weight, d_bias), in ModelParams.flat order
    parts = [np.empty(0)] * (2 * len(params.weights))
    for layer in range(len(params.weights) - 1, -1, -1):
        parts[2 * layer] = (layer_inputs[layer].T @ delta).ravel()
        parts[2 * layer + 1] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ params.weights[layer].T) * (hidden_pre[layer - 1] > 0.0)
    return ModelParams.from_flat(params.layer_dims, np.concatenate(parts))


def adam_init(params: ModelParams, beta1: float = 0.9, beta2: float = 0.999,
              epsilon: float = 1e-8) -> OptimizerState:
    return OptimizerState(np.zeros_like(params.flat), np.zeros_like(params.flat),
                          step_count=0, beta1=beta1, beta2=beta2, epsilon=epsilon)


def adam_step(params: ModelParams, state: OptimizerState, grads: ModelParams,
              lr: float) -> None:
    """One bias-corrected Adam update of params.flat, state.m and state.v in place."""
    if grads.layer_dims != params.layer_dims:
        raise ValueError(f"gradient layer_dims {grads.layer_dims} do not match "
                         f"parameter layer_dims {params.layer_dims}")
    state.step_count += 1
    b1, b2, eps = state.beta1, state.beta2, state.epsilon
    c1 = 1.0 - b1 ** state.step_count
    c2 = 1.0 - b2 ** state.step_count
    g, m, v = grads.flat, state.m, state.v
    # the rounding order of b1*m + (1-b1)*g and b2*v + ((1-b2)*g)*g
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    params.flat -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Learning rate at an epoch: flat, then linear to zero at total_epochs."""
    if not 0 <= epoch <= config.total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {config.total_epochs}]")
    if epoch < config.decay_start_epoch:
        return config.base_lr
    span = config.total_epochs - config.decay_start_epoch
    return config.base_lr * (config.total_epochs - epoch) / span
