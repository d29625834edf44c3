"""Dense feed-forward classifier with hand-derived gradients and Adam.

All five networks in a trinity run (four teacher peers plus the student)
share this substrate: dense layers, ReLU hidden activations, a softmax
output, and an explicit backward pass for any loss expressed on the output
probabilities. There is no autodiff; the chain rule is spelled out once,
through the softmax Jacobian. A network's parameters fix its floating
dtype: the forward pass, the gradient and Adam all run in it. Training
builds float32 networks; float64 is the default everywhere else.

Parameters may carry a leading peer axis: two networks of one layout in
one (2, P) block, which the forward pass, the gradient and Adam step
together, each peer's result equal bit for bit to what it gives alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

# Adam's moment decay rates and the floor added to its denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class ModelParams:
    """Weights and biases of one network in one contiguous vector.

    ``flat`` holds the layers in the order w0, b0, w1, b1, ...; ``weights[i]``
    (shape (fan_in, fan_out)) and ``biases[i]`` are views into it, so an
    in-place update of ``flat`` updates every layer. The constructor packs
    the given arrays into a fresh vector. The vector's dtype is the
    network's: the arrays' common dtype if it is floating, else float64.

    ``from_flat`` also takes a (peers, P) block of networks of one layout;
    the views then carry that leading axis: (peers, fan_in, fan_out) and
    (peers, fan_out).
    """

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        if len(weights) != len(biases) or not weights:
            raise ValueError("need one bias vector per weight matrix")
        arrays = [np.asarray(a) for pair in zip(weights, biases) for a in pair]
        flat = np.concatenate([a.ravel() for a in arrays])
        self._bind(flat.astype(_float_dtype(flat.dtype), copy=False), [a.shape for a in arrays])

    @classmethod
    def from_flat(cls, layer_dims: Sequence[int], flat: np.ndarray) -> "ModelParams":
        """Views of ``flat`` as a layer_dims network, or of each row of a 2-d ``flat``
        as one peer's; ValueError if its last axis does not fit."""
        dims = _check_dims(layer_dims)
        shapes = [s for fan_in, fan_out in zip(dims[:-1], dims[1:])
                  for s in ((fan_in, fan_out), (fan_out,))]
        params = cls.__new__(cls)
        flat = np.asarray(flat)
        params._bind(np.ascontiguousarray(flat, dtype=_float_dtype(flat.dtype)), shapes)
        return params

    def _bind(self, flat: np.ndarray, shapes) -> None:
        ends = np.cumsum([math.prod(s) for s in shapes])
        if flat.ndim not in (1, 2) or flat.shape[-1] != ends[-1]:
            raise ValueError(f"a flat vector of shape {flat.shape} does not fit "
                             f"layers of shapes {shapes}")
        peers = flat.shape[:-1]
        views = [flat[..., end - math.prod(s):end].reshape(*peers, *s)
                 for s, end in zip(shapes, ends)]
        self.flat, self.weights, self.biases = flat, views[0::2], views[1::2]

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[-2]] + [w.shape[-1] for w in self.weights]

    def copy(self) -> "ModelParams":
        return ModelParams.from_flat(self.layer_dims, self.flat.copy())

    def __reduce__(self):
        # pickle and deepcopy rebuild the layer views into the one copied vector
        return type(self).from_flat, (self.layer_dims, self.flat)


@dataclass
class OptimizerState:
    """Adam moment accumulators, laid out like the ModelParams.flat they update."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0


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

    def __post_init__(self) -> None:
        _check_fields(self, batch_size=1, total_epochs=1, num_gradual_T=1, seed=0, hidden_dims=1)
        if not 0 < self.base_lr < math.inf:
            raise FieldError("base_lr", f"must be finite and > 0, got {self.base_lr!r}")
        if not 0 < self.decay_start_epoch < self.total_epochs:
            raise FieldError("decay_start_epoch", "must lie strictly between 0 and total_epochs")
        if not 0.05 <= self.lambda_weight <= 0.95:
            raise FieldError("lambda_weight", "must be in [0.05, 0.95]")
        if not 0.0 <= self.noise_rate_tau < 1.0:
            raise FieldError("noise_rate_tau", "must be in [0, 1)")


class FieldError(ValueError):
    """A value that a config dataclass field rejects: the ``field`` and the ``problem``."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field, self.problem = field, problem


# what a field annotated int, float, bool or str holds, the type a tuple
# item is stored as first; a bool is no number
_ACCEPTS = {"int": (int, np.integer), "float": (float, int, np.integer, np.floating),
            "bool": (bool,), "str": (str,)}


def _check_fields(obj, **least) -> None:
    """Check each field of the dataclass ``obj`` against its annotation (int, float,
    bool, str, Optional of one, or a tuple[..., ...] of one, stored as a tuple) and
    against its lower bound in ``least``, item by item in a tuple. Raises FieldError.
    Each value is stored as its Python type: under NEP 50 a numpy float64 scalar
    would lift float32 training arithmetic to float64."""
    for f in fields(obj):
        value, kind = getattr(obj, f.name), f.type
        if kind.startswith("Optional["):
            if value is None:
                continue
            kind = kind[len("Optional["):-1]
        item = kind.removeprefix("tuple[").removesuffix(", ...]")
        if item not in _ACCEPTS:
            continue
        values = (value,) if item == kind else value
        if not isinstance(values, (tuple, list, np.ndarray)) or not all(
                isinstance(v, _ACCEPTS[item]) and (item == "bool") == isinstance(v, bool)
                for v in values):
            raise FieldError(f.name, f"must be of type {f.type}, got {value!r}")
        if f.name in least and any(v < least[f.name] for v in values):
            raise FieldError(f.name, f"must be >= {least[f.name]}, got {value!r}")
        cast = _ACCEPTS[item][0]
        object.__setattr__(obj, f.name, cast(value) if item == kind else tuple(map(cast, values)))


def _float_dtype(dtype: np.dtype) -> np.dtype:
    """``dtype`` if it is floating, else float64."""
    return dtype if dtype.kind == "f" else np.dtype(np.float64)


def _check_dims(layer_dims: Sequence[int]) -> list[int]:
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"layer_dims must be >=2 positive integers, got {dims}")
    return dims


def init_params(layer_dims: Sequence[int], rng: np.random.Generator,
                dtype=np.float64) -> ModelParams:
    """Fresh network of floating ``dtype``: weights uniform in +-sqrt(6/fan_in),
    drawn in float64 whatever the dtype, biases zero."""
    dims = _check_dims(layer_dims)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return ModelParams(weights, biases)


def _check_features(params: ModelParams, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=params.flat.dtype)
    if features.ndim != 2:
        raise ValueError(f"features must be a 2-d batch, got shape {features.shape}")
    expected = params.weights[0].shape[-2]
    if features.shape[1] != expected:
        raise ValueError(
            f"configuration error: feature dimension {features.shape[1]} "
            f"does not match network input dimension {expected}"
        )
    if not np.isfinite(features).all():
        raise ValueError("input error: non-finite feature values")
    return features


def _softmax(logits: np.ndarray) -> np.ndarray:
    # the row max over a contiguous transpose: a max is exact in any order,
    # and reducing the second-last axis of a (..., M, n) array runs several
    # times faster than reducing the short last axis of (..., n, M)
    row_max = np.ascontiguousarray(logits.swapaxes(-1, -2)).max(axis=-2)
    e = logits - row_max[..., None]
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def activations(params: ModelParams, features: np.ndarray) -> list[np.ndarray]:
    """One forward pass: the input of each layer (the features, then each
    ReLU output), then the class probabilities. Peers share the (n, d)
    features; every later array is (peers, n, ·)."""
    acts = [_check_features(params, features)]
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w
        z += b[..., None, :]
        acts.append(np.maximum(z, 0.0, out=z) if layer < len(params.weights) - 1
                    else _softmax(z))
    return acts


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch; each row sums to 1."""
    return activations(params, features)[-1]


def gradient(params: ModelParams, acts: Sequence[np.ndarray], dprobs: np.ndarray,
             out: Optional[ModelParams] = None) -> ModelParams:
    """Gradient of the mean per-sample loss, laid out like params.

    ``acts`` is what ``activations`` returned, or the same rows of each of its arrays; no
    forward pass runs here. Peers may read different rows: a (peers, k, ·) gather of
    each array, the features included. ``dprobs`` is each row's derivative of its loss
    w.r.t. its probabilities, ``acts[-1]``. The gradient is written into ``out`` and
    ``out`` is returned; without one a new ModelParams is allocated.
    """
    if len(acts) != len(params.weights) + 1:
        raise ValueError(f"need {len(params.weights) + 1} activation arrays, got {len(acts)}")
    if out is None:
        out = ModelParams.from_flat(params.layer_dims, np.empty_like(params.flat))
    else:
        _check_layout("out", out, params)
        _check_dtype("out", out.flat, params)
    probs = acts[-1]
    # dL/dlogit_j = p_j * (dL/dp_j - sum_m p_m dL/dp_m); /n for the batch mean
    inner = np.add.reduce(dprobs * probs, axis=-1, keepdims=True)
    delta = dprobs - inner
    delta *= probs
    delta /= probs.shape[-2]
    for layer in range(len(params.weights) - 1, -1, -1):
        np.matmul(acts[layer].swapaxes(-1, -2), delta, out=out.weights[layer])
        np.add.reduce(delta, axis=-2, out=out.biases[layer])
        if layer > 0:
            delta = delta @ params.weights[layer].swapaxes(-1, -2)
            # a ReLU output is positive exactly where its input was
            delta *= acts[layer] > 0.0
    return out


def _check_layout(name: str, other: ModelParams, params: ModelParams) -> None:
    # one peer's vector against a stacked pair's, or the reverse, would
    # broadcast silently through Adam
    if other.layer_dims != params.layer_dims or other.flat.shape != params.flat.shape:
        raise ValueError(f"{name} layer_dims {other.layer_dims} and shape {other.flat.shape} "
                         f"do not match the parameters' {params.layer_dims} and "
                         f"{params.flat.shape}")


def _check_dtype(name: str, array: np.ndarray, params: ModelParams) -> None:
    # a float64 array written into float32 parameters would round silently
    if array.dtype != params.flat.dtype:
        raise ValueError(f"{name} is {array.dtype}, the parameters are {params.flat.dtype}")


def adam_init(params: ModelParams) -> OptimizerState:
    return OptimizerState(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_step(params: ModelParams, state: OptimizerState, grads: ModelParams,
              lr: float, scratch: Optional[np.ndarray] = None) -> None:
    """One bias-corrected Adam update of params.flat, state.m and state.v in place.

    The gradient, the moments and ``scratch`` share the parameters' dtype, and
    the update runs in it.
    ``scratch`` is a (2, *params.flat.shape) array for the update's temporaries;
    without one it is allocated here. Stacked peers share ``state.step_count``.
    """
    _check_layout("gradient", grads, params)
    dtype = params.flat.dtype
    shape = (2, *params.flat.shape)
    if scratch is None:
        scratch = np.empty(shape, dtype=dtype)
    elif scratch.shape != shape or scratch.dtype != dtype:
        raise ValueError(f"scratch must be a {shape} {dtype} array, "
                         f"got {scratch.dtype} {scratch.shape}")
    for name, array in (("gradient", grads.flat), ("Adam m", state.m), ("Adam v", state.v)):
        _check_dtype(name, array, params)
    state.step_count += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    c1 = 1.0 - b1 ** state.step_count
    c2 = 1.0 - b2 ** state.step_count
    g, m, v = grads.flat, state.m, state.v
    s1, s2 = scratch
    # the rounding order of b1*m + (1-b1)*g, b2*v + ((1-b2)*g)*g and
    # flat - lr*(m/c1) / (sqrt(v/c2) + eps); a*b == b*a exactly
    m *= b1
    np.multiply(g, 1.0 - b1, out=s1)
    m += s1
    v *= b2
    np.multiply(g, 1.0 - b2, out=s1)
    s1 *= g
    v += s1
    np.divide(m, c1, out=s1)
    s1 *= lr
    np.divide(v, c2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += eps
    s1 /= s2
    params.flat -= s1


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Learning rate at an epoch: flat, then linear to zero at total_epochs."""
    if not 0 <= epoch <= config.total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {config.total_epochs}]")
    if epoch < config.decay_start_epoch:
        return config.base_lr
    span = config.total_epochs - config.decay_start_epoch
    return config.base_lr * (config.total_epochs - epoch) / span
