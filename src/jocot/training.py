"""Training paradigms and the two-teachers-one-student orchestration.

pair_epoch trains one co-trained pair for an epoch (forward both peers,
rank per-sample losses, keep the presumed-clean fraction, Adam-update);
the pair's module_kind picks the step:

- coteaching: each peer updates on the OTHER peer's selection.
- jocor: both peers update on their own selection under the joint
  (1-lambda)*supervised + lambda*contrastive objective; no cross-update.
- coteachingplus: cross-update restricted to samples where the peers'
  argmax predictions disagree.

train_teachers runs the joint-loss pair and the cross-update pair over a
shared batch schedule and intersects their per-batch selections into the
consensus clean set that feeds the student; train_module runs one pair
through the same epoch loop. The two teacher pairs read nothing of each
other within an epoch, so the second steps on a worker thread while the
calling thread steps the first, with OpenBLAS pinned to one thread; when
no OpenBLAS count can be pinned, both step on the calling thread.
train_student fits plain cross-entropy on a trusted subset, checkpointed
by validation accuracy. Every network trains in float32, as the compared
methods' PyTorch models did; evaluate scores it in float64.
"""

from __future__ import annotations

import ctypes
import functools
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .data import LabeledDataset
from .losses import ce_batch, make_ce_loss_fn, make_joint_loss_fn, symmetric_kl_batch
from .network import (
    ModelParams,
    OptimizerState,
    TrainConfig,
    activations,
    adam_init,
    adam_step,
    forward,
    gradient,
    init_params,
    lr_at,
)
from .noise import NoiseMask, noisy_label_precision
from .selection import SelectionSet, consensus, remember_rate, small_loss_select

MODULE_KINDS = ("coteaching", "jocor", "coteachingplus")

# fixed spawn keys so every pipeline stage draws from its own independent
# stream; the student's streams do not depend on whether teachers ran
_ROLE_TEACHER_F = 0
_ROLE_TEACHER_G = 1
_ROLE_TEACHER_SHUFFLE = 2
_ROLE_STUDENT_INIT = 3
_ROLE_STUDENT_SHUFFLE = 4
_ROLE_MODULE_INIT = 5
_ROLE_MODULE_SHUFFLE = 6

# the dtype of every network init_teacher_state and train_student build
_TRAIN_DTYPE = np.float32


def _role_rng(seed: int, role: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(role,)))


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(dll, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class _BlasPin:
    """Process-wide reference count of the one-thread OpenBLAS pin. The
    thread count belongs to the process, so callers training on several
    threads at once share one pin: the first saves the count it found and
    sets 1, the last restores the saved count."""

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = None

    def acquire(self, get, set_):
        with self._lock:
            if self._holders == 0:
                self._saved = get()
                set_(1)
            self._holders += 1

    def release(self, set_):
        with self._lock:
            self._holders -= 1
            if self._holders == 0:
                set_(self._saved)


_BLAS_PIN = _BlasPin()


@contextmanager
def _pair_worker(concurrent: bool):
    """A one-thread executor for stepping pairs beside the calling thread,
    with OpenBLAS pinned to one thread for the block through the shared
    _BLAS_PIN, which restores the caller's count once the last overlapping
    block has ended: two pairs each asking OpenBLAS for every core run
    slower than one after the other. Yields None, and touches no BLAS
    setting, when ``concurrent`` is false or no bundled OpenBLAS count can
    be pinned; the caller then steps every pair itself."""
    blas = _openblas_threads() if concurrent else None
    if blas is None:
        yield None
        return
    get, set_ = blas
    _BLAS_PIN.acquire(get, set_)
    try:
        # leaving the executor waits for the worker, also when the calling
        # thread raised; only then is the pin released
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="jocot-module") as worker:
            yield worker
    finally:
        _BLAS_PIN.release(set_)


@dataclass
class PeerNet:
    """One peer network: parameters plus its Adam state."""

    params: ModelParams
    opt: OptimizerState


@dataclass
class TeacherState:
    """A co-trained pair of peer networks and its last epoch's selections:
    per batch, each peer's picks as ascending dataset-global indices."""

    module_kind: str
    net1: PeerNet
    net2: PeerNet
    epoch_selections: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    mean_selected_loss: Optional[float] = None

    def __post_init__(self):
        if self.module_kind not in MODULE_KINDS:
            raise ValueError(f"module_kind must be one of {MODULE_KINDS}")
        if self.net1.params.layer_dims != self.net2.params.layer_dims:
            raise ValueError("peer networks must share layer dimensions")


@dataclass
class EpochMetrics:
    """Per-epoch scalars; fields that do not apply to a phase stay None."""

    epoch: int
    test_accuracy: Optional[float] = None
    noisy_label_precision: Optional[float] = None
    remember_rate: Optional[float] = None
    mean_selected_loss: Optional[float] = None
    lr: Optional[float] = None
    val_accuracy: Optional[float] = None

    def __post_init__(self):
        for name in ("test_accuracy", "noisy_label_precision", "remember_rate",
                     "val_accuracy"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} {value} outside [0, 1]")


@dataclass
class TeachersResult:
    final_selection: SelectionSet
    metrics: List[EpochMetrics]
    jocor_state: TeacherState
    coteaching_state: TeacherState
    epoch_clean_masks: List[np.ndarray]


@dataclass
class ModuleResult:
    state: TeacherState
    metrics: List[EpochMetrics]
    final_selection: SelectionSet


@dataclass
class StudentResult:
    params: ModelParams
    metrics: List[EpochMetrics]
    best_epoch: int
    best_val_accuracy: float


def init_teacher_state(module_kind: str, layer_dims, rng: np.random.Generator) -> TeacherState:
    """Two independently initialized float32 peers drawn from one RNG stream."""
    net1 = PeerNet(init_params(layer_dims, rng, _TRAIN_DTYPE), None)
    net2 = PeerNet(init_params(layer_dims, rng, _TRAIN_DTYPE), None)
    net1.opt = adam_init(net1.params)
    net2.opt = adam_init(net2.params)
    return TeacherState(module_kind, net1, net2)


def make_batches(n_samples: int, batch_size: int, rng: np.random.Generator) -> List[np.ndarray]:
    """Shuffled index batches covering all samples; last batch may be short."""
    if n_samples < 1:
        raise ValueError("cannot batch an empty dataset")
    perm = rng.permutation(n_samples)
    return [perm[i:i + batch_size] for i in range(0, n_samples, batch_size)]


def evaluate(params: ModelParams, dataset: LabeledDataset) -> float:
    """Fraction of samples whose argmax class (ties to the smallest index)
    equals the label. The forward pass runs on a float64 copy of a float32
    network, so two classes whose float32 probabilities round to a tie are
    still told apart."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    params = ModelParams.from_flat(params.layer_dims, params.flat.astype(np.float64, copy=False))
    preds = forward(params, dataset.features).argmax(axis=1)
    return float((preds == dataset.labels).mean())


def _step_buffers(params: ModelParams) -> Tuple[ModelParams, np.ndarray]:
    """One (3, n) block for a network step: a gradient laid out like params,
    then adam_step's (2, n) scratch, in the parameters' dtype."""
    work = np.empty((3, params.flat.size), dtype=params.flat.dtype)
    return ModelParams.from_flat(params.layer_dims, work[0]), work[1:]


def pair_epoch(state: TeacherState, noisy_train: LabeledDataset,
               keep_fraction: float, lr: float, batches, *,
               lambda_weight: float = TrainConfig.lambda_weight) -> TeacherState:
    """One epoch of a co-trained pair; the step follows state.module_kind.

    coteaching(plus) ranks each peer's CE; the plus variant ranks only where
    the peers' argmax predictions differ (whole batch when they fully agree).
    jocor ranks per network ((1-lambda)*own CE + lambda*contrastive).
    The peers are stepped in place and ``state`` is returned with this
    epoch's selections and mean selected loss.
    """
    kind = state.module_kind
    if kind not in MODULE_KINDS:
        raise ValueError(f"module_kind must be one of {MODULE_KINDS}, got {kind!r}")
    net1, net2 = state.net1, state.net2
    # both peers share one layout, so they take turns with one block
    grads, scratch = _step_buffers(net1.params)
    selections = []
    batch_losses = []
    for idx in batches:
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size == 0:
            warnings.warn("skipping empty batch", stacklevel=2)
            continue
        x, y = noisy_train.features[idx], noisy_train.labels[idx]
        acts1, acts2 = activations(net1.params, x), activations(net2.params, x)
        probs1, probs2 = acts1[-1], acts2[-1]
        rank1, rank2 = ce_batch(probs1, y), ce_batch(probs2, y)
        if kind == "jocor":
            contrastive = symmetric_kl_batch(probs1, probs2)
            rank1 = (1.0 - lambda_weight) * rank1 + lambda_weight * contrastive
            rank2 = (1.0 - lambda_weight) * rank2 + lambda_weight * contrastive
        active = np.arange(idx.size)
        if kind == "coteachingplus":
            disagree = probs1.argmax(axis=1) != probs2.argmax(axis=1)
            if disagree.any():
                active = np.flatnonzero(disagree)
        # positions in ascending global-index order: the rows of the ranking
        # forward pass that each update reads, in the order its losses see
        keys = idx[active]
        pos1 = active[small_loss_select(rank1[active], keep_fraction, keys)]
        pos2 = active[small_loss_select(rank2[active], keep_fraction, keys)]
        # jocor: each peer learns from its own selection; otherwise from the other's
        upd1, upd2 = (pos1, pos2) if kind == "jocor" else (pos2, pos1)
        if kind == "jocor":
            # both gradients flow from the same pre-update prediction pair
            loss1 = make_joint_loss_fn(probs2[upd1], y[upd1], lambda_weight)
            loss2 = make_joint_loss_fn(probs1[upd2], y[upd2], lambda_weight)
        else:
            loss1, loss2 = make_ce_loss_fn(y[upd1]), make_ce_loss_fn(y[upd2])
        upd_losses = []
        for net, acts, upd, loss_fn in ((net1, acts1, upd1, loss1), (net2, acts2, upd2, loss2)):
            _, losses = gradient(net.params, [a[upd] for a in acts], loss_fn, out=grads)
            adam_step(net.params, net.opt, grads, lr, scratch)
            upd_losses.append(losses.mean())
        batch_losses.append(0.5 * (upd_losses[0] + upd_losses[1]))
        selections.append((idx[pos1], idx[pos2]))
    state.epoch_selections = selections
    state.mean_selected_loss = float(np.mean(batch_losses)) if batch_losses else None
    return state


def _epoch_clean(module_selections, n_total: int) -> np.ndarray:
    """Boolean clean mask over the n_total samples from the modules'
    per-batch peer selections.

    Per batch: inner consensus within each module, then outer consensus
    across modules, unioned over batches.
    """
    if len({len(sels) for sels in module_selections}) != 1:
        raise ValueError("modules saw different batch counts")
    clean = np.zeros(n_total, dtype=bool)
    for batch_pairs in zip(*module_selections):
        clean[consensus(*batch_pairs)] = True
    return clean


def _run_epochs(config: TrainConfig, noisy_train: LabeledDataset, init_roles,
                shuffle_role: int, test_set: Optional[LabeledDataset],
                noise_mask: Optional[NoiseMask]):
    """The epoch loop of train_teachers and train_module: one pair_epoch per
    (module_kind, rng role) in init_roles over a shared batch schedule, then
    consensus, evaluation (test accuracy is the peer mean) and metrics.
    With more than one pair and an OpenBLAS count to pin, the calling thread
    steps the first pair and one worker thread the others; numpy releases
    the GIL in BLAS and in its array loops, so two pairs keep two cores
    busy. Otherwise the calling thread steps every pair and BLAS is left
    as the caller set it. The worker lives for one call, so a process
    forked after training inherits no thread pool whose thread it lacks.
    Returns the final states, the metrics and every epoch's clean mask."""
    if len(noisy_train) == 0:
        raise ValueError("noisy_train is empty")
    n = len(noisy_train)
    dims = [noisy_train.feature_dim, *config.hidden_dims, noisy_train.num_classes]
    states = [init_teacher_state(kind, dims, _role_rng(config.seed, role))
              for kind, role in init_roles]
    shuffle_rng = _role_rng(config.seed, shuffle_role)
    metrics: List[EpochMetrics] = []
    clean_masks: List[np.ndarray] = []
    with _pair_worker(len(states) > 1) as worker:
        for epoch in range(config.total_epochs):
            rate = remember_rate(epoch, config.num_gradual_T, config.noise_rate_tau)
            lr = lr_at(epoch, config)
            batches = make_batches(n, config.batch_size, shuffle_rng)
            args = (noisy_train, rate, lr, batches)
            kwargs = {"lambda_weight": config.lambda_weight}
            if worker is None:
                states = [pair_epoch(s, *args, **kwargs) for s in states]
            else:
                futures = [worker.submit(pair_epoch, s, *args, **kwargs) for s in states[1:]]
                states = [pair_epoch(states[0], *args, **kwargs),
                          *(f.result() for f in futures)]
            clean = _epoch_clean([s.epoch_selections for s in states], n)
            clean_masks.append(clean)
            precision = None
            if noise_mask is not None and noise_mask.num_flipped > 0:
                precision = noisy_label_precision(~clean, noise_mask)
            test_acc = None
            if test_set is not None:
                test_acc = float(np.mean([evaluate(net.params, test_set)
                                          for s in states for net in (s.net1, s.net2)]))
            msl_parts = [s.mean_selected_loss for s in states
                         if s.mean_selected_loss is not None]
            metrics.append(EpochMetrics(
                epoch=epoch,
                test_accuracy=test_acc,
                noisy_label_precision=precision,
                remember_rate=rate,
                mean_selected_loss=float(np.mean(msl_parts)) if msl_parts else None,
                lr=lr,
            ))
    return states, metrics, clean_masks


def train_teachers(config: TrainConfig, noisy_train: LabeledDataset, *,
                   test_set: Optional[LabeledDataset] = None,
                   noise_mask: Optional[NoiseMask] = None) -> TeachersResult:
    """Run both teacher modules over a shared batch schedule and return the
    consensus clean set from the final epoch.

    The joint-loss module and the cross-update module each own two peer
    networks; per batch their four selections are intersected (inner, then
    outer) and the final epoch's union becomes the student's training set.
    """
    (f_state, g_state), metrics, clean_masks = _run_epochs(
        config, noisy_train, [("jocor", _ROLE_TEACHER_F), ("coteaching", _ROLE_TEACHER_G)],
        _ROLE_TEACHER_SHUFFLE, test_set, noise_mask)
    final = SelectionSet(np.flatnonzero(clean_masks[-1]))
    if len(final) == 0:
        raise RuntimeError(
            "consensus clean set is empty; lower the noise rate or train "
            "the teachers for more epochs")
    return TeachersResult(final, metrics, f_state, g_state, clean_masks)


def train_module(config: TrainConfig, module_kind: str, noisy_train: LabeledDataset, *,
                 test_set: Optional[LabeledDataset] = None,
                 noise_mask: Optional[NoiseMask] = None) -> ModuleResult:
    """Train one co-trained pair standalone (baseline methods).

    The pair's claimed-clean set per epoch is the union over batches of the
    two peers' selection intersection; test accuracy is the peer mean.
    """
    (state,), metrics, clean_masks = _run_epochs(
        config, noisy_train, [(module_kind, _ROLE_MODULE_INIT)], _ROLE_MODULE_SHUFFLE,
        test_set, noise_mask)
    return ModuleResult(state, metrics, SelectionSet(np.flatnonzero(clean_masks[-1])))


def train_student(clean_train: LabeledDataset, clean_val: LabeledDataset,
                  config: TrainConfig, *,
                  test_set: Optional[LabeledDataset] = None) -> StudentResult:
    """Plain supervised training on a trusted subset; returns the parameter
    snapshot with the best validation accuracy (ties go to the earliest
    epoch)."""
    if len(clean_train) == 0:
        raise ValueError("clean_train is empty")
    if len(clean_val) == 0:
        raise ValueError("clean_val is empty")
    n = len(clean_train)
    dims = [clean_train.feature_dim, *config.hidden_dims, clean_train.num_classes]
    params = init_params(dims, _role_rng(config.seed, _ROLE_STUDENT_INIT), _TRAIN_DTYPE)
    opt = adam_init(params)
    grads, scratch = _step_buffers(params)
    shuffle_rng = _role_rng(config.seed, _ROLE_STUDENT_SHUFFLE)

    metrics: List[EpochMetrics] = []
    best_params = params.copy()
    best_val = -1.0
    best_epoch = -1
    for epoch in range(config.total_epochs):
        lr = lr_at(epoch, config)
        batch_losses = []
        for idx in make_batches(n, config.batch_size, shuffle_rng):
            acts = activations(params, clean_train.features[idx])
            _, losses = gradient(params, acts, make_ce_loss_fn(clean_train.labels[idx]),
                                 out=grads)
            adam_step(params, opt, grads, lr, scratch)
            batch_losses.append(float(losses.mean()))
        val_acc = evaluate(params, clean_val)
        test_acc = evaluate(params, test_set) if test_set is not None else None
        if val_acc > best_val:
            best_params, best_val, best_epoch = params.copy(), val_acc, epoch
        metrics.append(EpochMetrics(
            epoch=epoch,
            test_accuracy=test_acc,
            mean_selected_loss=float(np.mean(batch_losses)),
            lr=lr,
            val_accuracy=val_acc,
        ))
    return StudentResult(best_params, metrics, best_epoch, best_val)

