"""Training paradigms and the two-teachers-one-student orchestration.

pair_epoch trains one co-trained pair for an epoch (forward both peers,
rank per-sample losses, keep the presumed-clean fraction, Adam-update).
A pair is stored as the one stacked (2, P) network it steps as, with one
Adam state, and each batch's picks are one (2, k) array; the pair's
module_kind picks the step:

- coteaching: each peer updates on the OTHER peer's selection.
- jocor: both peers update on their own selection under the joint
  (1-lambda)*supervised + lambda*contrastive objective; no cross-update.
- coteachingplus: cross-update restricted to samples where the peers'
  argmax predictions disagree.

METHODS says what each method trains: its teacher pairs, the stream of
their shared batch schedule, and whether a student learns from their
consensus. train_teachers runs a method's pairs over that schedule and
intersects their per-batch selections into the consensus clean set: for
jocot, the joint-loss pair's and the cross-update pair's, which feeds the
student; for a baseline, its one pair's. Pairs read nothing of each
other, so each pair's whole epoch loop is one job of _in_children, the
one runner of forked jobs, which experiment's grids use too and which
starts, windows and stops each job's forked child while the caller waits;
train_teachers reads the jobs in one loop and ANDs the pairs' masks. Each child
pins its own OpenBLAS to one thread; the caller's count is never changed.
A worker thread would gain little, since the GIL serialises most of a
pair's many small numpy calls. Where _fork_workers allows no second
process, and for a one-pair method, the pairs step in the caller.
train_student fits plain cross-entropy on a trusted subset, checkpointed
by validation accuracy. Every network trains in float32, as the compared
methods' PyTorch models did; evaluate scores it in float64.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import signal
import traceback
import warnings
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from itertools import islice
from multiprocessing.connection import wait
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .data import LabeledDataset
from .losses import _ce, _ce_prob_grad, _check_labels, _jocor_terms
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
from .selection import SelectionSet, remember_rate, small_loss_select

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

# what each method trains: (its teacher pairs, each a (module kind, init
# role); the role of the pairs' shared batch schedule; whether a student
# trains, on the pairs' consensus clean set, or on every sample if none)
METHODS = {
    "jocot": ((("jocor", _ROLE_TEACHER_F), ("coteaching", _ROLE_TEACHER_G)),
              _ROLE_TEACHER_SHUFFLE, True),
    **{kind: (((kind, _ROLE_MODULE_INIT),), _ROLE_MODULE_SHUFFLE, False)
       for kind in ("coteaching", "coteachingplus", "jocor")},
    "ce_baseline": ((), None, True),
}

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


def _default_start_method() -> str:
    """The start method a multiprocessing context would use, read without
    fixing it, so a later set_start_method call by the caller still works."""
    return (multiprocessing.get_start_method(allow_none=True)
            or multiprocessing.get_all_start_methods()[0])


def _fork_workers(jobs: int) -> int:
    """How many forked processes share ``jobs`` independent jobs: one per
    usable CPU, at most one per job. 1 means in this process: fewer than two
    fit, no OpenBLAS count can be pinned to one thread per process, this
    process is a daemon, which multiprocessing lets start no process, or the
    platform's default start method is not fork, which is then missing or
    held unsafe in a process with threads (_forked always forks)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(jobs, cpus)
    if (workers < 2 or _openblas_threads() is None or _default_start_method() != "fork"
            or multiprocessing.current_process().daemon):
        return 1
    return workers


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _child_main(send, fn, args) -> None:
    """The body of a _forked child: pins its own OpenBLAS to one thread, runs
    fn(*args) and sends back (result, None), or (None, (exception, traceback
    text)). It ignores SIGINT, so a Ctrl-C reaches the parent alone, which
    then stops it. SIGTERM unwinds it without an answer, so that the finally
    blocks of fn stop the children fn forked in turn."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    blas = _openblas_threads()
    if blas is not None:
        blas[1](1)
    try:
        outcome = (fn(*args), None)
    except SystemExit:
        raise
    except BaseException as exc:  # noqa: BLE001 - re-raised in the parent
        outcome = (None, (exc, traceback.format_exc()))
    send.send(outcome)


class _forked:
    """fn(*args) in one forked child process named ``name``, started on
    construction. result() waits for its answer: the child's exception is
    raised in the caller with its type and message, and a child that exits
    without an answer raises RuntimeError naming its exit code. stop()
    terminates the child if it is still running, then joins it; _in_children
    calls it whether its consumer returns or raises."""

    def __init__(self, name: str, fn, *args):
        context = multiprocessing.get_context("fork")
        self._recv, send = context.Pipe(duplex=False)
        # not a daemon: multiprocessing lets a daemon fork no child, and a
        # grid's cell forks its teacher pairs
        self._child = context.Process(target=_child_main, args=(send, fn, args), name=name)
        self._child.start()
        send.close()

    def result(self):
        child = self._child
        wait([self._recv, child.sentinel])
        outcome = None
        try:
            # a child gone without a message leaves the pipe at its end,
            # which poll reports as readable and recv as EOFError; poll, not
            # a blocking recv, since a process the child forked in turn may
            # hold a copy of the write end and keep it open
            if self._recv.poll():
                outcome = self._recv.recv()
        except EOFError:
            pass
        if outcome is None:
            child.join()
            raise RuntimeError(f"the forked process {child.name} exited with code "
                               f"{child.exitcode} before sending its result")
        value, error = outcome
        if error is not None:
            exc, trace = error
            raise exc from RuntimeError(f"in the forked process:\n{trace}")
        return value

    def stop(self) -> None:
        if self._child.is_alive():
            self._child.terminate()
        self._child.join()
        self._recv.close()


def _in_children(name: str, fn, jobs):
    """Yield, for each job of the list ``jobs`` in order, a call that returns
    fn(*job) or raises what fn raised: in this process when _fork_workers
    allows no second process, else in a _forked child named ``name``, at
    most _fork_workers(len(jobs)) alive at once. A job starts only when a
    slot is free and the consumer asks for the next call; its child is
    stopped once the consumer moves on, and closing the generator
    terminates every live child."""
    workers = _fork_workers(len(jobs))
    if workers < 2:
        yield from (functools.partial(fn, *job) for job in jobs)
        return
    window, todo = deque(), iter(jobs)
    try:
        for _ in jobs:
            for job in islice(todo, workers - len(window)):
                window.append(_forked(name, fn, *job))
            yield window[0].result
            window.popleft().stop()
    finally:
        for child in window:
            child.stop()


@dataclass
class TeacherState:
    """A co-trained pair of peer networks, stored as the one stacked network
    it steps as: ``params`` over a (2, P) block, row p peer p, and one Adam
    state over it; plus its last epoch's selections: per batch, a (2, k)
    array of each peer's picks as ascending dataset-global indices."""

    module_kind: str
    params: ModelParams
    opt: OptimizerState
    epoch_selections: List[np.ndarray] = field(default_factory=list)
    mean_selected_loss: Optional[float] = None

    def __post_init__(self):
        if self.module_kind not in MODULE_KINDS:
            raise ValueError(f"module_kind must be one of {MODULE_KINDS}")
        shape = self.params.flat.shape
        if len(shape) != 2 or shape[0] != 2 or {self.opt.m.shape, self.opt.v.shape} != {shape}:
            raise ValueError(f"a pair is one (2, P) network with Adam moments of its shape, "
                             f"got {shape}, {self.opt.m.shape} and {self.opt.v.shape}")


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
    states: List[TeacherState]
    epoch_clean_masks: List[np.ndarray]


@dataclass
class StudentResult:
    params: ModelParams
    metrics: List[EpochMetrics]
    best_epoch: int
    best_val_accuracy: float


def init_teacher_state(module_kind: str, layer_dims, rng: np.random.Generator) -> TeacherState:
    """Two independently initialized float32 peers drawn from one RNG stream,
    stacked into one (2, P) network."""
    peers = [init_params(layer_dims, rng, _TRAIN_DTYPE).flat for _ in range(2)]
    params = ModelParams.from_flat(layer_dims, np.stack(peers))
    return TeacherState(module_kind, params, adam_init(params))


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


def _check_finite(losses: np.ndarray) -> None:
    """FloatingPointError naming the first non-finite loss's peer, if any, and sample."""
    bad = ~np.isfinite(losses)
    if bad.any():
        *peer, sample = np.unravel_index(np.argmax(bad), bad.shape)
        where = "".join(f"peer {int(p)}, " for p in peer)
        raise FloatingPointError(f"non-finite loss at {where}sample index {int(sample)}")


def _step_buffers(params: ModelParams) -> Tuple[ModelParams, np.ndarray]:
    """One (3, *params.flat.shape) block for a network step: a gradient laid
    out like params, then adam_step's scratch, in the parameters' dtype."""
    work = np.empty((3, *params.flat.shape), dtype=params.flat.dtype)
    return ModelParams.from_flat(params.layer_dims, work[0]), work[1:]


def pair_epoch(state: TeacherState, noisy_train: LabeledDataset,
               keep_fraction: float, lr: float, batches, *,
               lambda_weight: float = TrainConfig.lambda_weight) -> TeacherState:
    """One epoch of a co-trained pair; the step follows state.module_kind.

    coteaching(plus) ranks each peer's CE; the plus variant ranks only where
    the peers' argmax predictions differ (whole batch when they fully agree).
    jocor ranks per network ((1-lambda)*own CE + lambda*contrastive).
    The pair's (2, P) network and its Adam state are stepped in place, as
    one network: one forward pass, one loss pass, one backward pass over
    each peer's update rows and one Adam update per batch. ``state`` is
    returned with this epoch's selections, each batch's picks one (2, k)
    array, and its mean selected loss. A non-finite ranking loss raises
    FloatingPointError naming its peer and its place among the ranked rows.
    """
    kind = state.module_kind
    if kind not in MODULE_KINDS:
        raise ValueError(f"module_kind must be one of {MODULE_KINDS}, got {kind!r}")
    params, opt = state.params, state.opt
    grads, scratch = _step_buffers(params)
    labels = _check_labels(noisy_train.labels, params.layer_dims[-1])
    selections = []
    batch_losses = []
    for idx in batches:
        # sorted, so row order is index order: small-loss selection gives
        # tied losses to the earliest rows, hence to the smaller dataset
        # indices, and each update reads its rows in ascending order
        idx = np.sort(np.asarray(idx, dtype=np.intp))
        if idx.size == 0:
            warnings.warn("skipping empty batch", stacklevel=2)
            continue
        acts = activations(params, noisy_train.features.take(idx, axis=0))
        probs = acts[-1]
        y = labels[idx]
        # each update's per-sample losses and derivatives are its rows of
        # these whole-batch arrays of the ranking pass, equal bit for bit
        # to what make_ce_loss_fn and make_joint_loss_fn give on those rows;
        # they lie among the ranked rows, whose losses are checked finite
        if kind == "jocor":
            rank, joint, dprobs = _jocor_terms(probs, y, lambda_weight)
        else:
            rank, dprobs = _ce(probs, y), _ce_prob_grad(probs, y)
        active = np.arange(idx.size)
        if kind == "coteachingplus":
            predicted = probs.argmax(axis=-1)
            disagree = predicted[0] != predicted[1]
            if disagree.any():
                active = np.flatnonzero(disagree)
        ranked = rank[:, active]
        _check_finite(ranked)
        picks = np.stack([active[small_loss_select(r, keep_fraction)] for r in ranked])
        # jocor: each peer learns from its own selection; otherwise from the other's
        upd = picks if kind == "jocor" else picks[::-1]
        # peer p's update rows of a (2, n, ·) array seen as (2n, ·)
        flat = upd + np.array([[0], [idx.size]])

        def gather(a):
            return a.reshape(-1, a.shape[-1]).take(flat, axis=0)

        gathered = [acts[0].take(upd, axis=0)] + [gather(a) for a in acts[1:]]
        gradient(params, gathered, gather(dprobs), out=grads)
        adam_step(params, opt, grads, lr, scratch)
        upd_losses = (joint.take(upd) if kind == "jocor" else rank.take(flat)).mean(axis=-1)
        batch_losses.append(0.5 * (upd_losses[0] + upd_losses[1]))
        selections.append(idx[picks])
    state.epoch_selections = selections
    state.mean_selected_loss = float(np.mean(batch_losses)) if batch_losses else None
    return state


def _pair_epochs(config: TrainConfig, noisy_train: LabeledDataset, module_kind: str,
                 init_role: int, shuffle_role: int, test_set: Optional[LabeledDataset]):
    """One pair's whole epoch loop over the batch schedule of the
    ``shuffle_role`` stream. Returns the pair's final state and, per epoch,
    its inner-consensus mask over the samples (the union over batches of
    the two peers' common picks), its peers' test accuracies (None without
    a test set) and its mean selected loss."""
    n = len(noisy_train)
    dims = [noisy_train.feature_dim, *config.hidden_dims, noisy_train.num_classes]
    state = init_teacher_state(module_kind, dims, _role_rng(config.seed, init_role))
    shuffle_rng = _role_rng(config.seed, shuffle_role)
    epochs = []
    for epoch in range(config.total_epochs):
        rate = remember_rate(epoch, config.num_gradual_T, config.noise_rate_tau)
        batches = make_batches(n, config.batch_size, shuffle_rng)
        state = pair_epoch(state, noisy_train, rate, lr_at(epoch, config), batches,
                           lambda_weight=config.lambda_weight)
        # the batches partition the samples, so the union over batches of the
        # peers' common picks is the AND of each peer's picks over the epoch
        picked = np.zeros((2, n), dtype=bool)
        for picks in state.epoch_selections:
            picked[[[0], [1]], picks] = True
        inner = picked[0] & picked[1]
        accuracies = None
        if test_set is not None:
            accuracies = [evaluate(ModelParams.from_flat(dims, peer), test_set)
                          for peer in state.params.flat]
        epochs.append((inner, accuracies, state.mean_selected_loss))
    return state, epochs


def train_teachers(config: TrainConfig, noisy_train: LabeledDataset, method: str = "jocot", *,
                   test_set: Optional[LabeledDataset] = None,
                   noise_mask: Optional[NoiseMask] = None) -> TeachersResult:
    """Run the teacher pairs of ``method`` (a METHODS key), one _pair_epochs
    per (module_kind, init role) of its row, each over the same batch
    schedule, then consensus, evaluation (test accuracy is the mean over
    every peer) and metrics. The pairs share nothing but the schedule, so
    they run as _in_children jobs: each in its own forked child, on one
    OpenBLAS thread, where _fork_workers allows a process per pair, else all
    in the caller (a one-pair method's always), with BLAS as it set it.
    The batches partition the samples, so an epoch's clean mask, the union
    over batches of the per-batch consensus (inner, then outer), is the AND
    of the pairs' inner-consensus masks. ``states`` holds each pair's final
    state, in table order; the final epoch's clean set must not be empty
    where a student trains on it (jocot's)."""
    pairs, shuffle_role, trains_student = METHODS.get(method, ((), None, False))
    if not pairs:
        raise ValueError(f"method {method!r} trains no teacher pair")
    if len(noisy_train) == 0:
        raise ValueError("noisy_train is empty")
    run = functools.partial(_pair_epochs, config, noisy_train,
                            shuffle_role=shuffle_role, test_set=test_set)
    with closing(_in_children("jocot-pair", run, pairs)) as calls:
        results = [get() for get in calls]
    metrics: List[EpochMetrics] = []
    clean_masks: List[np.ndarray] = []
    for epoch, per_pair in enumerate(zip(*(epochs for _, epochs in results))):
        clean = functools.reduce(np.logical_and, [inner for inner, _, _ in per_pair])
        clean_masks.append(clean)
        precision = None
        if noise_mask is not None and noise_mask.num_flipped > 0:
            precision = noisy_label_precision(~clean, noise_mask)
        test_acc = None
        if test_set is not None:
            test_acc = float(np.mean([acc for _, accs, _ in per_pair for acc in accs]))
        msl_parts = [msl for _, _, msl in per_pair if msl is not None]
        metrics.append(EpochMetrics(
            epoch=epoch,
            test_accuracy=test_acc,
            noisy_label_precision=precision,
            remember_rate=remember_rate(epoch, config.num_gradual_T, config.noise_rate_tau),
            mean_selected_loss=float(np.mean(msl_parts)) if msl_parts else None,
            lr=lr_at(epoch, config),
        ))
    final = SelectionSet(np.flatnonzero(clean_masks[-1]))
    if trains_student and len(final) == 0:
        raise RuntimeError(
            "consensus clean set is empty; lower the noise rate or train "
            "the teachers for more epochs")
    return TeachersResult(final, metrics, [state for state, _ in results], clean_masks)


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
    labels = _check_labels(clean_train.labels, dims[-1])
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
            y = labels[idx]
            losses = _ce(acts[-1], y)
            _check_finite(losses)
            gradient(params, acts, _ce_prob_grad(acts[-1], y), out=grads)
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

