"""Training paradigms: planted-sample selection, cross-update wiring,
consensus orchestration, student checkpointing, determinism."""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import jocot.jobs as jobs
import jocot.training as training
from jocot.data import LabeledDataset, synthesize
from jocot.losses import ce_batch, make_ce_loss_fn, make_joint_loss_fn, symmetric_kl_batch
from jocot.network import (
    ModelParams,
    OptimizerState,
    TrainConfig,
    activations,
    adam_init,
    adam_step,
    forward,
    gradient,
    init_params,
)
from jocot.noise import build_noise_matrix, inject_noise
from jocot.selection import small_loss_select
from jocot.training import (
    EpochMetrics,
    TeacherState,
    evaluate,
    init_teacher_state,
    make_batches,
    pair_epoch,
    train_student,
    train_teachers,
)


def planted_net(scale=10.0, bias=None):
    """2-feature 2-class linear net that classifies one-hot inputs perfectly."""
    w = np.array([[scale, -scale], [-scale, scale]])
    b = np.zeros(2) if bias is None else np.asarray(bias, dtype=float)
    return ModelParams([w], [b])


def planted_dataset(n=8, flip_at=3):
    """One-hot features; a single corrupted label at flip_at."""
    true = np.arange(n) % 2
    feats = np.eye(2)[true]
    labels = true.copy()
    labels[flip_at] = 1 - labels[flip_at]
    return LabeledDataset(feats, labels, 2)


def stacked_pair(kind, first, second):
    """A pair state over two chosen networks, stacked into the (2, P)
    network the pair steps as, with fresh Adam moments."""
    params = ModelParams.from_flat(first.layer_dims, np.stack([first.flat, second.flat]))
    return TeacherState(kind, params, adam_init(params))


def fresh_pair(kind, seed=0, dims=(2, 2)):
    rng = np.random.default_rng(seed)
    return stacked_pair(kind, init_params(dims, rng), init_params(dims, rng))


def test_make_batches_partition():
    rng = np.random.default_rng(0)
    batches = make_batches(10, 4, rng)
    assert [len(b) for b in batches] == [4, 4, 2]
    npt.assert_array_equal(np.sort(np.concatenate(batches)), np.arange(10))


def test_evaluate_perfect_and_zero():
    ds = planted_dataset(flip_at=0)
    ds.labels[0] = 0  # undo flip: all clean
    net = planted_net()
    assert evaluate(net, ds) == 1.0
    wrong = LabeledDataset(ds.features, 1 - ds.labels, 2)
    assert evaluate(net, wrong) == 0.0


def test_evaluate_chance_level_monte_carlo():
    rng = np.random.default_rng(1)
    params = init_params([6, 12], rng)
    ds = LabeledDataset(rng.normal(size=(10_000, 6)), rng.integers(0, 12, 10_000), 12)
    assert abs(evaluate(params, ds) - 1 / 12) <= 0.01


def test_evaluate_argmax_tie_smallest_class():
    params = ModelParams([np.zeros((3, 4))], [np.zeros(4)])  # all logits equal
    ds = LabeledDataset(np.ones((5, 3)), np.zeros(5, dtype=int), 4)
    assert evaluate(params, ds) == 1.0


def test_evaluate_empty_raises():
    with pytest.raises(ValueError, match="empty"):
        evaluate(planted_net(), LabeledDataset(np.empty((0, 2)), np.empty(0, int), 2))


def make_state(kind, net_factory=planted_net):
    return stacked_pair(kind, net_factory(), net_factory())


def test_coteaching_planted_sample_excluded():
    ds = planted_dataset(n=8, flip_at=3)
    state = make_state("coteaching")
    out = pair_epoch(state, ds, 7 / 8, 1e-4, [np.arange(8)])
    sel1, sel2 = out.epoch_selections[0]
    assert 3 not in sel1 and 3 not in sel2
    assert len(sel1) == 7 and len(sel2) == 7


def test_coteaching_keep_all_selects_whole_batch():
    ds = planted_dataset()
    out = pair_epoch(make_state("coteaching"), ds, 1.0, 1e-4, [np.arange(8)])
    sel1, sel2 = out.epoch_selections[0]
    assert tuple(sel1) == tuple(range(8)) and tuple(sel2) == tuple(range(8))


@pytest.mark.parametrize("kind", training.MODULE_KINDS)
def test_a_non_finite_ranking_loss_names_its_peer(monkeypatch, kind):
    # a diverged pair fails as the student does, naming peer and sample,
    # before anything is selected or stepped
    ds = planted_dataset()
    state = make_state(kind)
    state.params.flat[1] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite loss at peer"):
        pair_epoch(state, ds, 0.5, 1e-4, [np.arange(8)])
    assert state.opt.step_count == 0 and state.epoch_selections == []

    # jocor's ranking loss holds the symmetric KL, so a NaN network spoils
    # both peers' losses: make peer 1's ranking loss alone non-finite
    name = "_jocor_terms" if kind == "jocor" else "_ce"
    real = getattr(training, name)

    def poisoned(probs, *args):
        out = real(probs, *args)
        (out[0] if kind == "jocor" else out)[1] = np.nan
        return out

    monkeypatch.setattr(training, name, poisoned)
    with pytest.raises(FloatingPointError, match="non-finite loss at peer 1, sample index 0"):
        pair_epoch(make_state(kind), ds, 0.5, 1e-4, [np.arange(8)])


def test_a_non_finite_student_loss_names_its_sample(monkeypatch):
    real = training._ce

    def poisoned(probs, labels):
        out = real(probs, labels)
        out[2] = np.inf
        return out

    monkeypatch.setattr(training, "_ce", poisoned)
    ds = synthesize(3, 10, dim=4, separation=3.0, seed=20)
    with pytest.raises(FloatingPointError, match="^non-finite loss at sample index 2$"):
        train_student(ds, ds, small_cfg())


@pytest.mark.parametrize("kind", training.MODULE_KINDS)
def test_pair_epoch_gives_tied_losses_to_the_smaller_indices(kind):
    # every sample is the same, so every loss of a peer ties in every batch;
    # the batches are shuffled, so only the step's sort of each batch sends
    # the picks to its smaller dataset indices
    ds = LabeledDataset(np.zeros((12, 4)), np.zeros(12, int), 3)
    state = init_teacher_state(kind, [4, 6, 3], np.random.default_rng(50))
    batches = np.array_split(np.random.default_rng(51).permutation(12), [7])
    out = pair_epoch(state, ds, 0.5, 1e-2, batches)
    for picks, idx in zip(out.epoch_selections, batches):
        want = np.sort(idx)[:math.ceil(0.5 * len(idx))]
        npt.assert_array_equal(picks, [want, want])


def lexsort_select(losses, keep_fraction, keys):
    """Selection oracle: the k smallest losses, ties to the smaller key, as
    ascending keys."""
    k = math.ceil(keep_fraction * len(losses) - 1e-12)
    return np.sort(keys[np.lexsort((keys, losses))[:k]])


def test_coteaching_cross_update_wiring_exact(monkeypatch):
    # every kind, in float32 and float64: recompute the epoch by hand from
    # the public loss functions and demand bitwise-equal parameters,
    # selections, mean selected loss and per-update loss derivatives;
    # catches any own-selection/peer-selection mixup, and any drift of the
    # step's whole-batch loss arrays from ce_batch, symmetric_kl_batch and
    # the make_*_loss_fn reference functions. Also at a one-row last batch
    # (k = 1), at keep_fraction 1, and with peers that agree on every sample
    updates = []

    def recording(params, acts, dprobs, out=None):
        # the pair steps both peers in one call on stacked (2, k, ·) rows:
        # record each peer's derivatives
        updates.extend(dprobs)
        return gradient(params, acts, dprobs, out=out)

    monkeypatch.setattr(training, "gradient", recording)
    cases = [{}, {"cuts": [17, 39]}, {"keep": 1.0}]
    for kind in training.MODULE_KINDS:
        for dtype in (np.float32, np.float64):
            for case in cases + ([{"agree": True}] if kind == "coteachingplus" else []):
                updates.clear()
                assert_pair_epoch_by_hand(kind, dtype, updates, **case)


def assert_pair_epoch_by_hand(kind, dtype, updates, cuts=(17, 30), keep=0.5, agree=False):
    rng = np.random.default_rng(3)
    ds = LabeledDataset(rng.normal(size=(40, 4)), rng.integers(0, 3, 40), 3)
    dims = [4, 6, 3]
    peers = init_teacher_state(kind, dims, np.random.default_rng(4)).params.flat.astype(dtype)
    if agree:
        peers[1] = peers[0]
    state = stacked_pair(kind, *(ModelParams.from_flat(dims, peer) for peer in peers))
    # shuffled batches, so key order is not row order
    batches = np.array_split(rng.permutation(40), cuts)
    lam, lr = 0.85, 1e-2
    # pair_epoch steps state in place: the reference rebuilds each peer from a copy
    p1, p2 = (ModelParams.from_flat(dims, peer.copy()) for peer in peers)
    o1, o2 = adam_init(p1), adam_init(p2)
    out = pair_epoch(state, ds, keep, lr, batches, lambda_weight=lam)

    batch_losses, whole_batch_ranked = [], []
    for b, idx in enumerate(batches):
        x, y = ds.features[idx], ds.labels[idx]
        a1, a2 = activations(p1, x), activations(p2, x)
        q1, q2 = a1[-1], a2[-1]
        r1, r2 = ce_batch(q1, y), ce_batch(q2, y)
        if kind == "jocor":
            kl = symmetric_kl_batch(q1, q2)
            r1 = (1.0 - lam) * r1 + lam * kl
            r2 = (1.0 - lam) * r2 + lam * kl
        active = np.arange(len(idx))
        disagree = q1.argmax(axis=1) != q2.argmax(axis=1)
        if kind == "coteachingplus" and disagree.any():
            active = np.flatnonzero(disagree)
        whole_batch_ranked.append(active.size == len(idx))
        sel1 = lexsort_select(r1[active], keep, idx[active])
        sel2 = lexsort_select(r2[active], keep, idx[active])
        npt.assert_array_equal(out.epoch_selections[b][0], sel1)
        npt.assert_array_equal(out.epoch_selections[b][1], sel2)
        # each update reads its rows of the ranking forward pass, in key order
        row_of = {g: i for i, g in enumerate(idx)}
        rows1, rows2 = (np.array([row_of[g] for g in sel]) for sel in (sel1, sel2))
        upd1, upd2 = (rows1, rows2) if kind == "jocor" else (rows2, rows1)
        if kind == "jocor":
            loss1 = make_joint_loss_fn(q2[upd1], y[upd1], lam)
            loss2 = make_joint_loss_fn(q1[upd2], y[upd2], lam)
        else:
            loss1, loss2 = make_ce_loss_fn(y[upd1]), make_ce_loss_fn(y[upd2])
        (l1, d1), (l2, d2) = loss1(q1[upd1]), loss2(q2[upd2])
        assert [a.tobytes() for a in updates[2 * b:2 * b + 2]] == [d1.tobytes(), d2.tobytes()]
        adam_step(p1, o1, gradient(p1, [a[upd1] for a in a1], d1), lr)
        adam_step(p2, o2, gradient(p2, [a[upd2] for a in a2], d2), lr)
        batch_losses.append(0.5 * (l1.mean() + l2.mean()))
    if kind == "coteachingplus" and not agree and len(idx) > 1:
        assert len(sel1) < keep * len(idx)  # the disagreement gate was exercised
    if agree:  # the peers never disagree: every batch was ranked whole
        assert all(whole_batch_ranked)
    if len(idx) == 1:
        assert len(sel1) == 1  # the one-row last batch
    assert out.mean_selected_loss == float(np.mean(batch_losses))
    assert out.params.flat.dtype == dtype
    assert out.opt.step_count == o1.step_count == o2.step_count
    for p, (params, opt) in enumerate(((p1, o1), (p2, o2))):
        for a, b in ((out.params.flat[p], params.flat), (out.opt.m[p], opt.m),
                     (out.opt.v[p], opt.v)):
            assert a.tobytes() == b.tobytes()


def test_coteaching_kind_check():
    # the kind picks the step, so a kind changed after construction must not
    # silently fall back to some default step
    state = make_state("coteaching")
    state.module_kind = "coteaching-v2"
    with pytest.raises(ValueError, match="coteaching"):
        pair_epoch(state, planted_dataset(), 1.0, 1e-4, [np.arange(8)])


def test_jocor_planted_sample_excluded():
    ds = planted_dataset(n=8, flip_at=3)
    state = make_state("jocor")
    out = pair_epoch(state, ds, 7 / 8, 1e-4, [np.arange(8)], lambda_weight=0.85)
    sel1, sel2 = out.epoch_selections[0]
    assert 3 not in sel1 and 3 not in sel2


def test_jocor_lambda_zero_matches_ce_ranking():
    rng = np.random.default_rng(5)
    ds = LabeledDataset(rng.normal(size=(10, 4)), rng.integers(0, 3, 10), 3)
    state = fresh_pair("jocor", seed=6, dims=(4, 3))
    idx = np.arange(10)
    # the ranking reads the peers before pair_epoch steps them in place
    l1, l2 = (ce_batch(q, ds.labels) for q in forward(state.params, ds.features))
    out = pair_epoch(state, ds, 0.4, 1e-4, [idx], lambda_weight=0.0)
    sel1, sel2 = out.epoch_selections[0]
    npt.assert_array_equal(sel1, idx[small_loss_select(l1, 0.4)])
    npt.assert_array_equal(sel2, idx[small_loss_select(l2, 0.4)])


def test_jocor_identical_nets_stay_identical():
    net = init_params([3, 4, 2], np.random.default_rng(7))
    state = stacked_pair("jocor", net, net)
    rng = np.random.default_rng(8)
    ds = LabeledDataset(rng.normal(size=(16, 3)), rng.integers(0, 2, 16), 2)
    out = pair_epoch(state, ds, 0.75, 1e-3, [np.arange(8), np.arange(8, 16)],
                     lambda_weight=0.85)
    for s1, s2 in out.epoch_selections:
        npt.assert_array_equal(s1, s2)
    npt.assert_array_equal(out.params.flat[0], out.params.flat[1])


def test_coteachingplus_full_agreement_falls_back_to_coteaching():
    ds = planted_dataset(n=8, flip_at=3)
    plus = pair_epoch(make_state("coteachingplus"), ds, 0.5, 1e-3, [np.arange(8)])
    plain = pair_epoch(make_state("coteaching"), ds, 0.5, 1e-3, [np.arange(8)])
    npt.assert_array_equal(plus.epoch_selections[0][0], plain.epoch_selections[0][0])
    npt.assert_array_equal(plus.epoch_selections[0][1], plain.epoch_selections[0][1])
    npt.assert_array_equal(plus.params.flat[0], plain.params.flat[0])


def test_coteachingplus_singleton_disagreement():
    # nets agree on the one-hot samples and disagree only on the ambiguous one
    feats = np.vstack([np.eye(2)[np.arange(6) % 2], [[0.6, 0.4]]])
    labels = np.append(np.arange(6) % 2, 0)
    ds = LabeledDataset(feats, labels, 2)
    state = stacked_pair("coteachingplus", planted_net(), planted_net(bias=[0.0, 4.5]))
    out = pair_epoch(state, ds, 0.9, 1e-4, [np.arange(7)])
    sel1, sel2 = out.epoch_selections[0]
    assert tuple(sel1) == (6,) and tuple(sel2) == (6,)


def test_coteachingplus_disagreement_shrinks_over_training():
    drops = []
    for seed in [0, 1, 2]:
        ds = synthesize(3, 40, dim=5, separation=3.0, seed=seed)
        cfg = TrainConfig(total_epochs=50, decay_start_epoch=40, batch_size=64,
                          hidden_dims=(8,), seed=seed, base_lr=1e-3)
        state = init_teacher_state("coteachingplus", [5, 8, 3],
                                   np.random.default_rng(seed + 100))
        shuffle = np.random.default_rng(seed + 200)
        fractions = []
        for epoch in range(cfg.total_epochs):
            batches = make_batches(len(ds), cfg.batch_size, shuffle)
            state = pair_epoch(state, ds, 1.0, cfg.base_lr, batches)
            predicted = forward(state.params, ds.features).argmax(axis=-1)
            d = (predicted[0] != predicted[1]).mean()
            fractions.append(float(d))
        drops.append(np.mean(fractions[:5]) - np.mean(fractions[-5:]))
    assert np.mean(drops) > 0


def test_empty_batch_skipped_with_warning():
    ds = planted_dataset()
    with pytest.warns(UserWarning, match="empty batch"):
        out = pair_epoch(make_state("coteaching"), ds, 1.0, 1e-4,
                         [np.array([], dtype=int), np.arange(8)])
    assert len(out.epoch_selections) == 1


def small_cfg(**kw):
    defaults = dict(total_epochs=5, decay_start_epoch=4, batch_size=16,
                    hidden_dims=(8,), seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_train_teachers_zero_noise_full_coverage():
    ds = synthesize(3, 20, dim=4, separation=3.0, seed=11)
    result = train_teachers(small_cfg(noise_rate_tau=0.0), ds)
    assert result.final_selection.indices.tolist() == list(range(len(ds)))
    for m in result.metrics:
        assert m.remember_rate == 1.0


def test_train_teachers_consensus_subset_of_components():
    ds = synthesize(3, 20, dim=4, separation=2.0, seed=12)
    cfg = small_cfg(noise_rate_tau=0.4, seed=3)
    result = train_teachers(cfg, ds)
    assert [state.module_kind for state in result.states] == ["jocor", "coteaching"]
    f_sels, g_sels = (state.epoch_selections for state in result.states)
    last_clean = set(np.flatnonzero(result.epoch_clean_masks[-1]).tolist())
    per_batch_union = set()
    for (p1, p2), (q1, q2) in zip(f_sels, g_sels):
        i_con = set(p1.tolist()) & set(p2.tolist()) & set(q1.tolist()) & set(q2.tolist())
        per_batch_union |= i_con
    assert last_clean == per_batch_union


def test_train_teachers_metrics_populated():
    ds = synthesize(3, 20, dim=4, separation=2.0, seed=13)
    mask = inject_noise(ds.labels, build_noise_matrix("symmetric", 0.3, 3), seed=14)
    noisy = LabeledDataset(ds.features, mask.noisy_labels, 3)
    test = synthesize(3, 10, dim=4, separation=2.0, seed=15)
    cfg = small_cfg(noise_rate_tau=0.3)
    result = train_teachers(cfg, noisy, test_set=test, noise_mask=mask)
    assert len(result.metrics) == cfg.total_epochs
    for epoch, m in enumerate(result.metrics):
        assert m.epoch == epoch
        assert 0.0 <= m.test_accuracy <= 1.0
        assert 0.0 <= m.noisy_label_precision <= 1.0
        assert m.remember_rate == pytest.approx(1.0 - min(epoch * 0.3 / 10, 0.3))
        assert m.lr == cfg.base_lr or epoch >= cfg.decay_start_epoch
        assert m.mean_selected_loss >= 0.0


def test_train_teachers_deterministic():
    ds = synthesize(3, 15, dim=4, separation=2.0, seed=16)
    cfg = small_cfg(noise_rate_tau=0.2, seed=5)
    a = train_teachers(cfg, ds)
    b = train_teachers(cfg, ds)
    assert a.final_selection == b.final_selection
    for sa, sb in zip(a.states, b.states):
        npt.assert_array_equal(sa.params.flat, sb.params.flat)


def test_train_teachers_empty_consensus_raises(monkeypatch):
    ds = planted_dataset()

    def degenerate_epoch(state, *args, **kwargs):
        evens = np.array([0, 2, 4, 6])
        odds = np.array([1, 3, 5, 7])
        picks = evens if state.module_kind == "jocor" else odds
        return TeacherState(state.module_kind, state.params, state.opt,
                            [np.stack([picks, picks])], 0.0)

    monkeypatch.setattr(training, "pair_epoch", degenerate_epoch)
    with pytest.raises(RuntimeError, match="noise rate"):
        train_teachers(small_cfg(), ds)


def test_train_teachers_empty_train_raises():
    empty = LabeledDataset(np.empty((0, 3)), np.empty(0, int), 2)
    with pytest.raises(ValueError, match="empty"):
        train_teachers(small_cfg(), empty)


def test_train_teachers_per_batch_consensus_equals_per_epoch():
    # the batches partition the samples and each selection lies inside its
    # batch, so the union over batches of (A_b & B_b) is (U A_b) & (U B_b)
    ds = synthesize(3, 20, dim=4, separation=2.0, seed=17)
    result = train_teachers(small_cfg(noise_rate_tau=0.4), ds)
    f_sels, g_sels = (state.epoch_selections for state in result.states)
    i_p = set().union(*[(set(p1.tolist()) & set(p2.tolist())) for p1, p2 in f_sels])
    i_q = set().union(*[(set(q1.tolist()) & set(q2.tolist())) for q1, q2 in g_sels])
    assert set(np.flatnonzero(result.epoch_clean_masks[-1]).tolist()) == (i_p & i_q)


@pytest.fixture
def fake_blas(monkeypatch):
    """Stands in for the bundled OpenBLAS: a thread count of 2, and a list
    of every count set."""
    count, sets = [2], []

    def set_(threads):
        sets.append(threads)
        count[0] = threads

    monkeypatch.setattr(jobs, "_openblas_threads", lambda: (lambda: count[0], set_))
    return sets


def record_pair_calls(monkeypatch, log, before=None):
    """Wraps pair_epoch so that every call, in this process or in a forked
    child, appends its module_kind, process id, OpenBLAS thread count (0
    without one) and whether SIGINT is ignored to the file ``log``, then
    calls ``before(state)`` if given. Returns a reader of those records."""

    def recording(state, *args, **kwargs):
        blas = jobs._openblas_threads()
        ignored = signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        with open(log, "a") as f:
            f.write(f"{state.module_kind} {os.getpid()} {blas[0]() if blas else 0} "
                    f"{int(ignored)}\n")
        if before is not None:
            before(state)
        return pair_epoch(state, *args, **kwargs)

    monkeypatch.setattr(training, "pair_epoch", recording)

    def calls():
        text = log.read_text() if log.exists() else ""
        return [(kind, int(pid), int(blas), ignored == "1")
                for kind, pid, blas, ignored in map(str.split, text.splitlines())]

    return calls


def pids_by_kind(calls):
    return {kind: {pid for k, pid, *_ in calls if k == kind} for kind, *_ in calls}


needs_fork = pytest.mark.skipif(jobs._default_start_method() != "fork",
                                reason="the teachers fork only where fork is the default")


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, whatever the machine has, so the teachers fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def noisy_teacher_task(seed=30):
    ds = synthesize(3, 20, dim=4, separation=2.0, seed=seed)
    mask = inject_noise(ds.labels, build_noise_matrix("symmetric", 0.4, 3), seed=seed + 1)
    noisy = LabeledDataset(ds.features, mask.noisy_labels, 3)
    return noisy, synthesize(3, 10, dim=4, separation=2.0, seed=seed + 2), mask


def assert_two_children_stepped(calls, callers=1):
    """Each of ``callers`` train_teachers calls stepped its two pairs in two
    child processes of its own, none of them this one."""
    pids = pids_by_kind(calls)
    assert len(pids["jocor"]) == len(pids["coteaching"]) == callers
    assert len(pids["jocor"] | pids["coteaching"]) == 2 * callers
    assert os.getpid() not in pids["jocor"] | pids["coteaching"]


@needs_fork
def test_train_teachers_concurrent_equals_inline(monkeypatch, fake_blas, two_cpus, tmp_path):
    noisy, test, mask = noisy_teacher_task()
    cfg = small_cfg(noise_rate_tau=0.4, hidden_dims=(16, 8), seed=2)
    calls = record_pair_calls(monkeypatch, tmp_path / "calls")
    concurrent = train_teachers(cfg, noisy, test_set=test, noise_mask=mask)
    # each pair steps in its own forked child, on one BLAS thread the child
    # set itself, ignoring SIGINT so a Ctrl-C reaches the caller alone
    assert_two_children_stepped(calls())
    assert {(kind, blas, ignored) for kind, _, blas, ignored in calls()} == {
        ("jocor", 1, True), ("coteaching", 1, True)}
    assert fake_blas == []  # the caller's count is never set
    # with no OpenBLAS count to pin, both pairs step in this process
    monkeypatch.setattr(jobs, "_openblas_threads", lambda: None)
    inline = train_teachers(cfg, noisy, test_set=test, noise_mask=mask)
    assert pids_by_kind(calls()[10:]) == {"jocor": {os.getpid()}, "coteaching": {os.getpid()}}

    npt.assert_array_equal(concurrent.final_selection.indices, inline.final_selection.indices)
    assert concurrent.metrics == inline.metrics
    assert len(concurrent.epoch_clean_masks) == len(inline.epoch_clean_masks) == 5
    for a, b in zip(concurrent.epoch_clean_masks, inline.epoch_clean_masks):
        npt.assert_array_equal(a, b)
    for sa, sb in zip(concurrent.states, inline.states):
        assert sa.mean_selected_loss == sb.mean_selected_loss
        for pa, pb in zip(sa.epoch_selections, sb.epoch_selections):
            npt.assert_array_equal(pa, pb)
        npt.assert_array_equal(sa.params.flat, sb.params.flat)
        npt.assert_array_equal(sa.opt.m, sb.opt.m)
        npt.assert_array_equal(sa.opt.v, sb.opt.v)
        assert sa.opt.step_count == sb.opt.step_count


needs_openblas = pytest.mark.skipif(jobs._openblas_threads() is None,
                                    reason="no OpenBLAS bundled with numpy found")


@pytest.fixture
def blas_at_two_threads():
    """The OpenBLAS (get, set) pair, the count set to 2 (as the library
    reports it back) for the test and the caller's count put back after."""
    get, set_ = jobs._openblas_threads()
    before = get()
    set_(2)
    try:
        yield get, get()
    finally:
        set_(before)


@needs_fork
@needs_openblas
def test_train_teachers_steps_on_one_blas_thread_in_each_child(monkeypatch, blas_at_two_threads,
                                                               two_cpus, tmp_path):
    get, caller_count = blas_at_two_threads
    calls = record_pair_calls(monkeypatch, tmp_path / "calls")
    noisy, _, _ = noisy_teacher_task()
    train_teachers(small_cfg(noise_rate_tau=0.4), noisy)
    # two children, five epochs each, every one on one BLAS thread
    assert sorted((kind, blas) for kind, _, blas, _ in calls()) == (
        [("coteaching", 1)] * 5 + [("jocor", 1)] * 5)
    assert_two_children_stepped(calls())
    assert get() == caller_count


@needs_fork
@needs_openblas
def test_worker_error_reaches_caller_and_blas_count_restored(monkeypatch, blas_at_two_threads,
                                                             two_cpus):
    get, caller_count = blas_at_two_threads

    def failing(state, *args, **kwargs):
        if state.module_kind == "coteaching":
            raise ValueError("cross-update pair failed")
        return pair_epoch(state, *args, **kwargs)

    monkeypatch.setattr(training, "pair_epoch", failing)
    noisy, _, _ = noisy_teacher_task()
    with pytest.raises(ValueError) as info:
        train_teachers(small_cfg(noise_rate_tau=0.4), noisy)
    # the child's exception crossed a process boundary: same type and message
    assert type(info.value) is ValueError
    assert str(info.value) == "cross-update pair failed"
    assert "failing" in str(info.value.__cause__)  # the child's traceback
    assert get() == caller_count


def test_no_worker_when_no_blas_count_can_be_pinned(monkeypatch, two_cpus, tmp_path):
    # two pairs on unpinned BLAS each ask for every core and run slower
    # than one after the other, so no child is forked
    def no_fork(*args):
        raise AssertionError("no child expected")

    monkeypatch.setattr(jobs, "_openblas_threads", lambda: None)
    monkeypatch.setattr(jobs, "_forked", no_fork)
    calls = record_pair_calls(monkeypatch, tmp_path / "calls")
    noisy, _, _ = noisy_teacher_task()
    train_teachers(small_cfg(noise_rate_tau=0.4), noisy)
    assert pids_by_kind(calls()) == {"jocor": {os.getpid()}, "coteaching": {os.getpid()}}


@needs_fork
@pytest.mark.parametrize("error", [RuntimeError("the caller failed"), KeyboardInterrupt()])
def test_an_error_in_the_parent_terminates_the_child(monkeypatch, two_cpus, tmp_path, error):
    def before(state):
        if state.module_kind == "jocor":
            # once both children step, make the caller raise while it waits
            deadline = time.monotonic() + 60
            while not any(kind == "coteaching" for kind, *_ in calls()):
                assert time.monotonic() < deadline, "the second child never started"
                time.sleep(0.01)
            os.kill(os.getppid(), signal.SIGUSR1)
        time.sleep(120)  # unless terminated, the children outlive the bound below
        os._exit(1)

    def raise_error(signum, frame):
        raise error

    calls = record_pair_calls(monkeypatch, tmp_path / "calls", before)
    noisy, _, _ = noisy_teacher_task()
    previous = signal.signal(signal.SIGUSR1, raise_error)
    start = time.monotonic()
    try:
        with pytest.raises(type(error)):
            train_teachers(small_cfg(noise_rate_tau=0.4), noisy)
    finally:
        signal.signal(signal.SIGUSR1, previous)
    assert time.monotonic() - start < 60
    assert multiprocessing.active_children() == []
    assert_two_children_stepped(calls())
    for _, child, _, _ in calls():
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)  # terminated and reaped


@needs_fork
def test_a_failed_second_fork_stops_the_first_child(monkeypatch, two_cpus, tmp_path):
    real, forked = jobs._forked, []

    def fork_once(name, fn, *args):
        if forked:
            raise OSError("fork failed")
        forked.append(real(name, fn, *args))
        return forked[0]

    def before(state):
        time.sleep(120)  # unless terminated, the child outlives the bound below
        os._exit(1)

    record_pair_calls(monkeypatch, tmp_path / "calls", before)
    monkeypatch.setattr(jobs, "_forked", fork_once)
    noisy, _, _ = noisy_teacher_task()
    start = time.monotonic()
    with pytest.raises(OSError, match="fork failed"):
        train_teachers(small_cfg(noise_rate_tau=0.4), noisy)
    assert time.monotonic() - start < 60
    assert len(forked) == 1 and multiprocessing.active_children() == []


@needs_fork
def test_a_child_that_dies_raises_naming_its_exit_code(monkeypatch, two_cpus):
    def dying(state, *args, **kwargs):
        if state.module_kind == "coteaching":
            os._exit(3)
        return pair_epoch(state, *args, **kwargs)

    monkeypatch.setattr(training, "pair_epoch", dying)
    noisy, _, _ = noisy_teacher_task()
    with pytest.raises(RuntimeError, match="exited with code 3 before sending its result"):
        train_teachers(small_cfg(noise_rate_tau=0.4), noisy)


@needs_fork
def test_a_daemon_process_forks_no_child(monkeypatch, fake_blas, two_cpus):
    # multiprocessing lets a daemon start no process, and pool workers are daemons
    assert jobs._fork_workers(2) == 2
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(jobs._fork_workers, (2,)) == 1
        noisy, _, _ = noisy_teacher_task()
        result = pool.apply(train_teachers, (small_cfg(noise_rate_tau=0.4), noisy))
    assert len(result.metrics) == 5


def test_a_one_pair_method_leaves_blas_and_threads_alone(monkeypatch, fake_blas, two_cpus,
                                                        tmp_path):
    calls = record_pair_calls(monkeypatch, tmp_path / "calls")
    noisy, _, _ = noisy_teacher_task()
    train_teachers(small_cfg(noise_rate_tau=0.4), noisy, "coteaching")
    assert pids_by_kind(calls()) == {"coteaching": {os.getpid()}}
    assert fake_blas == []


@needs_fork
def test_overlapping_callers_each_fork_their_own_pairs(monkeypatch, fake_blas, two_cpus,
                                                       tmp_path):
    # two threads train at once; no setting of the caller's process is shared
    get = jobs._openblas_threads()[0]
    started = tmp_path / "started"
    started.mkdir()

    def before(state):
        # the first jocor epoch of each caller waits until both callers step
        marker = started / str(os.getpid())
        if state.module_kind == "jocor" and not marker.exists():
            marker.touch()
            deadline = time.monotonic() + 60
            while len(list(started.iterdir())) < 2:
                assert time.monotonic() < deadline, "the callers never overlapped"
                time.sleep(0.01)

    calls = record_pair_calls(monkeypatch, tmp_path / "calls", before)
    noisy, _, _ = noisy_teacher_task()
    errors = []

    def train(epochs):
        try:
            train_teachers(small_cfg(noise_rate_tau=0.4, total_epochs=epochs,
                                     decay_start_epoch=1), noisy)
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    callers = [threading.Thread(target=train, args=(epochs,)) for epochs in (2, 8)]
    for t in callers:
        t.start()
    for t in callers:
        t.join(timeout=120)
        assert not t.is_alive()
    assert errors == []
    # each caller forked two children; every call in every child saw one thread
    assert len(calls()) == 2 * (2 + 8) and {blas for _, _, blas, _ in calls()} == {1}
    assert_two_children_stepped(calls(), callers=2)
    assert fake_blas == []
    assert get() == 2


_TEACHER_DIGEST = """
import hashlib
import jocot.training as training
from jocot.data import LabeledDataset, synthesize
from jocot.network import TrainConfig
from jocot.noise import build_noise_matrix, inject_noise

ds = synthesize(12, 30, dim=51, separation=3.0, seed=40)
mask = inject_noise(ds.labels, build_noise_matrix("symmetric", 0.4, 12), seed=41)
noisy = LabeledDataset(ds.features, mask.noisy_labels, 12)
cfg = TrainConfig(total_epochs=3, decay_start_epoch=2, batch_size=64, seed=4,
                  noise_rate_tau=0.4)
result = training.train_teachers(cfg, noisy, test_set=ds, noise_mask=mask)
digest = hashlib.sha256(repr(result.metrics).encode())
for mask_ in result.epoch_clean_masks:
    digest.update(mask_.tobytes())
for state in result.states:
    for p in range(2):
        for array in (state.params.flat[p], state.opt.m[p], state.opt.v[p]):
            digest.update(array.tobytes())
print(digest.hexdigest())
"""


def test_teacher_outputs_ignore_the_blas_thread_count():
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _TEACHER_DIGEST], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_train_teachers_runs_each_baseline_pair():
    ds = synthesize(3, 20, dim=4, separation=2.0, seed=18)
    mask = inject_noise(ds.labels, build_noise_matrix("pairflip", 0.2, 3), seed=19)
    noisy = LabeledDataset(ds.features, mask.noisy_labels, 3)
    for kind in ["coteaching", "jocor", "coteachingplus"]:
        result = train_teachers(small_cfg(noise_rate_tau=0.2), noisy, kind,
                                noise_mask=mask)
        assert len(result.metrics) == 5
        assert len(result.final_selection) >= 1
        assert [state.module_kind for state in result.states] == [kind]


@pytest.mark.parametrize("method", ["ce_baseline", "bagging"])
def test_train_teachers_rejects_a_method_without_pairs(method):
    ds = planted_dataset()
    with pytest.raises(ValueError, match=f"method '{method}'"):
        train_teachers(small_cfg(), ds, method)


def test_a_baseline_pair_may_claim_no_sample_clean(monkeypatch):
    # only a student needs a clean set: a baseline pair whose peers agree on
    # no sample reports an empty one
    def disjoint_epoch(state, *args, **kwargs):
        picks = np.stack([np.arange(0, 8, 2), np.arange(1, 8, 2)])
        return TeacherState(state.module_kind, state.params, state.opt, [picks], 0.0)

    monkeypatch.setattr(training, "pair_epoch", disjoint_epoch)
    result = train_teachers(small_cfg(), planted_dataset(), "coteaching")
    assert len(result.final_selection) == 0


def test_one_forward_pass_per_network_per_batch(monkeypatch):
    # ranking, the logged batch loss and backprop all read one forward pass;
    # a pair's two peers take theirs in one call on the stacked (2, P) network
    calls = []

    def counting(params, features):
        calls.append((params.flat.shape[:-1], len(features)))
        return activations(params, features)

    monkeypatch.setattr(training, "activations", counting)
    ds = synthesize(3, 20, dim=4, separation=2.0, seed=18)
    batches = [np.arange(0, 25), np.array([], dtype=int), np.arange(25, 60)]
    for kind in training.MODULE_KINDS:
        calls.clear()
        state = init_teacher_state(kind, [4, 8, 3], np.random.default_rng(5))
        with pytest.warns(UserWarning, match="empty batch"):
            pair_epoch(state, ds, 0.7, 1e-3, batches)
        assert calls == [((2,), 25), ((2,), 35)]
    calls.clear()
    train_student(ds, ds, small_cfg(total_epochs=2, decay_start_epoch=1))
    assert calls == [((), 16), ((), 16), ((), 16), ((), 12)] * 2


def test_train_student_best_checkpoint_rule():
    train = synthesize(3, 30, dim=4, separation=2.5, seed=20)
    val = synthesize(3, 10, dim=4, separation=2.5, seed=21)
    cfg = small_cfg(total_epochs=8, decay_start_epoch=6)
    result = train_student(train, val, cfg)
    vals = [m.val_accuracy for m in result.metrics]
    assert result.best_val_accuracy == max(vals)
    assert result.best_epoch == vals.index(max(vals))  # earliest tie wins


def test_train_student_degenerate_one_per_class():
    rng = np.random.default_rng(22)
    train = LabeledDataset(rng.normal(size=(12, 5)), np.arange(12), 12)
    val = LabeledDataset(rng.normal(size=(12, 5)), np.arange(12), 12)
    result = train_student(train, val, small_cfg(total_epochs=3, decay_start_epoch=2))
    assert len(result.metrics) == 3


def test_train_student_pipeline_identity():
    train = synthesize(3, 20, dim=4, separation=2.0, seed=23)
    val = synthesize(3, 8, dim=4, separation=2.0, seed=24)
    cfg = small_cfg()
    a = train_student(train, val, cfg)
    b = train_student(train, val, cfg)
    for x, y in zip(a.params.weights + a.params.biases,
                    b.params.weights + b.params.biases):
        npt.assert_array_equal(x, y)
    assert [m.val_accuracy for m in a.metrics] == [m.val_accuracy for m in b.metrics]


def test_train_student_empty_inputs():
    empty = LabeledDataset(np.empty((0, 3)), np.empty(0, int), 2)
    good = planted_dataset()
    with pytest.raises(ValueError, match="clean_train"):
        train_student(empty, good, small_cfg())
    with pytest.raises(ValueError, match="clean_val"):
        train_student(good, empty, small_cfg())


def test_epoch_metrics_bounds():
    with pytest.raises(ValueError, match="test_accuracy"):
        EpochMetrics(epoch=0, test_accuracy=1.5)
    with pytest.raises(ValueError, match="precision"):
        EpochMetrics(epoch=0, noisy_label_precision=-0.1)


def test_teacher_state_validation():
    # a pair is one (2, P) network, with Adam moments of its shape
    rng = np.random.default_rng(27)
    peers = np.stack([init_params([3, 2], rng).flat for _ in range(3)])
    pair = ModelParams.from_flat([3, 2], peers[:2])
    TeacherState("coteaching", pair, adam_init(pair))
    for params in (ModelParams.from_flat([3, 2], peers[0]), ModelParams.from_flat([3, 2], peers)):
        with pytest.raises(ValueError, match=r"\(2, P\)"):
            TeacherState("coteaching", params, adam_init(params))  # one network, three
        with pytest.raises(ValueError, match=r"\(2, P\)"):
            TeacherState("coteaching", pair, adam_init(params))  # moments of another shape
    zeros = np.zeros_like(pair.flat)
    for m, v in ((zeros, zeros[0]), (zeros[:, :-1], zeros)):
        with pytest.raises(ValueError, match=r"\(2, P\)"):
            TeacherState("coteaching", pair, OptimizerState(m, v))
    with pytest.raises(ValueError, match="module_kind"):
        TeacherState("boosting", pair, adam_init(pair))


def record_dtypes(monkeypatch):
    """Wraps activations, gradient, adam_step and small_loss_select as
    training calls them; returns the set of dtypes of every array they read
    or write."""
    seen = set()

    def recording_activations(params, features):
        acts = activations(params, features)
        seen.update(a.dtype for a in [params.flat, *acts])
        return acts

    def recording_gradient(params, acts, dprobs, out=None):
        grads = gradient(params, acts, dprobs, out=out)
        seen.update(a.dtype for a in (params.flat, grads.flat, dprobs))
        return grads

    def recording_adam_step(params, state, grads, lr, scratch=None):
        adam_step(params, state, grads, lr, scratch)
        seen.update(a.dtype for a in (params.flat, state.m, state.v, grads.flat, scratch))

    def recording_select(losses, keep_fraction):
        seen.add(losses.dtype)
        return small_loss_select(losses, keep_fraction)

    monkeypatch.setattr(training, "activations", recording_activations)
    monkeypatch.setattr(training, "gradient", recording_gradient)
    monkeypatch.setattr(training, "adam_step", recording_adam_step)
    monkeypatch.setattr(training, "small_loss_select", recording_select)
    return seen


@pytest.mark.parametrize("kind", training.MODULE_KINDS)
def test_a_float32_pair_steps_in_float32(monkeypatch, kind):
    seen = record_dtypes(monkeypatch)
    noisy, _, _ = noisy_teacher_task()
    state = init_teacher_state(kind, [4, 8, 3], np.random.default_rng(31))
    pair_epoch(state, noisy, 0.7, 1e-3, make_batches(len(noisy), 16, np.random.default_rng(32)))
    assert seen == {np.dtype(np.float32)}
    assert {state.params.flat.dtype, state.opt.m.dtype, state.opt.v.dtype} == {np.dtype(np.float32)}


def test_training_builds_float32_networks(monkeypatch):
    seen = record_dtypes(monkeypatch)
    noisy, test, mask = noisy_teacher_task()
    # numpy float64 config scalars must not lift the steps to float64
    cfg = small_cfg(noise_rate_tau=0.4, base_lr=np.float64(1e-3), lambda_weight=np.float64(0.85))
    teachers = train_teachers(cfg, noisy, test_set=test, noise_mask=mask)
    student = train_student(noisy, test, cfg, test_set=test)
    assert seen == {np.dtype(np.float32)}
    states = teachers.states
    assert {a.dtype for s in states for a in (s.params.flat, s.opt.m, s.opt.v)} \
        == {np.dtype(np.float32)}
    assert student.params.flat.dtype == np.float32
    assert noisy.features.dtype == np.float64


def float64_logit_accuracy(params, dataset):
    """The benchmark's student-accuracy rule: argmax of float64 logits,
    computed from the network's weights as they are."""
    a = dataset.features
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ w + b
        if i < len(params.weights) - 1:
            a = np.maximum(a, 0.0)
    return float((a.argmax(axis=1) == dataset.labels).mean())


@pytest.mark.parametrize("seed", [40, 41, 42])
def test_evaluate_a_float32_network_by_its_float64_logits(seed):
    rng = np.random.default_rng(seed)
    params = init_params([6, 16, 5], rng, np.float32)
    ds = LabeledDataset(rng.normal(size=(2000, 6)), rng.integers(0, 5, 2000), 5)
    assert evaluate(params, ds) == float64_logit_accuracy(params, ds)
    assert params.flat.dtype == np.float32


def test_evaluate_splits_classes_whose_float32_logits_tie():
    # class 1's bias is one float32 step above class 0's and their weights are
    # equal, so class 1 is ahead by 2**-23 in exact arithmetic; in float32 the
    # two logits round to one value on most rows, and the tie goes to class 0
    rng = np.random.default_rng(43)
    params = init_params([6, 16, 3], rng, np.float32)
    params.weights[-1][:, 1] = params.weights[-1][:, 0]
    params.biases[-1][:] = [1.0, 1.0 + 2.0 ** -23, -100.0]
    ds = LabeledDataset(rng.normal(size=(500, 6)), np.ones(500, dtype=int), 3)
    acts = activations(params, ds.features)
    logits = acts[-2] @ params.weights[-1] + params.biases[-1]
    assert logits.dtype == np.float32 and (logits[:, 0] == logits[:, 1]).sum() > 100
    assert evaluate(params, ds) == float64_logit_accuracy(params, ds) == 1.0
