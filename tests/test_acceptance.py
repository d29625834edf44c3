"""Numbered acceptance checks for the whole package.

One test per requirement, each printing a single PASS/FAIL line with the
measured margins and elapsed time, so ``pytest tests/test_acceptance.py -s``
yields a ten-line scorecard. Checks 7-10 train real networks on a shared
benchmark grid; cells are cached at module scope so overlapping checks do
not retrain.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from jocot.data import LabeledDataset, SplitSpec, split, synthesize
from jocot.experiment import (
    ExperimentConfig,
    SyntheticSpec,
    emit_metrics,
    run_experiment,
)
from jocot.losses import make_ce_loss_fn, make_joint_loss_fn
from jocot.network import TrainConfig, activations, gradient, init_params
from jocot.noise import build_noise_matrix, inject_noise
from jocot.selection import consensus, remember_rate, small_loss_select
from jocot.training import train_student, train_teachers

from _oracles import fd_gradient, max_guarded_rel_error

# Benchmark grid shared by checks 7-10: a 12-class synthetic skeleton-feature
# task sized so one noisy-label cell trains in well under a minute. The
# separation is tuned so the clean-data baseline clears 95% test accuracy.
BENCH = ExperimentConfig(
    method="jocot",
    noise_kind="symmetric",
    rates=(0.4,),
    seeds=(0, 1, 2),
    synthetic=SyntheticSpec(num_classes=12, per_class=600, dim=51,
                            separation=4.5, seed=0),
    train_overrides={"base_lr": 3e-4, "batch_size": 64,
                     "hidden_dims": (256, 128),
                     "total_epochs": 60, "decay_start_epoch": 16},
)
SEEDS = (0, 1, 2)

_splits_cache = None
_cell_cache = {}


def _splits():
    global _splits_cache
    if _splits_cache is None:
        s = BENCH.synthetic
        dataset = synthesize(s.num_classes, s.per_class, s.dim, s.separation, s.seed)
        _splits_cache = split(dataset, SplitSpec(seed=BENCH.split_seed))
    return _splits_cache


def _cell(method, rate, seed):
    key = (method, rate, seed)
    if key not in _cell_cache:
        # a one-cell grid trains in this process, so each check times its own cells
        result = run_experiment(replace(BENCH, method=method, rates=(rate,),
                                        seeds=(seed,))).cells[0]
        assert result.succeeded, f"cell {result.cell_id} failed: {result.error}"
        _cell_cache[key] = result
    return _cell_cache[key]


def _report(num, name, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    line = (f"ACCEPTANCE {num:02d} {verdict} {name}: {detail} "
            f"[{elapsed:.1f}s / {budget:.0f}s budget]")
    print(line, flush=True)
    assert ok, line
    assert elapsed < budget, f"check {num} took {elapsed:.1f}s, budget {budget:.0f}s"


def test_01_gradient_oracle():
    """Analytic gradients match central finite differences on 21 random
    configurations spanning supervised, contrastive, and joint losses."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    dim_menu = [(4, 3), (5, 8, 4), (6, 5, 7, 3), (3, 4), (5, 4, 3), (7, 6), (4, 8, 3)]
    worst = 0.0
    configs = 0
    for kind_idx, kind in enumerate(("ce", "contrastive", "joint")):
        for rep in range(7):
            dims = list(dim_menu[(kind_idx * 7 + rep) % len(dim_menu)])
            n = int(rng.integers(3, 9))
            num_classes = dims[-1]
            params = init_params(dims, rng)
            features = rng.standard_normal((n, dims[0]))
            labels = rng.integers(0, num_classes, size=n)
            if kind == "ce":
                loss_fn = make_ce_loss_fn(labels)
            else:
                other = rng.dirichlet(np.full(num_classes, 1.5), size=n)
                lam = 1.0 if kind == "contrastive" else float(rng.uniform(0.3, 0.9))
                loss_fn = make_joint_loss_fn(other, labels, lam)
            acts = activations(params, features)
            analytic = gradient(params, acts, loss_fn(acts[-1])[1])
            fd_w, fd_b = fd_gradient(
                params, features, lambda probs: float(np.mean(loss_fn(probs)[0])))
            worst = max(worst,
                        max_guarded_rel_error(analytic.weights, fd_w),
                        max_guarded_rel_error(analytic.biases, fd_b))
            configs += 1
    _report(1, "gradient-oracle",
            configs >= 20 and worst < 1e-5,
            f"max rel err {worst:.2e} over {configs} configs (need < 1e-05)",
            time.time() - t0, 60)


def test_02_noise_matrix_suite():
    """Row-stochastic matrices, exact cyclic pairflip structure, and
    realized flip fractions within 1.5 points of the nominal rate."""
    t0 = time.time()
    worst_row = 0.0
    for kind in ("pairflip", "symmetric"):
        for m in (2, 3, 12):
            for rate in (0.1, 0.2, 0.4, 0.45, 0.8):
                matrix = build_noise_matrix(kind, rate, m)
                worst_row = max(worst_row,
                                float(np.abs(matrix.rows.sum(axis=1) - 1.0).max()))
    structure_ok = True
    for m in (2, 3, 12):
        for rate in (0.2, 0.3):
            expected = np.eye(m) * (1.0 - rate) + np.roll(np.eye(m), 1, axis=1) * rate
            got = build_noise_matrix("pairflip", rate, m).rows
            structure_ok = structure_ok and np.array_equal(got, expected)
    labels = np.repeat(np.arange(12), 960)
    assert labels.shape[0] == 11_520
    worst_frac = 0.0
    for kind in ("pairflip", "symmetric"):
        for rate in (0.2, 0.4, 0.8):
            mask = inject_noise(labels, build_noise_matrix(kind, rate, 12),
                                seed=5000 + int(rate * 10))
            worst_frac = max(worst_frac, abs(mask.flipped_fraction - rate))
    _report(2, "noise-matrix-suite",
            worst_row <= 1e-12 and structure_ok and worst_frac <= 0.015,
            f"max row-sum err {worst_row:.1e}, pairflip exact for M in (2,3,12), "
            f"max flip-fraction err {worst_frac:.4f} at N=11520",
            time.time() - t0, 10)


def test_03_remember_rate_exact():
    """Kept-fraction schedule is bit-exact against the closed form,
    monotone non-increasing, and clamps at 1 - tau."""
    t0 = time.time()
    ok = True
    checked = 0
    for tau in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
        previous = None
        for epoch in range(21):
            value = remember_rate(epoch, 10, tau)
            expected = 1.0 - min(epoch * tau / 10, tau)
            ok = ok and value == expected
            if previous is not None:
                ok = ok and value <= previous
            if epoch >= 10:
                ok = ok and value == 1.0 - tau
            previous = value
            checked += 1
    _report(3, "remember-rate-exact",
            ok, f"{checked} grid points bit-exact, monotone, clamped",
            time.time() - t0, 1)


def test_04_selection_oracle():
    """Small-loss selection equals exhaustive minimum-sum subset
    enumeration (with index tie-break) on 200 random loss vectors."""
    t0 = time.time()
    rng = np.random.default_rng(11)
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(1, 11))
        if trial % 2 == 0:
            losses = rng.choice([0.1, 0.2, 0.3], size=n)
        else:
            losses = rng.standard_normal(n) ** 2
        keep = float(rng.uniform(0.05, 1.0))
        selected = tuple(small_loss_select(losses, keep))
        k = max(1, math.ceil(keep * n - 1e-12))
        best = min((math.fsum(losses[i] for i in combo), combo)
                   for combo in itertools.combinations(range(n), k))
        if selected != best[1]:
            mismatches += 1
    _report(4, "selection-oracle",
            mismatches == 0,
            f"200 random vectors (n <= 10), {mismatches} mismatches vs enumeration",
            time.time() - t0, 10)


def test_05_consensus_laws():
    """Consensus is contained in all four component selections on every
    batch of live runs, and composition equals a direct 4-way intersection
    on 1,000 random set quadruples."""
    t0 = time.time()
    dataset = synthesize(6, 60, dim=12, separation=6.0, seed=3)
    mask = inject_noise(dataset.labels, build_noise_matrix("symmetric", 0.3, 6), 42)
    noisy = LabeledDataset(dataset.features, mask.noisy_labels, 6)
    subset_ok = True
    compose_ok = True
    batches_checked = 0
    for total in range(2, 7):
        cfg = TrainConfig(base_lr=1e-3, batch_size=32, total_epochs=total,
                          decay_start_epoch=total - 1, hidden_dims=(16,),
                          noise_rate_tau=0.3, seed=9)
        teachers = train_teachers(cfg, noisy)
        f_pairs = teachers.states[0].epoch_selections
        g_pairs = teachers.states[1].epoch_selections
        assert len(f_pairs) == len(g_pairs) > 0
        for (p1, p2), (q1, q2) in zip(f_pairs, g_pairs):
            composed = set(consensus((p1, p2), (q1, q2)).tolist())
            direct = set(p1.tolist()) & set(p2.tolist()) & set(q1.tolist()) & set(q2.tolist())
            compose_ok = compose_ok and composed == direct
            for component in (p1, p2, q1, q2):
                subset_ok = subset_ok and composed <= set(component.tolist())
            batches_checked += 1
    rng = np.random.default_rng(23)
    for _ in range(1000):
        quad = []
        for _ in range(4):
            size = int(rng.integers(5, 26))
            quad.append(rng.choice(40, size=size, replace=False))
        composed = set(consensus((quad[0], quad[1]), (quad[2], quad[3])).tolist())
        direct = (set(quad[0].tolist()) & set(quad[1].tolist())
                  & set(quad[2].tolist()) & set(quad[3].tolist()))
        compose_ok = compose_ok and composed == direct
    _report(5, "consensus-laws",
            subset_ok and compose_ok,
            f"subset law on {batches_checked} live batches (runs of 2-6 epochs), "
            f"composition law on 1000 random quadruples",
            time.time() - t0, 30)


def test_06_bitwise_determinism(tmp_path):
    """Two identically seeded 20-epoch pipeline runs produce byte-identical
    metric files and bitwise-identical student parameters."""
    t0 = time.time()
    det = replace(BENCH, seeds=(0,),
                  train_overrides={**BENCH.train_overrides, "total_epochs": 20})
    emitted = []
    for tag in ("a", "b"):
        result = run_experiment(det)
        assert all(cell.succeeded for cell in result.cells)
        out_dir = tmp_path / tag
        files = emit_metrics(result, out_dir)
        emitted.append({f.name: f.read_bytes() for f in files})
    files_ok = (sorted(emitted[0]) == sorted(emitted[1])
                and all(emitted[0][name] == emitted[1][name] for name in emitted[0]))
    train_set, _, val_set = _splits()
    cfg = det.train_config(0.4, 0)
    matrix = build_noise_matrix("symmetric", 0.4, train_set.num_classes)
    students = []
    for _ in range(2):
        mask = inject_noise(train_set.labels, matrix, 2024)
        noisy = LabeledDataset(train_set.features, mask.noisy_labels,
                               train_set.num_classes)
        teachers = train_teachers(cfg, noisy, noise_mask=mask)
        student = train_student(noisy.subset(teachers.final_selection.indices),
                                val_set, cfg)
        students.append(student.params)
    params_ok = all(
        np.array_equal(a, b)
        for a, b in zip(students[0].weights + students[0].biases,
                        students[1].weights + students[1].biases))
    _report(6, "bitwise-determinism",
            files_ok and params_ok,
            f"{len(emitted[0])} emitted files byte-identical, "
            f"student parameters bitwise equal over 20 epochs",
            time.time() - t0, 300)


def test_07_end_to_end_efficacy():
    """At 40% symmetric noise the consensus-taught student beats the
    no-defense baseline by 5+ points with noisy-label precision >= 0.80,
    on a task where the clean baseline clears 95%."""
    t0 = time.time()
    clean = float(np.mean([_cell("ce_baseline", 0.0, s).test_acc for s in SEEDS]))
    noisy = float(np.mean([_cell("ce_baseline", 0.4, s).test_acc for s in SEEDS]))
    jocot_cells = [_cell("jocot", 0.4, s) for s in SEEDS]
    jocot_acc = float(np.mean([c.test_acc for c in jocot_cells]))
    precision = float(np.mean([c.noisy_precision for c in jocot_cells]))
    gap = jocot_acc - noisy
    ok = clean >= 0.95 and gap >= 0.05 and precision >= 0.80
    _report(7, "end-to-end-efficacy",
            ok,
            f"clean {100 * clean:.2f}% (need >= 95), student {100 * jocot_acc:.2f}% "
            f"vs baseline {100 * noisy:.2f}% (gap {100 * gap:+.2f}, need >= +5), "
            f"precision {precision:.3f} (need >= 0.80); 3 seeds",
            time.time() - t0, 900)


def test_08_directional_ordering():
    """At 60% symmetric noise the consensus pipeline's noisy-label
    precision is at least each teacher module's run alone."""
    t0 = time.time()
    prec = {}
    for method in ("jocot", "jocor", "coteaching"):
        prec[method] = float(np.mean(
            [_cell(method, 0.6, s).noisy_precision for s in SEEDS]))
    ok = prec["jocot"] >= prec["jocor"] and prec["jocot"] >= prec["coteaching"]
    _report(8, "directional-ordering",
            ok,
            f"precision jocot {prec['jocot']:.4f} >= jocor {prec['jocor']:.4f} "
            f"and >= coteaching {prec['coteaching']:.4f}; 3 seeds at rate 0.6",
            time.time() - t0, 900)


def test_09_monotone_degradation():
    """Student accuracy does not increase with the noise rate beyond a
    1-point slack across rates 0.2, 0.4, 0.6."""
    t0 = time.time()
    means = [float(np.mean([_cell("jocot", rate, s).test_acc for s in SEEDS]))
             for rate in (0.2, 0.4, 0.6)]
    ok = means[1] <= means[0] + 0.01 and means[2] <= means[1] + 0.01
    _report(9, "monotone-degradation",
            ok,
            f"accuracy {100 * means[0]:.2f}% / {100 * means[1]:.2f}% / "
            f"{100 * means[2]:.2f}% at rates 0.2/0.4/0.6 "
            f"(non-increasing within 1 point); 3 seeds",
            time.time() - t0, 1500)


def test_10_zero_noise_identity():
    """With no injected noise the consensus keeps 99%+ of the training set
    and the student matches the clean baseline within 1 point."""
    t0 = time.time()
    zero = _cell("jocot", 0.0, 0)
    clean = _cell("ce_baseline", 0.0, 0)
    train_set, _, _ = _splits()
    coverage = zero.clean_set_size / len(train_set)
    diff = abs(zero.test_acc - clean.test_acc)
    ok = coverage >= 0.99 and diff <= 0.01
    _report(10, "zero-noise-identity",
            ok,
            f"clean-set coverage {100 * coverage:.2f}% (need >= 99), student "
            f"{100 * zero.test_acc:.2f}% vs clean baseline {100 * clean.test_acc:.2f}% "
            f"(diff {100 * diff:.2f} points, need <= 1)",
            time.time() - t0, 300)
