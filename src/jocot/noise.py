"""Label-corruption machinery and ground-truth bookkeeping.

A NoiseMatrix defines the class-conditional corruption distribution; a
NoiseMask records, per training sample, the clean label, the corrupted
label actually used for training, and whether they differ. The mask is
the ground truth against which clean-instance mining is scored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NOISE_KINDS = ("pairflip", "symmetric")


@dataclass(frozen=True)
class NoiseMatrix:
    """Row-stochastic M x M corruption matrix; rows[m] is the distribution
    of the corrupted label given true class m."""

    kind: str
    rate: float
    num_classes: int
    rows: np.ndarray

    def validate(self) -> None:
        if self.rows.shape != (self.num_classes, self.num_classes):
            raise ValueError("matrix shape does not match class count")
        sums = self.rows.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-12:
            raise ValueError("rows are not stochastic within 1e-12")
        if np.abs(np.diag(self.rows) - (1.0 - self.rate)).max() > 1e-12:
            raise ValueError("diagonal must equal 1 - rate")


@dataclass
class NoiseMask:
    """Per-sample corruption record: flipped[i] iff the labels differ."""

    true_labels: np.ndarray
    noisy_labels: np.ndarray
    flipped: np.ndarray = field(init=False)

    def __post_init__(self):
        self.true_labels = np.asarray(self.true_labels, dtype=np.intp)
        self.noisy_labels = np.asarray(self.noisy_labels, dtype=np.intp)
        if self.true_labels.shape != self.noisy_labels.shape:
            raise ValueError("mask arrays must share one shape")
        self.flipped = self.true_labels != self.noisy_labels

    @property
    def num_flipped(self) -> int:
        return int(self.flipped.sum())

    @property
    def flipped_fraction(self) -> float:
        return float(self.flipped.mean())


def build_noise_matrix(kind: str, rate: float, num_classes: int) -> NoiseMatrix:
    """Corruption matrix: cyclic next-class flips or uniform off-diagonal."""
    if kind not in NOISE_KINDS:
        raise ValueError(f"kind must be one of {NOISE_KINDS}, got {kind!r}")
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate {rate} outside [0, 1)")
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    m = num_classes
    if kind == "pairflip":
        rows = np.eye(m) * (1.0 - rate)
        for c in range(m):
            rows[c, (c + 1) % m] = rate
    else:
        rows = np.full((m, m), rate / (m - 1))
        np.fill_diagonal(rows, 1.0 - rate)
    matrix = NoiseMatrix(kind, float(rate), m, rows)
    matrix.validate()
    return matrix


def inject_noise(true_labels, matrix: NoiseMatrix, seed) -> NoiseMask:
    """Draw each noisy label from the matrix row of its true label.

    ``seed`` is anything numpy's default_rng accepts (int, SeedSequence,
    Generator). Identical seed and labels give an identical mask.
    """
    true_labels = np.asarray(true_labels, dtype=np.intp)
    if true_labels.size and (true_labels.min() < 0 or true_labels.max() >= matrix.num_classes):
        raise ValueError("labels outside matrix class range")
    rng = np.random.default_rng(seed)
    cdfs = np.cumsum(matrix.rows, axis=1)
    cdfs[:, -1] = 1.0
    u = rng.random(true_labels.shape[0])
    row_cdfs = cdfs[true_labels]
    noisy = np.minimum((row_cdfs < u[:, None]).sum(axis=1), matrix.num_classes - 1)
    return NoiseMask(true_labels, noisy.astype(np.intp))


def noisy_label_precision(judged_noisy: np.ndarray, mask: NoiseMask) -> float:
    """Fraction of truly corrupted samples that judged_noisy, a boolean mask
    over the mask's samples, marks as noisy."""
    judged_noisy = np.asarray(judged_noisy)
    if judged_noisy.dtype != bool or judged_noisy.shape != mask.flipped.shape:
        raise ValueError(f"judged_noisy must be a bool mask of shape {mask.flipped.shape}, "
                         f"got {judged_noisy.dtype} of shape {judged_noisy.shape}")
    if mask.num_flipped == 0:
        raise ValueError("undefined metric: mask contains no flipped samples")
    return int(np.count_nonzero(judged_noisy & mask.flipped)) / mask.num_flipped

