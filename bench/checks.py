"""Correctness checks made apart from the program.

Each check recomputes a figure from first principles (its own MLP forward
pass, the remember-rate formula, a binomial bound, its own means) rather
than comparing with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np


class Checks:
    """Collects failed checks; ``ok`` stays true while none has failed."""

    def __init__(self):
        self.failures: list = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, condition, message: str) -> None:
        if not condition:
            self.failures.append(message)


def mlp_accuracy(weights, biases, features, labels) -> tuple:
    """(correct count, near-tie rows) of a ReLU MLP's argmax predictions.

    A near-tie row has its two largest logits within 1e-9 of each other, so
    two correct implementations may legitimately pick different classes.
    """
    a = np.asarray(features, dtype=np.float64)
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = a @ w + b
        if i < len(weights) - 1:
            a = np.maximum(a, 0.0)
    top2 = np.sort(a, axis=1)[:, -2:]
    near_ties = int((top2[:, 1] - top2[:, 0] <= 1e-9 * (1.0 + np.abs(top2[:, 1]))).sum())
    correct = int((a.argmax(axis=1) == np.asarray(labels)).sum())
    return correct, near_ties


def check_student_accuracy(checks: Checks, params, test_set, reported: float) -> None:
    correct, ties = mlp_accuracy(params.weights, params.biases,
                                 test_set.features, test_set.labels)
    n = len(test_set.labels)
    checks.expect(abs(correct - reported * n) <= ties + 1e-6,
                  f"student test accuracy {reported!r} != recomputed {correct}/{n}")


def check_noise(checks: Checks, true_labels, noisy_labels, kind: str, rate: float,
                num_classes: int) -> None:
    """Realized flip fraction within 5 binomial sigmas of the rate; every
    pairflip label is the next class."""
    true_labels = np.asarray(true_labels)
    noisy_labels = np.asarray(noisy_labels)
    n = true_labels.size
    flipped = true_labels != noisy_labels
    sigma = math.sqrt(n * rate * (1.0 - rate))
    checks.expect(abs(int(flipped.sum()) - rate * n) <= 5.0 * sigma + 1.0,
                  f"{int(flipped.sum())} of {n} labels flipped at rate {rate}")
    if kind == "pairflip":
        checks.expect(bool(np.all(noisy_labels[flipped]
                                  == (true_labels[flipped] + 1) % num_classes)),
                      "a pairflip label is not (true + 1) mod classes")


def check_remember_rates(checks: Checks, epoch_metrics, tau: float, gradual_T: int) -> None:
    for m in epoch_metrics:
        want = 1.0 - min(m.epoch * tau / gradual_T, tau)
        checks.expect(m.remember_rate is not None and abs(m.remember_rate - want) <= 1e-12,
                      f"epoch {m.epoch} remember_rate {m.remember_rate!r} != {want!r}")


def clean_set_precision(checks: Checks, indices, true_labels, noisy_labels) -> float:
    """Share of correctly labelled samples in a non-empty, in-range clean set;
    it must beat the clean share of the noisy labels."""
    idx = np.asarray(indices, dtype=np.intp)
    n = len(true_labels)
    checks.expect(idx.size > 0, "final clean set is empty")
    checks.expect(idx.size == 0 or (idx.min() >= 0 and idx.max() < n
                                    and np.unique(idx).size == idx.size),
                  "final clean set has out-of-range or repeated indices")
    if idx.size == 0:
        return 0.0
    correct = np.asarray(true_labels) == np.asarray(noisy_labels)
    precision = float(correct[idx].mean())
    checks.expect(precision > float(correct.mean()),
                  f"clean-set precision {precision:.4f} does not beat the clean share "
                  f"{float(correct.mean()):.4f}")
    return precision


def read_csv_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_summary_means(checks: Checks, summary_path: Path) -> None:
    """Each seed=mean row equals the mean of its cells, recomputed here."""
    rows = read_csv_rows(summary_path)
    cells = [r for r in rows if r["seed"] != "mean"]
    means = [r for r in rows if r["seed"] == "mean"]
    checks.expect(means, f"{summary_path.name} has no seed=mean rows")
    for mean_row in means:
        key = (mean_row["method"], mean_row["noise_kind"], mean_row["rate"])
        group = [r for r in cells if (r["method"], r["noise_kind"], r["rate"]) == key]
        for column in ("test_acc", "noisy_precision", "clean_set_size"):
            values = [float(r[column]) for r in group if r[column] != ""]
            want = sum(values) / len(values) if values else None
            got = float(mean_row[column]) if mean_row[column] != "" else None
            checks.expect(
                (want is None and got is None)
                or (want is not None and got is not None
                    and math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)),
                f"summary mean {column} for rate {key[2]}: {got!r} != {want!r}")
