"""Clean-instance mining primitives.

Three mechanisms: the remember-rate schedule that decides how large a
fraction of each batch is presumed clean, small-loss selection that picks
that fraction by an O(n) partition, and the consensus that ANDs boolean
masks over the samples: a teacher module's inner consensus is that of its
two peers' picks, and the trusted clean set the outer consensus of the
modules' inner masks. Small-loss selection sees only the losses: it
returns ascending positions and gives a tie at the cut to the earliest
rows, so a caller that orders its rows by dataset index breaks ties toward
the smaller index. Per-batch selections are numpy index arrays;
SelectionSet holds the final clean set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class SelectionSet:
    """Sorted, duplicate-free, non-negative dataset-global sample indices,
    held as a read-only intp array."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.ndim != 1 or idx.dtype.kind not in "iuf":  # () arrives as float64
            raise ValueError(f"selection indices must be an index vector, "
                             f"got {idx.dtype} of shape {idx.shape}")
        idx = np.sort(idx.astype(np.intp))
        if idx.size and idx[0] < 0:
            raise ValueError(f"negative index {idx[0]} in selection")
        if (idx[1:] == idx[:-1]).any():
            raise ValueError("duplicate indices in selection")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return self.indices.size

    def __eq__(self, other):
        if not isinstance(other, SelectionSet):
            return NotImplemented
        return np.array_equal(self.indices, other.indices)


def remember_rate(epoch: int, num_gradual_T: int, tau: float) -> float:
    """Kept fraction at an epoch: 1 - min(epoch*tau/T, tau).

    Decays linearly from 1 at epoch 0 to 1-tau at epoch T and stays there.
    """
    if epoch < 0 or num_gradual_T < 1 or not 0.0 <= tau < 1.0:
        raise ValueError("need epoch >= 0, T >= 1 and tau in [0, 1)")
    return 1.0 - min(epoch * tau / num_gradual_T, tau)


def small_loss_select(losses, keep_fraction: float) -> np.ndarray:
    """Ascending positions of the ceil(keep_fraction * n) smallest losses,
    at least 1.

    ``losses`` is any sequence of per-sample losses. Of the losses tied at
    the cut, the earliest are picked, which also makes the picked positions
    the lexicographically smallest minimum-sum subset of their size.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ValueError("empty loss list")
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction {keep_fraction} outside (0, 1]")
    if not np.isfinite(losses).all():
        raise ValueError("non-finite loss values")
    # tiny slack so binary round-up (e.g. 0.75*4 -> 3.0000000000000004)
    # cannot inflate the ceiling
    k = max(1, math.ceil(keep_fraction * losses.size - 1e-12))
    # every loss up to the k-th smallest is picked, but of the ties at it
    # only the earliest, as a stable sort of the losses ranks them
    threshold = np.partition(losses, k - 1)[k - 1]
    picked = losses <= threshold
    extra = np.count_nonzero(picked) - k
    if extra:
        picked[np.flatnonzero(losses == threshold)[-extra:]] = False
    return np.flatnonzero(picked)


def consensus(*masks) -> np.ndarray:
    """Boolean mask of the samples that every one of ``masks``, bool masks
    of one shape over the same samples, selects: their AND, a new array."""
    masks = [np.asarray(m) for m in masks]
    if not masks:
        raise ValueError("consensus needs at least one mask")
    for m in masks:
        if m.dtype != bool or m.shape != masks[0].shape:
            raise ValueError(f"each mask must be a bool mask of shape {masks[0].shape}, "
                             f"got {m.dtype} of shape {m.shape}")
    return np.logical_and.reduce(masks)

