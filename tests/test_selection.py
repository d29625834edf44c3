"""Selection primitives vs exhaustive subset enumeration and scalar formulas."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jocot.selection import (
    SelectionSet,
    consensus,
    remember_rate,
    small_loss_select,
)


def select_keys(pairs, keep_fraction):
    """Run small_loss_select on (key, loss) pairs in key order, as a pair
    step sorts its batch by dataset index; the picked keys in order."""
    pairs = sorted(pairs)
    positions = small_loss_select([l for _, l in pairs], keep_fraction)
    return tuple(int(pairs[p][0]) for p in positions)


def min_sum_subset(pairs, k):
    """Exhaustive oracle: the minimum-total size-k subset, ties broken toward
    the lexicographically smallest index tuple."""
    loss = dict(pairs)
    best = None
    for combo in itertools.combinations(sorted(loss), k):
        key = (math.fsum(loss[i] for i in combo), combo)
        if best is None or key < best:
            best = key
    return set(best[1])


def test_remember_rate_at_epoch_zero():
    for tau in [0.0, 0.2, 0.8]:
        assert remember_rate(0, 10, tau) == 1.0


def test_remember_rate_midpoint():
    assert remember_rate(5, 10, 0.5) == 0.75


def test_remember_rate_clamps():
    assert remember_rate(300, 10, 0.4) == pytest.approx(0.6)
    assert remember_rate(10, 10, 0.4) == remember_rate(11, 10, 0.4)


def test_remember_rate_bit_exact_vs_scalar_formula():
    for tau in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]:
        for epoch in range(0, 21):
            expected = 1.0 - min(epoch * tau / 10, tau)
            assert remember_rate(epoch, 10, tau) == expected  # bitwise


def test_remember_rate_monotone_and_bounded():
    for tau in [0.1, 0.45, 0.8]:
        values = [remember_rate(e, 10, tau) for e in range(40)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(1.0 - tau <= v <= 1.0 for v in values)


def test_remember_rate_validation():
    with pytest.raises(ValueError):
        remember_rate(-1, 10, 0.2)
    with pytest.raises(ValueError):
        remember_rate(0, 0, 0.2)
    with pytest.raises(ValueError):
        remember_rate(0, 10, 1.0)


def test_small_loss_select_basic():
    sel = select_keys([(0, 0.1), (1, 5.0), (2, 0.2), (3, 3.0)], 0.5)
    assert sel == (0, 2)


def test_small_loss_select_keep_all():
    sel = select_keys([(4, 1.0), (7, 2.0), (9, 0.5)], 1.0)
    assert sel == (4, 7, 9)


def test_small_loss_select_at_least_one():
    sel = select_keys([(3, 9.0), (8, 1.0)], 0.01)
    assert sel == (8,)


def test_small_loss_select_size_rule():
    rng = np.random.default_rng(0)
    for n in [1, 3, 7, 10, 128]:
        losses = list(enumerate(rng.random(n)))
        for kf in [0.05, 0.25, 0.5, 0.6, 0.75, 1.0]:
            got = len(select_keys(losses, kf))
            assert got == max(1, math.ceil(kf * n - 1e-12))


def test_small_loss_select_threshold_property():
    rng = np.random.default_rng(1)
    losses = list(enumerate(rng.random(30)))
    sel = set(select_keys(losses, 0.4))
    inside = {i: l for i, l in losses if i in sel}
    outside = {i: l for i, l in losses if i not in sel}
    assert max(inside.values()) <= min(outside.values())


def test_small_loss_select_tie_break_smaller_index():
    sel = select_keys([(5, 0.5), (2, 0.5), (9, 0.5), (1, 0.5)], 0.5)
    assert sel == (1, 2)


def test_small_loss_select_matches_subset_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 11))
        indices = rng.choice(1000, size=n, replace=False)
        pairs = [(int(i), float(l)) for i, l in zip(indices, rng.random(n))]
        kf = float(rng.uniform(0.05, 1.0))
        sel = select_keys(pairs, kf)
        assert set(sel) == min_sum_subset(pairs, len(sel))


def test_small_loss_select_errors():
    with pytest.raises(ValueError, match="empty"):
        small_loss_select([], 0.5)
    with pytest.raises(ValueError, match="keep_fraction"):
        small_loss_select([1.0], 0.0)
    with pytest.raises(ValueError, match="keep_fraction"):
        small_loss_select([1.0], 1.2)
    with pytest.raises(ValueError, match="finite"):
        small_loss_select([float("nan")], 0.5)


def test_selection_set_normalizes_and_validates():
    s = SelectionSet((3, 1, 2))
    assert s.indices.tolist() == [1, 2, 3]
    assert s.indices.dtype == np.intp and not s.indices.flags.writeable
    assert len(s) == 3
    assert len(SelectionSet(())) == 0
    with pytest.raises(ValueError, match="duplicate"):
        SelectionSet((1, 1, 2))
    with pytest.raises(ValueError, match="index vector"):
        SelectionSet(np.array([True, False]))


def test_selection_set_rejects_negative_indices():
    with pytest.raises(ValueError, match="negative"):
        SelectionSet((4, -1))


def test_inner_consensus_examples():
    a = np.array([1, 2, 3])
    b = np.array([2, 3, 4])
    assert tuple(consensus((a, b))) == (2, 3)
    assert tuple(consensus((a, a))) == (1, 2, 3)
    assert tuple(consensus((a, np.array([7, 8])))) == ()


def test_outer_consensus_composition_example():
    p1, p2 = np.array([1, 2, 3]), np.array([2, 3])
    q1, q2 = np.array([2, 3, 4]), np.array([2, 4])
    assert tuple(consensus((p1, p2))) == (2, 3)
    assert tuple(consensus((q1, q2))) == (2, 4)
    assert tuple(consensus((p1, p2), (q1, q2))) == (2,)


def test_outer_consensus_all_equal():
    s = np.array([5, 6])
    assert tuple(consensus((s, s), (s, s))) == (5, 6)


_index_sets = st.lists(st.integers(0, 60), max_size=30, unique=True)


@given(_index_sets, _index_sets, _index_sets, _index_sets)
def test_consensus_equals_four_way_intersection_random(a, b, c, d):
    arrays = [np.array(s, dtype=np.intp) for s in (a, b, c, d)]
    composed = consensus((arrays[0], arrays[1]), (arrays[2], arrays[3])).tolist()
    assert composed == sorted(set(a) & set(b) & set(c) & set(d))


# property tests: the oracle is a plain sort of (loss, position) pairs

def _sorted_oracle(losses, k):
    return sorted(sorted(range(len(losses)), key=lambda i: (losses[i], i))[:k])


def _lexsort_oracle(losses, k):
    return np.sort(np.lexsort((np.arange(len(losses)), losses))[:k]).tolist()


_losses = st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                   min_size=1, max_size=40)
_tied_losses = st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0]), min_size=1, max_size=40)
_fractions = st.floats(min_value=1e-3, max_value=1.0)


@given(_losses, _fractions)
def test_small_loss_select_matches_sorted_oracle(losses, keep):
    got = small_loss_select(losses, keep)
    k = max(1, math.ceil(keep * len(losses) - 1e-12))
    assert len(got) == k
    assert got.tolist() == _sorted_oracle(losses, k)


@given(_tied_losses, _fractions)
def test_small_loss_select_ties_go_to_smaller_key(losses, keep):
    # -log(1.0) is -0.0, so exact zeros of both signs meet in real batches;
    # they form one tie group broken by position
    got = small_loss_select(losses, keep)
    k = max(1, math.ceil(keep * len(losses) - 1e-12))
    assert got.tolist() == _sorted_oracle(losses, k)
    zeros = [i for i, loss in enumerate(losses) if loss == 0.0]
    assert set(zeros[:k]) <= set(got.tolist())


@given(st.sampled_from([np.float32, np.float64]),
       st.lists(st.sampled_from([0.0, -0.0, 1e-7, 0.25, 0.5, 3.0]), min_size=1, max_size=60),
       _fractions)
def test_small_loss_select_equals_lexsort(dtype, values, keep):
    # a handful of values forces ties, which go to the earlier position
    losses = np.array(values, dtype=dtype)
    k = max(1, math.ceil(keep * len(values) - 1e-12))
    assert small_loss_select(losses, keep).tolist() == _lexsort_oracle(losses, k)


@given(st.lists(st.sampled_from([0.0, -0.0, 1e-7, 0.25, 0.5, 3.0]), min_size=1, max_size=60),
       _fractions)
def test_small_loss_select_takes_a_list_of_float32_scalars(values, keep):
    # a traced run hands the ranking losses over as list(losses): numpy
    # float32 scalars in a Python list
    losses = np.array(values, dtype=np.float32)
    k = max(1, math.ceil(keep * len(values) - 1e-12))
    assert small_loss_select(list(losses), keep).tolist() == _lexsort_oracle(losses, k)


def test_small_loss_select_a_batch_as_a_pair_step_ranks_it():
    # a 512-row batch of float32 losses with many ties at the cut, as the
    # traced list and as the array, against the lexsort oracle
    rng = np.random.default_rng(3)
    losses = np.round(rng.exponential(size=512), 1).astype(np.float32)
    for keep in (0.55, 0.8, 1.0, 1 / 512):
        want = _lexsort_oracle(losses, max(1, math.ceil(keep * 512 - 1e-12)))
        assert small_loss_select(losses, keep).tolist() == want
        assert small_loss_select(list(losses), keep).tolist() == want
