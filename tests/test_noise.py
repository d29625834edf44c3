"""Noise-matrix structure, injection statistics, and precision accounting."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jocot.noise import (
    NoiseMask,
    build_noise_matrix,
    inject_noise,
    noisy_label_precision,
)


def test_pairflip_matrix_m3():
    m = build_noise_matrix("pairflip", 0.45, 3)
    expected = np.array([[0.55, 0.45, 0.0],
                         [0.0, 0.55, 0.45],
                         [0.45, 0.0, 0.55]])
    npt.assert_allclose(m.rows, expected, rtol=0, atol=1e-15)


def test_symmetric_matrix_m12():
    m = build_noise_matrix("symmetric", 0.2, 12)
    npt.assert_allclose(np.diag(m.rows), np.full(12, 0.8), atol=1e-15)
    off = m.rows[~np.eye(12, dtype=bool)]
    npt.assert_allclose(off, np.full(off.shape, 0.2 / 11), atol=1e-15)


def test_rate_zero_is_identity():
    for kind in ["pairflip", "symmetric"]:
        m = build_noise_matrix(kind, 0.0, 5)
        npt.assert_array_equal(m.rows, np.eye(5))


def test_matrix_row_sums_sweep():
    for kind in ["pairflip", "symmetric"]:
        for rate in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]:
            for m in [2, 3, 12]:
                matrix = build_noise_matrix(kind, rate, m)
                assert np.abs(matrix.rows.sum(axis=1) - 1.0).max() <= 1e-12


def test_pairflip_structure_exhaustive():
    for m in [2, 3, 12]:
        matrix = build_noise_matrix("pairflip", 0.3, m)
        for c in range(m):
            row = matrix.rows[c].copy()
            assert row[c] == pytest.approx(0.7)
            assert row[(c + 1) % m] == pytest.approx(0.3)
            row[c] = 0.0
            row[(c + 1) % m] = 0.0
            npt.assert_array_equal(row, np.zeros(m))


def test_build_matrix_validation():
    with pytest.raises(ValueError, match="rate"):
        build_noise_matrix("pairflip", 1.0, 3)
    with pytest.raises(ValueError, match="rate"):
        build_noise_matrix("symmetric", -0.1, 3)
    with pytest.raises(ValueError, match="classes"):
        build_noise_matrix("symmetric", 0.2, 1)
    with pytest.raises(ValueError, match="kind"):
        build_noise_matrix("gaussian", 0.2, 3)


def test_inject_rate_zero_changes_nothing():
    labels = np.tile(np.arange(4), 25)
    mask = inject_noise(labels, build_noise_matrix("symmetric", 0.0, 4), seed=0)
    npt.assert_array_equal(mask.noisy_labels, labels)
    assert mask.num_flipped == 0


def test_inject_pairflip_near_one_flips_cyclically():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 6, size=10_000)
    mask = inject_noise(labels, build_noise_matrix("pairflip", 0.999, 6), seed=11)
    assert 0.99 <= mask.flipped_fraction < 1.0
    flipped_to = mask.noisy_labels[mask.flipped]
    flipped_from = mask.true_labels[mask.flipped]
    npt.assert_array_equal(flipped_to, (flipped_from + 1) % 6)


def test_inject_pairflip_only_ever_hits_next_class():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 12, size=5000)
    mask = inject_noise(labels, build_noise_matrix("pairflip", 0.4, 12), seed=3)
    changed = mask.noisy_labels != mask.true_labels
    npt.assert_array_equal(mask.noisy_labels[changed], (mask.true_labels[changed] + 1) % 12)


def test_inject_symmetric_fraction_concentrates():
    labels = np.tile(np.arange(12), 960)  # 11,520 samples
    mask = inject_noise(labels, build_noise_matrix("symmetric", 0.4, 12), seed=17)
    assert abs(mask.flipped_fraction - 0.4) <= 0.015


def test_inject_reproducible_and_seed_sensitive():
    labels = np.tile(np.arange(3), 100)
    matrix = build_noise_matrix("symmetric", 0.5, 3)
    a = inject_noise(labels, matrix, seed=123)
    b = inject_noise(labels, matrix, seed=123)
    c = inject_noise(labels, matrix, seed=124)
    npt.assert_array_equal(a.noisy_labels, b.noisy_labels)
    assert (a.noisy_labels != c.noisy_labels).any()


def test_inject_label_range_check():
    with pytest.raises(ValueError, match="range"):
        inject_noise([0, 3], build_noise_matrix("symmetric", 0.2, 3), seed=0)


def judged(n, *indices):
    """Boolean mask over n samples marking the given indices as judged noisy."""
    out = np.zeros(n, dtype=bool)
    out[list(indices)] = True
    return out


def test_precision_exact_match_is_one():
    mask = NoiseMask([0, 1, 2, 3], [0, 2, 2, 0])  # flipped: {1, 3}
    assert noisy_label_precision(judged(4, 1, 3), mask) == 1.0


def test_precision_empty_judged_is_zero():
    mask = NoiseMask([0, 1], [1, 1])
    assert noisy_label_precision(judged(2), mask) == 0.0


def test_precision_half():
    mask = NoiseMask([0, 0, 0, 0], [1, 1, 1, 1])
    assert noisy_label_precision(judged(4, 0, 2), mask) == 0.5


def test_precision_false_alarms_do_not_help():
    mask = NoiseMask([0, 1, 2, 3], [0, 2, 2, 0])  # flipped: {1, 3}
    assert noisy_label_precision(judged(4, 0, 1, 2), mask) == 0.5


def test_precision_undefined_without_flips():
    mask = NoiseMask([0, 1], [0, 1])
    with pytest.raises(ValueError, match="undefined"):
        noisy_label_precision(judged(2, 0), mask)


def test_precision_judged_out_of_range():
    mask = NoiseMask([0, 1], [1, 1])
    with pytest.raises(ValueError, match="shape"):
        noisy_label_precision(judged(6, 5), mask)


def test_precision_rejects_index_arrays():
    mask = NoiseMask([0, 1], [1, 1])
    with pytest.raises(ValueError, match="bool"):
        noisy_label_precision(np.array([0, 1]), mask)


# property tests: the oracles are Python sets and plain label comparisons

@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60))
def test_precision_matches_set_oracle(rows):
    flipped = np.array([f for f, _ in rows])
    judged_mask = np.array([j for _, j in rows])
    mask = NoiseMask(np.zeros(len(rows), dtype=int), flipped.astype(int))
    flipped_set = {i for i, (f, _) in enumerate(rows) if f}
    judged_set = {i for i, (_, j) in enumerate(rows) if j}
    if not flipped_set:
        with pytest.raises(ValueError, match="undefined"):
            noisy_label_precision(judged_mask, mask)
    else:
        assert (noisy_label_precision(judged_mask, mask)
                == len(judged_set & flipped_set) / len(flipped_set))


@given(st.integers(2, 6), st.lists(st.integers(0, 5), max_size=80),
       st.sampled_from(["pairflip", "symmetric"]),
       st.floats(min_value=0.0, max_value=0.95), st.integers(0, 2**16))
def test_inject_flags_changed_labels_and_pairflip_goes_to_next_class(
        num_classes, labels, kind, rate, seed):
    labels = [label % num_classes for label in labels]
    mask = inject_noise(labels, build_noise_matrix(kind, rate, num_classes), seed=seed)
    noisy = mask.noisy_labels.tolist()
    assert mask.flipped.tolist() == [a != b for a, b in zip(labels, noisy)]
    assert all(0 <= b < num_classes for b in noisy)
    if kind == "pairflip":
        assert all(b == (a + 1) % num_classes for a, b in zip(labels, noisy) if a != b)
