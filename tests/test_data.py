"""Data pipeline: CSV schema, rebalancing, splitting, synthetic clusters."""

import io
import multiprocessing
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import jocot.data as data
import jocot.jobs as jobs
from jocot.data import (
    LabeledDataset,
    SplitSpec,
    Standardizer,
    load_csv,
    rebalance,
    save_csv,
    split,
    synthesize,
)


def write_csv(path, n_features, rows):
    header = ",".join([f"f{i}" for i in range(n_features)] + ["label"])
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def nearest_centroid_accuracy(ds):
    centroids = np.stack([ds.features[ds.labels == c].mean(axis=0)
                          for c in range(ds.num_classes)])
    d2 = ((ds.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    return float((d2.argmin(axis=1) == ds.labels).mean())


def test_load_csv_three_rows_exact(tmp_path):
    path = tmp_path / "tiny.csv"
    write_csv(path, 3, ["0.5,1.25,-2.0,0", "1.0,2.0,3.0,1", "0.1,0.2,0.3,0"])
    ds = load_csv(path)
    assert len(ds) == 3 and ds.num_classes == 2
    npt.assert_array_equal(ds.features[1], [1.0, 2.0, 3.0])
    npt.assert_array_equal(ds.labels, [0, 1, 0])


def test_load_csv_wrong_width_schema_error(tmp_path):
    # the header fixes the width: a 50-feature file loads at width 50, and a
    # row of the canonical 51 features in it is an error on its line
    path = tmp_path / "narrow.csv"
    write_csv(path, 50, [",".join(["0.0"] * 50) + ",1"])
    assert load_csv(path).feature_dim == 50
    write_csv(path, 50, [",".join(["0.0"] * 51) + ",1"])
    with pytest.raises(ValueError, match=":2: expected 51 columns, got 52"):
        load_csv(path)


def test_load_csv_one_based_labels_shift(tmp_path):
    path = tmp_path / "onebased.csv"
    rows = [f"0.0,0.0,{label}" for label in range(1, 13)]
    write_csv(path, 2, rows)
    ds = load_csv(path)
    npt.assert_array_equal(np.sort(ds.labels), np.arange(12))
    assert ds.num_classes == 12


def test_load_csv_zero_based_labels_untouched(tmp_path):
    path = tmp_path / "zerobased.csv"
    write_csv(path, 2, ["0.0,0.0,0", "0.0,0.0,3"])
    ds = load_csv(path)
    npt.assert_array_equal(ds.labels, [0, 3])
    assert ds.num_classes == 4


def test_load_csv_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, 2, ["0.0,0.0,0", "0.0,oops,1"])
    with pytest.raises(ValueError, match=":3"):
        load_csv(path)


def test_load_csv_short_row_names_line(tmp_path):
    path = tmp_path / "short.csv"
    write_csv(path, 2, ["0.0,0.0,0", "0.0,1"])
    with pytest.raises(ValueError, match=":3"):
        load_csv(path)


def test_load_csv_bad_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("a,b,label\n0,0,0\n")
    with pytest.raises(ValueError, match="schema"):
        load_csv(path)


def test_load_csv_nonfinite_value(tmp_path):
    path = tmp_path / "inf.csv"
    write_csv(path, 2, ["inf,0.0,0"])
    with pytest.raises(ValueError, match="non-finite"):
        load_csv(path)


def test_save_load_round_trip_bitwise(tmp_path):
    ds = synthesize(3, 20, dim=5, separation=2.0, seed=4)
    path = tmp_path / "round.csv"
    save_csv(ds, path)
    back = load_csv(path)
    npt.assert_array_equal(back.features, ds.features)
    npt.assert_array_equal(back.labels, ds.labels)


_GOOD = ([[0.5, 1.0], [2.0, -3.0]], [0, 1])


# each file's text and what it loads to: the arrays, or the error's words
_DIALECT = {
    "crlf": ("f0,f1,label\r\n0.5,1.0,0\r\n2.0,-3.0,1\r\n", _GOOD),
    "blank_lines": ("f0,f1,label\n0.5,1.0,0\n\n\n2.0,-3.0,1\n", _GOOD),
    "no_final_newline": ("f0,f1,label\n0.5,1.0,0\n2.0,-3.0,1", _GOOD),
    "double_quotes": ('f0,f1,label\n"0.5","1.0",0\n2.0,"-3.0","1"\n', _GOOD),
    "spaces": ("f0,f1,label\n 0.5 ,1.0 , 0\n2.0, -3.0,1 \n", _GOOD),
    "bare_cr": ("f0,f1,label\r0.5,1.0,0\r2.0,-3.0,1\r", _GOOD),
    "comment_row": ("f0,f1,label\n0.5,1.0,0\n#2.0,-3.0,1\n", ":3: malformed numeric value"),
    "float_label": ("f0,f1,label\n0.5,1.0,0\n2.0,-3.0,3.0\n", ":3: malformed numeric value"),
    "label_overflow": ("f0,f1,label\n0.5,1.0,0\n2.0,-3.0,12345678901234567890\n",
                       ":3: malformed numeric value"),
    "digit_grouping": ("f0,f1,label\n1_0,1.0,0\n", ":2: malformed numeric value"),
    "nan_after_blank_line": ("f0,f1,label\n0.5,1.0,0\n\nnan,-3.0,1\n",
                             ":4: non-finite feature value"),
    "whitespace_line": ("f0,f1,label\r\n0.5,1.0,0\r\n  \r\n2.0,-3.0,1\r\n",
                        ":3: expected 3 columns, got 1"),
    "header_only": ("f0,f1,label\n", "no data rows"),
}


@pytest.mark.parametrize("text,expected", list(_DIALECT.values()), ids=list(_DIALECT))
def test_load_csv_dialect(tmp_path, text, expected):
    # comments are not skipped, labels are integers written as such, and
    # every error is a ValueError naming the file line, blank lines counted
    path = tmp_path / "dialect.csv"
    path.write_bytes(text.encode())
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            load_csv(path)
        return
    ds = load_csv(path)
    npt.assert_array_equal(ds.features, expected[0])
    npt.assert_array_equal(ds.labels, expected[1])


def cut_csv(monkeypatch, workers):
    """Cut each CSV save and load into jobs of one byte, ``workers`` of them,
    each in a forked child. Returns the job count of each runner call, in
    call order."""
    counts = []
    run = jobs._in_children

    def counting(name, fn, job_list):
        counts.append(len(job_list))
        return run(name, fn, job_list)

    monkeypatch.setattr(data, "_SAVE_JOB_BYTES", 1)
    monkeypatch.setattr(data, "_LOAD_JOB_BYTES", 1)
    monkeypatch.setattr(jobs, "_fork_workers", lambda count: workers)
    monkeypatch.setattr(jobs, "_in_children", counting)
    return counts


def loaded(path):
    """What load_csv gives for ``path``: its arrays and class count, or its
    error's text."""
    try:
        ds = load_csv(path)
    except ValueError as exc:
        return str(exc)
    return ds.features.tobytes(), ds.labels.tolist(), ds.num_classes


needs_fork = pytest.mark.skipif(jobs._default_start_method() != "fork",
                                reason="CSV jobs fork only where fork is the default")


@needs_fork
@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("case", list(_DIALECT))
def test_load_csv_dialect_cut_into_jobs(tmp_path, monkeypatch, case, workers):
    # a body cut after line terminators loads as in one job, or fails with
    # the same message naming the same line
    path = tmp_path / "dialect.csv"
    path.write_bytes(_DIALECT[case][0].encode())
    whole = loaded(path)
    counts = cut_csv(monkeypatch, workers)
    assert loaded(path) == whole
    # both 3-way shares fall past the first body line only where there is
    # none, one, or a second line three times as long (label_overflow)
    if workers == 3 and case not in ("label_overflow", "digit_grouping", "header_only"):
        assert counts[0] > 1


@pytest.mark.parametrize("scan", [1, 2, 1 << 16])
def test_cuts_fall_where_a_newline_handle_ends_its_lines(tmp_path, monkeypatch, scan):
    # \n, \r\n taken as one, or a bare \r, also where a \r\n straddles
    # two reads of the search
    text = b"ab\r\ncd\re\n\r\nf"
    path = tmp_path / "lines"
    path.write_bytes(text)
    ends = set(accumulate(len(line) for line in io.TextIOWrapper(io.BytesIO(text), newline="")))
    monkeypatch.setattr(data, "_SCAN_BYTES", scan)
    with open(path, "rb") as fh:
        assert {data._line_end(fh, pos) for pos in range(len(text) + 1)} == ends


@needs_fork
def test_a_line_break_in_quotes_at_a_cut_loads_as_in_one_job(tmp_path, monkeypatch):
    # numpy's reader takes a quoted field across lines; a cut after the break
    # in one fails both jobs, so the body is parsed again whole
    path = tmp_path / "quoted.csv"
    path.write_bytes(b'f0,f1,label\n0.5,1.0,0\n"2.0\n",-3.0,1\n')
    whole = loaded(path)
    counts = cut_csv(monkeypatch, 2)
    assert loaded(path) == whole
    assert counts == [2, 1]


_finite = st.floats(allow_nan=False, allow_infinity=False)
_finite_rows = st.integers(1, 6).flatmap(lambda d: st.lists(
    st.tuples(hnp.arrays(np.float64, d, elements=_finite), st.integers(0, 20)),
    min_size=1, max_size=6))


@given(_finite_rows)
@example([(np.array([-0.0, 0.0, 5e-324]), 3),
          (np.array([1.7976931348623157e308, -2.2250738585072014e-308, 1e-300]), 7)])
def test_save_load_round_trip_is_bitwise_for_any_finite_matrix(tmp_path_factory, rows):
    features = np.stack([row for row, _ in rows])
    labels = np.array([label for _, label in rows])
    ds = LabeledDataset(features, labels, int(labels.max()) + 1)
    path = tmp_path_factory.mktemp("round") / "round.csv"
    save_csv(ds, path)
    # the rows are shortest-repr floats, as the format has always been written
    header = ",".join([f"f{i}" for i in range(features.shape[1])] + ["label"]) + "\n"
    body = "".join(",".join(repr(float(v)) for v in row) + f",{int(label)}\n"
                   for row, label in zip(features, labels))
    assert path.read_bytes() == (header + body).encode()
    back = load_csv(path)
    assert back.features.tobytes() == features.tobytes()
    npt.assert_array_equal(back.labels, labels - 1 if labels.min() >= 1 else labels)


@needs_fork
@settings(max_examples=5, deadline=None)
@given(_finite_rows)
def test_save_and_load_cut_into_jobs_give_the_same_bytes(tmp_path_factory, rows):
    ds = LabeledDataset(np.stack([row for row, _ in rows]), [label for _, label in rows], 21)
    out = tmp_path_factory.mktemp("cut")
    save_csv(ds, out / "whole.csv")
    whole = loaded(out / "whole.csv")
    with mock.patch.object(data, "_SAVE_JOB_BYTES", 1), \
            mock.patch.object(data, "_LOAD_JOB_BYTES", 1), \
            mock.patch.object(jobs, "_fork_workers", lambda count: 3):
        save_csv(ds, out / "cut.csv")
        assert loaded(out / "cut.csv") == whole
    assert (out / "cut.csv").read_bytes() == (out / "whole.csv").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == ["cut.csv", "whole.csv"]


def test_rebalance_exact_counts():
    ds = synthesize(12, 2000, dim=4, separation=1.0, seed=5)
    out = rebalance(ds, 1200, seed=6)
    assert len(out) == 14_400
    npt.assert_array_equal(out.class_counts(), np.full(12, 1200))


def test_rebalance_never_duplicates():
    ds = synthesize(3, 50, dim=3, separation=1.0, seed=7)
    # tag each sample uniquely through the first feature
    ds.features[:, 0] = np.arange(len(ds))
    out = rebalance(ds, 30, seed=8)
    assert len(set(out.features[:, 0].tolist())) == len(out)


def test_rebalance_larger_than_class_keeps_all_with_warning():
    ds = synthesize(3, 10, dim=3, separation=1.0, seed=9)
    with pytest.warns(UserWarning, match="class") as captured:
        out = rebalance(ds, 99, seed=10)
    assert len(out) == 30
    assert len(captured) == 3  # one warning per short class


def test_rebalance_one_per_class_deterministic():
    ds = synthesize(4, 25, dim=3, separation=1.0, seed=11)
    a = rebalance(ds, 1, seed=12)
    b = rebalance(ds, 1, seed=12)
    assert len(a) == 4
    npt.assert_array_equal(a.features, b.features)


def test_rebalance_empty_class_error():
    ds = LabeledDataset(np.zeros((4, 2)), np.array([0, 0, 1, 1]), num_classes=3)
    with pytest.raises(ValueError, match="class 2"):
        rebalance(ds, 2, seed=0)


def test_split_canonical_sizes():
    ds = synthesize(12, 1200, dim=3, separation=1.0, seed=13)
    train, test, val = split(ds, SplitSpec(seed=14))
    assert (len(train), len(test), len(val)) == (11_520, 1_440, 1_440)
    # stratification: exact per-class counts in every split
    npt.assert_array_equal(train.class_counts(), np.full(12, 960))
    npt.assert_array_equal(test.class_counts(), np.full(12, 120))
    npt.assert_array_equal(val.class_counts(), np.full(12, 120))


def test_split_ten_samples_single_class():
    ds = LabeledDataset(np.arange(10)[:, None] * 1.0, np.zeros(10, dtype=int), 1)
    train, test, val = split(ds, SplitSpec(seed=0))
    assert (len(train), len(test), len(val)) == (8, 1, 1)


def test_split_partition_exact():
    ds = synthesize(5, 17, dim=3, separation=1.0, seed=15)
    ds.features[:, 0] = np.arange(len(ds))  # unique tags
    train, test, val = split(ds, SplitSpec(seed=16))
    tags = [set(part.features[:, 0].tolist()) for part in (train, test, val)]
    assert len(tags[0] | tags[1] | tags[2]) == len(ds)
    assert not (tags[0] & tags[1]) and not (tags[0] & tags[2]) and not (tags[1] & tags[2])
    assert len(train) + len(test) + len(val) == len(ds)


def largest_remainder_oracle(n, percents):
    """Exact largest-remainder counts for integer percentages; equal
    remainders go to the earlier split (train, then test, then val)."""
    shares = [Fraction(n * p, 100) for p in percents]
    counts = [int(x) for x in shares]
    order = sorted(range(3), key=lambda i: (counts[i] - shares[i], i))
    for i in order[:n - sum(counts)]:
        counts[i] += 1
    return counts


@given(st.lists(st.integers(0, 3), min_size=3, max_size=60),
       st.integers(1, 97), st.integers(1, 97), st.integers(0, 2**16))
# remainders 0.8, 0.6, 0.6: the tie goes to test although 5 * 0.12 rounds up
@example(labels=[0] * 5, train_pct=16, test_pct=72, seed=0)
def test_split_partitions_with_largest_remainder_counts(labels, train_pct, test_pct, seed):
    if train_pct + test_pct > 99:
        test_pct = 99 - train_pct
    percents = (train_pct, test_pct, 100 - train_pct - test_pct)
    n = len(labels)
    ds = LabeledDataset(np.arange(n, dtype=float)[:, None], labels, 4)  # row tags
    parts = split(ds, SplitSpec(*(p / 100 for p in percents), seed=seed))
    tags = np.concatenate([part.features[:, 0] for part in parts])
    npt.assert_array_equal(np.sort(tags), np.arange(n))
    for c in range(4):
        got = [int(part.class_counts()[c]) for part in parts]
        assert got == largest_remainder_oracle(labels.count(c), percents)


def test_subset_rejects_boolean_mask():
    ds = LabeledDataset(np.eye(3), [0, 1, 2], 3)
    with pytest.raises(ValueError, match="boolean mask"):
        ds.subset(np.array([True, False, True]))
    npt.assert_array_equal(ds.subset(np.flatnonzero([True, False, True])).labels, [0, 2])


def test_split_deterministic():
    ds = synthesize(4, 30, dim=3, separation=1.0, seed=17)
    a = split(ds, SplitSpec(seed=18))
    b = split(ds, SplitSpec(seed=18))
    for x, y in zip(a, b):
        npt.assert_array_equal(x.features, y.features)
        npt.assert_array_equal(x.labels, y.labels)


def test_split_spec_validation():
    with pytest.raises(ValueError, match="sum"):
        SplitSpec(0.8, 0.1, 0.2)
    with pytest.raises(ValueError, match="positive"):
        SplitSpec(0.9, 0.1, 0.0)  # zero fraction rejected before sum check


def test_synthesize_counts_and_finiteness():
    ds = synthesize(12, 600, dim=51, separation=3.0, seed=19)
    assert len(ds) == 7200 and ds.feature_dim == 51
    npt.assert_array_equal(ds.class_counts(), np.full(12, 600))
    assert np.isfinite(ds.features).all()


def test_synthesize_deterministic():
    a = synthesize(3, 10, dim=4, separation=2.0, seed=20)
    b = synthesize(3, 10, dim=4, separation=2.0, seed=20)
    npt.assert_array_equal(a.features, b.features)


def test_synthesize_tiny_separation_is_chance_level():
    ds = synthesize(4, 2500, dim=10, separation=1e-3, seed=21)
    assert abs(nearest_centroid_accuracy(ds) - 0.25) <= 0.02


def test_synthesize_wide_separation_is_near_perfect():
    ds = synthesize(12, 200, dim=51, separation=10.0, seed=22)
    assert nearest_centroid_accuracy(ds) >= 0.99


def test_synthesize_validation():
    with pytest.raises(ValueError, match="per_class"):
        synthesize(3, 0, dim=4, separation=1.0, seed=0)
    with pytest.raises(ValueError, match="separation"):
        synthesize(3, 5, dim=4, separation=0.0, seed=0)
    assert len(synthesize(5, 1, dim=4, separation=1.0, seed=0)) == 5


def test_standardizer_train_only():
    train = synthesize(3, 100, dim=4, separation=2.0, seed=23)
    other = synthesize(3, 50, dim=4, separation=2.0, seed=24)
    std = Standardizer.fit(train)
    t2 = std.transform(train)
    npt.assert_allclose(t2.features.mean(axis=0), np.zeros(4), atol=1e-12)
    npt.assert_allclose(t2.features.std(axis=0), np.ones(4), rtol=1e-12)
    o2 = std.transform(other)
    # other split transformed with train statistics, not its own
    assert abs(o2.features.mean()) > 1e-6


def test_standardizer_constant_feature_guard():
    ds = LabeledDataset(np.ones((5, 2)), np.zeros(5, dtype=int), 1)
    std = Standardizer.fit(ds)
    out = std.transform(ds)
    assert np.isfinite(out.features).all()


# the data path's memory: tracemalloc counts numpy's array data, so a peak
# above the result's own bytes is a transient copy
def _traced(fn, *args):
    """fn(*args) and the most memory it held at once beyond what was live
    when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - start


def _nbytes(ds):
    return ds.features.nbytes + ds.labels.nbytes


@pytest.fixture(scope="module")
def table():
    """A 7,200 x 51 skeleton-sized table and the sorted indices of 80% of it."""
    ds = synthesize(12, 600, dim=51, separation=3.0, seed=25)
    picks = np.sort(np.random.default_rng(26).permutation(len(ds))[:5760])
    return ds, picks


def test_save_csv_formats_one_row_at_a_time(tmp_path, table):
    # the features alone take 2.9 MB; one Python float per value at once
    # would take over 11 MB
    _, peak = _traced(save_csv, table[0], tmp_path / "big.csv")
    assert peak < 1_000_000


@needs_fork
def test_save_csv_cut_into_three_jobs_writes_the_same_bytes(tmp_path, monkeypatch, table):
    monkeypatch.setattr(jobs, "_fork_workers", lambda count: 1)
    save_csv(table[0], tmp_path / "one.csv")
    counts = cut_csv(monkeypatch, 3)
    save_csv(table[0], tmp_path / "three.csv")
    assert counts == [3]
    assert (tmp_path / "three.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.csv", "three.csv"]


@needs_fork
def test_a_save_in_jobs_leaves_files_named_like_its_parts(tmp_path, monkeypatch):
    # part files take new names, so a file already beside the destination
    # is neither written over nor removed
    ds = synthesize(3, 20, dim=4, separation=2.0, seed=29)
    save_csv(ds, tmp_path / "one.csv")
    kept = {tmp_path / f"data.csv.{i}.part": f"kept {i}\n" for i in (1, 2)}
    for path, text in kept.items():
        path.write_text(text)
    counts = cut_csv(monkeypatch, 3)
    save_csv(ds, tmp_path / "data.csv")
    assert counts == [3]
    assert (tmp_path / "data.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert {path: path.read_text() for path in kept} == kept
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "data.csv", "data.csv.1.part", "data.csv.2.part", "one.csv"]


@needs_fork
@pytest.mark.parametrize("error", [ValueError("disk full"), KeyboardInterrupt()])
def test_a_save_job_that_raises_leaves_no_part_file_and_no_child(tmp_path, monkeypatch, error):
    write = data._write_rows

    def failing(dataset, path, mode, start, stop):
        # the first job writes its rows, the second half of its own, and
        # the third stays busy
        if start == 0:
            return write(dataset, path, mode, start, stop)
        if stop < len(dataset):
            write(dataset, path, mode, start, (start + stop) // 2)
            raise error
        time.sleep(120)  # unless terminated, the last job outlives the bound below

    cut_csv(monkeypatch, 3)
    monkeypatch.setattr(data, "_write_rows", failing)
    ds = synthesize(3, 20, dim=4, separation=2.0, seed=28)
    start = time.monotonic()
    with pytest.raises(type(error)):
        save_csv(ds, tmp_path / "data.csv")
    assert time.monotonic() - start < 60
    assert list(tmp_path.glob("*.part")) == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("step", ["subset", "transform"])
def test_data_step_allocates_its_result_once(table, step):
    ds, picks = table
    call = (ds.subset, picks) if step == "subset" else (Standardizer.fit(ds).transform, ds)
    out, peak = _traced(*call)
    assert peak <= 1.05 * _nbytes(out)


def test_subset_and_transform_own_their_arrays_and_leave_the_input():
    ds = synthesize(3, 20, dim=4, separation=2.0, seed=27)
    features, labels = ds.features.copy(), ds.labels.copy()
    scaler = Standardizer.fit(ds)
    mean, std = scaler.mean.copy(), scaler.std.copy()
    for out in (ds.subset(np.arange(len(ds))), scaler.transform(ds)):
        assert not np.shares_memory(out.features, ds.features)
        assert not np.shares_memory(out.labels, ds.labels)
    npt.assert_array_equal(ds.features, features)
    npt.assert_array_equal(ds.labels, labels)
    npt.assert_array_equal(scaler.mean, mean)
    npt.assert_array_equal(scaler.std, std)
    npt.assert_array_equal(scaler.transform(ds).features, (features - mean) / std)
