"""Dataset ingestion, rebalancing, stratified splitting, synthetic generation.

The on-disk format is a single CSV schema: header ``f0,...,f{d-1},label``,
one sample per row, decimal feature values, integer label (1-based files
are re-indexed to 0-based on load). The canonical skeleton layout has 51
features (17 landmarks x 3 values); the width of a file is taken from
its header.

save_csv and load_csv cut a CSV into contiguous ranges of rows, or of
whole lines, and run each as a job of jobs._in_children, so a large file is
formatted or parsed on every usable CPU; a file under twice _SAVE_JOB_BYTES
of features, or twice _LOAD_JOB_BYTES of body text, is one job in the
caller. The bytes written and the arrays and errors read are the
same for any cut.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import shutil
import tempfile
import warnings
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import jobs
from .network import FieldError, _check_fields

CANONICAL_FEATURES = 51

# the least share of one save_csv job (bytes of features to format) and of
# one load_csv job (bytes of body text to parse): a file gets one job per
# share, at most one per worker that jobs._fork_workers allows, so under two
# shares it is one job in the caller. Two shares sit just past the size from
# which two forked jobs beat one at 1 and at 2 OpenBLAS threads on 2 CPUs
# (BENCH_23.json "csv_job_crossover"): a save of 1,440 rows of 51 features
# (588 KB), a load of 3,840 rows (3.8 MB of text)
_SAVE_JOB_BYTES = 320 << 10
_LOAD_JOB_BYTES = 2 << 20

# the block in which a cut is searched for and a part file is copied
_SCAN_BYTES = 1 << 16

_LINE_END = re.compile(rb"\r\n?|\n")


@dataclass
class LabeledDataset:
    """Immutable-by-convention feature matrix with 0-based integer labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be (n, d) and labels (n,)")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("feature and label counts differ")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes - 1}]")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        if np.asarray(indices).dtype == bool:
            raise ValueError("subset takes sample indices, not a boolean mask")
        idx = np.asarray(indices, dtype=np.intp)
        # indexing by an array already copies, so the result owns its rows
        return LabeledDataset(self.features[idx], self.labels[idx], self.num_classes)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass(frozen=True)
class SplitSpec:
    """The shuffle seed of the fixed 8:1:1 train/test/validation split."""

    seed: int = 0


def _parse_header(header, path):
    if not header or header[-1].strip() != "label":
        raise ValueError(f"{path}:1: schema error, header must end with 'label'")
    d = len(header) - 1
    expected = [f"f{i}" for i in range(d)]
    got = [c.strip() for c in header[:-1]]
    if d < 1 or got != expected:
        raise ValueError(f"{path}:1: schema error, header must read f0,...,f{{d-1}},label")
    return d


# what numpy's reader raises on a body it cannot parse; numpy 1.23-1.26
# read "3.0" into an integer column with a DeprecationWarning, made an error
_PARSE_ERRORS = (ValueError, OverflowError, DeprecationWarning)


def _parse_rows(source, d: int) -> np.ndarray:
    """Body rows as one structured array with fields features (d floats)
    and label, parsed by numpy's C reader from a file or list of lines."""
    dtype = np.dtype([("features", np.float64, (d,)), ("label", np.intp)])
    with warnings.catch_warnings():
        warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float",
                                DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None,
                          quotechar='"', ndmin=1)


def _raise_first_bad_line(path, d: int):
    """Re-read the body line by line to name the first line that the bulk
    parse rejects or that holds a non-finite value."""
    with open(path, newline="") as fh:
        next(csv.reader(fh), None)
        for lineno, line in enumerate(fh, start=2):
            row = next(csv.reader([line]), [])
            if not row:
                continue
            if len(row) != d + 1:
                raise ValueError(f"{path}:{lineno}: expected {d + 1} columns, got {len(row)}")
            try:
                rows = _parse_rows([line], d)
            except _PARSE_ERRORS:
                raise ValueError(f"{path}:{lineno}: malformed numeric value") from None
            if not np.isfinite(rows["features"]).all():
                raise ValueError(f"{path}:{lineno}: non-finite feature value")
    raise ValueError(f"{path}: malformed CSV body")


def _line_end(fh, pos: int) -> int:
    """The offset just past the first line terminator (\\n, \\r\\n taken as
    one, or a bare \\r) at or after byte ``pos`` of the binary file ``fh``,
    or the file's size if none follows."""
    fh.seek(pos)
    while chunk := fh.read(_SCAN_BYTES):
        found = _LINE_END.search(chunk)
        if found:
            end = pos + found.end()
            if found.group() == b"\r" and found.end() == len(chunk):
                end += fh.read(1) == b"\n"  # a \r\n split across two reads
            return end
        pos += len(chunk)
    return pos


class _ByteRange(io.RawIOBase):
    """Bytes [start, stop) of the file at ``path``, as a stream."""

    def __init__(self, path, start: int, stop: int):
        self._file = open(path, "rb", buffering=0)
        self._file.seek(start)
        self._left = stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._file.readinto(memoryview(buffer)[:self._left])
        self._left -= count
        return count

    def close(self) -> None:
        self._file.close()
        super().close()


def _parse_range(path, d: int, start: int, stop: int):
    """One load_csv job: the whole lines in bytes [start, stop) of the
    file, read as a stream, decoded as open decodes them and parsed as the
    text a newline="" handle returns. Returns their rows, or None if a line
    does not parse or a feature is not finite."""
    with io.TextIOWrapper(_ByteRange(path, start, stop), newline="") as text:
        try:
            rows = _parse_rows(text, d)
        except _PARSE_ERRORS:
            return None
    return rows if np.isfinite(rows["features"]).all() else None


def _load_ranges(path, d: int, bounds):
    """The features and labels of the body between consecutive offsets of
    ``bounds``, one _parse_range job each, or None if any job finds a bad
    line. The jobs' rows are joined in order once all have answered."""
    parts = []
    with closing(jobs._in_children("jocot-csv", _parse_range,
                                   [(path, d, a, b) for a, b in zip(bounds, bounds[1:])])) as calls:
        for get in calls:
            rows = get()
            if rows is None:
                return None
            parts.append(rows)
    return (np.concatenate([rows["features"] for rows in parts]),
            np.concatenate([rows["label"] for rows in parts]))


def load_csv(path) -> LabeledDataset:
    """Parse a feature CSV; errors carry the offending line number.

    The width is taken from the header. Files labeled 1..M are shifted to
    0..M-1, detected by the absence of label 0. The body is cut after line
    terminators into one contiguous job per worker that jobs._fork_workers
    allows, at most one per _LOAD_JOB_BYTES of it; the arrays are the same for
    any cut. A quoted field may hold a line terminator, so a cut body that
    does not parse is parsed again whole; only if that fails too is it read
    line by line, to name the first bad line.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        d = _parse_header(next(reader, None), path)
        start, size = 0, path.stat().st_size
        for _ in range(reader.line_num):  # the body starts after the header's lines
            start = _line_end(fh.buffer, start)
        count = jobs._fork_workers((size - start) // _LOAD_JOB_BYTES)
        cuts = {_line_end(fh.buffer, start + (size - start) * i // count)
                for i in range(1, count)}
    bounds = [start, *sorted(cuts - {size}), size]
    loaded = _load_ranges(path, d, bounds)
    if loaded is None and len(bounds) > 2:
        loaded = _load_ranges(path, d, [start, size])
    if loaded is None:
        _raise_first_bad_line(path, d)
    features, labels = loaded
    if not labels.size:
        raise ValueError(f"{path}: no data rows")
    if labels.min() < 0:
        raise ValueError(f"{path}: negative labels")
    if labels.min() >= 1:
        labels = labels - 1  # 1-based file
    return LabeledDataset(features, labels, int(labels.max()) + 1)


def _write_rows(dataset: LabeledDataset, path, mode: str, start: int, stop: int) -> None:
    """One save_csv job: rows [start, stop) of the dataset to ``path``,
    opened in ``mode``, each formatted on its own."""
    with open(path, mode, newline="") as fh:
        fh.writelines(",".join(map(repr, row.tolist())) + f",{label}\n"
                      for row, label in zip(dataset.features[start:stop],
                                            dataset.labels[start:stop].tolist()))


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write the dataset in the load_csv schema; floats via repr so a
    save/load round trip is bitwise exact. Rows are formatted one at a
    time, so no Python float outlives its row. They are cut into one
    contiguous job per worker that jobs._fork_workers allows, at most one
    per _SAVE_JOB_BYTES of features: the first job appends its rows to the
    header, each later one writes a part file of a new name beside ``path``,
    and the parts are appended in order, so the bytes are the same for any
    cut. No part file outlives the call."""
    path = Path(path)
    n, d = dataset.features.shape
    count = jobs._fork_workers(dataset.features.nbytes // _SAVE_JOB_BYTES)
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"f{i}" for i in range(d)] + ["label"]) + "\n")
    parts = []
    try:
        for _ in range(1, count):
            # a new name each, so no file already beside path is written over
            fd, part = tempfile.mkstemp(suffix=".part", prefix=f"{path.name}.", dir=path.parent)
            os.close(fd)
            parts.append(Path(part))
        writes = [(dataset, target, "w" if i else "a", n * i // count, n * (i + 1) // count)
                  for i, target in enumerate([path, *parts])]
        with closing(jobs._in_children("jocot-csv", _write_rows, writes)) as calls:
            for get in calls:
                get()
        with open(path, "ab") as out:
            for part in parts:
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, out, _SCAN_BYTES)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)


def rebalance(dataset: LabeledDataset, per_class: int, seed) -> LabeledDataset:
    """Sample up to per_class items per class without replacement (seeded).

    Classes with fewer samples are kept whole with a warning; empty
    classes are an error since the class then cannot be learned at all.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    rng = np.random.default_rng(seed)
    counts = dataset.class_counts()
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ValueError(f"class {int(empty[0])} has no samples")
    kept = []
    for c in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == c)
        if members.size < per_class:
            warnings.warn(
                f"class {c} has only {members.size} samples, keeping all "
                f"(wanted {per_class})", stacklevel=2)
            kept.append(members)
        else:
            kept.append(np.sort(rng.choice(members, size=per_class, replace=False)))
    return dataset.subset(np.concatenate(kept))


# the train, test and val shares of each class, in tenths
_SPLIT_TENTHS = (8, 1, 1)


def _largest_remainder_counts(n: int) -> list:
    """Train, test and val counts of n samples at 8:1:1, in integers: each
    part's whole tenths, then the leftovers to the largest remainders,
    earlier parts winning ties (train, then test, then val)."""
    counts = [n * t // 10 for t in _SPLIT_TENTHS]
    order = sorted(range(3), key=lambda i: (-(n * _SPLIT_TENTHS[i] % 10), i))
    for i in order[:n - sum(counts)]:
        counts[i] += 1
    return counts


def split(dataset: LabeledDataset, spec: SplitSpec):
    """Stratified (train, test, val) partition at 8:1:1: each class is
    shuffled by ``spec.seed`` and cut at its largest-remainder counts,
    which are exact integers, so a part of a small class may be empty."""
    if len(dataset) < 3:
        raise ValueError("dataset too small to split three ways")
    rng = np.random.default_rng(spec.seed)
    parts = [[], [], []]
    for c in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == c)
        if members.size == 0:
            continue
        members = rng.permutation(members)
        counts = _largest_remainder_counts(members.size)
        start = 0
        for part, count in zip(parts, counts):
            part.append(members[start:start + count])
            start += count
    picks = [np.sort(np.concatenate(p)) if p else np.array([], dtype=np.intp) for p in parts]
    return tuple(dataset.subset(p) for p in picks)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the built-in Gaussian-cluster dataset."""

    num_classes: int = 12
    per_class: int = 600
    dim: int = CANONICAL_FEATURES
    separation: float = 3.0
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, num_classes=2, per_class=1, dim=2, seed=0)
        if not self.separation > 0:
            raise FieldError("separation", f"must be > 0, got {self.separation!r}")
        if self.separation == math.inf:
            raise FieldError("separation", f"must be finite, got {self.separation!r}")


def synthesize(num_classes: int, per_class: int, dim: int = CANONICAL_FEATURES,
               separation: float = 3.0, seed: int = 0) -> LabeledDataset:
    """Isotropic unit-variance Gaussian clusters around random centers.

    Each class center is a seeded random direction scaled to norm
    ``separation``; larger separation means easier classes. The arguments
    are checked as the SyntheticSpec fields of their names (FieldError).
    """
    SyntheticSpec(num_classes, per_class, dim, separation, seed)
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(num_classes, dim))
    centers = directions / np.linalg.norm(directions, axis=1, keepdims=True) * separation
    features = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.intp)
    for c in range(num_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        features[block] = centers[c] + rng.normal(size=(per_class, dim))
        labels[block] = c
    return LabeledDataset(features, labels, num_classes)


@dataclass
class Standardizer:
    """Per-feature affine transform fitted on the training split only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, dataset: LabeledDataset) -> "Standardizer":
        mean = dataset.features.mean(axis=0)
        std = dataset.features.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        return cls(mean, std)

    def transform(self, dataset: LabeledDataset) -> LabeledDataset:
        """(x - mean) / std in a new array: the divide runs in place on the
        difference, so the features are allocated once."""
        features = np.subtract(dataset.features, self.mean)
        features /= self.std
        return LabeledDataset(features, dataset.labels.copy(), dataset.num_classes)
