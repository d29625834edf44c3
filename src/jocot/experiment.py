"""Reproducible experiment grid: {rate x seed} for one method and noise kind.

One config describes a dataset (CSV or synthetic), a method, a noise kind,
its rates and seeds. Each cell injects label noise into the clean training
split, runs the method, and scores the clean test split. Emission produces
summary.csv (per-cell rows plus per-rate means), one epochs_<cell>.csv
per successful cell, and a result.json that round-trips losslessly.
"""

from __future__ import annotations

import configparser
import csv
import json
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__
from .data import (
    LabeledDataset,
    SplitSpec,
    Standardizer,
    load_csv,
    rebalance,
    split,
    synthesize,
)
from .network import FieldError, TrainConfig, _check_fields
from .noise import NOISE_KINDS, build_noise_matrix, inject_noise
from .training import (
    METHODS,
    EpochMetrics,
    _in_children,
    train_student,
    train_teachers,
)

# spawn key prefix separating noise-injection streams from training streams
_NOISE_SPAWN_PREFIX = 1000


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the built-in Gaussian-cluster dataset."""

    num_classes: int = 12
    per_class: int = 600
    dim: int = 51
    separation: float = 3.0
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, num_classes=2, per_class=1, dim=2, seed=0)
        if not self.separation > 0:
            raise FieldError("separation", f"must be > 0, got {self.separation!r}")


@dataclass
class ExperimentConfig:
    method: str = "jocot"
    noise_kind: str = "symmetric"
    rates: tuple[float, ...] = (0.2,)
    seeds: tuple[int, ...] = (1,)
    out_dir: str = "results"
    csv_path: Optional[str] = None
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    split_seed: int = 0
    rebalance_per_class: Optional[int] = None
    standardize: bool = False
    train_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_fields(self, seeds=0, split_seed=0, rebalance_per_class=1)
        if self.method not in METHODS:
            raise FieldError("method", f"must be one of {tuple(METHODS)}, got {self.method!r}")
        if self.noise_kind not in NOISE_KINDS:
            raise FieldError("noise_kind", f"must be one of {NOISE_KINDS}")
        if not self.rates or any(not 0.0 <= r < 1.0 for r in self.rates):
            raise FieldError("rates", f"must be one or more in [0, 1), got {self.rates!r}")
        streams = {}
        for r in self.rates:
            key = _noise_stream(r)
            if key in streams:
                raise FieldError("rates", f"{streams[key]!r} and {r!r} share one noise "
                                 f"stream; rates must differ after rounding to 1e-4")
            streams[key] = r
        # two cells of one seed would share a cell_id and its epochs file
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise FieldError("seeds", f"must be one or more distinct seeds, got {self.seeds!r}")
        valid = {f.name for f in fields(TrainConfig)}
        unknown = set(self.train_overrides) - valid
        if unknown:
            raise ValueError(f"unknown train settings: {sorted(unknown)}")
        # train_config sets these per cell from the grid's seeds and rates
        for key in ("seed", "noise_rate_tau"):
            if key in self.train_overrides:
                raise FieldError(key, "is set per cell by the grid")
        # a bad value fails here, not later as an error in every cell
        TrainConfig(**self.train_overrides)

    def train_config(self, rate: float, seed: int) -> TrainConfig:
        kwargs = dict(self.train_overrides)
        kwargs["noise_rate_tau"] = rate
        kwargs["seed"] = seed
        return TrainConfig(**kwargs)

    def to_dict(self) -> dict:
        # normalized to JSON-native types, a numpy scalar to its Python value, so
        # the result.json config echo compares equal after a serialization round trip
        return json.loads(json.dumps(asdict(self), default=np.generic.item))


@dataclass
class CellResult:
    """Outcome of one (method, noise kind, rate, seed) grid cell."""

    method: str
    noise_kind: str
    rate: float
    seed: int
    test_acc: Optional[float] = None
    noisy_precision: Optional[float] = None
    clean_set_size: Optional[int] = None
    error: Optional[str] = None
    teacher_metrics: List[EpochMetrics] = field(default_factory=list)
    student_metrics: List[EpochMetrics] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.error is None

    @property
    def cell_id(self) -> str:
        return f"{self.method}_{self.noise_kind}_{self.rate!r}_{self.seed}"


@dataclass
class ExperimentResult:
    version: str
    config: dict
    cells: List[CellResult]

    @property
    def all_succeeded(self) -> bool:
        return all(c.succeeded for c in self.cells)

    def to_json_dict(self) -> dict:
        return {"version": self.version, "config": self.config,
                "cells": [asdict(c) for c in self.cells]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentResult":
        cells = []
        for c in data["cells"]:
            c = dict(c)
            teacher = [EpochMetrics(**m) for m in c.pop("teacher_metrics")]
            student = [EpochMetrics(**m) for m in c.pop("student_metrics")]
            cells.append(CellResult(**c, teacher_metrics=teacher,
                                    student_metrics=student))
        return cls(data["version"], data["config"], cells)


# Each config file section's keys and the field each sets: [data] keys set
# SyntheticSpec or ExperimentConfig fields, [experiment] keys (also the `jocot
# run` flags) ExperimentConfig ones, [train] keys TrainConfig ones (lowercased).
CONFIG_KEYS = {
    "data": {"csv": "csv_path", "classes": "num_classes", "per_class": "per_class",
             "dim": "dim", "separation": "separation", "data_seed": "seed",
             "split_seed": "split_seed", "standardize": "standardize",
             "rebalance": "rebalance_per_class"},
    "experiment": {"method": "method", "noise": "noise_kind", "rates": "rates",
                   "seeds": "seeds", "out": "out_dir"},
    "train": {f.name.lower(): f.name for f in fields(TrainConfig)},
}


def _parse_value(text: str, kind: str):
    """Config text as a field annotated ``kind`` holds it: the text of a str field,
    a tuple of the comma-separated items of a tuple field, else the bool, int or
    float the text spells, if any; what is left is for the field's check to reject."""
    text = text.strip()
    if "str" in kind:
        return text
    if kind.startswith("tuple["):
        return tuple(_parse_value(v, "") for v in text.split(",") if v.strip())
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return text


def load_config(path, flags: Optional[dict] = None) -> ExperimentConfig:
    """Read the sectioned key=value config format.

    Sections: [data] (csv / synthetic and split settings), [experiment]
    (method, noise grid, output), [train] (TrainConfig overrides). Unknown
    keys are errors so typos cannot silently fall back to defaults. The
    dataclass field a key sets checks its value, and an error names the key.
    ``flags`` maps [experiment] keys to text that replaces the file's.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)  # a % is literal
    try:
        parser.read(path)
    except configparser.Error as exc:  # a key given twice, no [section] header
        raise ValueError(f"{path}: {exc}") from None
    unknown_sections = set(parser.sections()) - set(CONFIG_KEYS)
    if unknown_sections:
        raise ValueError(f"{path}: unknown sections {sorted(unknown_sections)}")

    flags = flags or {}
    kinds = {f.name: f.type for cls in (SyntheticSpec, ExperimentConfig, TrainConfig)
             for f in fields(cls)}
    values = {}
    for section, table in CONFIG_KEYS.items():
        items = dict(parser[section]) if parser.has_section(section) else {}
        if section == "experiment":
            items.update(flags)
        unknown = set(items) - set(table)
        if unknown:
            raise ValueError(f"{path}: unknown [{section}] keys {sorted(unknown)}")
        values[section] = {table[k]: _parse_value(v, kinds[table[k]]) for k, v in items.items()}
    data = values["data"]
    synth = {f.name: data.pop(f.name) for f in fields(SyntheticSpec) if f.name in data}
    synthetic = None
    try:
        synthetic = SyntheticSpec(**synth)
        return ExperimentConfig(synthetic=synthetic, train_overrides=values["train"],
                                **data, **values["experiment"])
    except FieldError as exc:
        # name the key or flag that set the field; once SyntheticSpec is
        # built, a seed is the [train] seed, not data_seed
        for section in ["data"] if synthetic is None else ["train", "data", "experiment"]:
            for key, name in CONFIG_KEYS[section].items():
                if name == exc.field:
                    where = f"--{key}" if key in flags else f"{path}: [{section}] {key!r}"
                    raise ValueError(f"{where} {exc.problem}") from None
        raise


def _prepare_splits(config: ExperimentConfig):
    if config.csv_path is not None:
        dataset = load_csv(config.csv_path)
    else:
        s = config.synthetic
        dataset = synthesize(s.num_classes, s.per_class, s.dim, s.separation, s.seed)
    if config.rebalance_per_class is not None:
        dataset = rebalance(dataset, config.rebalance_per_class, config.split_seed)
    # no noise matrix flips labels among fewer than two classes
    if dataset.num_classes < 2:
        raise ValueError(f"need at least 2 classes for label noise, got {dataset.num_classes}")
    train, test, val = split(dataset, SplitSpec(seed=config.split_seed))
    # a split left empty would fail every cell after training; only a
    # student reads the validation split
    empty = [name for name, part in (("train", train), ("test", test), ("val", val))
             if len(part) == 0 and (name != "val" or METHODS[config.method][2])]
    if empty:
        raise ValueError(f"no sample in the {' or '.join(empty)} split: the data splits "
                         f"into {len(train)} train, {len(test)} test and {len(val)} val samples")
    if config.standardize:
        scaler = Standardizer.fit(train)
        train, test, val = (scaler.transform(d) for d in (train, test, val))
    return train, test, val


def _noise_stream(rate: float) -> int:
    return int(round(rate * 10_000))


def _noise_seed(seed: int, rate: float) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(_NOISE_SPAWN_PREFIX, _noise_stream(rate)))


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _inject(cell: CellResult, train_set: LabeledDataset, config: ExperimentConfig):
    """The noise half of a cell: its TrainConfig and noise mask."""
    train_cfg = config.train_config(cell.rate, cell.seed)
    matrix = build_noise_matrix(cell.noise_kind, cell.rate, train_set.num_classes)
    return train_cfg, inject_noise(train_set.labels, matrix, _noise_seed(cell.seed, cell.rate))


def _train(cell: CellResult, train_cfg: TrainConfig, mask, splits) -> CellResult:
    """The training half of a cell, on the (train, test, val) splits with
    the mask's noisy labels: the method's teacher pairs, if any, then its
    student, if any, on their clean set or on every sample. Fills in and
    returns ``cell``, whose test accuracy is the last phase's; an exception
    becomes the cell's error."""
    train_set, test_set, val_set = splits
    try:
        pairs, _, trains_student = METHODS[cell.method]
        noisy_train = LabeledDataset(train_set.features, mask.noisy_labels,
                                     train_set.num_classes)
        teacher_metrics, student_metrics, clean_set_size = [], [], len(noisy_train)
        if pairs:
            teachers = train_teachers(train_cfg, noisy_train, cell.method,
                                      test_set=test_set, noise_mask=mask)
            final = teachers.final_selection.indices
            teacher_metrics, clean_set_size = teachers.metrics, len(final)
            test_acc = teacher_metrics[-1].test_accuracy
        if trains_student:
            student = train_student(noisy_train.subset(final) if pairs else noisy_train,
                                    val_set, train_cfg, test_set=test_set)
            student_metrics = student.metrics
            test_acc = student_metrics[student.best_epoch].test_accuracy
        # a cell that fails keeps none of its phases' results
        cell.teacher_metrics, cell.student_metrics = teacher_metrics, student_metrics
        cell.test_acc, cell.clean_set_size = test_acc, clean_set_size
        if mask.num_flipped == 0:  # nothing to find: define the metric as perfect
            cell.noisy_precision = 1.0
        elif cell.teacher_metrics:
            cell.noisy_precision = cell.teacher_metrics[-1].noisy_label_precision
        else:  # the baseline judges no sample noisy
            cell.noisy_precision = 0.0
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        cell.error = _error(exc)
    return cell


def run_experiment(config: ExperimentConfig,
                   progress=None) -> ExperimentResult:
    """Run every (rate, seed) cell of the configured method.

    The splits and every cell's label noise are made in this process, in
    grid order; a config that passes its checks gives data that serves
    every cell, so an error here is raised. The cells then train as
    training._in_children jobs, one per cell, each in a forked child when
    more than one fits the usable CPUs, else one after the other here; the
    results are the same either way. Training failures, a child process
    that dies included, are recorded in the per-cell error field; remaining
    cells still run.
    ``progress`` is an optional callable fed one line per completed cell,
    in grid order.
    """
    splits = _prepare_splits(config)
    cells = [CellResult(config.method, config.noise_kind, rate, seed)
             for rate in config.rates for seed in config.seeds]
    jobs = [(cell, *_inject(cell, splits[0], config), splits) for cell in cells]
    # closing terminates the cells in training also when progress raises
    with closing(_in_children("jocot-cell", _train, jobs)) as calls:
        for i, get in enumerate(calls):
            try:
                cells[i] = get()
            except Exception as exc:  # noqa: BLE001 - a dead child fails its own cell only
                cells[i].error = _error(exc)
            if progress is not None:
                cell = cells[i]
                status = "ok" if cell.succeeded else f"FAILED ({cell.error})"
                acc = ("" if cell.test_acc is None
                       else f" test_acc={100 * cell.test_acc:.2f}%")
                progress(f"cell {cell.cell_id}: {status}{acc}")
    return ExperimentResult(__version__, config.to_dict(), cells)


def _epoch_rows(cell: CellResult):
    """Project the cell's metric streams onto the epochs-CSV columns.

    Teacher rows come first; student rows continue the epoch numbering.
    Fields that do not apply to a phase stay empty.
    """
    offset = cell.teacher_metrics[-1].epoch + 1 if cell.teacher_metrics else 0
    phases = [(cell.teacher_metrics, 0), (cell.student_metrics, offset)]
    return [[m.epoch + shift, m.test_accuracy, m.noisy_label_precision, m.remember_rate, m.lr]
            for metrics, shift in phases for m in metrics]


def _mean_or_none(values):
    present = [v for v in values if v is not None]
    return float(np.mean(present)) if present else None


def _write_table(path: Path, header: str, rows) -> Path:
    """Write the comma-separated ``header``, then ``rows`` (None as "", a float as its repr)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header.split(","))
        writer.writerows(rows)
    return path


def emit_metrics(result: ExperimentResult, out_dir) -> List[Path]:
    """Write summary.csv, one epochs_<cell>.csv per successful cell, and
    result.json. Returns the written paths."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc

    # one mean row per (method, noise kind, rate) group of two or more cells
    groups = {}
    for c in result.cells:
        groups.setdefault((c.method, c.noise_kind, c.rate), []).append(c)
    rows = [[c.method, c.noise_kind, float(c.rate), c.seed, c.test_acc, c.noisy_precision,
             c.clean_set_size] for c in result.cells]
    rows += [[method, kind, float(rate), "mean",
              *(_mean_or_none([getattr(c, name) for c in group])
                for name in ("test_acc", "noisy_precision", "clean_set_size"))]
             for (method, kind, rate), group in groups.items() if len(group) > 1]
    written = [_write_table(
        out / "summary.csv",
        "method,noise_kind,rate,seed,test_acc,noisy_precision,clean_set_size", rows)]

    written += [_write_table(out / f"epochs_{c.cell_id}.csv",
                             "epoch,test_acc,noisy_precision,remember_rate,lr", _epoch_rows(c))
                for c in result.cells if c.succeeded]

    result_path = out / "result.json"
    result_path.write_text(json.dumps(result.to_json_dict(), indent=2,
                                      sort_keys=True) + "\n")
    written.append(result_path)
    return written


def load_result(path) -> ExperimentResult:
    with open(path) as fh:
        return ExperimentResult.from_json_dict(json.load(fh))
