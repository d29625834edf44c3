"""Reproducible experiment grid: {method x noise kind x rate x seed}.

One config describes a dataset (CSV or synthetic), a method, a noise grid
and seeds. Each cell injects label noise into the clean training split,
runs the method, and scores the clean test split. Emission produces
summary.csv (per-cell rows plus per-rate means), one epochs_<cell>.csv
per successful cell, and a result.json that round-trips losslessly.
"""

from __future__ import annotations

import configparser
import json
import os
from collections import deque
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
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
from .network import TrainConfig, _is_int
from .noise import NOISE_KINDS, build_noise_matrix, inject_noise
from .training import (
    EpochMetrics,
    _openblas_threads,
    evaluate,
    train_module,
    train_student,
    train_teachers,
)

METHODS = ("jocot", "coteaching", "coteachingplus", "jocor", "ce_baseline")

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


@dataclass
class ExperimentConfig:
    method: str = "jocot"
    noise_kind: str = "symmetric"
    rates: tuple = (0.2,)
    seeds: tuple = (1,)
    out_dir: str = "results"
    csv_path: Optional[str] = None
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    split_seed: int = 0
    rebalance_per_class: Optional[int] = None
    standardize: bool = False
    train_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"noise_kind must be one of {NOISE_KINDS}")
        self.rates = tuple(float(r) for r in self.rates)
        if any(not 0.0 <= r < 1.0 for r in self.rates):
            raise ValueError("every noise rate must lie in [0, 1)")
        streams = {}
        for r in self.rates:
            key = _noise_stream(r)
            if key in streams:
                raise ValueError(f"noise rates {streams[key]!r} and {r!r} share one noise "
                                 f"stream; rates must differ after rounding to 1e-4")
            streams[key] = r
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not all(_is_int(s) for s in self.seeds):
            raise ValueError(f"seeds must be integers, got {self.seeds!r}")
        self.seeds = tuple(int(s) for s in self.seeds)
        if not isinstance(self.standardize, bool):
            raise ValueError(f"standardize must be true or false, got {self.standardize!r}")
        valid = {f.name for f in fields(TrainConfig)}
        unknown = set(self.train_overrides) - valid
        if unknown:
            raise ValueError(f"unknown train settings: {sorted(unknown)}")
        # train_config sets these per cell from the grid's seeds and rates
        for key in ("seed", "noise_rate_tau"):
            if key in self.train_overrides:
                raise ValueError(f"train setting {key!r} is set per cell by the grid")
        # a bad value fails here, not later as an error in every cell
        TrainConfig(**self.train_overrides)

    def train_config(self, rate: float, seed: int) -> TrainConfig:
        kwargs = dict(self.train_overrides)
        kwargs["noise_rate_tau"] = rate
        kwargs["seed"] = seed
        return TrainConfig(**kwargs)

    def to_dict(self) -> dict:
        # normalized to JSON-native types so the result.json config echo
        # compares equal after a serialization round trip
        return json.loads(json.dumps(asdict(self)))


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


def _parse_scalar(value: str):
    text = value.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_tuple(value: str):
    return tuple(_parse_scalar(v) for v in value.split(",") if v.strip())


def load_config(path) -> ExperimentConfig:
    """Read the sectioned key=value config format.

    Sections: [data] (csv / synthetic and split settings), [experiment]
    (method, noise grid, output), [train] (TrainConfig overrides). Unknown
    keys are errors so typos cannot silently fall back to defaults.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read(path)
    unknown_sections = set(parser.sections()) - {"data", "experiment", "train"}
    if unknown_sections:
        raise ValueError(f"{path}: unknown sections {sorted(unknown_sections)}")

    kwargs = {}
    synth = {}
    if parser.has_section("data"):
        known = {"csv", "classes", "per_class", "dim", "separation", "data_seed",
                 "split_seed", "standardize", "rebalance"}
        unknown = set(parser["data"]) - known
        if unknown:
            raise ValueError(f"{path}: unknown [data] keys {sorted(unknown)}")
        section = parser["data"]
        if "csv" in section:
            kwargs["csv_path"] = section["csv"].strip()
        for src, dst in (("classes", "num_classes"), ("per_class", "per_class"),
                         ("dim", "dim"), ("separation", "separation"),
                         ("data_seed", "seed")):
            if src in section:
                value = _parse_scalar(section[src])
                number = src == "separation" and isinstance(value, float)
                if not (_is_int(value) or number):
                    kind = "a number" if src == "separation" else "an integer"
                    raise ValueError(f"{path}: [data] {src} must be {kind}, got {value!r}")
                synth[dst] = value
        for src, dst, least in (("split_seed", "split_seed", 0),
                                ("rebalance", "rebalance_per_class", 1)):
            if src in section:
                value = _parse_scalar(section[src])
                if not (_is_int(value) and value >= least):
                    raise ValueError(f"{path}: [data] {src} must be an integer "
                                     f">= {least}, got {value!r}")
                kwargs[dst] = value
        if "standardize" in section:
            kwargs["standardize"] = _parse_scalar(section["standardize"])
    if parser.has_section("experiment"):
        known = {"method", "noise", "rates", "seeds", "out"}
        unknown = set(parser["experiment"]) - known
        if unknown:
            raise ValueError(f"{path}: unknown [experiment] keys {sorted(unknown)}")
        section = parser["experiment"]
        if "method" in section:
            kwargs["method"] = section["method"].strip()
        if "noise" in section:
            kwargs["noise_kind"] = section["noise"].strip()
        if "rates" in section:
            kwargs["rates"] = _parse_tuple(section["rates"])
        if "seeds" in section:
            kwargs["seeds"] = _parse_tuple(section["seeds"])
        if "out" in section:
            kwargs["out_dir"] = section["out"].strip()
    if parser.has_section("train"):
        # configparser lowercases option names: map them back onto the
        # TrainConfig fields (num_gradual_T); unknown keys reach validation
        field_names = {f.name.lower(): f.name for f in fields(TrainConfig)}
        overrides = {}
        for key, value in parser["train"].items():
            key = field_names.get(key, key)
            if key == "hidden_dims":
                overrides[key] = _parse_tuple(value)
            else:
                overrides[key] = _parse_scalar(value)
        kwargs["train_overrides"] = overrides
    return ExperimentConfig(synthetic=SyntheticSpec(**synth), **kwargs)


def _prepare_splits(config: ExperimentConfig):
    if config.csv_path is not None:
        dataset = load_csv(config.csv_path)
    else:
        s = config.synthetic
        dataset = synthesize(s.num_classes, s.per_class, s.dim, s.separation, s.seed)
    if config.rebalance_per_class is not None:
        dataset = rebalance(dataset, config.rebalance_per_class, config.split_seed)
    train, test, val = split(dataset, SplitSpec(seed=config.split_seed))
    if config.standardize:
        scaler = Standardizer.fit(train)
        train, test, val = (scaler.transform(d) for d in (train, test, val))
    return train, test, val


def _noise_stream(rate: float) -> int:
    return int(round(rate * 10_000))


def _noise_seed(seed: int, rate: float) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(_NOISE_SPAWN_PREFIX, _noise_stream(rate)))


def _final_precision(metrics: List[EpochMetrics], mask) -> float:
    # a cell with no corrupted labels has nothing to find; define the
    # metric as perfect so summaries stay in [0, 1]
    return 1.0 if mask.num_flipped == 0 else metrics[-1].noisy_label_precision


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _inject(cell: CellResult, train_set: LabeledDataset, config: ExperimentConfig):
    """The noise half of a cell: its TrainConfig and noise mask."""
    train_cfg = config.train_config(cell.rate, cell.seed)
    matrix = build_noise_matrix(cell.noise_kind, cell.rate, train_set.num_classes)
    return train_cfg, inject_noise(train_set.labels, matrix, _noise_seed(cell.seed, cell.rate))


def _train(cell: CellResult, train_cfg: TrainConfig, mask, splits) -> CellResult:
    """The training half of a cell, on the (train, test, val) splits with
    the mask's noisy labels: fills in and returns ``cell``; exceptions
    become the cell's error."""
    train_set, test_set, val_set = splits
    try:
        noisy_train = LabeledDataset(train_set.features, mask.noisy_labels,
                                     train_set.num_classes, train_set.class_names)
        if cell.method == "jocot":
            teachers = train_teachers(train_cfg, noisy_train,
                                      test_set=test_set, noise_mask=mask)
            student = train_student(noisy_train.subset(teachers.final_selection.indices),
                                    val_set, train_cfg, test_set=test_set)
            cell.teacher_metrics = teachers.metrics
            cell.student_metrics = student.metrics
            cell.test_acc = evaluate(student.params, test_set)
            cell.noisy_precision = _final_precision(teachers.metrics, mask)
            cell.clean_set_size = len(teachers.final_selection)
        elif cell.method == "ce_baseline":
            student = train_student(noisy_train, val_set, train_cfg, test_set=test_set)
            cell.student_metrics = student.metrics
            cell.test_acc = evaluate(student.params, test_set)
            # the baseline judges no sample noisy
            cell.noisy_precision = 1.0 if mask.num_flipped == 0 else 0.0
            cell.clean_set_size = len(noisy_train)
        else:
            module = train_module(train_cfg, cell.method, noisy_train,
                                  test_set=test_set, noise_mask=mask)
            cell.teacher_metrics = module.metrics
            cell.test_acc = module.metrics[-1].test_accuracy
            cell.noisy_precision = _final_precision(module.metrics, mask)
            cell.clean_set_size = len(module.final_selection)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        cell.error = _error(exc)
    return cell


def run_cell(method: str, noise_kind: str, rate: float, seed: int,
             train_set: LabeledDataset, test_set: LabeledDataset,
             val_set: LabeledDataset, config: ExperimentConfig) -> CellResult:
    """Execute a single grid cell in this process, noise then training, as
    run_experiment does in two halves; exceptions become the cell's error."""
    cell = CellResult(method, noise_kind, rate, seed)
    try:
        train_cfg, mask = _inject(cell, train_set, config)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        cell.error = _error(exc)
        return cell
    return _train(cell, train_cfg, mask, (train_set, test_set, val_set))


def _default_start_method() -> str:
    """The start method a multiprocessing context would use, read without
    fixing it, so a later set_start_method call by the caller still works."""
    import multiprocessing

    return (multiprocessing.get_start_method(allow_none=True)
            or multiprocessing.get_all_start_methods()[0])


def _cell_workers(cells: int) -> int:
    """How many worker processes train a grid's cells: one per usable CPU,
    at most one per cell. 1 means in-process: fewer than two fit, no
    OpenBLAS count can be pinned to one thread per worker, or the default
    start method is not fork. Under spawn or forkserver each worker would
    re-import the caller's __main__, which breaks scripts that run a grid
    at module level."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(cells, cpus)
    if workers < 2 or _openblas_threads() is None or _default_start_method() != "fork":
        return 1
    return workers


# the grid's splits in a worker process, set once by _start_worker
_worker_splits = None


def _start_worker(splits):
    """Pool initializer. Keeps the splits for every cell the worker trains,
    so they are not pickled per cell (under fork they are not pickled at
    all), and pins OpenBLAS to one thread, so the workers do not each ask
    for every core."""
    global _worker_splits
    _worker_splits = splits
    blas = _openblas_threads()
    if blas is not None:
        blas[1](1)


def _train_in_worker(cell: CellResult, train_cfg: TrainConfig, mask) -> CellResult:
    return _train(cell, train_cfg, mask, _worker_splits)


def _submit(pool, job):
    """Send one (cell, train_cfg, mask) job to the pool; a pool that a dead
    worker has broken gives a future holding that error."""
    from concurrent.futures import Future
    from concurrent.futures.process import BrokenProcessPool

    try:
        return pool.submit(_train_in_worker, *job)
    except BrokenProcessPool as exc:
        future = Future()
        future.set_exception(exc)
        return future


def _trained(jobs, splits, workers: int):
    """Yield each (cell, train_cfg, mask) job's trained cell, in job order:
    in this process when ``workers`` is below 2, else from that many forked
    worker processes. A worker that dies becomes the error of every cell the
    pool left unfinished."""
    if workers < 2:
        for job in jobs:
            yield _train(*job, splits)
        return
    # imported here: the pool's modules add about 2 MB of resident memory,
    # which no caller that trains in-process should pay
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=(splits,)) as pool:
        # No more cells are sent than there are workers, and the next one
        # only once the consumer asks for it. So when the generator stops
        # early (progress raised, or Ctrl-C), leaving the pool waits only for
        # the cells already training, and no queued cell starts.
        todo = iter(jobs)
        window = deque(_submit(pool, job) for job in islice(todo, workers))
        for cell, *_ in jobs:
            try:
                trained = window.popleft().result()
            except BrokenProcessPool as exc:
                cell.error = _error(exc)
                trained = cell
            yield trained
            for job in islice(todo, 1):
                window.append(_submit(pool, job))


def run_experiment(config: ExperimentConfig,
                   progress=None) -> ExperimentResult:
    """Run every (rate, seed) cell of the configured method.

    The splits and every cell's label noise are made in this process, in
    grid order. The cells then train in worker processes when more than
    one fits the usable CPUs (see _cell_workers), else one after the other
    here; the results are the same either way. Cell failures are recorded
    in the per-cell error field; remaining cells still run. ``progress`` is
    an optional callable fed one line per completed cell, in grid order.
    """
    splits = _prepare_splits(config)
    cells, jobs = [], []
    for rate in config.rates:
        for seed in config.seeds:
            cell = CellResult(config.method, config.noise_kind, rate, seed)
            try:
                jobs.append((cell, *_inject(cell, splits[0], config)))
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                cell.error = _error(exc)
            cells.append(cell)
    # closing shuts the worker pool down also when progress raises, once
    # the cells already training are done
    with closing(_trained(jobs, splits, _cell_workers(len(jobs)))) as trained:
        for i, cell in enumerate(cells):
            if cell.error is None:  # its noise is injected, so it has a job
                cells[i] = cell = next(trained)
            if progress is not None:
                status = "ok" if cell.succeeded else f"FAILED ({cell.error})"
                acc = ("" if cell.test_acc is None
                       else f" test_acc={100 * cell.test_acc:.2f}%")
                progress(f"cell {cell.cell_id}: {status}{acc}")
    return ExperimentResult(__version__, config.to_dict(), cells)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _epoch_rows(cell: CellResult):
    """Project the cell's metric streams onto the epochs-CSV columns.

    Teacher rows come first; student rows continue the epoch numbering.
    Fields that do not apply to a phase stay empty.
    """
    rows = []
    offset = 0
    for m in cell.teacher_metrics:
        rows.append([m.epoch, m.test_accuracy, m.noisy_label_precision,
                     m.remember_rate, m.lr])
        offset = m.epoch + 1
    for m in cell.student_metrics:
        rows.append([m.epoch + offset, m.test_accuracy, m.noisy_label_precision,
                     m.remember_rate, m.lr])
    return rows


def _mean_or_none(values):
    present = [v for v in values if v is not None]
    return float(np.mean(present)) if present else None


def emit_metrics(result: ExperimentResult, out_dir) -> List[Path]:
    """Write summary.csv, one epochs_<cell>.csv per successful cell, and
    result.json. Returns the written paths."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    written = []

    summary = out / "summary.csv"
    lines = ["method,noise_kind,rate,seed,test_acc,noisy_precision,clean_set_size"]
    for c in result.cells:
        lines.append(",".join([c.method, c.noise_kind, repr(float(c.rate)),
                               str(c.seed), _fmt(c.test_acc), _fmt(c.noisy_precision),
                               _fmt(c.clean_set_size)]))
    seen = []
    for c in result.cells:
        key = (c.method, c.noise_kind, c.rate)
        if key in seen:
            continue
        seen.append(key)
        group = [x for x in result.cells if (x.method, x.noise_kind, x.rate) == key]
        if len(group) < 2:
            continue
        lines.append(",".join([
            key[0], key[1], repr(float(key[2])), "mean",
            _fmt(_mean_or_none([x.test_acc for x in group])),
            _fmt(_mean_or_none([x.noisy_precision for x in group])),
            _fmt(_mean_or_none([None if x.clean_set_size is None
                                else float(x.clean_set_size) for x in group])),
        ]))
    summary.write_text("\n".join(lines) + "\n")
    written.append(summary)

    for c in result.cells:
        if not c.succeeded:
            continue
        path = out / f"epochs_{c.cell_id}.csv"
        rows = ["epoch,test_acc,noisy_precision,remember_rate,lr"]
        for row in _epoch_rows(c):
            rows.append(",".join(_fmt(v) for v in row))
        path.write_text("\n".join(rows) + "\n")
        written.append(path)

    result_path = out / "result.json"
    result_path.write_text(json.dumps(result.to_json_dict(), indent=2,
                                      sort_keys=True) + "\n")
    written.append(result_path)
    return written


def load_result(path) -> ExperimentResult:
    with open(path) as fh:
        return ExperimentResult.from_json_dict(json.load(fh))
