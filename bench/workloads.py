"""The three benchmark workloads.

Every input comes from the workload seed: four independent streams for the
data, the split, the label noise and training are drawn from
``SeedSequence(seed)``. A round runs the workload once; rounds of one run
repeat identical inputs, so their outputs must match bit for bit.

Program functions are looked up on the ``jocot`` package at call time, so a
traced round reaches them through the wrappers of ``spans.install``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import jocot
import jocot.cli

import checks as C

NUM_CLASSES = 12
FEATURES = 51
SEPARATION = 4.5


@dataclass(frozen=True)
class CellSpec:
    """One jocot cell: data size, network, optimiser, noise and schedule."""

    per_class: int
    hidden: tuple
    batch: int
    lr: float
    noise: str
    rate: float
    epochs: int
    gradual_T: int
    student_epochs: int
    separation: float


@dataclass(frozen=True)
class GridSpec:
    """A coteachingplus grid run through the jocot command."""

    per_class: int
    hidden: tuple
    batch: int
    lr: float
    rates: tuple
    seeds: int
    epochs: int


SPECS = {
    "acceptance-cell": {
        "full": CellSpec(600, (256, 128), 64, 3e-4, "symmetric", 0.4, 4, 2, 4, 4.5),
        "tiny": CellSpec(50, (32, 16), 32, 3e-3, "symmetric", 0.4, 3, 2, 3, 4.5),
    },
    "pairflip-selection": {
        "full": CellSpec(1500, (32,), 512, 3e-3, "pairflip", 0.45, 10, 5, 10, 6.0),
        "tiny": CellSpec(100, (32,), 64, 1e-2, "pairflip", 0.45, 4, 2, 8, 6.0),
    },
    "cli-grid": {
        "full": GridSpec(600, (128, 64), 128, 1e-3, (0.2, 0.45), 2, 6),
        "tiny": GridSpec(40, (16,), 64, 3e-3, (0.2, 0.45), 2, 2),
    },
}


@dataclass
class Round:
    """Figures of one round; times in seconds."""

    setup_s: float
    train_s: float
    wall_s: float
    failed: int
    samples: int
    teacher_epochs: int
    student_epochs: int
    test_acc: float = float("nan")
    clean_label_precision: float = float("nan")
    fingerprint: str = ""


def _streams(seed: int) -> list:
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(4)]


class JocotCell:
    """One jocot cell through the library: teachers, consensus, student."""

    cells_per_round = 1

    def __init__(self, spec: CellSpec, seed: int, work_dir: Path):
        self.spec = spec
        self.data_seed, self.split_seed, self.noise_seed, self.train_seed = _streams(seed)

    def run_round(self, checks: C.Checks) -> Round:
        s = self.spec
        t0 = perf_counter()
        dataset = jocot.synthesize(NUM_CLASSES, s.per_class, FEATURES, s.separation,
                                   self.data_seed)
        train, test, val = jocot.split(dataset, jocot.SplitSpec(seed=self.split_seed))
        matrix = jocot.build_noise_matrix(s.noise, s.rate, NUM_CLASSES)
        mask = jocot.inject_noise(train.labels, matrix, self.noise_seed)
        noisy = jocot.LabeledDataset(train.features, mask.noisy_labels, NUM_CLASSES)
        config = jocot.TrainConfig(
            base_lr=s.lr, batch_size=s.batch, total_epochs=s.epochs,
            decay_start_epoch=s.epochs - 1, hidden_dims=s.hidden,
            noise_rate_tau=s.rate, num_gradual_T=s.gradual_T, seed=self.train_seed)
        student_config = jocot.TrainConfig(
            base_lr=s.lr, batch_size=s.batch, total_epochs=s.student_epochs,
            decay_start_epoch=s.student_epochs - 1, hidden_dims=s.hidden,
            seed=self.train_seed)
        t1 = perf_counter()
        teachers = jocot.train_teachers(config, noisy, test_set=test, noise_mask=mask)
        final = np.asarray(teachers.final_selection.indices, dtype=np.intp)
        student = jocot.train_student(noisy.subset(final), val, student_config,
                                      test_set=test)
        t2 = perf_counter()

        test_acc = student.metrics[student.best_epoch].test_accuracy
        C.check_student_accuracy(checks, student.params, test, test_acc)
        precision = C.clean_set_precision(checks, final, train.labels, noisy.labels)
        C.check_noise(checks, train.labels, noisy.labels, s.noise, s.rate, NUM_CLASSES)
        C.check_remember_rates(checks, teachers.metrics, s.rate, s.gradual_T)
        digest = hashlib.sha256(final.tobytes())
        for w, b in zip(student.params.weights, student.params.biases):
            digest.update(w.tobytes())
            digest.update(b.tobytes())
        n = len(train.labels)
        return Round(setup_s=t1 - t0, train_s=t2 - t1, wall_s=t2 - t0, failed=0,
                     samples=4 * n * s.epochs + final.size * s.student_epochs,
                     teacher_epochs=s.epochs, student_epochs=s.student_epochs,
                     test_acc=test_acc, clean_label_precision=precision,
                     fingerprint=digest.hexdigest())


class CliGrid:
    """``jocot synth``, ``jocot run`` on a coteachingplus grid, ``jocot inspect``.

    The commands run in-process through ``jocot.cli.main``, the console
    entry point. Set-up is the synth command plus the steps ``jocot run``
    takes before training (CSV load, split, standardisation, noise
    injection), made here through the library; the load also serves the
    bitwise round-trip check.
    """

    def __init__(self, spec: GridSpec, seed: int, work_dir: Path):
        self.spec = spec
        self.data_seed, self.split_seed, self.noise_seed, self.train_seed = _streams(seed)
        self.seeds = tuple(self.train_seed + i for i in range(spec.seeds))
        self.cells_per_round = len(spec.rates) * spec.seeds
        # what synth should write, made once so that no round's trace holds it
        self.generated = jocot.synthesize(NUM_CLASSES, spec.per_class, FEATURES, SEPARATION,
                                          self.data_seed)
        self.csv = work_dir / "data.csv"
        self.out = work_dir / "out"
        self.config = work_dir / "grid.ini"
        work_dir.mkdir(parents=True, exist_ok=True)
        self.config.write_text(
            "[data]\n"
            f"csv = {self.csv}\n"
            f"split_seed = {self.split_seed}\n"
            "standardize = true\n"
            "[experiment]\n"
            "method = coteachingplus\n"
            "noise = pairflip\n"
            f"rates = {','.join(repr(r) for r in spec.rates)}\n"
            f"seeds = {','.join(str(x) for x in self.seeds)}\n"
            f"out = {self.out}\n"
            "[train]\n"
            f"base_lr = {spec.lr!r}\n"
            f"batch_size = {spec.batch}\n"
            f"total_epochs = {spec.epochs}\n"
            f"decay_start_epoch = {spec.epochs - 1}\n"
            f"hidden_dims = {','.join(str(h) for h in spec.hidden)}\n")

    @staticmethod
    def _cli(argv: list) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return jocot.cli.main(argv)

    def run_round(self, checks: C.Checks) -> Round:
        s = self.spec
        shutil.rmtree(self.out, ignore_errors=True)
        t0 = perf_counter()
        rc_synth = self._cli(["synth", "--classes", str(NUM_CLASSES),
                              "--per-class", str(s.per_class), "--dim", str(FEATURES),
                              "--separation", repr(SEPARATION),
                              "--seed", str(self.data_seed), "--out", str(self.csv)])
        t_synth = perf_counter()
        loaded = jocot.load_csv(self.csv)
        train, test, val = jocot.split(loaded, jocot.SplitSpec(seed=self.split_seed))
        scaler = jocot.Standardizer.fit(train)
        train, test, val = (scaler.transform(d) for d in (train, test, val))
        for i, rate in enumerate(s.rates):
            for j in range(s.seeds):
                matrix = jocot.build_noise_matrix("pairflip", rate, NUM_CLASSES)
                jocot.inject_noise(train.labels, matrix,
                                   np.random.SeedSequence(self.noise_seed, spawn_key=(i, j)))
        t1 = perf_counter()
        masks = []
        inject = jocot.experiment.inject_noise
        jocot.experiment.inject_noise = _tap(inject, masks)
        try:
            rc_run = self._cli(["run", "--config", str(self.config)])
        finally:
            jocot.experiment.inject_noise = inject
        t2 = perf_counter()
        rc_inspect = self._cli(["inspect", "--result", str(self.out / "result.json")])
        t3 = perf_counter()

        checks.expect(rc_synth == 0, f"jocot synth exited {rc_synth}")
        checks.expect(loaded.features.tobytes() == self.generated.features.tobytes()
                      and np.array_equal(loaded.labels, self.generated.labels),
                      "CSV does not load back bitwise equal to the generated data")
        checks.expect(rc_run == 0, f"jocot run exited {rc_run}")
        checks.expect(rc_inspect == 0, f"jocot inspect exited {rc_inspect}")
        result_path = self.out / "result.json"
        cells = json.loads(result_path.read_text())["cells"] if result_path.exists() else []
        checks.expect(len(cells) == self.cells_per_round,
                      f"result.json has {len(cells)} cells, want {self.cells_per_round}")
        ok_cells = [c for c in cells if c["error"] is None]
        failed = self.cells_per_round - len(ok_cells)
        if (self.out / "summary.csv").exists():
            C.check_summary_means(checks, self.out / "summary.csv")
        else:
            checks.expect(False, "summary.csv missing")
        epoch_files = sorted(self.out.glob("epochs_*.csv"))
        checks.expect(len(epoch_files) == len(ok_cells),
                      f"{len(epoch_files)} epochs files for {len(ok_cells)} cells")
        for path in epoch_files:
            rows = len(C.read_csv_rows(path))
            checks.expect(rows == s.epochs, f"{path.name} has {rows} rows, want {s.epochs}")

        n = len(train.labels)
        checks.expect(len(masks) == len(cells),
                      f"saw {len(masks)} noise masks for {len(cells)} cells")
        precisions = []
        for c, mask in zip(cells, masks):
            C.check_noise(checks, mask.true_labels, mask.noisy_labels, "pairflip",
                          c["rate"], NUM_CLASSES)
            if c["error"] is not None:
                continue
            flips = int(np.count_nonzero(mask.noisy_labels != mask.true_labels))
            recalls = [m["noisy_label_precision"] for m in c["teacher_metrics"]]
            checks.expect(all(r is not None and abs(r * flips - round(r * flips)) < 1e-6
                              for r in recalls),
                          f"cell {c['rate']}/{c['seed']}: recalls are not counts over "
                          f"{flips} flipped labels")
            in_clean = flips - round(recalls[-1] * flips)
            size = c["clean_set_size"]
            checks.expect(size > 0 and 0 <= in_clean <= min(flips, size),
                          f"{in_clean} flipped labels in a clean set of {size}")
            precisions.append(1.0 - in_clean / size if size else 0.0)
        digest = hashlib.sha256()
        for name in ("summary.csv", "result.json"):
            path = self.out / name
            digest.update(path.read_bytes() if path.exists() else b"")
        return Round(setup_s=t1 - t0, train_s=t2 - t1,
                     wall_s=(t_synth - t0) + (t3 - t1),
                     failed=failed,
                     samples=2 * n * s.epochs * len(ok_cells),
                     teacher_epochs=s.epochs * len(ok_cells), student_epochs=0,
                     test_acc=(float(np.mean([c["test_acc"] for c in ok_cells]))
                               if ok_cells else float("nan")),
                     clean_label_precision=(float(np.mean(precisions))
                                            if precisions else float("nan")),
                     fingerprint=digest.hexdigest())


def _tap(inject, masks: list):
    """inject_noise that also keeps each mask it returns, in call order."""
    def tapped(*args, **kwargs):
        mask = inject(*args, **kwargs)
        masks.append(mask)
        return mask
    return tapped


def make(name: str, scale: str, seed: int, work_dir: Path):
    spec = SPECS[name][scale]
    cls = CliGrid if name == "cli-grid" else JocotCell
    return cls(spec, seed, work_dir)
