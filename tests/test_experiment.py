"""Experiment runner: config parsing, grid execution, metric emission."""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import jocot.experiment as experiment
import jocot.jobs as jobs
import jocot.training as training
from jocot.experiment import (
    CellResult,
    ExperimentConfig,
    ExperimentResult,
    SyntheticSpec,
    emit_metrics,
    load_config,
    load_result,
    run_experiment,
)
from jocot.data import LabeledDataset
from jocot.network import FieldError
from jocot.training import EpochMetrics, train_teachers

TINY_SYNTH = SyntheticSpec(num_classes=3, per_class=30, dim=4, separation=3.0, seed=0)
TINY_TRAIN = {"total_epochs": 4, "decay_start_epoch": 3, "batch_size": 16,
              "hidden_dims": (8,)}


needs_fork = pytest.mark.skipif(
    jobs._default_start_method() != "fork",
    reason="cells train in forked processes only where fork is the default")


def force_workers(monkeypatch, workers, cells=None):
    """Run forked jobs ``workers`` at a time: every runner's, or with
    ``cells`` only those of a grid of that many cells, so that a cell's two
    teacher pairs keep the real rule."""
    real = jobs._fork_workers
    monkeypatch.setattr(jobs, "_fork_workers",
                        lambda count: workers if cells in (None, count) else real(count))


def tiny_config(**kw):
    defaults = dict(method="jocot", noise_kind="symmetric", rates=(0.2,),
                    seeds=(1,), synthetic=TINY_SYNTH, train_overrides=dict(TINY_TRAIN))
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError, match="method"):
        tiny_config(method="adaboost")
    with pytest.raises(ValueError, match="noise_kind"):
        tiny_config(noise_kind="salt")
    with pytest.raises(ValueError, match="rate"):
        tiny_config(rates=(1.0,))
    with pytest.raises(ValueError, match="seed"):
        tiny_config(seeds=())
    # a negative seed used to pass, then fail every cell's noise injection
    with pytest.raises(FieldError, match="seeds must be >= 0"):
        tiny_config(seeds=(-1, 2))
    with pytest.raises(ValueError, match="train settings"):
        tiny_config(train_overrides={"warmup": 5})


def test_config_rejects_grid_owned_train_settings():
    # train_config sets both per cell, so an override would be silently lost
    for key, value in (("seed", 3), ("noise_rate_tau", 0.3)):
        with pytest.raises(ValueError, match=key):
            tiny_config(train_overrides={**TINY_TRAIN, key: value})


def test_config_rejects_rates_sharing_a_noise_stream():
    # the noise stream is keyed by the rate rounded to 1e-4; an exact
    # duplicate would also overwrite its twin's epochs_<cell>.csv
    for rates, pair in (((0.2, 0.20001), "0.2 and 0.20001"), ((0.4, 0.2, 0.4), "0.4 and 0.4")):
        with pytest.raises(ValueError, match=pair.replace(".", r"\.")):
            tiny_config(rates=rates)
    tiny_config(rates=(0.2, 0.2001))


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("""
[data]
classes = 3
per_class = 30
dim = 4
separation = 3.0
data_seed = 7
split_seed = 2
standardize = true

[experiment]
method = coteaching
noise = pairflip
rates = 0.2, 0.4
seeds = 1, 2

[train]
total_epochs = 4
decay_start_epoch = 3
hidden_dims = 8, 4
num_gradual_T = 2
""")
    cfg = load_config(path)
    assert cfg.method == "coteaching"
    assert cfg.noise_kind == "pairflip"
    assert cfg.rates == (0.2, 0.4)
    assert cfg.seeds == (1, 2)
    assert cfg.standardize is True
    assert cfg.split_seed == 2
    assert cfg.synthetic == SyntheticSpec(3, 30, 4, 3.0, 7)
    assert cfg.train_overrides["hidden_dims"] == (8, 4)
    assert cfg.train_config(0.4, 9).noise_rate_tau == 0.4
    assert cfg.train_config(0.4, 9).num_gradual_T == 2


@pytest.mark.parametrize("section,line,key", [
    ("experiment", "seeds = 1.5, 2.9", "seeds"),
    ("data", "standardize = no", "standardize"),
    ("train", "hidden_dims = 32.7", "hidden_dims"),
    ("data", "per_class = 30.5", "per_class"),
    ("data", "split_seed = 1.5", "split_seed"),
    ("data", "split_seed = -3", "split_seed"),
    ("data", "rebalance = 0", "rebalance"),
    ("data", "data_seed = -3", "data_seed"),
    ("experiment", "seeds = 1, 1", "seeds"),
    ("experiment", "rates = ", "rates"),
    ("experiment", "rates = 0.2, false", "rates"),
    ("experiment", "rates = 0.2, abc", "rates"),
    ("data", "data_seed = 1.5", "data_seed"),
], ids=["seeds", "standardize", "hidden_dims", "per_class", "split_seed",
        "split_seed_negative", "rebalance_zero", "data_seed_negative",
        "seeds_duplicate", "rates_empty", "rates_bool", "rates_text", "data_seed_float"])
def test_load_config_rejects_values_it_would_coerce(tmp_path, section, line, key):
    # 1.5 is no seed, "no" is no boolean and 32.7 no layer width: each
    # used to load as 1, True and 32; a negative split or data seed and a
    # rebalance to 0 per class used to load and fail later without naming
    # their key; a repeated seed ran one cell twice under one cell_id, and
    # no rates ran a grid of no cells; "false" loaded as a rate of 0.0, and
    # "abc" failed in float() naming no key. data_seed sets the field seed,
    # and the error must still name the key.
    path = tmp_path / "exp.ini"
    path.write_text(f"[{section}]\n{line}\n")
    with pytest.raises(ValueError, match=key):
        load_config(path)


@pytest.mark.parametrize("make,name", [
    (lambda: ExperimentConfig(split_seed=-3), "split_seed"),
    (lambda: ExperimentConfig(rebalance_per_class=0), "rebalance_per_class"),
    (lambda: SyntheticSpec(per_class=30.5), "per_class"),
    (lambda: SyntheticSpec(seed=-1), "seed"),
    (lambda: SyntheticSpec(num_classes=1), "num_classes"),
    (lambda: SyntheticSpec(per_class=0), "per_class"),
    (lambda: SyntheticSpec(dim=1), "dim"),
    (lambda: SyntheticSpec(separation=0.0), "separation"),
], ids=["split_seed", "rebalance_per_class", "per_class", "data_seed", "classes",
        "per_class_zero", "dim", "separation"])
def test_config_dataclasses_check_values_when_built(make, name):
    # each used to be checked only when read from a file, so a direct
    # construction was accepted and failed later, or never
    with pytest.raises(ValueError, match=f"^{name} "):
        make()


def test_readme_full_config_loads(tmp_path):
    # the README's config example goes through the same loader as any file
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A full config:\n\n```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "full.ini"
    path.write_text(block)
    cfg = load_config(path)
    assert (cfg.method, cfg.rates, cfg.seeds) == ("jocot", (0.2, 0.4), (1, 2, 3))
    assert cfg.synthetic == SyntheticSpec(12, 600, 51, 4.5, 0)
    assert cfg.train_overrides["hidden_dims"] == (256, 128)


@pytest.mark.parametrize("text,words", [
    ("[data]\nclasses = 3\nclasses = 4\n", "'classes'"),
    ("classes = 3\n", "no section headers"),
], ids=["duplicate_key", "no_section_header"])
def test_load_config_unreadable_file_is_a_value_error(tmp_path, text, words):
    # configparser's own errors used to escape as DuplicateOptionError and
    # MissingSectionHeaderError, which are no ValueError
    path = tmp_path / "exp.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match=words) as info:
        load_config(path)
    assert str(path) in str(info.value)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nmethod = jocot\nturbo = yes\n")
    with pytest.raises(ValueError, match="turbo"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "nope.ini")


def test_run_experiment_three_seeds_three_records():
    cfg = tiny_config(method="ce_baseline", seeds=(1, 2, 3))
    result = run_experiment(cfg)
    assert len(result.cells) == 3
    assert result.all_succeeded
    assert len({c.seed for c in result.cells}) == 3
    for c in result.cells:
        assert 0.0 <= c.test_acc <= 1.0
        assert c.noisy_precision == 0.0  # baseline flags nothing as noisy
        assert c.clean_set_size == 72  # 80% of 90


def test_run_experiment_rate_zero_vacuous_precision():
    cfg = tiny_config(method="ce_baseline", rates=(0.0,))
    result = run_experiment(cfg)
    assert result.cells[0].noisy_precision == 1.0


def test_run_experiment_jocot_cell_contents():
    cfg = tiny_config()
    result = run_experiment(cfg)
    cell = result.cells[0]
    assert cell.succeeded
    assert len(cell.teacher_metrics) == 4
    assert len(cell.student_metrics) == 4
    assert 1 <= cell.clean_set_size <= 72
    assert 0.0 <= cell.noisy_precision <= 1.0
    assert all(m.val_accuracy is not None for m in cell.student_metrics)
    assert all(m.remember_rate is not None for m in cell.teacher_metrics)


@pytest.mark.parametrize("method", ["coteaching", "coteachingplus", "jocor"])
def test_a_baseline_cell_is_its_one_pair(method):
    cfg = tiny_config(method=method)
    cell = run_experiment(cfg).cells[0]
    assert cell.succeeded and cell.teacher_metrics and cell.student_metrics == []
    assert cell.test_acc == cell.teacher_metrics[-1].test_accuracy
    train_set, test_set, _ = experiment._prepare_splits(cfg)
    train_cfg, mask = experiment._inject(cell, train_set, cfg)
    noisy = LabeledDataset(train_set.features, mask.noisy_labels, train_set.num_classes)
    teachers = train_teachers(train_cfg, noisy, method, test_set=test_set, noise_mask=mask)
    assert cell.clean_set_size == len(teachers.final_selection)
    assert cell.teacher_metrics == teachers.metrics


def test_run_experiment_empty_grid():
    # a grid without rates would run no cell and report success, so it is
    # refused when configured, like a grid without seeds
    with pytest.raises(ValueError, match="rates"):
        tiny_config(rates=())


def test_run_experiment_continues_after_cell_failure(monkeypatch):
    calls = []
    original = experiment.train_student

    def flaky(clean_train, clean_val, cfg, **kw):
        calls.append(cfg.seed)
        if cfg.seed == 1:
            raise RuntimeError("boom")
        return original(clean_train, clean_val, cfg, **kw)

    monkeypatch.setattr(experiment, "train_student", flaky)
    # in-process: a cell process could not append to calls
    force_workers(monkeypatch, 1)
    result = run_experiment(tiny_config(method="ce_baseline", seeds=(1, 2)))
    assert [c.succeeded for c in result.cells] == [False, True]
    assert "boom" in result.cells[0].error
    assert not result.all_succeeded
    assert calls == [1, 2]


@needs_fork
def test_worker_processes_isolate_cell_failures(monkeypatch):
    original = experiment.train_student

    def flaky(clean_train, clean_val, cfg, **kw):
        if cfg.seed == 1:
            raise RuntimeError(f"boom in process {os.getpid()}")
        return original(clean_train, clean_val, cfg, **kw)

    monkeypatch.setattr(experiment, "train_student", flaky)
    force_workers(monkeypatch, 2)
    result = run_experiment(tiny_config(method="ce_baseline", seeds=(1, 2)))
    assert [c.succeeded for c in result.cells] == [False, True]
    assert result.cells[0].error.startswith("RuntimeError: boom in process ")
    assert not result.cells[0].error.endswith(f" {os.getpid()}")
    assert result.cells[1].test_acc is not None
    assert len(result.cells[1].student_metrics) == 4


def fork_teachers(monkeypatch):
    """Two usable CPUs and an OpenBLAS count to pin, whatever the machine
    has, so each jocot cell forks its teacher pairs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(jobs, "_openblas_threads", lambda: (lambda: 1, lambda n: None))


@needs_fork
@pytest.mark.parametrize("workers", [1, 2])
def test_a_teacher_process_that_dies_fails_its_cell_only(monkeypatch, workers):
    # each jocot cell forks its teacher pairs, also from a cell's own child
    force_workers(monkeypatch, workers, cells=3)
    fork_teachers(monkeypatch)
    cfg = tiny_config(seeds=(1, 2, 3))
    clean = run_experiment(cfg)
    original = training._pair_epochs

    def dying(config, noisy_train, module_kind, *args, **kwargs):
        if config.seed == 2 and module_kind == "coteaching":
            assert multiprocessing.current_process().name == "jocot-pair"
            os._exit(3)
        return original(config, noisy_train, module_kind, *args, **kwargs)

    monkeypatch.setattr(training, "_pair_epochs", dying)
    result = run_experiment(cfg)
    assert [c.succeeded for c in result.cells] == [True, False, True]
    assert result.cells[1].error == (
        "RuntimeError: the forked process jocot-pair exited with code 3 "
        "before sending its result")
    assert result.cells[0] == clean.cells[0] and result.cells[2] == clean.cells[2]


@pytest.mark.parametrize("method", ["coteachingplus", "ce_baseline", "jocot"])
def test_outputs_ignore_the_worker_count(tmp_path, monkeypatch, method):
    cfg = tiny_config(method=method, rates=(0.2, 0.4), seeds=(1, 2))
    outputs = []
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        out = tmp_path / str(workers)
        emit_metrics(run_experiment(cfg), out)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outputs[0]) == 2 + 4  # summary, result and four epochs files
    assert outputs[0] == outputs[1]


def wait_for(path, what):
    deadline = time.monotonic() + 60
    while not path.exists():
        assert time.monotonic() < deadline, what
        time.sleep(0.01)


@needs_fork
@pytest.mark.parametrize("stop", ["progress", "interrupt"])
def test_a_grid_stopped_early_starts_no_further_cell(tmp_path, monkeypatch, stop):
    original = experiment._train

    def marked(cell, train_cfg, mask, splits):
        (tmp_path / str(cell.seed)).touch()
        if cell.seed == 2:
            time.sleep(120)  # unless terminated, the cell outlives the bound below
        else:
            # stop once the second cell is training beside the first
            wait_for(tmp_path / "2", "the second cell never started")
            if stop == "interrupt":
                raise KeyboardInterrupt  # result() raises it in the caller, as Ctrl-C would
        return original(cell, train_cfg, mask, splits)

    def progress(line):
        raise RuntimeError("progress failed")

    monkeypatch.setattr(experiment, "_train", marked)
    force_workers(monkeypatch, 2)
    cfg = tiny_config(method="ce_baseline", seeds=(1, 2, 3, 4))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt if stop == "interrupt" else RuntimeError):
        run_experiment(cfg, progress=progress)
    # the second cell was terminated, and the last two never started
    assert time.monotonic() - start < 60
    assert sorted(p.name for p in tmp_path.iterdir()) == ["1", "2"]


@needs_fork
def test_a_stopped_grid_stops_the_teacher_processes_of_its_cells(tmp_path, monkeypatch):
    # a terminated cell process unwinds, so it stops the teacher pairs it forked
    force_workers(monkeypatch, 2)
    fork_teachers(monkeypatch)
    original = training._pair_epochs

    def stalled(config, noisy_train, module_kind, *args, **kwargs):
        if config.seed == 2:
            (tmp_path / f"pid-{module_kind}").write_text(str(os.getpid()))
            time.sleep(120)
        for kind in ("jocor", "coteaching"):
            wait_for(tmp_path / f"pid-{kind}", "the second cell's teachers never started")
        return original(config, noisy_train, module_kind, *args, **kwargs)

    def progress(line):
        raise RuntimeError("progress failed")

    monkeypatch.setattr(training, "_pair_epochs", stalled)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="progress failed"):
        run_experiment(tiny_config(seeds=(1, 2)), progress=progress)
    assert time.monotonic() - start < 60
    for kind in ("jocor", "coteaching"):
        with pytest.raises(ProcessLookupError):
            os.kill(int((tmp_path / f"pid-{kind}").read_text()), 0)  # terminated and reaped


@pytest.mark.parametrize("cells,cpus,blas,start,workers", [
    (8, 4, True, "fork", 4),
    (3, 4, True, "fork", 3),
    (1, 4, True, "fork", 1),
    (8, 1, True, "fork", 1),
    (8, 4, False, "fork", 1),  # no OpenBLAS count to pin per worker
    (8, 4, True, "spawn", 1),  # fork is not the platform's default: work stays here
    (8, 4, True, "forkserver", 1),
    (8, None, True, "fork", 2),  # no affinity call: os.cpu_count()
])
def test_cell_workers_rule(monkeypatch, cells, cpus, blas, start, workers):
    monkeypatch.setattr(jobs, "_openblas_threads",
                        lambda: (None, None) if blas else None)
    monkeypatch.setattr(jobs, "_default_start_method", lambda: start)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    assert jobs._fork_workers(cells) == workers


def test_reading_the_start_method_leaves_it_unset():
    # a caller may still choose its own start method after a grid has run
    code = ("import multiprocessing, jocot.jobs as j; j._default_start_method(); "
            "multiprocessing.set_start_method('spawn')")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_result_json_round_trip(tmp_path):
    cfg = tiny_config(method="coteaching", seeds=(1, 2))
    result = run_experiment(cfg)
    emit_metrics(result, tmp_path)
    loaded = load_result(tmp_path / "result.json")
    assert loaded == result


def test_emit_metrics_files(tmp_path):
    cfg = tiny_config(method="jocor", rates=(0.2,), seeds=(1, 2))
    result = run_experiment(cfg)
    written = emit_metrics(result, tmp_path / "out")
    names = {p.name for p in written}
    assert "summary.csv" in names and "result.json" in names
    assert sum(n.startswith("epochs_") for n in names) == 2

    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[0] == "method,noise_kind,rate,seed,test_acc,noisy_precision,clean_set_size"
    assert len(summary) == 1 + 2 + 1  # header, two cells, one mean row
    mean_row = summary[-1].split(",")
    assert mean_row[3] == "mean"
    per_seed = [float(r.split(",")[4]) for r in summary[1:3]]
    assert float(mean_row[4]) == pytest.approx(np.mean(per_seed))

    epochs = (tmp_path / "out" / f"epochs_{result.cells[0].cell_id}.csv").read_text().splitlines()
    assert epochs[0] == "epoch,test_acc,noisy_precision,remember_rate,lr"
    assert len(epochs) == 1 + 4  # four training epochs


def test_emit_metrics_empty_grid_header_only(tmp_path):
    result = ExperimentResult("0", tiny_config().to_dict(), [])
    emit_metrics(result, tmp_path / "empty")
    summary = (tmp_path / "empty" / "summary.csv").read_text().splitlines()
    assert len(summary) == 1


def test_emit_metrics_deterministic_bytes(tmp_path):
    cfg = tiny_config(method="jocot", seeds=(1,))
    emit_metrics(run_experiment(cfg), tmp_path / "a")
    emit_metrics(run_experiment(cfg), tmp_path / "b")
    for name in ["summary.csv", "result.json"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    a_epochs = sorted((tmp_path / "a").glob("epochs_*.csv"))
    b_epochs = sorted((tmp_path / "b").glob("epochs_*.csv"))
    assert [p.name for p in a_epochs] == [p.name for p in b_epochs]
    for pa, pb in zip(a_epochs, b_epochs):
        assert pa.read_bytes() == pb.read_bytes()


def test_epochs_csv_remember_rate_column_exact(tmp_path):
    cfg = tiny_config(method="coteaching", rates=(0.4,),
                      train_overrides={**TINY_TRAIN, "num_gradual_T": 2})
    result = run_experiment(cfg)
    emit_metrics(result, tmp_path)
    path = tmp_path / f"epochs_{result.cells[0].cell_id}.csv"
    for line in path.read_text().splitlines()[1:]:
        fields = line.split(",")
        epoch = int(fields[0])
        assert float(fields[3]) == 1.0 - min(epoch * 0.4 / 2, 0.4)


def test_jocot_epochs_csv_concatenates_phases(tmp_path):
    cfg = tiny_config()
    result = run_experiment(cfg)
    emit_metrics(result, tmp_path)
    path = tmp_path / f"epochs_{result.cells[0].cell_id}.csv"
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 4 + 4  # header + teacher epochs + student epochs
    teacher_row = lines[1].split(",")
    student_row = lines[-1].split(",")
    assert teacher_row[3] != ""  # teachers carry a remember rate
    assert student_row[3] == ""  # students do not
    assert int(student_row[0]) == 7  # continued numbering


def test_result_json_has_config_echo_and_version(tmp_path):
    cfg = tiny_config(method="ce_baseline")
    result = run_experiment(cfg)
    emit_metrics(result, tmp_path)
    data = json.loads((tmp_path / "result.json").read_text())
    import jocot
    assert data["version"] == jocot.__version__
    assert data["config"]["method"] == "ce_baseline"
    assert data["config"]["rates"] == [0.2]


def test_numpy_integers_in_the_config_echo_as_python_ints(tmp_path):
    for tag, make in [("python", int), ("numpy", np.int64)]:
        cfg = tiny_config(method="ce_baseline", split_seed=make(1),
                          train_overrides={**TINY_TRAIN, "total_epochs": make(4)})
        emit_metrics(run_experiment(cfg), tmp_path / tag)
    assert ((tmp_path / "numpy" / "result.json").read_bytes()
            == (tmp_path / "python" / "result.json").read_bytes())


def test_emit_metrics_exact_csv_bytes(tmp_path):
    teacher = [EpochMetrics(0, 0.5, 0.25, 1.0, None, 0.001),
               EpochMetrics(1, 0.75, None, 0.9, 0.2, 0.0005)]
    student = [EpochMetrics(0, 0.6, None, None, None, 1e-4),
               EpochMetrics(1, 1 / 3, None, None, None, 0.0)]
    cells = [
        CellResult("jocot", "symmetric", 0.2, 1, 0.5, 0.25, 10,
                   teacher_metrics=teacher, student_metrics=student),
        CellResult("jocot", "symmetric", 0.2, 2, error="ValueError: boom"),
        CellResult("jocot", "symmetric", 0.4, 1, 0.1, None, 7),
        CellResult("jocot", "symmetric", 0.4, 2, 0.3, 0.5, 9),
        CellResult("jocot", "pairflip", 0.4, 2, 0.3, 0.5, 9),
    ]
    emit_metrics(ExperimentResult("0", {}, cells), tmp_path)
    assert (tmp_path / "summary.csv").read_bytes() == (
        b"method,noise_kind,rate,seed,test_acc,noisy_precision,clean_set_size\n"
        b"jocot,symmetric,0.2,1,0.5,0.25,10\n"
        b"jocot,symmetric,0.2,2,,,\n"
        b"jocot,symmetric,0.4,1,0.1,,7\n"
        b"jocot,symmetric,0.4,2,0.3,0.5,9\n"
        b"jocot,pairflip,0.4,2,0.3,0.5,9\n"
        b"jocot,symmetric,0.2,mean,0.5,0.25,10.0\n"
        b"jocot,symmetric,0.4,mean,0.2,0.5,8.0\n")
    assert (tmp_path / "epochs_jocot_symmetric_0.2_1.csv").read_bytes() == (
        b"epoch,test_acc,noisy_precision,remember_rate,lr\n"
        b"0,0.5,0.25,1.0,0.001\n"
        b"1,0.75,,0.9,0.0005\n"
        b"2,0.6,,,0.0001\n"
        b"3,0.3333333333333333,,,0.0\n")
    assert not (tmp_path / "epochs_jocot_symmetric_0.2_2.csv").exists()


def test_noise_seed_depends_on_rate_not_order():
    cfg_a = tiny_config(method="ce_baseline", rates=(0.2, 0.4), seeds=(1,))
    cfg_b = tiny_config(method="ce_baseline", rates=(0.4, 0.2), seeds=(1,))
    res_a = run_experiment(cfg_a)
    res_b = run_experiment(cfg_b)
    by_rate_a = {c.rate: c.test_acc for c in res_a.cells}
    by_rate_b = {c.rate: c.test_acc for c in res_b.cells}
    assert by_rate_a == by_rate_b


def test_experiment_result_from_json_rejects_nothing_extra():
    metrics = [EpochMetrics(epoch=0, test_accuracy=0.5)]
    cell = CellResult("jocot", "symmetric", 0.2, 1, test_acc=0.5,
                      noisy_precision=0.9, clean_set_size=10,
                      teacher_metrics=metrics, student_metrics=[])
    result = ExperimentResult("0.1.0", {"method": "jocot"}, [cell])
    rebuilt = ExperimentResult.from_json_dict(
        json.loads(json.dumps(result.to_json_dict())))
    assert rebuilt == result
