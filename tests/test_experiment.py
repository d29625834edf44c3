"""Experiment runner: config parsing, grid execution, metric emission."""

import json
from dataclasses import replace

import numpy as np
import pytest

from jocot.experiment import (
    CellResult,
    ExperimentConfig,
    ExperimentResult,
    SyntheticSpec,
    emit_metrics,
    load_config,
    load_result,
    run_cell,
    run_experiment,
)
from jocot.training import EpochMetrics

TINY_SYNTH = SyntheticSpec(num_classes=3, per_class=30, dim=4, separation=3.0, seed=0)
TINY_TRAIN = {"total_epochs": 4, "decay_start_epoch": 3, "batch_size": 16,
              "hidden_dims": (8,)}


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
jocor_shared_ranking = true
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
    assert cfg.train_overrides["jocor_shared_ranking"] is True
    assert cfg.train_config(0.4, 9).noise_rate_tau == 0.4
    assert cfg.train_config(0.4, 9).num_gradual_T == 2


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


def test_run_experiment_empty_grid():
    result = run_experiment(tiny_config(rates=()))
    assert result.cells == []
    assert result.all_succeeded


def test_run_cell_isolates_failures():
    cfg = tiny_config(train_overrides={**TINY_TRAIN, "hidden_dims": (8,)})
    splits = __import__("jocot.experiment", fromlist=["_prepare_splits"])._prepare_splits(cfg)
    train, test, val = splits
    bad_cfg = replace(cfg, train_overrides={**TINY_TRAIN, "batch_size": 16})
    # force a failure by handing an empty training set
    empty = train.subset(np.array([], dtype=int))
    cell = run_cell("jocot", "symmetric", 0.2, 1, empty, test, val, bad_cfg)
    assert not cell.succeeded
    assert "empty" in cell.error


def test_run_experiment_continues_after_cell_failure(monkeypatch):
    import jocot.experiment as experiment

    calls = []
    original = experiment.train_student

    def flaky(clean_train, clean_val, cfg, **kw):
        calls.append(cfg.seed)
        if cfg.seed == 1:
            raise RuntimeError("boom")
        return original(clean_train, clean_val, cfg, **kw)

    monkeypatch.setattr(experiment, "train_student", flaky)
    result = run_experiment(tiny_config(method="ce_baseline", seeds=(1, 2)))
    assert [c.succeeded for c in result.cells] == [False, True]
    assert "boom" in result.cells[0].error
    assert not result.all_succeeded
    assert calls == [1, 2]


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
    result = run_experiment(tiny_config(rates=()))
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
