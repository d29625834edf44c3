"""Command-line interface: subcommands, overrides, exit codes."""

import json
import os

import numpy as np
import pytest

import jocot.experiment as experiment
import jocot.training as training
from jocot.cli import main
from jocot.data import load_csv

TINY_INI = """
[data]
classes = 3
per_class = 30
dim = 4
separation = 3.0

[experiment]
method = ce_baseline
noise = symmetric
rates = 0.2
seeds = 1
out = {out}

[train]
total_epochs = 3
decay_start_epoch = 2
batch_size = 16
hidden_dims = 8
"""


def write_config(tmp_path, out_name="results"):
    path = tmp_path / "exp.ini"
    path.write_text(TINY_INI.format(out=tmp_path / out_name))
    return path


def test_synth_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "data.csv"
    code = main(["synth", "--classes", "3", "--per-class", "5", "--dim", "6",
                 "--separation", "2.0", "--out", str(out)])
    assert code == 0
    ds = load_csv(out)
    assert len(ds) == 15 and ds.feature_dim == 6 and ds.num_classes == 3
    assert "15 samples" in capsys.readouterr().out


def test_run_end_to_end(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(["run", "--config", str(config)])
    assert code == 0
    out_dir = tmp_path / "results"
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "result.json").exists()
    stdout = capsys.readouterr().out
    assert "ce_baseline" in stdout and "%" in stdout


def test_run_rejects_train_seed(tmp_path, capsys):
    path = write_config(tmp_path)
    path.write_text(path.read_text() + "seed = 3\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "'seed'" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,key,flags", [
    ("seeds = 1", "seeds = 1.5, 2.9", "seeds", []),
    ("separation = 3.0", "separation = 3.0\nstandardize = no", "standardize", []),
    ("hidden_dims = 8", "hidden_dims = 32.7", "hidden_dims", []),
    ("per_class = 30", "per_class = 30.5", "per_class", []),
    ("separation = 3.0", "separation = 3.0\nsplit_seed = 1.5", "split_seed", []),
    ("separation = 3.0", "separation = 3.0\nsplit_seed = -3", "split_seed", []),
    ("separation = 3.0", "separation = 3.0\nrebalance = 0", "rebalance", []),
    ("separation = 3.0", "separation = 3.0\ndata_seed = -3", "data_seed", []),
    ("seeds = 1", "seeds = 1, 1", "seeds", []),
    ("rates = 0.2", "rates = ", "rates", []),
    ("rates = 0.2", "rates = 0.2, false", "rates", []),
    ("rates = 0.2", "rates = 0.2, abc", "rates", []),
    ("separation = 3.0", "separation = 3.0\ndata_seed = 1.5", "data_seed", []),
    ("", "", "seeds", ["--seeds", "1.5"]),
    ("", "", "rates", ["--rates", "0.2,abc"]),
], ids=["seeds", "standardize", "hidden_dims", "per_class", "split_seed",
        "split_seed_negative", "rebalance_zero", "data_seed_negative",
        "seeds_duplicate", "rates_empty", "rates_bool", "rates_text", "data_seed_float",
        "seeds_flag", "rates_flag"])
def test_run_rejects_values_it_would_coerce(tmp_path, capsys, old, new, key, flags):
    # a flag gets the checks of the [experiment] key it replaces
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace(old, new))
    assert main(["run", "--config", str(path), *flags]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("old,new,words", [
    ("classes = 3", "classes = 3\nclasses = 4", "'classes'"),
    ("[data]\n", "", "no section headers"),
], ids=["duplicate_key", "no_section_header"])
def test_run_exits_2_on_an_unreadable_config(tmp_path, capsys, old, new, words):
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace(old, new, 1))
    assert main(["run", "--config", str(path)]) == 2
    assert words in capsys.readouterr().err


def test_run_reads_a_percent_sign_literally(tmp_path):
    config = write_config(tmp_path, out_name="res%1")
    assert main(["run", "--config", str(config)]) == 0
    assert (tmp_path / "res%1" / "summary.csv").exists()


def test_run_rejects_rates_sharing_a_noise_stream(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path), "--rates", "0.2,0.20001"]) == 2
    assert "0.2 and 0.20001" in capsys.readouterr().err


def test_run_flag_overrides(tmp_path):
    config = write_config(tmp_path)
    override_out = tmp_path / "elsewhere"
    code = main(["run", "--config", str(config), "--method", "coteaching",
                 "--noise", "pairflip", "--rates", "0.1,0.3", "--seeds", "5,6",
                 "--out", str(override_out)])
    assert code == 0
    summary = (override_out / "summary.csv").read_text().splitlines()
    cells = [r.split(",") for r in summary[1:] if not r.split(",")[3] == "mean"]
    assert len(cells) == 4
    assert {c[0] for c in cells} == {"coteaching"}
    assert {c[1] for c in cells} == {"pairflip"}
    assert {c[2] for c in cells} == {"0.1", "0.3"}
    assert {c[3] for c in cells} == {"5", "6"}


def test_run_nonzero_exit_when_cell_fails(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(experiment, "train_student", explode)
    config = write_config(tmp_path)
    code = main(["run", "--config", str(config)])
    assert code == 1
    summary = (tmp_path / "results" / "summary.csv").read_text().splitlines()
    assert summary[1].split(",")[4] == ""  # metrics blank for the failed cell


@pytest.mark.skipif(training._default_start_method() != "fork",
                    reason="cells train in forked processes only where fork is the default")
def test_run_reports_a_dead_worker_as_cell_errors(tmp_path, monkeypatch):
    original = experiment.train_student

    def dying(clean_train, clean_val, cfg, **kw):
        if cfg.seed == 1:
            os._exit(1)
        return original(clean_train, clean_val, cfg, **kw)

    monkeypatch.setattr(experiment, "train_student", dying)
    monkeypatch.setattr(experiment, "_fork_workers", lambda cells: 2)
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config), "--seeds", "1,2"]) == 1
    out_dir = tmp_path / "results"
    cells = json.loads((out_dir / "result.json").read_text())["cells"]
    assert [c["seed"] for c in cells] == [1, 2]
    # the dead process fails its own cell only
    assert cells[0]["error"] == ("RuntimeError: the forked process jocot-cell exited with "
                                 "code 1 before sending its result")
    assert cells[1]["error"] is None
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 2 + 1  # header, two cells, one mean row
    assert summary[1].split(",")[4] == ""
    assert summary[2].split(",")[4] != ""
    assert [p.name for p in out_dir.glob("epochs_*.csv")] == [
        "epochs_ce_baseline_symmetric_0.2_2.csv"]


def test_run_bad_config_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nmethod = quantum\n")
    code = main(["run", "--config", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_missing_config_exit_two(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.ini")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_inspect_round_trip(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    capsys.readouterr()
    code = main(["inspect", "--result", str(tmp_path / "results" / "result.json")])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "all succeeded" in stdout
    assert "ce_baseline" in stdout


def test_console_table_shows_percentages(tmp_path, capsys):
    config = write_config(tmp_path)
    main(["run", "--config", str(config)])
    stdout = capsys.readouterr().out
    # fractions live in the files; the console renders percent signs
    summary_text = (tmp_path / "results" / "summary.csv").read_text()
    assert "%" not in summary_text
    assert "%" in stdout
