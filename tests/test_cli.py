"""Command-line interface: subcommands, overrides, exit codes."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize("flag,value,words", [
    ("--classes", "1", "--classes must be >= 2, got 1"),
    ("--per-class", "0", "--per-class must be >= 1, got 0"),
    ("--dim", "1", "--dim must be >= 2, got 1"),
    ("--separation", "0", "--separation must be > 0, got 0.0"),
    ("--seed", "-1", "--seed must be >= 0, got -1"),
], ids=["classes", "per_class", "dim", "separation", "seed"])
def test_synth_names_the_flag_of_a_bad_value(tmp_path, capsys, flag, value, words):
    # synth used to pass its flags straight to synthesize, whose errors name no flag
    out = tmp_path / "data.csv"
    assert main(["synth", flag, value, "--out", str(out)]) == 2
    assert f"error: {words}" in capsys.readouterr().err
    assert not out.exists()


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
    monkeypatch.setattr(training, "_fork_workers", lambda jobs: 2)
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


# `jocot run` on a 4-cell grid at 2 workers, whose first cell sends SIGTERM to
# the grid process once the second cell trains; each cell records its pid in
# the directory argv[1] and then sleeps
_SIGTERM_GRID = """
import os, signal, sys, time
from pathlib import Path
import jocot.experiment as experiment
import jocot.training as training
from jocot.cli import main

started = Path(sys.argv[1])
original = experiment._train


def signalling(cell, train_cfg, mask, splits):
    marker = started / f"{cell.seed}.tmp"
    marker.write_text(str(os.getpid()))
    marker.rename(started / str(cell.seed))
    if cell.seed == 1:
        deadline = time.monotonic() + 60
        while not (started / "2").exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(os.getppid(), signal.SIGTERM)
    time.sleep(120)  # unless terminated, the cells outlive the test's bound
    return original(cell, train_cfg, mask, splits)


experiment._train = signalling
training._fork_workers = lambda jobs: 2
sys.exit(main(["run", "--config", sys.argv[2], "--seeds", "1,2,3,4"]))
"""


@pytest.mark.skipif(training._default_start_method() != "fork",
                    reason="cells train in forked processes only where fork is the default")
def test_run_stopped_by_sigterm_stops_its_cells(tmp_path):
    # a SIGTERM stops `jocot run` as a Ctrl-C does: SystemExit(143), the
    # cells in training terminated and reaped, no further cell started; a
    # grid process killed by the signal itself would exit with -15
    started = tmp_path / "started"
    started.mkdir()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # output to a file, not a pipe, which orphaned cells would hold open
    log = tmp_path / "stderr"
    try:
        with open(log, "w") as stderr:
            proc = subprocess.run([sys.executable, "-c", _SIGTERM_GRID, str(started),
                                   str(write_config(tmp_path))],
                                  env=env, stdout=subprocess.DEVNULL, stderr=stderr, timeout=60)
        assert proc.returncode == 128 + signal.SIGTERM == 143, log.read_text()
        assert sorted(p.name for p in started.iterdir()) == ["1", "2"]
        for marker in started.iterdir():
            with pytest.raises(ProcessLookupError):
                os.kill(int(marker.read_text()), 0)  # terminated and reaped
    finally:
        for marker in started.glob("[0-9]"):
            try:
                os.kill(int(marker.read_text()), signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_main_puts_back_the_callers_sigterm_handler(tmp_path):
    # tests and scripts call main in-process; the command's handler lasts
    # as long as the command
    def callers_handler(signum, frame):
        raise AssertionError("not called")

    previous = signal.signal(signal.SIGTERM, callers_handler)
    try:
        assert main(["synth", "--classes", "2", "--per-class", "3", "--dim", "2",
                     "--out", str(tmp_path / "data.csv")]) == 0
        assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 2
        assert signal.getsignal(signal.SIGTERM) is callers_handler
    finally:
        signal.signal(signal.SIGTERM, previous)


def test_run_bad_config_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nmethod = quantum\n")
    code = main(["run", "--config", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,flags,words", [
    ("classes = 3", "classes = 1", [], "[data] 'classes' must be >= 2, got 1"),
    ("per_class = 30", "per_class = 0", [], "[data] 'per_class' must be >= 1, got 0"),
    ("dim = 4", "dim = 0", [], "[data] 'dim' must be >= 2, got 0"),
    ("separation = 3.0", "separation = -1.0", [],
     "[data] 'separation' must be > 0, got -1.0"),
    ("per_class = 30", "per_class = 4", [], "no sample in the val split: the data splits "
                                            "into 9 train, 3 test and 0 val samples"),
    ("per_class = 30", "per_class = 1", [], "no sample in the test or val split: the data "
                                            "splits into 3 train, 0 test and 0 val samples"),
    ("seeds = 1", "seeds = -1,2", [], "[experiment] 'seeds' must be >= 0, got (-1, 2)"),
    ("", "", ["--seeds", "-1"], "--seeds must be >= 0, got (-1,)"),
    ("classes = 3\nper_class = 30\ndim = 4\nseparation = 3.0", "csv = {one_class_csv}", [],
     "need at least 2 classes for label noise, got 1"),
], ids=["classes", "per_class", "dim", "separation", "empty_val", "empty_test",
        "negative_seed", "negative_seed_flag", "one_class"])
def test_run_refuses_data_that_cannot_serve_every_cell(tmp_path, capsys, monkeypatch,
                                                       old, new, flags, words):
    # each used to train every jocot cell and fail it, or exit naming no key;
    # a negative seed or one class used to fail every cell's noise injection
    started = []
    monkeypatch.setattr(experiment, "_inject", lambda *args: started.append(args))
    one_class_csv = tmp_path / "one_class.csv"
    one_class_csv.write_text("f0,f1,label\n" + "0.5,1.5,1\n" * 30)
    path = write_config(tmp_path)
    text = path.read_text().replace(old, new.format(one_class_csv=one_class_csv))
    path.write_text(text.replace("ce_baseline", "jocot"))
    assert main(["run", "--config", str(path), *flags]) == 2
    assert words in capsys.readouterr().err
    assert started == [] and not (tmp_path / "results").exists()


def test_a_method_without_a_student_needs_no_val_split(tmp_path):
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("per_class = 30", "per_class = 4"))
    assert main(["run", "--config", str(path), "--method", "coteaching"]) == 0


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
