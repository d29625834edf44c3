"""Command-line harness: run experiment grids, synthesize datasets,
inspect result files."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .data import SyntheticSpec, save_csv, synthesize
from .experiment import (
    CONFIG_KEYS,
    METHODS,
    NOISE_KINDS,
    ExperimentResult,
    emit_metrics,
    load_config,
    load_result,
    run_experiment,
)
from .jobs import _signals_unwind
from .network import FieldError


def _pct(value) -> str:
    return "" if value is None else f"{100 * value:.2f}%"


def render_summary(result: ExperimentResult) -> str:
    """Console table; metric fractions rendered as percentages here only."""
    header = ["method", "noise", "rate", "seed", "test_acc", "noisy_prec",
              "clean_set", "status"]
    rows = [header]
    for c in result.cells:
        rows.append([c.method, c.noise_kind, f"{c.rate:g}", str(c.seed),
                     _pct(c.test_acc), _pct(c.noisy_precision),
                     "" if c.clean_set_size is None else str(c.clean_set_size),
                     "ok" if c.succeeded else f"FAILED: {c.error}"])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in rows)


def _cmd_run(args) -> int:
    # the flags are the [experiment] keys, and replace the file's values
    flags = {key: getattr(args, key) for key in CONFIG_KEYS["experiment"]
             if getattr(args, key) is not None}
    config = load_config(args.config, flags)
    result = run_experiment(config, progress=print)
    written = emit_metrics(result, config.out_dir)
    print(render_summary(result))
    print(f"wrote {len(written)} files under {config.out_dir}")
    return 0 if result.all_succeeded else 1


# the synth flag that sets each SyntheticSpec field
_SYNTH_FLAGS = {"num_classes": "--classes", "per_class": "--per-class", "dim": "--dim",
                "separation": "--separation", "seed": "--seed"}


def _cmd_synth(args) -> int:
    try:
        dataset = synthesize(**{name: getattr(args, name) for name in _SYNTH_FLAGS})
    except FieldError as exc:
        raise ValueError(f"{_SYNTH_FLAGS[exc.field]} {exc.problem}") from None
    save_csv(dataset, args.out)
    print(f"wrote {len(dataset)} samples ({dataset.num_classes} classes, "
          f"dim {dataset.feature_dim}) to {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    result = load_result(args.result)
    print(f"artifact version {result.version}; "
          f"{len(result.cells)} cells, "
          f"{'all succeeded' if result.all_succeeded else 'FAILURES present'}")
    print(render_summary(result))
    return 0 if result.all_succeeded else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jocot",
        description="Noisy-label learning benchmarks: consensus-taught "
                    "student vs co-training baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment grid from a config file")
    run_p.add_argument("--config", required=True, help="sectioned key=value config file")
    run_p.add_argument("--method", choices=METHODS)
    run_p.add_argument("--noise", choices=NOISE_KINDS)
    run_p.add_argument("--rates", help="comma-separated noise rates, e.g. 0.2,0.4")
    run_p.add_argument("--seeds", help="comma-separated integer seeds, e.g. 1,2,3")
    run_p.add_argument("--out", help="output directory (overrides config)")
    run_p.set_defaults(func=_cmd_run)

    synth_p = sub.add_parser("synth", help="write a synthetic dataset CSV")
    for f in fields(SyntheticSpec):  # its defaults are the spec's
        synth_p.add_argument(_SYNTH_FLAGS[f.name], type=type(f.default), default=f.default,
                             dest=f.name)
    synth_p.add_argument("--out", required=True)
    synth_p.set_defaults(func=_cmd_synth)

    inspect_p = sub.add_parser("inspect", help="summarize a result.json")
    inspect_p.add_argument("--result", required=True)
    inspect_p.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a SIGTERM unwinds the command as a Ctrl-C does, so a command stops the
    # processes it forked; the caller's handlers are put back, since tests
    # and scripts call main in-process
    try:
        with _signals_unwind():
            return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
