"""Benchmark of the jocot package: one command, three workloads.

    python3 bench/run.py --workload acceptance-cell --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. The package is imported from ``src/`` of
that checkout. OpenBLAS is pinned to one thread before numpy is imported
(``--blas-threads 0`` leaves the library default). The run repeats whole
rounds of the workload until ``--seconds`` would be exceeded, checks every
round's outputs, and prints one JSON object as its last line:
end-to-end metrics (medians over rounds, times scaled by the host-speed
probe of speed.py) with ``--trace 0``, per-layer metrics from traced rounds
with ``--trace 1``. A result file with the provenance of the run goes to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("acceptance-cell", "pairflip-selection", "cli-grid")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--scale", default="full", choices=("full", "tiny"),
                   help="tiny runs each workload at a toy size (self-check)")
    p.add_argument("--blas-threads", type=int, default=1,
                   help="OpenBLAS threads; 0 leaves the library default")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.blas_threads < 0:
        p.error("--seed and --blas-threads must be >= 0, --seconds > 0")
    return args


def pin_blas(threads: int) -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if threads:
            os.environ[var] = str(threads)
        else:
            os.environ.pop(var, None)


def import_program():
    """Import jocot from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "jocot" / "__init__.py").is_file():
        raise SystemExit(f"bench: no src/jocot under {ROOT}; run from a checkout root")
    sys.path.insert(0, str(src))
    import jocot
    if Path(jocot.__file__).resolve().parent != (src / "jocot").resolve():
        raise SystemExit(f"bench: imported jocot from {jocot.__file__}, not {src}")


def git_sha(root: Path):
    """HEAD of the checkout's .git directory, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def blas_info():
    """(build-time OpenBLAS description, runtime thread count or None)."""
    import ctypes
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    version = f"{blas.get('name')} {blas.get('version')}"
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return version, threads


def provenance(load_start):
    import numpy as np
    version, threads = blas_info()
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": version,
        "cpu_count": os.cpu_count(),
        "blas_threads": threads,
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "platform": platform.platform(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def end_to_end(rounds, scales) -> dict:
    """Medians over the run's rounds, times scaled to the reference host
    speed (see speed.py); the peak RSS of the whole run."""
    med = lambda f: statistics.median(f(r, k) for r, k in zip(rounds, scales))
    return {
        "setup_s": med(lambda r, k: r.setup_s * k),
        "train_s": med(lambda r, k: r.train_s * k),
        "wall_s": med(lambda r, k: r.wall_s * k),
        "samples_per_s": med(lambda r, k: r.samples / (r.train_s * k)),
        "test_acc": med(lambda r, k: r.test_acc),
        "clean_label_precision": med(lambda r, k: r.clean_label_precision),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = list(os.getloadavg())
    pin_blas(args.blas_threads)
    import_program()
    import checks as C
    import spans
    import speed
    import workloads

    work_dir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, args.scale, args.seed, work_dir)
    checks = C.Checks()
    plain, plain_walls, traced_walls, layer_rounds, trace_sums = [], [], [], [], []
    attempted = failed = 0
    fingerprints = set()
    tracer = None
    start = perf_counter()
    # untraced rounds are scaled by the mean of the probes just before and after
    probes = [] if args.trace else [speed.probe()]
    scales = []
    try:
        while True:
            use_trace = bool(args.trace) and len(plain_walls) > len(traced_walls)
            installed = []
            if use_trace:
                tracer = spans.Tracer()
                installed = spans.install(tracer)
            attempted += workload.cells_per_round
            t0 = perf_counter()
            try:
                if use_trace:
                    with tracer.span("bench.round"):
                        rnd = workload.run_round(checks)
                else:
                    rnd = workload.run_round(checks)
            except Exception as exc:  # a failed round is counted, not fatal
                failed += workload.cells_per_round
                print(f"round failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                rnd = None
            finally:
                wall = perf_counter() - t0
                spans.uninstall(installed)
            if rnd is not None:
                failed += rnd.failed
                fingerprints.add(rnd.fingerprint)
                if use_trace:
                    layer_rounds.append(spans.layer_metrics(tracer, rnd.teacher_epochs,
                                                            rnd.student_epochs))
                    trace_sums.append({"self_sum_s": sum(tracer.self_times()),
                                       "wall_s": wall})
                    traced_walls.append(wall)
                else:
                    plain.append(rnd)
                    plain_walls.append(wall)
            if not args.trace:
                probes.append(speed.probe())
                if rnd is not None:
                    scales.append(2.0 * speed.REF_S / (probes[-2] + probes[-1]))
            done = len(plain_walls) + len(traced_walls)
            elapsed = perf_counter() - start
            enough = plain_walls and (traced_walls or not args.trace)
            if (enough or not done) and elapsed + elapsed / max(done, 1) > args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not plain or (args.trace and not layer_rounds):
        print("bench: no round of the workload completed", file=sys.stderr)
        return 1
    checks.expect(len(fingerprints) == 1,
                  f"rounds with identical inputs gave {len(fingerprints)} different outputs")

    if args.trace:
        values = {k: statistics.median(r[k] for r in layer_rounds) for k in layer_rounds[0]}
        values["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(plain_walls))
    else:
        values = end_to_end(plain, scales)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "provenance": provenance(load_start),
        "rounds": [vars(r) for r in plain],
        "probes_s": probes,
        "scales": scales,
        "traced_rounds": trace_sums,
        "layers": values if args.trace else None,
        "failures": checks.failures[:20],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")

    for message in checks.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": checks.ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
