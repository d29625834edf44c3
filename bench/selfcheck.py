"""Quick self-check of the benchmark (about ten seconds).

    python3 bench/selfcheck.py

Runs every workload at the tiny scale, untraced and traced, and checks that
each run exits 0, passes its correctness checks, fails no operation, emits
exactly the metrics BENCHMARK.json names, and that the spans' self times of
every traced round sum to the round's traced wall time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SLACK_S = 1e-3
SLACK_SHARE = 0.01


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            before = len(problems)
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny"],
                capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}")
                print(f"{label}: FAILED", flush=True)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}: "
                                f"{proc.stderr[-300:]}")
            if list(result["metrics"]) != expected[trace]:
                missing = set(expected[trace]) - set(result["metrics"])
                extra = set(result["metrics"]) - set(expected[trace])
                problems.append(f"{label}: missing {sorted(missing)}, extra {sorted(extra)}")
            if trace:
                record = json.loads(
                    (root / ".bench_out" / f"{workload}-seed3-trace1-tiny.json").read_text())
                for r in record["traced_rounds"]:
                    gap = abs(r["self_sum_s"] - r["wall_s"])
                    if gap > SLACK_S + SLACK_SHARE * r["wall_s"]:
                        problems.append(f"{label}: self times sum to {r['self_sum_s']:.6f} s, "
                                        f"traced wall {r['wall_s']:.6f} s")
                if not record["traced_rounds"]:
                    problems.append(f"{label}: no traced round")
            print(f"{label}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
