#!/usr/bin/env python3
"""Smoke test of ace_e2e (the e2e_smoke ctest).

    smoke_test.py ACE_E2E BENCHMARK_JSON OUT_DIR

Runs the span self-test, then every workload of BENCHMARK.json with --smoke
(one instance per optimizer workload, 60 sessions), untraced and traced, and
checks that:
  * every run is correct: no failed operation and no broken cross-check
    (every answer verified against λ_min; the replay probes' neighbour
    counts, refit count and bit-identical estimates; traced runs identical
    to untraced ones; every session identical to its standalone run; every
    span inside its parent);
  * the report carries exactly BENCHMARK.json's metrics of its mode, each
    with its unit, and every end-to-end metric is positive;
  * the replay probes checked estimates on every optimizer workload;
  * the Chrome trace parses and holds spans.
Standard library only.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    exe, bench_path, out_dir = argv[0], Path(argv[1]), Path(argv[2])
    bench = json.loads(bench_path.read_text())
    out_dir.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    start = time.monotonic()

    proc = subprocess.run([exe, "--self-test"], capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        problems.append("self-test: " + proc.stdout + proc.stderr)

    for workload in bench["workloads"]:
        name = workload["name"]
        for traced in (False, True):
            label = f"{name} ({'traced' if traced else 'untraced'})"
            trace_file = out_dir / f"{name}.trace.json"
            cmd = [exe, f"--workload={name}", "--smoke"]
            if traced:
                cmd.append(f"--trace={trace_file}")
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=60)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                problems.append(f"{label}: no report; {proc.stderr.strip()}")
                continue
            report = json.loads(lines[-1])
            if proc.returncode != 0 or not report["correct"]:
                problems.append(f"{label}: {report['failures']}")
            if report["attempted"] < 1 or report["failed"] != 0:
                problems.append(f"{label}: attempted {report['attempted']}, "
                                f"failed {report['failed']}")

            wanted = {m["name"]: m["unit"]
                      for m in bench["per_layer" if traced else "end_to_end"]}
            got = report["metrics"]
            if set(got) != set(wanted):
                problems.append(f"{label}: metrics differ from BENCHMARK.json:"
                                f" {sorted(set(got) ^ set(wanted))}")
            for metric, unit in wanted.items():
                value = got.get(metric, {})
                if value.get("unit") != unit or not isinstance(
                        value.get("value"), (int, float)):
                    problems.append(f"{label}: {metric} lacks a value in "
                                    f"{unit}")
                elif not traced and value["value"] <= 0:
                    problems.append(f"{label}: {metric} is not positive")

            if traced and name != "serve_sessions" and \
                    report["counts"].get("probe_estimates_checked", 0) == 0:
                problems.append(f"{label}: replay probes checked nothing")
            if traced and not json.loads(
                    trace_file.read_text())["traceEvents"]:
                problems.append(f"{label}: empty trace")

    elapsed = time.monotonic() - start
    for p in problems:
        print("FAIL:", p)
    print(f"e2e smoke {'ok' if not problems else 'FAILED'} ({elapsed:.1f} s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
