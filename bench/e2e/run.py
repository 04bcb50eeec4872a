#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (ace_e2e); compare result sets.

One workload, the form BENCHMARK.json's command uses:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

builds ace_e2e from this checkout (Release, into .bench_build/e2e), runs the
workload in its own process, and prints the workload's metric lines followed
by one JSON line: {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1; the Chrome trace goes to .bench_build/traces/NAME.json).

Every workload, each in its own process, printing every metric with its unit:

    python3 bench/e2e/run.py run [--seed N] [--trace] [--out FILE]

runs at BENCHMARK.json's run_seconds.

--out appends one JSON line per workload run to FILE, for compare:

    python3 bench/e2e/run.py compare BASE.jsonl CHANGE.jsonl

applies BENCHMARK.json's bounds per workload and end-to-end metric: medians,
quartiles and the paired (same seed) win fraction of CHANGE over BASE. Exits
1 on a regression, on any count that differs between runs of the same seed,
or when the run contexts differ (build type, nproc, SIMD).

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "e2e"
TRACES = ROOT / ".bench_build" / "traces"
RUN_LIMIT_S = 175  # One run, build included after the first, must end in 180 s.
BUILD_LIMIT_S = 850  # The first run in a checkout may take 900 s.
CONTEXT_KEYS = ("build_type", "nproc", "simd", "simd_backend", "simd_enabled")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def build(deadline: float) -> tuple[Path, bool]:
    """Configure (once) and build ace_e2e; returns the binary's path and
    whether this call configured a fresh build tree."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"library sources not found under {ROOT}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "ace_e2e",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step failed: {' '.join(cmd)}: {e}") from e
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    exe = BUILD / "ace_e2e"
    if not exe.is_file():
        raise BenchError(f"{exe} was not built")
    return exe, len(steps) == 2


def run_workload(exe: Path, workload: str, seed: int, seconds: float,
                 trace: bool, deadline: float) -> tuple[dict, list[str]]:
    """One ace_e2e process; returns its JSON report and its other lines."""
    cmd = [str(exe), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds:g}"]
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={TRACES / (workload + '.json')}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{workload}: {e}") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"{workload}: ace_e2e exited {proc.returncode}")
    try:
        report = json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"{workload}: unreadable report: {e}") from e
    return report, lines[:-1]


def contract_metrics(report: dict, bench: dict, trace: bool) -> dict:
    """The report's metrics named in BENCHMARK.json for this mode."""
    wanted = bench["per_layer" if trace else "end_to_end"]
    out = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or not isinstance(got.get("value"), (int, float)):
            raise BenchError(f"metric {m['name']} missing from the report")
        if got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']}: unit {got['unit']} "
                             f"!= {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def workload_mode(argv: list[str]) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        raise BenchError(f"unknown workload {args.workload}")
    exe, fresh = build(start + BUILD_LIMIT_S)
    # A fresh build tree is the checkout's first run, which may build for
    # longer; every later run must end within the per-run limit.
    deadline = (time.monotonic() if fresh else start) + RUN_LIMIT_S
    report, lines = run_workload(exe, args.workload, args.seed, args.seconds,
                                 bool(args.trace), deadline)
    summary = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": contract_metrics(report, bench, bool(args.trace)),
    }
    for line in lines:
        print(line)
    print(json.dumps(summary), flush=True)
    return 0


def print_report(report: dict, lines: list[str]) -> None:
    for line in lines:
        print(line)
    ctx = report["context"]
    print("  context: " + ", ".join(f"{k}={ctx[k]}" for k in sorted(ctx)))


def run_mode(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help="also run each workload traced")
    parser.add_argument("--out", type=Path, help="append JSON lines here")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    exe, _ = build(time.monotonic() + BUILD_LIMIT_S)
    status = 0
    for workload in bench["workloads"]:
        for trace in ([False, True] if args.trace else [False]):
            report, lines = run_workload(exe, workload["name"], args.seed,
                                         bench["run_seconds"], trace,
                                         time.monotonic() + RUN_LIMIT_S)
            print_report(report, lines)
            contract_metrics(report, bench, trace)
            if not report["correct"]:
                status = 1
            if args.out:
                with args.out.open("a") as f:
                    f.write(json.dumps(report) + "\n")
    return status


def load_runs(path: Path) -> list[dict]:
    try:
        return [json.loads(line) for line in path.read_text().splitlines()
                if line.strip()]
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_mode(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    base = [r for r in load_runs(args.base) if not r["traced"]]
    change = [r for r in load_runs(args.change) if not r["traced"]]
    if not base or not change:
        raise BenchError("both files need untraced runs")
    status = 0

    contexts = []
    for runs in (base, change):
        contexts.append({tuple((k, r["context"][k]) for k in CONTEXT_KEYS)
                         for r in runs})
    for label, ctx in (("base", contexts[0]), ("change", contexts[1])):
        print(f"{label} context: " +
              "; ".join(", ".join(f"{k}={v}" for k, v in c) for c in ctx))
    if contexts[0] != contexts[1] or len(contexts[0]) != 1:
        print("RUN CONTEXTS DIFFER: results are not comparable")
        status = 1

    for r in base + change:
        if not r["correct"]:
            print(f"INCORRECT RUN: {r['workload']} seed {r['seed']}: "
                  f"{r['failures'][:3]}")
            status = 1

    header = (f"{'workload':<16} {'metric':<16} {'base p50':>11} "
              f"{'base q1-q3':>23} {'change p50':>11} {'change q1-q3':>23} "
              f"{'delta':>7} {'bound':>6} {'wins':>7}  verdict")
    print(header)
    workloads = [w["name"] for w in bench["workloads"]]
    for name in workloads:
        a_runs = {(r["seed"], r["seconds"]): r for r in base
                  if r["workload"] == name}
        b_runs = {(r["seed"], r["seconds"]): r for r in change
                  if r["workload"] == name}
        if not a_runs or not b_runs:
            continue
        for key in sorted(set(a_runs) & set(b_runs)):
            if a_runs[key]["counts"] != b_runs[key]["counts"]:
                print(f"COUNTS DIFFER: {name} seed {key[0]}: "
                      f"{a_runs[key]['counts']} vs {b_runs[key]['counts']}")
                status = 1
        for m in bench["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            higher = m["better"] == "higher"
            a = [r["metrics"][metric]["value"] for r in a_runs.values()]
            b = [r["metrics"][metric]["value"] for r in b_runs.values()]
            a1, a2, a3 = quartiles(a)
            b1, b2, b3 = quartiles(b)
            wins = pairs = 0
            for key in set(a_runs) & set(b_runs):
                x = a_runs[key]["metrics"][metric]["value"]
                y = b_runs[key]["metrics"][metric]["value"]
                pairs += 1
                wins += (y > x) if higher else (y < x)
            worse = (a2 - b2) if higher else (b2 - a2)
            delta = (b2 - a2) / a2 if a2 else 0.0
            regression = worse > bound * abs(a2)
            if regression:
                status = 1
            print(f"{name:<16} {metric:<16} {a2:>11.4g} "
                  f"{f'{a1:.4g}-{a3:.4g}':>23} {b2:>11.4g} "
                  f"{f'{b1:.4g}-{b3:.4g}':>23} {delta:>+7.1%} {bound:>6.0%} "
                  f"{f'{wins}/{pairs}':>7}  "
                  f"{'REGRESSION' if regression else 'ok'}")
    return status


def main(argv: list[str]) -> int:
    try:
        if argv and argv[0] == "run":
            return run_mode(argv[1:])
        if argv and argv[0] == "compare":
            return compare_mode(argv[1:])
        return workload_mode(argv)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
