#!/usr/bin/env python3
"""Check fresh bench reports against the committed BENCH_*.json snapshots.

    python3 tools/bench_compare.py \\
        --gates build/BENCH_gates.json BENCH_gates.json \\
        --serve build/BENCH_serve.json BENCH_serve.json

Each pair is FRESH COMMITTED; either flag may be given alone.

--gates (bench/gate_compare): the report has no timings, so every field
except the run context must match exactly: per kernel the exact reference
run (lambda_min, simulations, lambda, feasibility, cost), per gate row the
simulations, interpolations, true lambda, lambda_min verdict, cost, gap to
the exact solution, each gate's rejection counts and the beats-baseline
verdict, and the summary (kernels beaten, pass).

--serve (bench/session_server): only the fields that repeat exactly from
run to run are checked: sessions, requests, steps and divergent_sessions,
and the fresh run must report divergent_sessions == 0. Parks, resumes and
backpressure waits depend on thread timing, and wall times and latencies
on the machine; they are printed, not checked.

Exit status: 0 when everything matches, 1 on any mismatch, 2 when a file
is missing or is not a report of the expected shape. Standard library only.
"""

import argparse
import json
import sys

SERVE_EXACT_FIELDS = ("sessions", "requests", "steps", "divergent_sessions")
SERVE_INFO_FIELDS = ("parks", "resumes", "backpressure_waits",
                     "sequential_wall_s", "service_wall_s",
                     "throughput_steps_per_s", "latency_p50_ms",
                     "latency_p99_ms")


class ShapeError(Exception):
    """A report is missing or does not have the expected structure."""


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        raise ShapeError(f"{path}: {e}") from e
    if not isinstance(report, dict):
        raise ShapeError(f"{path}: not a JSON object")
    return report


def keyed(rows, key, where):
    """List of objects -> {row[key]: row}, insertion-ordered."""
    if not isinstance(rows, list):
        raise ShapeError(f"{where}: expected a list")
    out = {}
    for row in rows:
        if not isinstance(row, dict) or key not in row:
            raise ShapeError(f"{where}: row without '{key}'")
        out[row[key]] = row
    return out


def compare_fields(fresh, committed, where, skip, problems):
    """Every field of either object must be present in both and equal."""
    for field in sorted(set(fresh) | set(committed)):
        if field in skip:
            continue
        if field not in fresh or field not in committed:
            side = "fresh" if field not in fresh else "committed"
            problems.append(f"{where}: '{field}' missing from the {side} report")
        elif fresh[field] != committed[field]:
            problems.append(f"{where}: {field} {fresh[field]!r} "
                            f"(committed {committed[field]!r})")


def check_gates(fresh_path, committed_path):
    fresh, committed = load(fresh_path), load(committed_path)
    problems = []
    compare_fields(fresh, committed, "gates", {"context", "kernels"}, problems)
    fresh_k = keyed(fresh.get("kernels"), "kernel", fresh_path)
    committed_k = keyed(committed.get("kernels"), "kernel", committed_path)
    if list(fresh_k) != list(committed_k):
        problems.append(f"gates: kernels {list(fresh_k)} "
                        f"(committed {list(committed_k)})")
    for name in [n for n in fresh_k if n in committed_k]:
        f, c = fresh_k[name], committed_k[name]
        compare_fields(f, c, name, {"gates"}, problems)
        fresh_g = keyed(f.get("gates"), "gate", f"{fresh_path}: {name}")
        committed_g = keyed(c.get("gates"), "gate",
                            f"{committed_path}: {name}")
        if list(fresh_g) != list(committed_g):
            problems.append(f"{name}: gates {list(fresh_g)} "
                            f"(committed {list(committed_g)})")
        for gate in [g for g in fresh_g if g in committed_g]:
            compare_fields(fresh_g[gate], committed_g[gate],
                           f"{name}/{gate}", set(), problems)
    rows = sum(len(k.get("gates", [])) for k in fresh_k.values())
    print(f"gates: {len(fresh_k)} kernels, {rows} gate rows, "
          f"context {fresh.get('context')} "
          f"(committed {committed.get('context')})")
    return problems


def check_serve(fresh_path, committed_path):
    fresh, committed = load(fresh_path), load(committed_path)
    problems = []
    for field in SERVE_EXACT_FIELDS:
        if field not in fresh or field not in committed:
            raise ShapeError(f"serve: '{field}' missing")
        if fresh[field] != committed[field]:
            problems.append(f"serve: {field} {fresh[field]!r} "
                            f"(committed {committed[field]!r})")
    if fresh["divergent_sessions"] != 0:
        problems.append(f"serve: {fresh['divergent_sessions']} sessions "
                        "diverged from their standalone runs")
    print(f"serve: context {fresh.get('context')} "
          f"(committed {committed.get('context')})")
    for field in SERVE_INFO_FIELDS:
        print(f"  {field:24s} {fresh.get(field)!s:>12} "
              f"(committed {committed.get(field)!s})")
    return problems


def main(argv):
    parser = argparse.ArgumentParser(
        description="Check fresh bench reports against committed snapshots.")
    parser.add_argument("--gates", nargs=2, metavar=("FRESH", "COMMITTED"),
                        help="gate_compare report and its snapshot")
    parser.add_argument("--serve", nargs=2, metavar=("FRESH", "COMMITTED"),
                        help="session_server report and its snapshot")
    args = parser.parse_args(argv)
    if not args.gates and not args.serve:
        parser.error("give --gates and/or --serve")
    problems = []
    try:
        if args.gates:
            problems += check_gates(*args.gates)
        if args.serve:
            problems += check_serve(*args.serve)
    except ShapeError as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2
    for p in problems:
        print(f"MISMATCH {p}")
    print("bench_compare: " + ("OK" if not problems
                               else f"{len(problems)} mismatches"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
