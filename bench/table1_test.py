#!/usr/bin/env python3
"""Tests of the Table I driver (the table1_* ctests) and of the Sec. IV
decision-divergence bench (the decision_divergence_output ctest).

    table1_test.py reject TABLE1 ARGS...
    table1_test.py golden EXPECTED PROGRAM ARGS...

reject runs TABLE1 with ARGS and passes when it prints usage on stderr and
exits with code exactly 2: a bad flag value must not abort on an uncaught
exception, wrap a negative count to SIZE_MAX, or accept trailing garbage.

golden runs PROGRAM with ARGS and passes when it exits 0 and its stdout,
without the lines that vary by run or build (table1's "total wall time:",
decision_divergence's SIMD backend name), equals the file EXPECTED byte
for byte. The expected files hold the Table I output of each kernel and
the decision_divergence table, so any change to a replayed or counted
decision or a printed statistic shows here.

Standard library only.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TIMEOUT_S = 240
SKIPPED = ("total wall time:", "SIMD identity gate (backend:")


def run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)


def reject(argv: list[str]) -> int:
    proc = run(argv)
    if proc.returncode == 2 and "usage:" in proc.stderr:
        print(f"ok: exit 2 with usage: {' '.join(argv[1:])}")
        return 0
    print(f"FAIL: exit {proc.returncode}, expected 2 with usage: "
          f"{' '.join(argv[1:])}\nstderr:\n{proc.stderr}", file=sys.stderr)
    return 1


def golden(expected_path: str, argv: list[str]) -> int:
    expected = Path(expected_path).read_text()
    proc = run(argv)
    got = "".join(line for line in proc.stdout.splitlines(keepends=True)
                  if not line.startswith(SKIPPED))
    if proc.returncode == 0 and got == expected:
        print(f"ok: output matches {expected_path}")
        return 0
    print(f"FAIL: exit {proc.returncode}; output of {' '.join(argv[1:])}:\n"
          f"{got}\nexpected ({expected_path}):\n{expected}\n"
          f"stderr:\n{proc.stderr}", file=sys.stderr)
    return 1


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[1] == "reject":
        return reject(argv[2:])
    if len(argv) >= 4 and argv[1] == "golden":
        return golden(argv[2], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
