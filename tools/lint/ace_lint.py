#!/usr/bin/env python3
"""Project lint gate: style-level static analysis for invariants the
compiler cannot express.

Rules
-----
raw-mutex         std::mutex / std::lock_guard / std::unique_lock (and
                  friends) outside src/util/. All other code must use the
                  annotated util::Mutex wrappers so the Clang capability
                  analysis can prove the lock discipline.
float-equality    == / != against a floating-point literal. Exact float
                  comparison is almost always a tolerance bug; the rare
                  legitimate exact-zero tests carry a suppression.
unseeded-rng      std::random_device, rand()/srand(), or a
                  default-constructed standard engine. Every stochastic
                  component must be seeded explicitly for reproducibility.
iostream-logging  std::cout / std::cerr / printf in library code. The
                  library reports through return values and typed
                  exceptions; executables own the terminal.
wallclock-time    Wall-clock time sources (system_clock, time(), localtime,
                  ...). Timestamps make checkpoint/replay nondeterministic;
                  durations must use steady_clock.
kriging-direct-solve
                  linalg::robust_solve / lu_solve / LuDecomposition in the
                  kriging and decision layers (src/kriging/, src/dse/)
                  outside kriging::KrigingSystem itself
                  (kriging/system.{hpp,cpp}). Every kriging solve must go
                  through KrigingSystem — it owns assembly, the ridge
                  ladder, dedupe and the single in-place LU solve; a direct
                  solver call would fork the numerics the policy, the
                  variogram fit and the LOO pass share.
raw-distance-loop Hand-rolled distance accumulation
                  (`acc += abs(a - b)` and friends) outside the SIMD
                  kernel layer (src/util/simd*). Scans and assembly must
                  go through the util::simd kernels or the canonical
                  kriging::l1_distance so the vector paths and the
                  scalar paths cannot drift apart.
blocking-under-lock
                  A blocking operation — simulator invocation, checkpoint
                  parse/serialize/replay, file or subprocess I/O, thread
                  join — inside the scope of a util::LockGuard/UniqueLock.
                  Work that can take milliseconds to seconds must not run
                  under a library mutex: every other client of that lock
                  stalls for the duration (the serve manager's old
                  replay-under-lock was exactly this). Tracks unlock()/
                  lock() gaps on UniqueLock, so the two-phase "snapshot
                  under lock, render outside" idiom is clean. Sites where
                  holding the lock is the documented design (the policy
                  mutex across phase-2 simulation) carry a justified
                  suppression.
optimizer-dispatch
                  An == / != comparison against an OptimizerKind::
                  enumerator, or a `case OptimizerKind::` label, in src/
                  outside dse/optimizer.{hpp,cpp}. Which optimizer runs is
                  decided once, where a dse::OptimizerCursor is made; every
                  driver steps and reads the cursor through that module, so
                  a new optimizer phase lands in one place instead of in a
                  branch per driver.
cv-wait-foreign-lock
                  A condition-variable wait while more than one guard is
                  active: the wait releases only its own mutex, so every
                  other held lock stays held for the entire sleep — a
                  deadlock if the waking thread needs one of them.

Suppression
-----------
Append `// ace-lint: allow(rule)` to the offending line, or put it on the
line directly above. Several rules can be listed:
`// ace-lint: allow(float-equality, raw-mutex)`.

Self test
---------
`ace_lint.py --self-test` runs the linter over tools/lint/selftest/ and
verifies that every planted violation (marked `// expect(rule)`) is found,
nothing else is flagged, and suppressed plants stay silent.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_PATHS = [REPO_ROOT / "src"]
SELFTEST_DIR = Path(__file__).resolve().parent / "selftest"
CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

FLOAT_LIT = r"-?(?:(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)f?"

RULES = [
    (
        "raw-mutex",
        re.compile(
            r"std::(?:mutex|timed_mutex|recursive_mutex|shared_mutex"
            r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
        ),
        "raw standard mutex/lock type; use the annotated util::Mutex "
        "wrappers (util/mutex.hpp) outside src/util/",
    ),
    (
        "float-equality",
        re.compile(
            rf"(?:{FLOAT_LIT}\s*[!=]=)|(?:[!=]=\s*{FLOAT_LIT})"
        ),
        "exact floating-point comparison; use a tolerance, or suppress if "
        "the exact test is intentional",
    ),
    (
        "unseeded-rng",
        re.compile(
            r"std::random_device\b"
            r"|\bsrand\s*\("
            r"|(?<![\w:])rand\s*\(\s*\)"
            r"|std::(?:mt19937(?:_64)?|default_random_engine"
            r"|minstd_rand0?|ranlux\d+)\s+\w+\s*;"
        ),
        "nondeterministic or default-constructed RNG; seed explicitly "
        "(util::Rng) so experiments reproduce from their seed",
    ),
    (
        "iostream-logging",
        re.compile(r"std::cout\b|std::cerr\b|\bprintf\s*\("),
        "terminal output from library code; return data or throw typed "
        "errors instead",
    ),
    (
        "wallclock-time",
        re.compile(
            r"std::chrono::system_clock\b"
            r"|\bgettimeofday\s*\("
            r"|\blocaltime(?:_r)?\s*\("
            r"|\bgmtime(?:_r)?\s*\("
            r"|\bstrftime\s*\("
            r"|std::time\s*\("
            r"|(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
        ),
        "wall-clock time source; checkpoints and replay must be "
        "deterministic — use steady_clock for durations",
    ),
    (
        "kriging-direct-solve",
        re.compile(
            r"linalg::robust_solve\b"
            r"|linalg::lu_solve\b"
            r"|linalg::LuDecomposition\b"
            r"|\brobust_solve\s*\("
            r"|\blu_solve\s*\("
            r"|\bLuDecomposition\b"
        ),
        "direct linear solve outside kriging::KrigingSystem; route the "
        "solve through it (it owns assembly, the ridge ladder and the "
        "single in-place LU solve)",
    ),
    (
        "raw-distance-loop",
        re.compile(r"\+=\s*(?:std::)?f?abs\s*\([^)]*-"),
        "hand-rolled distance accumulation; use the util::simd kernels or "
        "the canonical kriging::l1_distance so scan paths stay "
        "bit-identical",
    ),
    (
        "gate-bypass",
        re.compile(
            r"\b(?:nn_min|gate_nn_floor)\b\s*(?:[<>]=?|[!=]=)"
            r"|(?:[<>]=?|[!=]=)\s*(?:\w+(?:\.|->))*(?:nn_min|gate_nn_floor)\b"
        ),
        "direct neighbour-count threshold comparison outside the "
        "acquisition seam; route simulate-vs-interpolate decisions through "
        "dse::AcquisitionGate (make_gate / attempt / accept)",
    ),
    (
        "optimizer-dispatch",
        re.compile(
            r"[!=]=\s*(?:\w+::)*OptimizerKind::"
            r"|OptimizerKind::\w+\s*[!=]="
            r"|\bcase\s+(?:\w+::)*OptimizerKind::"
        ),
        "branch on OptimizerKind outside dse/optimizer; hold a "
        "dse::OptimizerCursor and go through optimizer_step / "
        "cursor_solution / cursor_decisions instead",
    ),
]

ALLOW_RE = re.compile(r"ace-lint:\s*allow\(([^)]*)\)")
EXPECT_RE = re.compile(r"expect\(([^)]*)\)")

# --------------------------------------------------------------------------
# Scope-aware rules. Unlike RULES these are stateful: a brace-depth tracker
# follows every util::LockGuard / util::UniqueLock declaration through its
# scope (including UniqueLock unlock()/lock() gaps), and the rules below
# fire only while at least one guard is active.

GUARD_DECL_RE = re.compile(
    r"\b(?:util::)?(?:LockGuard|UniqueLock)\s+(\w+)\s*[({]")
GUARD_UNLOCK_RE = re.compile(r"\b(\w+)\.unlock\s*\(")
GUARD_RELOCK_RE = re.compile(r"\b(\w+)\.lock\s*\(")
CV_WAIT_RE = re.compile(r"\b\w+\.wait(?:_for)?\s*\(")

BLOCKING_PATTERNS = [
    (re.compile(r"\bsimulate_many\s*\("), "batch simulation"),
    (re.compile(r"\bsimulate\s*\("), "simulator invocation"),
    (re.compile(r"\brun_simulation\s*\("), "simulator invocation"),
    (re.compile(r"\bcall_with_retry\s*\("), "retried simulator call"),
    (re.compile(r"\bparse_checkpoint\s*\("), "checkpoint parse"),
    (re.compile(r"\bserialize_checkpoint\s*\("), "checkpoint render"),
    (re.compile(r"\b(?:save|load)_checkpoint\s*\("), "checkpoint file I/O"),
    (re.compile(r"(?:\.|->)restore\s*\("), "checkpoint replay"),
    (re.compile(r"std::[io]fstream\b"), "file stream I/O"),
    (re.compile(r"\bfopen\s*\("), "file I/O"),
    (re.compile(r"\bwaitpid\s*\("), "subprocess wait"),
    (re.compile(r"(?:\.|->)join\s*\("), "thread join"),
]

BLOCKING_MESSAGE = (
    "{what} inside a lock scope; every other client of that mutex stalls "
    "for the duration — snapshot under the lock, do the slow work outside, "
    "commit under the lock (or suppress where holding the lock is the "
    "documented design)"
)

CV_WAIT_MESSAGE = (
    "condition-variable wait while holding another lock; the wait releases "
    "only its own mutex, so the outer lock is held for the whole sleep"
)


class _Guard:
    """One LockGuard/UniqueLock declaration being tracked through its
    scope."""

    def __init__(self, name: str, depth: int):
        self.name = name
        self.depth = depth  # Brace depth of the enclosing scope.
        self.active = True  # False inside an unlock()/lock() gap.

# src/util/ is the one place the raw lock types may appear: the annotated
# wrappers are implemented there.
RAW_MUTEX_EXEMPT = re.compile(r"(?:^|/)src/util/[^/]+$")

# kriging-direct-solve is scoped to the layers that krige: src/kriging/
# and src/dse/, except kriging/system.{hpp,cpp}, the one place that calls
# the LU kernels. The selftest fixture violations_kriging.cpp matches by
# its *_kriging.<c++ ext> basename. Everywhere else the solver types are
# legal.
KRIGING_SOLVE_SCOPE = re.compile(
    r"(?:^|/)src/(?:kriging|dse)/[^/]+$"
    r"|(?:^|/)[^/]*_kriging\.(?:cpp|hpp|cc|hh|cxx|h)$"
)
KRIGING_SOLVE_EXEMPT = re.compile(r"(?:^|/)src/kriging/system\.(?:cpp|hpp)$")

# The SIMD kernel layer is where the raw distance loops *live*; the
# scalar reference twins are the canonical loop by definition.
RAW_DISTANCE_EXEMPT = re.compile(r"(?:^|/)src/util/simd[^/]*$")

# gate-bypass is scoped to the decision layer: src/dse/ outside the
# acquisition seam itself (acquisition.hpp/.cpp implement the gates, so
# the nn_min/gate_nn_floor comparisons legitimately live there). The
# selftest fixture violations_dse_gate.cpp matches by basename.
GATE_SCOPE = re.compile(r"(?:^|/)src/dse/[^/]+$|(?:^|/)[^/]*dse_gate[^/]*$")
GATE_EXEMPT = re.compile(r"(?:^|/)acquisition\.(?:cpp|hpp|cc|hh|cxx|h)$")

# optimizer-dispatch is scoped to the library (src/) outside the optimizer
# module, the one place allowed to branch on OptimizerKind. The selftest
# fixture violations_optimizer_dispatch.cpp matches by basename.
DISPATCH_SCOPE = re.compile(
    r"(?:^|/)src/.+$|(?:^|/)[^/]*optimizer_dispatch[^/]*$")
DISPATCH_EXEMPT = re.compile(r"(?:^|/)src/dse/optimizer\.(?:cpp|hpp)$")


def strip_code(line: str) -> str:
    """Remove string/char literals and comment text so rule patterns only
    see code. Keeps the line length roughly stable for readability."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            i += 1
            out.append('""' if quote == '"' else "''")
        elif c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest is a line comment
        elif c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end == -1:
                break  # multi-line comment; caller tracks continuation
            i = end + 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, path: Path, line_no: int, rule: str, message: str):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        try:
            shown = self.path.relative_to(REPO_ROOT)
        except ValueError:
            shown = self.path
        return f"{shown}:{self.line_no}: [{self.rule}] {self.message}"


def allowed_rules(line: str) -> set[str]:
    m = ALLOW_RE.search(line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",") if r.strip()}


def scan_guard_scopes(code: str, depth: int, guards: list[_Guard],
                      allows: set[str]) -> tuple[int, list[tuple[str, str]]]:
    """Walk one comment/string-stripped line positionally: guard
    declarations, unlock()/lock() gaps, blocking calls and CV waits, each
    judged against the guard state at its own column (so `lock.unlock();
    slow(); lock.lock();` on one line is clean). Mutates `guards`;
    returns (depth after the line, [(rule, message), ...])."""
    events: list[tuple[int, str, str]] = []
    for m in GUARD_DECL_RE.finditer(code):
        events.append((m.start(), "decl", m.group(1)))
    for m in GUARD_UNLOCK_RE.finditer(code):
        events.append((m.start(), "unlock", m.group(1)))
    for m in GUARD_RELOCK_RE.finditer(code):
        events.append((m.start(), "relock", m.group(1)))
    if "cv-wait-foreign-lock" not in allows:
        for m in CV_WAIT_RE.finditer(code):
            events.append((m.start(), "wait", ""))
    if "blocking-under-lock" not in allows:
        for pattern, what in BLOCKING_PATTERNS:
            for m in pattern.finditer(code):
                events.append((m.start(), "blocking", what))

    found: list[tuple[str, str]] = []
    for pos, kind, payload in sorted(events):
        if kind == "decl":
            at = depth + code[:pos].count("{") - code[:pos].count("}")
            guards.append(_Guard(payload, at))
        elif kind == "unlock":
            for g in reversed(guards):
                if g.name == payload and g.active:
                    g.active = False
                    break
        elif kind == "relock":
            for g in reversed(guards):
                if g.name == payload and not g.active:
                    g.active = True
                    break
        elif kind == "wait":
            if sum(1 for g in guards if g.active) >= 2:
                found.append(("cv-wait-foreign-lock", CV_WAIT_MESSAGE))
        elif any(g.active for g in guards):
            found.append(("blocking-under-lock",
                          BLOCKING_MESSAGE.format(what=payload)))

    depth += code.count("{") - code.count("}")
    guards[:] = [g for g in guards if g.depth <= depth]
    return depth, found


def lint_file(path: Path) -> list[Finding]:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        return [Finding(path, 0, "io-error", str(e))]

    findings: list[Finding] = []
    lines = text.splitlines()
    in_block_comment = False
    depth = 0
    guards: list[_Guard] = []
    for idx, raw in enumerate(lines, start=1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end == -1:
                continue
            line = line[end + 2:]
            in_block_comment = False
        # A /* without */ on the (comment-stripped) line opens a block.
        code = strip_code(line)
        opener = line.rfind("/*")
        if opener != -1 and line.find("*/", opener + 2) == -1 and \
                "//" not in line[:opener]:
            in_block_comment = True

        allows = allowed_rules(raw)
        if idx > 1:
            allows |= allowed_rules(lines[idx - 2])

        for rule, pattern, message in RULES:
            if rule in allows:
                continue
            if rule == "raw-mutex" and RAW_MUTEX_EXEMPT.search(
                    path.as_posix()):
                continue
            if rule == "kriging-direct-solve" and (
                    not KRIGING_SOLVE_SCOPE.search(path.as_posix())
                    or KRIGING_SOLVE_EXEMPT.search(path.as_posix())):
                continue
            if rule == "raw-distance-loop" and RAW_DISTANCE_EXEMPT.search(
                    path.as_posix()):
                continue
            if rule == "gate-bypass" and (
                    not GATE_SCOPE.search(path.as_posix())
                    or GATE_EXEMPT.search(path.as_posix())):
                continue
            if rule == "optimizer-dispatch" and (
                    not DISPATCH_SCOPE.search(path.as_posix())
                    or DISPATCH_EXEMPT.search(path.as_posix())):
                continue
            if pattern.search(code):
                findings.append(Finding(path, idx, rule, message))

        depth, scoped = scan_guard_scopes(code, depth, guards, allows)
        for rule, message in scoped:
            findings.append(Finding(path, idx, rule, message))
    return findings


def collect_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            files.extend(
                f for f in sorted(p.rglob("*"))
                if f.is_file() and f.suffix in CXX_SUFFIXES
            )
        else:
            print(f"ace-lint: no such path: {p}", file=sys.stderr)
    return files


def run_lint(paths: list[Path]) -> int:
    findings: list[Finding] = []
    files = collect_files(paths)
    for f in files:
        findings.extend(lint_file(f))
    for finding in findings:
        print(finding)
    print(
        f"ace-lint: {len(files)} files, {len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


def run_self_test() -> int:
    """The fixtures plant violations marked `// expect(rule)`; the linter
    must flag exactly the planted set — every plant found (100% recall)
    and nothing else (no false positives)."""
    fixtures = collect_files([SELFTEST_DIR])
    if not fixtures:
        print(f"ace-lint: no fixtures under {SELFTEST_DIR}", file=sys.stderr)
        return 1

    expected: set[tuple[str, int, str]] = set()
    for f in fixtures:
        for idx, raw in enumerate(f.read_text().splitlines(), start=1):
            m = EXPECT_RE.search(raw)
            if m:
                for rule in m.group(1).split(","):
                    expected.add((f.name, idx, rule.strip()))

    actual: set[tuple[str, int, str]] = set()
    for f in fixtures:
        for finding in lint_file(f):
            actual.add((finding.path.name, finding.line_no, finding.rule))

    missed = expected - actual
    spurious = actual - expected
    for name, line, rule in sorted(missed):
        print(f"self-test MISS: {name}:{line} expected [{rule}]")
    for name, line, rule in sorted(spurious):
        print(f"self-test FALSE POSITIVE: {name}:{line} flagged [{rule}]")
    detected = len(expected - missed)
    print(
        f"ace-lint self-test: {detected}/{len(expected)} planted violations "
        f"detected, {len(spurious)} false positive(s)",
        file=sys.stderr,
    )
    return 0 if not missed and not spurious else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories (default: src/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter against the planted "
                             "fixtures in tools/lint/selftest/")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    return run_lint(args.paths or DEFAULT_PATHS)


if __name__ == "__main__":
    sys.exit(main())
