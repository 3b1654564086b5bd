#!/usr/bin/env python3
"""Determinism lint for the simulation/campaign/obs/scenario sources.

The repo's core contract is that a campaign report is a pure function of
its seed: byte-identical at any thread count, across resume, and across
machines.  This lint walks the directories that own that contract
(src/sim, src/campaign, src/obs, and src/scenario, where the population
fleet's batch ordering lives) and rejects the constructs that break it:

  wallclock    reads of the host clock (std::chrono::*_clock::now, time(),
               gettimeofday, clock_gettime, localtime/gmtime).  Simulation
               logic must use sim::Time; wall time is allowed only in the
               telemetry layer, which is explicitly outside the
               byte-identity contract, and only with an annotation.
  rand         libc / nondeterministic randomness: rand(), srand(),
               drand48, std::random_device.  All randomness must flow from
               the seeded common/rng.h generators.
  unordered-iter  iteration over std::unordered_map/std::unordered_set.
               Hash-table iteration order depends on libstdc++ version,
               seed and insertion history; iterating one into any output
               or accumulation leaks that order into results.  Lookups
               are fine; iteration needs an ordered container or an
               annotation proving the order cannot reach a report.
  address      address-dependent values: %p, pointer->integer casts,
               std::hash over pointers.  Addresses differ run to run
               (ASLR), so they must never feed reports or seeds.
  thread-id    thread identity (std::this_thread::get_id, pthread_self,
               gettid).  Which worker executes a trial is scheduling-
               dependent, so a thread id reaching any recorded event or
               report breaks cross-thread-count byte identity.  The
               provenance/flight-recorder layer (src/obs) must label
               events with sim-derived ids only.
  pid          process identity (getpid, getppid).  The multi-process
               analogue of thread-id: which OS pid a --workers process
               gets is fork-order and host dependent, so a pid reaching
               a shard, report or progress byte breaks the cross-process
               byte-identity contract (src/campaign/runner.cpp).  Worker
               identity must be the shard id the runner assigns.

Waivers: a finding is suppressed when the offending line — or the line
directly above it — carries

    det-lint: allow(<rule>) <justification>

inside a comment.  The justification is mandatory (the annotation is the
inline audit trail the CI gate points reviewers at).

Exit status: 0 clean, 1 findings, 2 usage error.  Used both as a ctest
test and as a CI job, so keep the output format stable:
  <file>:<line>: [<rule>] <message>
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

DEFAULT_DIRS = ["src/sim", "src/campaign", "src/obs", "src/scenario"]
SUFFIXES = {".h", ".cpp"}

ALLOW_RE = re.compile(r"det-lint:\s*allow\((?P<rule>[a-z-]+)\)\s*(?P<why>\S.*)?")

RULES = {
    "wallclock": [
        re.compile(r"\b(system_clock|steady_clock|high_resolution_clock)\b"),
        re.compile(r"\b(gettimeofday|clock_gettime|timespec_get)\s*\("),
        re.compile(r"\b(localtime|gmtime|mktime|strftime)\s*\("),
        re.compile(r"\btime\s*\(\s*(NULL|nullptr|0|&)"),
    ],
    "rand": [
        re.compile(r"\b(rand|srand|random|srandom|drand48|lrand48)\s*\("),
        re.compile(r"\brandom_device\b"),
    ],
    "address": [
        re.compile(r"%p\b"),
        re.compile(r"reinterpret_cast<\s*(std::)?u?intptr_t\s*>"),
        re.compile(r"static_cast<\s*(std::)?u?intptr_t\s*>"),
        re.compile(r"std::hash<[^<>]*\*\s*>"),
    ],
    "thread-id": [
        re.compile(r"\bthis_thread\s*::\s*get_id\s*\("),
        re.compile(r"\bpthread_self\s*\("),
        re.compile(r"\bgettid\s*\("),
        re.compile(r"\bthread\s*::\s*id\b"),
    ],
    "pid": [
        re.compile(r"\bgetpid\s*\("),
        re.compile(r"\bgetppid\s*\("),
    ],
}

DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s+(\w+)\s*[;{=(,)]"
)
RANGE_FOR_RE = re.compile(r"for\s*\([^;()]*?:\s*(?:\*?)(\w+)(?:\.|->)?\s*\)")
BEGIN_RE = re.compile(r"\b(\w+)\s*(?:\.|->)\s*c?begin\s*\(")


def strip_comments_keep_lines(text: str) -> list[str]:
    """Remove comments and string-literal bodies, preserving line structure.

    String bodies are kept for the 'address' rule (format strings), so we
    only strip comments here and let callers decide.  Block comments are
    blanked in place; line comments are cut at the first // outside a
    string literal.
    """
    out = []
    in_block = False
    for line in text.splitlines():
        buf = []
        i = 0
        in_str: str | None = None
        while i < len(line):
            c = line[i]
            nxt = line[i + 1] if i + 1 < len(line) else ""
            if in_block:
                if c == "*" and nxt == "/":
                    in_block = False
                    i += 2
                    continue
                i += 1
                continue
            if in_str:
                buf.append(c)
                if c == "\\":
                    if i + 1 < len(line):
                        buf.append(nxt)
                    i += 2
                    continue
                if c == in_str:
                    in_str = None
                i += 1
                continue
            if c in "\"'":
                in_str = c
                buf.append(c)
                i += 1
                continue
            if c == "/" and nxt == "/":
                break
            if c == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            buf.append(c)
            i += 1
        out.append("".join(buf))
    return out


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allowed(raw_lines: list[str], idx: int, rule: str,
            problems: list[Finding], path: Path) -> bool:
    """True iff line idx (0-based) or the line above carries a waiver."""
    for j in (idx, idx - 1):
        if j < 0:
            continue
        m = ALLOW_RE.search(raw_lines[j])
        if m and m.group("rule") == rule:
            if not m.group("why"):
                problems.append(Finding(
                    path, j + 1, rule,
                    "det-lint waiver without a justification"))
            return True
    return False


def scan_file(path: Path, unordered_names: set[str]) -> list[Finding]:
    raw = path.read_text(encoding="utf-8").splitlines()
    code = strip_comments_keep_lines("\n".join(raw))
    findings: list[Finding] = []

    for idx, line in enumerate(code):
        for rule, patterns in RULES.items():
            for pat in patterns:
                if pat.search(line):
                    if not allowed(raw, idx, rule, findings, path):
                        findings.append(Finding(
                            path, idx + 1, rule,
                            f"forbidden pattern '{pat.pattern}'"))
                    break  # one finding per rule per line

        for pat in (RANGE_FOR_RE, BEGIN_RE):
            m = pat.search(line)
            if m and m.group(1) in unordered_names:
                if not allowed(raw, idx, "unordered-iter", findings, path):
                    findings.append(Finding(
                        path, idx + 1, "unordered-iter",
                        f"iteration over unordered container "
                        f"'{m.group(1)}' leaks hash order"))
    return findings


def collect_unordered_names(files: list[Path]) -> set[str]:
    names: set[str] = set()
    for path in files:
        code = "\n".join(
            strip_comments_keep_lines(path.read_text(encoding="utf-8")))
        for m in DECL_RE.finditer(code):
            names.add(m.group(1))
    return names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=None,
                        help=f"files or directories (default: {DEFAULT_DIRS}"
                             " relative to the repo root)")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    targets = [Path(p) for p in args.paths] if args.paths else [
        root / d for d in DEFAULT_DIRS]

    files: list[Path] = []
    for t in targets:
        if t.is_dir():
            files.extend(sorted(p for p in t.rglob("*") if p.suffix in SUFFIXES))
        elif t.is_file():
            files.append(t)
        else:
            print(f"lint_determinism: no such path: {t}", file=sys.stderr)
            return 2

    # Two passes: declarations of unordered containers anywhere in the
    # scanned set (members live in headers, iteration in .cpp files),
    # then per-file scanning.
    unordered_names = collect_unordered_names(files)
    findings: list[Finding] = []
    for f in files:
        findings.extend(scan_file(f, unordered_names))

    for finding in findings:
        print(finding)
    if findings:
        print(f"\nlint_determinism: {len(findings)} finding(s) in "
              f"{len(files)} files", file=sys.stderr)
        return 1
    print(f"lint_determinism: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
