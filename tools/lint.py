#!/usr/bin/env python3
"""Repo-local lint gate (run in CI; no third-party deps).

Checks, each motivated by a concurrency-correctness contract:

1. No ``std::rand`` / ``rand(`` / ``time(`` in ``src/``: the serving
   stack promises bit-identical replays (engine.h, ISSUE PR 6), and
   hidden global-state entropy sources break that silently -- and
   ``std::rand`` is allowed to be non-thread-safe besides.  Tests
   derive churn from loop counters instead.

2. Every public header under ``src/serve/``, ``src/server/``,
   ``src/quant/`` and ``src/support/`` must carry an explicit
   ``Thread-safety:`` contract block, so the capability annotations
   (support/thread_annotations.h) are always paired with prose
   stating *which* of the three repo contracts the class follows:
   immutable, internally synchronized, or externally serialized.

3. Every ``MUGI_FAULT_POINT("site")`` literal in ``src/`` must be
   documented in DESIGN.md's fault-site table (the site name in
   backticks), and evaluated at exactly one seam (comment lines do
   not count).  An undocumented site is chaos coverage nobody can
   reason about -- the chaos gates assert invariants per site, so
   the contract each site simulates has to be written down.  And a
   site's fire schedule is a function of (seed, site, N): it names
   one failure only when one seam counts N.

4. No ``#if`` / ``#ifdef`` / ``#ifndef`` on ``NDEBUG`` under
   ``tests/``: a test body compiled in only one build type rots
   unseen in the other (a Release-only test once broke the default
   build for several changes).  Branch at run time on
   ``support::kAssertsEnabled`` (support/audit.h) instead.

Exit status 0 when clean; 1 with one ``file:line: message`` per
violation otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
TESTS = REPO / "tests"

# Global-state entropy/time calls banned from src/ (deterministic
# replay + thread-safety).  Word-boundary so e.g. `runtime(` or
# `strand(` never match.
BANNED_CALLS = [
    (re.compile(r"\bstd::rand\b"), "std::rand is banned in src/"),
    (re.compile(r"(?<![\w:])rand\s*\("), "rand( is banned in src/"),
    (re.compile(r"(?<![\w:_])time\s*\("), "time( is banned in src/"),
]

THREAD_SAFETY_DIRS = ("serve", "server", "quant", "support")
THREAD_SAFETY_RE = re.compile(r"Thread-safety\s*:")

FAULT_POINT_RE = re.compile(r'MUGI_FAULT_POINT\(\s*"([^"]+)"\s*\)')

NDEBUG_CONDITIONAL_RE = re.compile(
    r"^\s*#\s*(?:if|ifdef|ifndef|elif)\b.*\bNDEBUG\b"
)


def check_banned_calls(path: Path) -> list[str]:
    problems = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        for pattern, message in BANNED_CALLS:
            if pattern.search(line):
                rel = path.relative_to(REPO)
                problems.append(f"{rel}:{lineno}: {message}")
    return problems


def check_thread_safety_contract(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    if THREAD_SAFETY_RE.search(text):
        return []
    rel = path.relative_to(REPO)
    return [
        f"{rel}:1: public header lacks a 'Thread-safety:' contract "
        "block (state whether the class is immutable, internally "
        "synchronized, or externally serialized)"
    ]


def code_lines(path: Path):
    """(lineno, line) for each line of ``path`` outside comments."""
    in_block = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        stripped = line.strip()
        if in_block:
            in_block = "*/" not in stripped
            continue
        if stripped.startswith("/*"):
            in_block = "*/" not in stripped[2:]
            continue
        if stripped.startswith("//"):
            continue
        yield lineno, line


def check_fault_sites() -> list[str]:
    """Every MUGI_FAULT_POINT site literal appears in DESIGN.md and
    is evaluated at exactly one seam."""
    design_path = REPO / "DESIGN.md"
    design = (
        design_path.read_text(encoding="utf-8")
        if design_path.exists()
        else ""
    )
    problems = []
    seams: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in {".h", ".cc"}:
            continue
        rel = path.relative_to(REPO)
        for lineno, line in code_lines(path):
            for site in FAULT_POINT_RE.findall(line):
                seams.setdefault(site, []).append(f"{rel}:{lineno}")
                if f"`{site}`" not in design:
                    problems.append(
                        f"{rel}:{lineno}: fault site \"{site}\" is "
                        "not documented in DESIGN.md's fault-site "
                        "table (add it in backticks)"
                    )
    for site, where in sorted(seams.items()):
        if len(where) > 1:
            problems.append(
                f"{where[1]}: fault site \"{site}\" is evaluated at "
                f"{len(where)} seams ({', '.join(where)}); its fire "
                "schedule counts evaluations, so give each seam its "
                "own site"
            )
    return problems


def check_no_ndebug_conditionals(path: Path) -> list[str]:
    problems = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if NDEBUG_CONDITIONAL_RE.search(line):
            rel = path.relative_to(REPO)
            problems.append(
                f"{rel}:{lineno}: NDEBUG conditional in a test; branch "
                "on support::kAssertsEnabled so the body compiles in "
                "both build types"
            )
    return problems


def main() -> int:
    problems: list[str] = []

    for path in sorted(SRC.rglob("*")):
        if path.suffix not in {".h", ".cc"}:
            continue
        problems += check_banned_calls(path)

    for subdir in THREAD_SAFETY_DIRS:
        for header in sorted((SRC / subdir).glob("*.h")):
            problems += check_thread_safety_contract(header)

    problems += check_fault_sites()

    for path in sorted(TESTS.rglob("*")):
        if path.suffix in {".h", ".cc"}:
            problems += check_no_ndebug_conditionals(path)

    if problems:
        print(f"tools/lint.py: {len(problems)} problem(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("tools/lint.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
