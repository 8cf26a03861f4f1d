#!/usr/bin/env python3
"""Determinism lint: flag constructs that would silently break bit-identical replay.

The repo's standing invariant is that the default figure NDJSON output is
byte-identical across every thread count and shard combination.
Three classes of code chip away at that guarantee without failing any
functional test:

  unordered-iteration  std::unordered_{map,set,multimap,multiset} in the
                       deterministic layers: iteration order is
                       unspecified, so any loop feeding a sink, an
                       accumulator, or an output stream can reorder
                       records (or float additions) between runs, hosts,
                       or libstdc++ versions.

  raw-rng              std::rand/srand, std::random_device, and
                       time(nullptr) reads: all randomness must flow
                       through the seeded engines in src/support/rng so a
                       (kind, size, seed) triple always regenerates the
                       same instance.

  wall-clock           std::chrono::*_clock::now() outside src/obs: a
                       clock read in a deterministic layer is either dead
                       weight or a timing dependency about to leak into
                       output. Timing belongs to the telemetry layer —
                       use obs::monotonic_ns()/obs::ScopedTimer, whose
                       values only ever reach /metrics and trace files.

  raw-exp              any libm spelling of exp/expm1 on the record path
                       (src/core/evaluator*.{hpp,cpp} and
                       src/core/math_kernels.*): std::exp, ::exp, exp,
                       __builtin_exp and their expm1, float and long
                       double forms, called or named. glibc picks a
                       variant of each per CPU at load time, and its FMA
                       and generic variants round differently, so record
                       bytes would depend on the host. The record path
                       calls the repository's own port instead
                       (exp_port/expm1_port and the vexp_neg_mul/vexpm1
                       sweeps of src/core/math_kernels), which gives the
                       same bits everywhere.

Scanned tree: src/core, src/engine and src/obs under --root (the layers
that produce record bytes, plus the telemetry layer — which is exempt
from wall-clock but not from the other rules). A finding is suppressed by a justification
comment on the same or the immediately preceding line:

    // determinism-ok: <why this cannot affect record bytes>

A bare "determinism-ok" with no justification text is itself an error —
CI accepts zero unjustified suppressions.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
Self-test: lint_determinism.py --self-test [--fixtures DIR] checks the
rules against known-bad/known-good fixture snippets.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

SCAN_DIRS = ("src/core", "src/engine", "src/obs")
SUPPRESS_RE = re.compile(r"//\s*determinism-ok:?\s*(?P<reason>.*?)\s*(?:\*/)?\s*$")

# Each rule: (id, file filter, regex over the code part of a line, message).
RULES = [
    (
        "unordered-iteration",
        lambda path: True,
        re.compile(r"std::unordered_(?:map|set|multimap|multiset)\b"),
        "unordered container in a deterministic layer: iteration order is "
        "unspecified and will reorder anything it feeds (use std::map, a "
        "sorted vector, or justify why the order never reaches an output)",
    ),
    (
        "raw-rng",
        lambda path: True,
        re.compile(
            r"std::rand\b|(?<![_\w])srand\s*\(|random_device|default_random_engine"
            r"|time\s*\(\s*(?:NULL|nullptr|0)\s*\)"
        ),
        "unseeded/wall-clock randomness: route all RNG through the seeded "
        "engines in src/support/rng so instances replay from their seed",
    ),
    (
        "wall-clock",
        # The telemetry layer is the one sanctioned clock reader
        # (obs::monotonic_ns); everything else must go through it.
        lambda path: "obs" not in path.parts,
        re.compile(r"_clock::now\s*\("),
        "clock read in a deterministic layer: time must flow through "
        "obs::monotonic_ns()/obs::ScopedTimer so it can only reach "
        "telemetry sinks, never record bytes",
    ),
    (
        "raw-exp",
        lambda path: path.name.startswith(("evaluator", "math_kernels")),
        re.compile(
            r"(?<![\w.])(?:(?:std)?::)?(?:__builtin_)?(?:exp|expm1)[fl]?\s*\("
            r"|(?<![\w.])(?:std)?::(?:exp|expm1)[fl]?\b"
        ),
        "libm exp/expm1 on the record path: glibc's per-CPU variants round "
        "differently, so the bytes would depend on the host; call exp_port/"
        "expm1_port or the vexp_neg_mul/vexpm1 sweeps of core/math_kernels",
    ),
]


def code_part(line: str) -> str:
    """The non-comment part of a line (string literals are left alone:
    none of the patterns plausibly match inside the repo's literals)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


class Finding:
    def __init__(self, path: pathlib.Path, lineno: int, rule: str, message: str):
        self.path = path
        self.lineno = lineno
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"


def suppression(line: str) -> str | None:
    """The justification text when the line carries a determinism-ok
    comment, '' when it carries one without a reason, else None."""
    match = SUPPRESS_RE.search(line)
    if not match:
        return None
    return match.group("reason")


def scan_file(path: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    except OSError as error:
        raise SystemExit(f"lint_determinism: cannot read {path}: {error}")
    in_block_comment = False
    for lineno, line in enumerate(lines, start=1):
        # Cheap block-comment tracking: good enough for the repo's
        # comment style (no code after '*/' on the same line).
        stripped = line.strip()
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
            continue
        if stripped.startswith("/*"):
            if "*/" not in stripped:
                in_block_comment = True
            continue
        code = code_part(line)
        suppressed = suppression(line)
        if suppressed is None and lineno >= 2:
            suppressed = suppression(lines[lineno - 2])
        for rule, applies, pattern, message in RULES:
            if not applies(path):
                continue
            if not pattern.search(code):
                continue
            if suppressed is not None:
                if not suppressed:
                    findings.append(
                        Finding(
                            path,
                            lineno,
                            rule,
                            "suppression without a justification; write "
                            "'// determinism-ok: <reason>'",
                        )
                    )
                continue
            findings.append(Finding(path, lineno, rule, message))
    return findings


def scan_tree(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    for subdir in SCAN_DIRS:
        base = root / subdir
        if not base.is_dir():
            raise SystemExit(f"lint_determinism: missing scan dir {base} (wrong --root?)")
        for path in sorted(base.rglob("*")):
            if path.suffix in (".cpp", ".hpp", ".h", ".cc"):
                findings.extend(scan_file(path))
    return findings


# --- Self-test ---------------------------------------------------------


def self_test(fixtures: pathlib.Path) -> int:
    """Runs the rules over the fixture snippets and checks every expected
    finding fires (and nothing unexpected does). Fixture files declare
    expectations inline: a line containing 'EXPECT[rule-id]' must produce
    exactly that finding on that line."""
    expect_re = re.compile(r"EXPECT\[(?P<rule>[\w-]+)\]")
    # EXPECT-NEXT targets the following line — for findings on lines whose
    # own comment must stay pristine (e.g. a bare suppression under test).
    expect_next_re = re.compile(r"EXPECT-NEXT\[(?P<rule>[\w-]+)\]")
    failures: list[str] = []
    # rglob: fixtures mirror the scan-tree layout, so the obs/ subdir
    # exercises the wall-clock path exemption.
    paths = sorted(fixtures.rglob("*.cpp*"))
    if not paths:
        print(f"lint_determinism --self-test: no fixtures under {fixtures}", file=sys.stderr)
        return 2
    for path in paths:
        expected = {}
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            match = expect_next_re.search(line)
            if match:
                expected[lineno + 1] = match.group("rule")
            elif (match := expect_re.search(line)) is not None:
                expected[lineno] = match.group("rule")
        got = {(f.lineno, f.rule) for f in scan_file(path)}
        want = {(lineno, rule) for lineno, rule in expected.items()}
        for missing in sorted(want - got):
            failures.append(f"{path.name}:{missing[0]}: expected [{missing[1]}] did not fire")
        for extra in sorted(got - want):
            failures.append(f"{path.name}:{extra[0]}: unexpected finding [{extra[1]}]")
    if failures:
        print("lint_determinism --self-test FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"lint_determinism --self-test OK ({len(paths)} fixture files)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repo root (scans src/core, src/engine)")
    parser.add_argument("--self-test", action="store_true", help="run against the fixtures")
    parser.add_argument(
        "--fixtures",
        default=None,
        help="fixture dir for --self-test (default <root>/tests/lint_fixtures)",
    )
    args = parser.parse_args(argv)
    root = pathlib.Path(args.root)
    if args.self_test:
        fixtures = pathlib.Path(args.fixtures) if args.fixtures else root / "tests/lint_fixtures"
        return self_test(fixtures)
    findings = scan_tree(root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_determinism: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_determinism: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
