#!/usr/bin/env python3
"""mugi-check: unit-safety lint for the strong-type layer (units.h).

The strong types in ``src/support/units.h`` (Tokens, Blocks, Bytes,
Positions, SessionId, BlockId) only pay off if raw integers cannot
leak back into the accounting paths.  The compiler enforces
same-unit arithmetic; this checker enforces the conventions the type
system cannot see:

R1  raw-unit-param: public headers under ``src/serve/`` and
    ``src/quant/`` must not declare raw integer parameters named
    ``*_tokens`` / ``*_bytes`` / ``*_blocks`` / ``*_positions`` --
    that is exactly the signature units.h exists to replace.

R2  try-result-unused: a call to any ``try_*`` function whose result
    is discarded is a lost refusal -- a ``try_push`` into a full or
    closed ``support::Channel`` drops its item unnoticed, a
    ``try_pop`` loses the item it took, a ``try_lock`` proceeds
    unlocked.  (Headers may also carry ``[[nodiscard]]``; this rule
    catches the ``(void)``-free discard styles the compiler warning
    misses when a caller builds with warnings off.)

R3  mixed-unit-arithmetic: one expression must not arithmetically
    combine two ``.value()`` unwraps of *different* units.  Unit
    crossings go through the named conversion helpers
    (``units::bytes_for`` / ``blocks_for`` / ``tokens_for`` /
    ``positions_for``), which carry the block geometry explicitly.

R4  admission-unwrap: the admission/reservation functions in
    ``src/serve/scheduler.cc`` (the accounting the paper's KV budget
    hangs off), the Scheduler retire paths (cancel / shutdown /
    deadline expiry, plus PR 10's overload sweeps: capacity shedding
    and admission timeouts, which retire requests that never held
    blocks), and the Server submission/cancellation paths in
    ``src/serve/server.cc`` must stay ``.value()``-free end to end;
    they speak units types only, via the named helpers.  Index-math
    functions (prefix matching, token emission) are exempt.  The audit
    goes by name, so an audited name with no definition in its file
    (deleted or renamed) is itself a finding: it would otherwise drop
    out of the audit without a trace.

Two engines:

- **AST mode** (libclang via ``clang.cindex``): precise; required in
  CI (``--require-libclang``).
- **Textual mode**: a regex approximation of the same rules for
  machines without libclang; same rule IDs, same output format.

Output: one ``file:line: [Rn] message`` per finding; exit 1 when any
finding is not covered by the checked-in baseline
(``tools/mugi_check_baseline.txt``, expected clean), else 0.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PUBLIC_HEADER_DIRS = ("serve", "quant")
BASELINE = REPO / "tools" / "mugi_check_baseline.txt"

#: Suffixes that mark a quantity parameter (R1) or hint a unit (R3).
UNIT_SUFFIXES = {
    "tokens": "Tokens",
    "bytes": "Bytes",
    "blocks": "Blocks",
    "positions": "Positions",
}

#: Raw integer type spellings R1 rejects for unit-named parameters.
RAW_INT_TYPES = (
    r"(?:std::)?size_t",
    r"(?:std::)?u?int(?:8|16|32|64)_t",
    r"(?:unsigned\s+)?(?:long\s+)?(?:long|int|short)",
    r"unsigned",
)

#: Named conversion helpers: the only sanctioned unit crossings (R3).
CONVERSION_HELPERS = {
    "blocks_for",
    "full_blocks_for",
    "tokens_for",
    "bytes_for",
    "positions_for",
}

#: serve::Scheduler admission/reservation functions that must stay
#: .value()-free (R4).  Index-math functions (find_prefix_match,
#: emit_token, step, check_invariants, ...) may unwrap at their
#: arithmetic leaves and are deliberately absent.
ADMISSION_FUNCTIONS = {
    "admission_bytes",
    "watermark_bytes",
    "growth_slack_bytes",
    "committed_total",
    "admit_arrivals",
    "preempt_for_pressure",
    "step_append_tokens",
}

#: Scheduler retire paths: everything that hands KV blocks back to
#: the pool (cancellation, shutdown, deadline expiry, preemption) or
#: retires a request before admission (capacity shedding, admission
#: timeouts -- PR 10's overload sweeps), and the one finish() they
#: all record through.  The release accounting must stay as
#: unit-typed as the admission accounting.
RETIRE_FUNCTIONS = {
    "cancel",
    "cancel_all",
    "retire_active",
    "finish",
    "preempt",
    "expire_deadlines",
    "expire_admission_timeouts",
    "shed_for_capacity",
}

SCHEDULER_CC = SRC / "serve" / "scheduler.cc"
SERVER_CC = SRC / "serve" / "server.cc"

#: R4 audit map: file -> (class, methods that must stay
#: .value()-free).  serve::Server sits between callers and the
#: Scheduler, so its submission/cancellation paths carry the same
#: quantities (delta-channel capacity from max_new_tokens, deadline
#: plumbing) and follow the same contract.
R4_AUDITED = {
    SCHEDULER_CC: (
        "Scheduler",
        ADMISSION_FUNCTIONS | RETIRE_FUNCTIONS,
    ),
    SERVER_CC: (
        "Server",
        {"submit", "cancel", "apply", "finish_unsubmitted"},
    ),
}


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def key(self) -> str:
        """Baseline key: rule + file (line numbers drift too easily)."""
        return f"{self.rule} {self.path.relative_to(REPO)}"

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------
# Shared helpers.
# --------------------------------------------------------------------


def unit_hint(name: str) -> str | None:
    """Infer the unit of an identifier from its trailing word."""
    bare = name.rstrip("_")
    for suffix, unit in UNIT_SUFFIXES.items():
        if bare == suffix or bare.endswith("_" + suffix):
            return unit
    return None


def strip_comments(text: str) -> str:
    """Blank out comments/strings, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        two = text[i : i + 2]
        if two == "//":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(c if c == "\n" else " " for c in text[i:j]))
            i = j
        elif text[i] == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append('""' + " " * (j - i - 2))
            i = j
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def public_headers() -> list[Path]:
    paths = []
    for subdir in PUBLIC_HEADER_DIRS:
        paths += sorted((SRC / subdir).glob("*.h"))
    return paths


def source_files() -> list[Path]:
    return sorted(p for p in SRC.rglob("*") if p.suffix in {".h", ".cc"})


# --------------------------------------------------------------------
# Textual engine.
# --------------------------------------------------------------------

RAW_PARAM_RE = re.compile(
    r"(?:^|[(,])\s*(?:const\s+)?(?P<type>"
    + "|".join(RAW_INT_TYPES)
    + r")\s+(?P<name>[a-z]\w*_(?:tokens|bytes|blocks|positions))\s*[,)=]"
)

TRY_DISCARD_RE = re.compile(
    r"^\s*(?:\w+(?:\.|->))*(?P<callee>try_\w+)\s*\("
)

VALUE_UNWRAP_RE = re.compile(r"(?P<recv>[A-Za-z_]\w*)\s*(?:\(\s*\))?\.value\s*\(\)")

ARITH_RE = re.compile(r"[-+*/%]")


def textual_r1(path: Path, text: str) -> list[Finding]:
    findings = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in RAW_PARAM_RE.finditer(line):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "R1",
                    f"raw integer parameter '{m.group('name')}' in a "
                    "public header; take units::"
                    f"{unit_hint(m.group('name'))} instead",
                )
            )
    return findings


def textual_r2(path: Path, text: str) -> list[Finding]:
    findings = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = TRY_DISCARD_RE.match(line)
        if not m:
            continue
        # A full-statement call (ends with ';' and opens at statement
        # position) discards the result.  Anything consuming it --
        # assignment, return, condition, cast -- fails the regex above
        # because the call is then not the first token run.
        if line.rstrip().endswith(";") and "=" not in line:
            findings.append(
                Finding(
                    path,
                    lineno,
                    "R2",
                    f"result of '{m.group('callee')}' is discarded; "
                    "a failed try_* is a refusal the caller must see",
                )
            )
    return findings


def textual_r3(path: Path, text: str) -> list[Finding]:
    findings = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "units::" in line:
            continue  # Named helper on this line: sanctioned crossing.
        units_seen = {}
        for m in VALUE_UNWRAP_RE.finditer(line):
            unit = unit_hint(m.group("recv"))
            if unit:
                units_seen.setdefault(unit, m.group("recv"))
        if len(units_seen) >= 2 and ARITH_RE.search(line):
            pair = " and ".join(sorted(units_seen))
            findings.append(
                Finding(
                    path,
                    lineno,
                    "R3",
                    f"arithmetic mixes .value() unwraps of {pair}; "
                    "use a units:: conversion helper",
                )
            )
    return findings


def r4_missing(path: Path, cls: str, audited: set[str],
               defined: set[str]) -> list[Finding]:
    """R4 findings for audited names with no definition in ``path``."""
    return [
        Finding(
            path,
            1,
            "R4",
            f"audited function '{cls}::{name}' has no definition in "
            f"{path.name}; update the R4 audit list in "
            "tools/mugi_check.py",
        )
        for name in sorted(audited - defined)
    ]


def textual_r4(path: Path, text: str, cls: str,
               audited: set[str]) -> list[Finding]:
    """Scan audited ``cls`` method bodies in ``path`` for .value()."""
    findings = []
    defined: set[str] = set()
    lines = text.splitlines()
    func_re = re.compile(rf"{cls}::(?P<name>\w+)\s*\(")
    i = 0
    while i < len(lines):
        m = func_re.search(lines[i])
        if not m or m.group("name") not in audited:
            i += 1
            continue
        # Find the opening brace of the definition, then walk the
        # balanced body.  Declarations (no brace before ';') skip.
        depth = 0
        opened = False
        j = i
        while j < len(lines):
            for ch in lines[j]:
                if not opened and ch == ";" and depth == 0:
                    j = None  # Declaration only.
                    break
                if ch == "{":
                    depth += 1
                    opened = True
                elif ch == "}":
                    depth -= 1
            if j is None:
                break
            if opened and ".value(" in lines[j]:
                findings.append(
                    Finding(
                        path,
                        j + 1,
                        "R4",
                        f".value() inside audited function "
                        f"'{cls}::{m.group('name')}'; admission and "
                        "request-lifecycle accounting must stay "
                        "unit-typed (use units:: helpers)",
                    )
                )
            if opened and depth == 0:
                break
            j += 1
        if opened:
            defined.add(m.group("name"))
        i = (j if j is not None else i) + 1
    return findings + r4_missing(path, cls, audited, defined)


def run_textual() -> list[Finding]:
    findings: list[Finding] = []
    for path in public_headers():
        text = strip_comments(path.read_text(encoding="utf-8"))
        findings += textual_r1(path, text)
    for path in source_files():
        text = strip_comments(path.read_text(encoding="utf-8"))
        findings += textual_r2(path, text)
        findings += textual_r3(path, text)
    for path, (cls, audited) in R4_AUDITED.items():
        findings += textual_r4(
            path,
            strip_comments(path.read_text(encoding="utf-8")),
            cls,
            audited,
        )
    return findings


# --------------------------------------------------------------------
# AST engine (libclang).
# --------------------------------------------------------------------


def load_cindex():
    try:
        from clang import cindex
    except ImportError:
        return None
    for lib in (
        None,  # Whatever the bindings find on their own.
        "libclang-14.so.1",
        "libclang.so.1",
        "libclang.so",
    ):
        try:
            if lib is not None:
                cindex.Config.set_library_file(lib)
            cindex.Index.create()
            return cindex
        except Exception:
            # Reset so the next candidate can be configured.
            cindex.Config.loaded = False
            continue
    return None


CLANG_ARGS = ["-std=c++20", "-x", "c++", f"-I{SRC}"]

INT_TYPE_KINDS = None  # Filled in lazily from cindex.TypeKind.


def _int_kinds(cindex):
    global INT_TYPE_KINDS
    if INT_TYPE_KINDS is None:
        tk = cindex.TypeKind
        INT_TYPE_KINDS = {
            tk.INT,
            tk.UINT,
            tk.LONG,
            tk.ULONG,
            tk.LONGLONG,
            tk.ULONGLONG,
            tk.SHORT,
            tk.USHORT,
        }
    return INT_TYPE_KINDS


def _in_file(node, path: Path) -> bool:
    loc = node.location
    return loc.file is not None and Path(loc.file.name) == path


def ast_r1(cindex, tu, path: Path) -> list[Finding]:
    findings = []
    ck = cindex.CursorKind

    def visit(node, access_public: bool):
        if node.kind in (ck.CLASS_DECL, ck.STRUCT_DECL):
            default_public = node.kind == ck.STRUCT_DECL
            current = default_public
            for child in node.get_children():
                if child.kind == ck.CXX_ACCESS_SPEC_DECL:
                    current = (
                        child.access_specifier
                        == cindex.AccessSpecifier.PUBLIC
                    )
                else:
                    visit(child, current)
            return
        if node.kind in (ck.CXX_METHOD, ck.FUNCTION_DECL, ck.CONSTRUCTOR):
            if access_public and _in_file(node, path):
                for param in node.get_arguments():
                    name = param.spelling
                    if not name or unit_hint(name) is None:
                        continue
                    canon = param.type.get_canonical()
                    if canon.kind in _int_kinds(cindex):
                        findings.append(
                            Finding(
                                path,
                                param.location.line,
                                "R1",
                                "raw integer parameter "
                                f"'{name}' in a public header; take "
                                f"units::{unit_hint(name)} instead",
                            )
                        )
            return
        for child in node.get_children():
            visit(child, access_public)

    visit(tu.cursor, True)
    return findings


def ast_r2(cindex, tu, path: Path) -> list[Finding]:
    findings = []
    ck = cindex.CursorKind

    def visit(node):
        if node.kind == ck.COMPOUND_STMT:
            for child in node.get_children():
                callee = child
                # An expression-statement call appears as a direct
                # CALL_EXPR child of the compound statement.
                if callee.kind == ck.CALL_EXPR and callee.spelling.startswith(
                    "try_"
                ):
                    if _in_file(callee, path):
                        findings.append(
                            Finding(
                                path,
                                callee.location.line,
                                "R2",
                                f"result of '{callee.spelling}' is "
                                "discarded; a failed try_* is a "
                                "refusal the caller must see",
                            )
                        )
        for child in node.get_children():
            visit(child)

    visit(tu.cursor)
    return findings


def _quantity_tag(type_spelling: str) -> str | None:
    m = re.search(r"Quantity<.*?(\w+)Tag", type_spelling)
    return m.group(1) if m else None


def ast_r3(cindex, tu, path: Path) -> list[Finding]:
    findings = []
    ck = cindex.CursorKind

    def collect_value_units(node, out):
        """Units of every .value() unwrap in a subtree, skipping
        sanctioned helper-call subtrees."""
        if node.kind == ck.CALL_EXPR:
            if node.spelling in CONVERSION_HELPERS:
                return
            if node.spelling == "value":
                children = list(node.get_children())
                if children:
                    base = list(children[0].get_children())
                    spelling = (
                        base[0].type.spelling
                        if base
                        else children[0].type.spelling
                    )
                    tag = _quantity_tag(spelling)
                    if tag:
                        out.add(tag)
        for child in node.get_children():
            collect_value_units(child, out)

    def visit(node):
        if node.kind == ck.BINARY_OPERATOR and _in_file(node, path):
            tokens = {t.spelling for t in node.get_tokens()}
            if tokens & {"+", "-", "*", "/", "%"}:
                units_seen: set[str] = set()
                collect_value_units(node, units_seen)
                if len(units_seen) >= 2:
                    pair = " and ".join(sorted(units_seen))
                    findings.append(
                        Finding(
                            path,
                            node.location.line,
                            "R3",
                            "arithmetic mixes .value() unwraps of "
                            f"{pair}; use a units:: conversion helper",
                        )
                    )
                    return  # Don't re-report nested operators.
        for child in node.get_children():
            visit(child)

    visit(tu.cursor)
    return findings


def ast_r4(cindex, tu, path: Path, cls: str,
           audited: set[str]) -> list[Finding]:
    findings = []
    defined: set[str] = set()
    ck = cindex.CursorKind

    def has_value_call(node, out):
        if node.kind == ck.CALL_EXPR and node.spelling == "value":
            out.append(node.location.line)
        for child in node.get_children():
            has_value_call(child, out)

    def in_class(node) -> bool:
        parent = node.semantic_parent
        return parent is not None and parent.spelling == cls

    def visit(node):
        if (
            node.kind == ck.CXX_METHOD
            and node.spelling in audited
            and node.is_definition()
            and in_class(node)
            and _in_file(node, path)
        ):
            defined.add(node.spelling)
            lines: list[int] = []
            has_value_call(node, lines)
            for line in lines:
                findings.append(
                    Finding(
                        path,
                        line,
                        "R4",
                        ".value() inside audited function "
                        f"'{cls}::{node.spelling}'; admission and "
                        "request-lifecycle accounting must stay "
                        "unit-typed (use units:: helpers)",
                    )
                )
        for child in node.get_children():
            visit(child)

    visit(tu.cursor)
    return findings + r4_missing(path, cls, audited, defined)


def run_ast(cindex) -> list[Finding]:
    index = cindex.Index.create()
    findings: list[Finding] = []
    parse_opts = cindex.TranslationUnit.PARSE_SKIP_FUNCTION_BODIES

    for path in public_headers():
        tu = index.parse(str(path), CLANG_ARGS, options=parse_opts)
        findings += ast_r1(cindex, tu, path)

    for path in sorted(SRC.rglob("*.cc")):
        tu = index.parse(str(path), CLANG_ARGS)
        findings += ast_r2(cindex, tu, path)
        findings += ast_r3(cindex, tu, path)
        if path in R4_AUDITED:
            cls, audited = R4_AUDITED[path]
            findings += ast_r4(cindex, tu, path, cls, audited)
    return findings


# --------------------------------------------------------------------
# Baseline + driver.
# --------------------------------------------------------------------


def load_baseline(path: Path) -> set[str]:
    if not path.exists():
        return set()
    keys = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            keys.add(line)
    return keys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--require-libclang",
        action="store_true",
        help="fail (exit 2) if libclang is unavailable instead of "
        "falling back to the textual engine (CI uses this)",
    )
    parser.add_argument(
        "--report",
        type=Path,
        default=None,
        help="also write findings to this file (CI artifact)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE,
        help="accepted-findings file to diff against "
        "(default: tools/mugi_check_baseline.txt)",
    )
    args = parser.parse_args()

    cindex = load_cindex()
    if cindex is None and args.require_libclang:
        print(
            "mugi-check: libclang (python3-clang) unavailable but "
            "--require-libclang was given",
            file=sys.stderr,
        )
        return 2

    engine = "ast" if cindex is not None else "textual"
    findings = run_ast(cindex) if cindex else run_textual()

    baseline = load_baseline(args.baseline)
    new = [f for f in findings if f.key() not in baseline]

    report_lines = [str(f) for f in findings]
    if args.report:
        args.report.write_text(
            "\n".join(report_lines) + ("\n" if report_lines else ""),
            encoding="utf-8",
        )

    if new:
        print(f"mugi-check ({engine}): {len(new)} new finding(s):")
        for f in new:
            print(f"  {f}")
        print(
            "\nunit-safety conventions regressed; fix the sites above "
            "(or, for a deliberate exception, add the 'Rn path' key "
            "to tools/mugi_check_baseline.txt with a comment)."
        )
        return 1
    suppressed = len(findings) - len(new)
    extra = f" ({suppressed} baselined)" if suppressed else ""
    print(f"mugi-check ({engine}): clean{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
