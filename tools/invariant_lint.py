#!/usr/bin/env python3
"""Project invariant linter: mechanical checks for the engine's contracts.

The codebase has a handful of invariants that the type system cannot
express and code review keeps re-litigating. This linter makes them
mechanical. Rules:

  naked-mutex             No std synchronization primitive outside
                          src/common/thread_annotations.h — everything
                          goes through the capability-annotated wrappers
                          so Clang Thread Safety Analysis sees every lock.
  graph-version-bump      Every Graph mutator bumps version_; the cached
                          snapshot is keyed by it, so a missed bump means
                          queries silently run against stale data.
  snapshot-string-compare The selection hot loops (every function in the
                          match search, refine, kernel and bytecode
                          files) compare interned symbol ids, never
                          std::string — the whole point of compiling a
                          snapshot.
  governor-charge-loop    Unbounded worklist loops in the match stages
                          charge the governor, so runaway queries stay
                          cancellable and limits mean what they say.
  length-validated-alloc  Wire-format length fields are validated
                          (CheckCount / kMax* cap) before sizing an
                          allocation — a 16-byte frame must not be able
                          to request a 4GB buffer.
  checksum-before-trust   Bytes read raw from the OS (pread/mmap/
                          ifstream) in the durable-storage layer are
                          checksum-verified — or handed to a reader that
                          verifies them — before any field is trusted.
                          A torn write must surface as DataLoss, never
                          as a half-applied record.
  stage-metrics           The selection stages in src/match count into
                          PipelineStats and never touch the metrics
                          registry: no GetCounter(, GetHistogram( or
                          Merge( there, except inside RecordCall, the one
                          function that writes a call's stats to the
                          registry.

Suppression: a line (or the line above it) may carry
    // invariant-lint: allow(<rule>) <reason>
The reason is mandatory; a bare allow() is itself a violation.

Usage:
    invariant_lint.py [--root DIR] [--json] [--rule RULE file...]

With no files, lints the tree under --root (default: repo root inferred
from this script's location) with each rule applied to its home paths.
With --rule and explicit files, applies just that rule to those files
(how the corpus tests drive it). Exit 0 clean, 1 violations, 2 usage.
"""

import argparse
import json
import os
import re
import sys

RULES = (
    "naked-mutex",
    "graph-version-bump",
    "snapshot-string-compare",
    "governor-charge-loop",
    "length-validated-alloc",
    "checksum-before-trust",
    "stage-metrics",
)

ALLOW_RE = re.compile(
    r"//\s*invariant-lint:\s*allow\(([a-z-]+)\)\s*(.*)")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def to_dict(self):
        return {"file": self.path, "line": self.line, "rule": self.rule,
                "message": self.message}

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_line_comment(line):
    """Drops a // comment (naive: does not track string literals; good
    enough for this codebase, which has no // inside string constants on
    the lines these rules look at)."""
    i = line.find("//")
    return line if i < 0 else line[:i]


def allows(lines, lineno, rule):
    """True when line `lineno` (1-based) or the contiguous comment block
    directly above it carries a valid allow(<rule>) suppression. An
    allow() with no reason never matches — the caller reports it
    separately via check_bare_allows."""
    candidates = []
    if 0 <= lineno - 1 < len(lines):
        candidates.append(lines[lineno - 1])
    idx = lineno - 2
    while idx >= 0 and lines[idx].lstrip().startswith("//"):
        candidates.append(lines[idx])
        idx -= 1
    for cand in candidates:
        m = ALLOW_RE.search(cand)
        if m and m.group(1) == rule and m.group(2).strip():
            return True
    return False


def check_bare_allows(path, lines, out):
    for i, line in enumerate(lines, 1):
        m = ALLOW_RE.search(line)
        if m and not m.group(2).strip():
            out.append(Violation(path, i, m.group(1),
                                 "allow() suppression without a reason"))


def extract_functions(text):
    """Yields (name, start_line, body) for every function-looking
    definition: a signature ending in ')' (plus optional const/noexcept/
    ctor-initializers) followed by a balanced-brace body. Line numbers
    are 1-based and refer to the line holding the opening brace."""
    sig_re = re.compile(
        r"([A-Za-z_~][\w:<>,]*)\s*\([^;{}()]*(?:\([^()]*\)[^;{}()]*)*\)\s*"
        r"(?:const\s*)?(?:noexcept\s*)?(?:->\s*[\w:<>]+\s*)?"
        r"(?::\s*[^{;]+?)?\{", re.S)
    for m in sig_re.finditer(text):
        name = m.group(1)
        if name in ("if", "for", "while", "switch", "catch", "return"):
            continue
        open_pos = m.end() - 1
        depth = 0
        end = None
        for i in range(open_pos, len(text)):
            c = text[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        if end is None:
            continue
        body = text[open_pos:end + 1]
        line = text.count("\n", 0, open_pos) + 1
        yield name, line, body


# ---------------------------------------------------------------- rules

NAKED_TOKENS = re.compile(
    r"std::(?:recursive_|shared_|timed_)?mutex\b|"
    r"std::condition_variable(?:_any)?\b|"
    r"std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b|"
    r"#include\s*<(?:mutex|shared_mutex|condition_variable)>")


def rule_naked_mutex(path, lines, out):
    for i, raw in enumerate(lines, 1):
        line = raw if raw.lstrip().startswith("#include") \
            else strip_line_comment(raw)
        m = NAKED_TOKENS.search(line)
        if m and not allows(lines, i, "naked-mutex"):
            out.append(Violation(
                path, i, "naked-mutex",
                f"'{m.group(0)}' outside common/thread_annotations.h; "
                "use the annotated Mutex/MutexLock/CondVar wrappers"))


MUTATION_TOKEN = re.compile(
    r"\b\w+_\s*(?:\[[^\]]*\]\s*)?\.\s*"
    r"(?:push_back|emplace_back|emplace|insert|erase|clear|pop_back|"
    r"pop_front|push_front|resize|assign|swap)\s*\(|"
    r"^\s*(?:\w+\.)?\w+_\s*=[^=]", re.M)
VERSION_TOKEN = re.compile(r"\bversion_")


def rule_graph_version_bump(path, lines, out):
    text = "\n".join(lines)
    for name, lineno, body in extract_functions(text):
        stripped = "\n".join(strip_line_comment(l)
                             for l in body.splitlines())
        if not MUTATION_TOKEN.search(stripped):
            continue
        if VERSION_TOKEN.search(stripped):
            continue
        if allows(lines, lineno, "graph-version-bump"):
            continue
        out.append(Violation(
            path, lineno, "graph-version-bump",
            f"'{name}' mutates graph state but never touches version_; "
            "the cached snapshot will serve stale data"))


STRING_CMP = re.compile(
    r"[=!]=\s*\"|\"\s*[=!]=|\.compare\s*\(|\bstd::string\s+\w+\s*[=(;]")


def rule_snapshot_string_compare(path, lines, out):
    # Scoped by file (TREE_SCOPE), not by function name: every function in
    # a hot-path file is checked.
    text = "\n".join(lines)
    for name, lineno, body in extract_functions(text):
        for off, bline in enumerate(body.splitlines()):
            code = strip_line_comment(bline)
            m = STRING_CMP.search(code)
            if m is None:
                continue
            vline = lineno + off
            if allows(lines, vline, "snapshot-string-compare"):
                continue
            out.append(Violation(
                path, vline, "snapshot-string-compare",
                f"string comparison in snapshot hot path '{name}'; "
                "compare interned symbol ids instead"))


UNBOUNDED_LOOP = re.compile(
    r"while\s*\(\s*!\s*[\w.\->\[\]()]*?(?:\.|->)empty\s*\(\s*\)\s*\)|"
    r"while\s*\(\s*true\s*\)|for\s*\(\s*;\s*;\s*\)")
CHARGE_TOKEN = re.compile(
    r"\bCharge\w*\s*\(|\bBudget\s*\(\)|\bOnCharge\s*\(|budget\.|budget->")


def rule_governor_charge_loop(path, lines, out):
    text = "\n".join(lines)
    for m in UNBOUNDED_LOOP.finditer(text):
        lineno = text.count("\n", 0, m.start()) + 1
        if allows(lines, lineno, "governor-charge-loop"):
            continue
        # The loop body: balanced braces from the first '{' after the
        # loop header (single-statement bodies get the rest of the line).
        brace = text.find("{", m.end())
        semi = text.find(";", m.end())
        if brace < 0 or (0 <= semi < brace):
            body = text[m.end():semi + 1] if semi >= 0 else ""
        else:
            depth = 0
            end = len(text)
            for i in range(brace, len(text)):
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                    if depth == 0:
                        end = i
                        break
            body = text[brace:end + 1]
        if CHARGE_TOKEN.search(body):
            continue
        out.append(Violation(
            path, lineno, "governor-charge-loop",
            "unbounded loop never charges the governor; a runaway query "
            "here cannot be cancelled or limited"))


ALLOC_CALL = re.compile(r"(?:\.|->)(?:resize|reserve)\s*\(\s*([^)]+?)\s*\)")
LOOKBACK_LINES = 30


def rule_length_validated_alloc(path, lines, out):
    for i, raw in enumerate(lines, 1):
        code = strip_line_comment(raw)
        m = ALLOC_CALL.search(code)
        if m is None:
            continue
        arg = m.group(1)
        # Constant-sized allocations can't be attacker-controlled.
        if re.fullmatch(r"[\d'+*/\s xa-fA-F]+", arg):
            continue
        if allows(lines, i, "length-validated-alloc"):
            continue
        # An identifier from the size expression must appear in a
        # validation within the lookback window: a CheckCount() call or a
        # comparison against a kMax* cap.
        idents = set(re.findall(r"[A-Za-z_]\w*", arg))
        idents -= {"static_cast", "size_t", "uint64_t", "uint32_t", "int",
                   "const", "auto"}
        window = lines[max(0, i - 1 - LOOKBACK_LINES):i - 1]
        validated = False
        for wline in window:
            wcode = strip_line_comment(wline)
            if "CheckCount(" in wcode or "kMax" in wcode:
                if not idents or any(re.search(r"\b%s\b" % re.escape(x),
                                               wcode) for x in idents):
                    validated = True
                    break
        if not validated:
            out.append(Violation(
                path, i, "length-validated-alloc",
                f"allocation sized by '{arg}' with no CheckCount()/kMax* "
                f"validation in the preceding {LOOKBACK_LINES} lines"))


# Raw ingestion of bytes from the OS. std::getline is deliberately
# included: line-oriented parsing of an unverified file is exactly the
# pattern this rule exists to flag.
RAW_READ_RE = re.compile(
    r"::pread\s*\(|::read\s*\(|\bfread\s*\(|::mmap\s*\(|std::ifstream|"
    r"std::getline")
# Evidence the bytes are (or are about to be) verified: a CRC computation,
# or delegation to a reader whose contract is "checksummed or error".
TRUST_RE = re.compile(
    r"Crc32c|crc32|[Cc]hecksum|PageFile::(?:Open|FromBuffer)|"
    r"ReplayWalBuffer|Validate\s*\(")
READ_CLUSTER_GAP = 10  # Read lines this close merge into one finding.
TRUST_BACK = 5
TRUST_FWD = 30


def rule_checksum_before_trust(path, lines, out):
    """Cluster raw-read lines, then demand a trust token near the cluster.

    Clustering keeps a multi-line read loop (open / fstat / pread loop /
    getline loop) from producing one violation per line: the first line of
    the cluster anchors both the finding and any allow() suppression."""
    read_lines = []
    for i, raw in enumerate(lines, 1):
        if RAW_READ_RE.search(strip_line_comment(raw)):
            read_lines.append(i)
    clusters = []
    for i in read_lines:
        if clusters and i - clusters[-1][-1] <= READ_CLUSTER_GAP:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    for cluster in clusters:
        first, last = cluster[0], cluster[-1]
        if allows(lines, first, "checksum-before-trust"):
            continue
        window = lines[max(0, first - 1 - TRUST_BACK):
                       min(len(lines), last + TRUST_FWD)]
        if any(TRUST_RE.search(strip_line_comment(w)) for w in window):
            continue
        out.append(Violation(
            path, first, "checksum-before-trust",
            "bytes read raw from the OS with no Crc32c/checksum validation "
            "(or delegation to a checksummed reader) within "
            f"{TRUST_FWD} lines — a torn or corrupt file must be detected "
            "before its contents are trusted"))


REGISTRY_CALL = re.compile(r"\b(?:GetCounter|GetHistogram|Merge)\s*\(")
RECORD_FUNCTION = "RecordCall"


def rule_stage_metrics(path, lines, out):
    text = "\n".join(lines)
    exempt = set()  # Lines of the record function's body.
    for name, lineno, body in extract_functions(text):
        if name.split("::")[-1] == RECORD_FUNCTION:
            exempt.update(range(lineno, lineno + body.count("\n") + 1))
    for i, raw in enumerate(lines, 1):
        m = REGISTRY_CALL.search(strip_line_comment(raw))
        if m is None or i in exempt or allows(lines, i, "stage-metrics"):
            continue
        out.append(Violation(
            path, i, "stage-metrics",
            f"'{m.group(0)}' outside {RECORD_FUNCTION}; count into "
            "PipelineStats and let the call's record write the registry"))


RULE_FUNCS = {
    "naked-mutex": rule_naked_mutex,
    "graph-version-bump": rule_graph_version_bump,
    "snapshot-string-compare": rule_snapshot_string_compare,
    "governor-charge-loop": rule_governor_charge_loop,
    "length-validated-alloc": rule_length_validated_alloc,
    "checksum-before-trust": rule_checksum_before_trust,
    "stage-metrics": rule_stage_metrics,
}

# rule -> (include globs, exclude basenames) relative to the repo root.
TREE_SCOPE = {
    "naked-mutex": (
        ["src"], {"thread_annotations.h"}),
    "graph-version-bump": (
        ["src/graph/graph.cc", "src/graph/graph.h"], set()),
    "snapshot-string-compare": (
        ["src/match/matcher.cc", "src/match/refine.cc",
         "src/match/vectorized.cc", "src/match/pred_bytecode.cc"], set()),
    "governor-charge-loop": (
        ["src/match/matcher.cc", "src/match/refine.cc",
         "src/match/neighborhood.cc", "src/match/pipeline.cc",
         "src/match/vectorized.cc", "src/match/pred_bytecode.cc"], set()),
    "length-validated-alloc": (
        ["src/io/serialize.cc", "src/server/protocol.cc",
         "src/storage/wal.cc", "src/storage/pager.cc",
         "src/storage/engine.cc", "src/io/snapshot_v3.cc"], set()),
    # The durable layer: every byte that crosses the process boundary must
    # be checksummed (or read through a reader that checksums) before use.
    "checksum-before-trust": (
        ["src/storage", "src/io/snapshot_v3.cc"], set()),
    # One registry write per MatchPattern / RetrieveCandidates call.
    "stage-metrics": (["src/match"], set()),
}


def iter_sources(root, scopes, exclude):
    seen = set()
    for scope in scopes:
        path = os.path.join(root, scope)
        if os.path.isfile(path):
            if os.path.basename(path) not in exclude and path not in seen:
                seen.add(path)
                yield path
        elif os.path.isdir(path):
            for dirpath, _, names in os.walk(path):
                for name in sorted(names):
                    if not name.endswith((".h", ".cc")):
                        continue
                    if name in exclude:
                        continue
                    full = os.path.join(dirpath, name)
                    if full not in seen:
                        seen.add(full)
                        yield full


def lint_file(path, rules, violations):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        violations.append(Violation(path, 0, "io", str(e)))
        return
    check_bare_allows(path, lines, violations)
    for rule in rules:
        RULE_FUNCS[rule](path, lines, violations)


def main(argv):
    parser = argparse.ArgumentParser(
        description="GraphQL-at-a-time project invariant linter")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--rule", choices=RULES, default=None,
                        help="apply one rule to the listed files")
    parser.add_argument("files", nargs="*",
                        help="files to lint (requires --rule)")
    args = parser.parse_args(argv)

    if bool(args.files) != bool(args.rule):
        parser.error("--rule and explicit files go together")

    violations = []
    if args.rule:
        for path in args.files:
            lint_file(path, [args.rule], violations)
    else:
        root = args.root or os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))
        for rule in RULES:
            scopes, exclude = TREE_SCOPE[rule]
            for path in iter_sources(root, scopes, exclude):
                lint_file(path, [rule], violations)

    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    if args.json:
        print(json.dumps({"violations": [v.to_dict() for v in violations],
                          "count": len(violations)}, indent=2))
    else:
        for v in violations:
            print(v)
        print(f"invariant-lint: {len(violations)} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
