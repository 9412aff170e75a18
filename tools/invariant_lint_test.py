#!/usr/bin/env python3
"""Unit tests for invariant_lint.py: every rule catches its seeded
violation in tools/lint_corpus/, suppressions work (and bare ones are
themselves flagged), and the real tree lints clean."""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS = os.path.join(HERE, "lint_corpus")
sys.path.insert(0, HERE)

import invariant_lint  # noqa: E402


def run_rule(rule, filename):
    """Lints one corpus file under one rule; returns the Violation list."""
    violations = []
    invariant_lint.lint_file(os.path.join(CORPUS, filename), [rule],
                             violations)
    return violations


class NakedMutexTest(unittest.TestCase):
    def test_catches_each_primitive(self):
        vs = run_rule("naked-mutex", "naked_mutex.cc")
        hit = "\n".join(v.message for v in vs)
        self.assertIn("#include <mutex>", hit)
        self.assertIn("#include <condition_variable>", hit)
        self.assertIn("std::lock_guard", hit)
        self.assertIn("std::mutex", hit)
        self.assertIn("std::condition_variable", hit)
        self.assertGreaterEqual(len(vs), 5)
        self.assertTrue(all(v.rule == "naked-mutex" for v in vs))

    def test_wrapper_header_is_out_of_scope_in_tree_mode(self):
        scopes, exclude = invariant_lint.TREE_SCOPE["naked-mutex"]
        paths = list(invariant_lint.iter_sources(ROOT, scopes, exclude))
        self.assertTrue(paths)
        self.assertFalse(
            any(p.endswith("thread_annotations.h") for p in paths))


class GraphVersionBumpTest(unittest.TestCase):
    def test_catches_missing_bump(self):
        vs = run_rule("graph-version-bump", "graph_version_bump.cc")
        self.assertEqual(len(vs), 1)
        self.assertIn("RemoveLastNode", vs[0].message)

    def test_bumping_mutator_is_clean(self):
        vs = run_rule("graph-version-bump", "graph_version_bump.cc")
        self.assertFalse(any("RenameOk" in v.message for v in vs))


class SnapshotStringCompareTest(unittest.TestCase):
    def test_catches_string_compare_in_snap_function(self):
        vs = run_rule("snapshot-string-compare",
                      "snapshot_string_compare.cc")
        self.assertTrue(any("LabelMatchesSnap" in v.message for v in vs))

    def test_catches_string_compare_in_any_function(self):
        # Scoped by file, not by name: a hot-loop helper without "Snap" in
        # its name (Check, Dfs, the kernels) is inspected too.
        vs = run_rule("snapshot-string-compare",
                      "snapshot_string_compare.cc")
        hits = [v for v in vs if "CheckEdgeTag" in v.message]
        self.assertEqual(len(hits), 1)
        self.assertEqual(hits[0].line, 20)

    def test_hot_path_files_are_in_tree_scope(self):
        scopes, exclude = invariant_lint.TREE_SCOPE["snapshot-string-compare"]
        paths = list(invariant_lint.iter_sources(ROOT, scopes, exclude))
        for tail in ("match/matcher.cc", "match/refine.cc",
                     "match/vectorized.cc", "match/pred_bytecode.cc"):
            self.assertTrue(any(p.endswith(tail) for p in paths), tail)


class GovernorChargeLoopTest(unittest.TestCase):
    def test_catches_unchecked_worklist_loop(self):
        vs = run_rule("governor-charge-loop", "governor_charge_loop.cc")
        self.assertEqual(len(vs), 1)
        self.assertEqual(vs[0].rule, "governor-charge-loop")
        # The violation is the loop in DrainWithoutCharging (line 10);
        # DrainWithCharging's identical loop charges and stays clean.
        self.assertEqual(vs[0].line, 10)

    def test_catches_unchecked_bitmap_fill_loop(self):
        # The vectorized-kernel shape: a column-scan loop filling
        # candidate bitmaps with no charge token in its body.
        vs = run_rule("governor-charge-loop",
                      "governor_charge_loop_vectorized.cc")
        self.assertEqual(len(vs), 1)
        self.assertEqual(vs[0].line, 13)  # FillBitmapsWithoutCharging.

    def test_vectorized_kernels_are_in_tree_scope(self):
        # The batch kernels moved candidate iteration away from the
        # per-candidate charge sites, so they must stay under the rule.
        scopes, exclude = invariant_lint.TREE_SCOPE["governor-charge-loop"]
        paths = list(invariant_lint.iter_sources(ROOT, scopes, exclude))
        self.assertTrue(any(p.endswith("vectorized.cc") for p in paths))
        self.assertTrue(any(p.endswith("pred_bytecode.cc") for p in paths))


class LengthValidatedAllocTest(unittest.TestCase):
    def test_catches_unvalidated_length(self):
        vs = run_rule("length-validated-alloc",
                      "length_validated_alloc.cc")
        self.assertEqual(len(vs), 1)
        self.assertIn("len", vs[0].message)
        self.assertEqual(vs[0].line, 10)  # DecodeUnchecked's resize.


class ChecksumBeforeTrustTest(unittest.TestCase):
    def test_catches_raw_reads_without_verification(self):
        vs = run_rule("checksum-before-trust", "checksum_before_trust.cc")
        self.assertEqual(len(vs), 2)
        self.assertTrue(
            all(v.rule == "checksum-before-trust" for v in vs))
        # LoadIndexNoVerify's pread and CountEntries' ifstream/getline
        # cluster; the CRC-checked, delegating, and suppressed functions
        # further down must all stay clean.
        self.assertEqual(vs[0].line, 15)
        self.assertEqual(vs[1].line, 32)

    def test_read_loop_is_one_finding_not_one_per_line(self):
        # CountEntries has both an ifstream open and a getline loop; the
        # cluster must collapse them into a single violation.
        vs = run_rule("checksum-before-trust", "checksum_before_trust.cc")
        self.assertEqual(sum(1 for v in vs if 30 <= v.line <= 40), 1)

    def test_storage_layer_is_in_tree_scope(self):
        scopes, exclude = invariant_lint.TREE_SCOPE["checksum-before-trust"]
        paths = list(invariant_lint.iter_sources(ROOT, scopes, exclude))
        self.assertTrue(any(p.endswith("storage/wal.cc") for p in paths))
        self.assertTrue(any(p.endswith("storage/pager.cc") for p in paths))
        self.assertTrue(any(p.endswith("storage/engine.cc") for p in paths))
        self.assertTrue(any(p.endswith("io/snapshot_v3.cc") for p in paths))


class StorageDecodersInAllocScopeTest(unittest.TestCase):
    def test_wal_and_v3_decoders_are_in_tree_scope(self):
        # The durable layer decodes lengths from disk exactly like the
        # wire protocol does from sockets; same rule, same scope.
        scopes, exclude = invariant_lint.TREE_SCOPE["length-validated-alloc"]
        paths = list(invariant_lint.iter_sources(ROOT, scopes, exclude))
        for tail in ("storage/wal.cc", "storage/pager.cc",
                     "storage/engine.cc", "io/snapshot_v3.cc"):
            self.assertTrue(any(p.endswith(tail) for p in paths), tail)


class StageMetricsTest(unittest.TestCase):
    def test_catches_registry_writes_outside_the_record(self):
        vs = run_rule("stage-metrics", "stage_metrics.cc")
        self.assertEqual([v.line for v in vs], [9, 13])
        self.assertIn("GetCounter(", vs[0].message)
        self.assertIn("Merge(", vs[1].message)

    def test_record_function_is_exempt(self):
        vs = run_rule("stage-metrics", "stage_metrics.cc")
        self.assertFalse(any(16 <= v.line <= 19 for v in vs))

    def test_match_stages_are_in_tree_scope(self):
        scopes, exclude = invariant_lint.TREE_SCOPE["stage-metrics"]
        paths = list(invariant_lint.iter_sources(ROOT, scopes, exclude))
        for tail in ("match/matcher.cc", "match/refine.cc",
                     "match/neighborhood.cc", "match/vectorized.cc",
                     "match/pipeline.cc"):
            self.assertTrue(any(p.endswith(tail) for p in paths), tail)


class SuppressionTest(unittest.TestCase):
    def test_allow_with_reason_suppresses(self):
        vs = run_rule("governor-charge-loop", "suppressed.cc")
        lines = [v.line for v in vs if v.rule == "governor-charge-loop"]
        self.assertNotIn(13, lines)  # DrainSuppressed's loop.

    def test_bare_allow_is_flagged_and_does_not_suppress(self):
        vs = run_rule("governor-charge-loop", "suppressed.cc")
        self.assertTrue(any("without a reason" in v.message for v in vs))
        self.assertTrue(
            any(v.rule == "governor-charge-loop" and v.line > 15
                for v in vs))


class TreeIsCleanTest(unittest.TestCase):
    def test_whole_tree_lints_clean(self):
        violations = []
        for rule in invariant_lint.RULES:
            scopes, exclude = invariant_lint.TREE_SCOPE[rule]
            for path in invariant_lint.iter_sources(ROOT, scopes, exclude):
                invariant_lint.lint_file(path, [rule], violations)
        self.assertEqual([str(v) for v in violations], [])

    def test_main_exit_codes(self):
        self.assertEqual(invariant_lint.main(["--root", ROOT]), 0)
        bad = os.path.join(CORPUS, "naked_mutex.cc")
        self.assertEqual(
            invariant_lint.main(["--rule", "naked-mutex", bad]), 1)


if __name__ == "__main__":
    unittest.main()
