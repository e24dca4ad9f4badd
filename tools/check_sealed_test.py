#!/usr/bin/env python3
"""Unit tests for tools/check_sealed.py (stdlib unittest only).

Pins the scanner against the fixtures in tools/testdata/check_sealed/ —
one clean TU that must produce zero findings and three leaky TUs whose
findings must match, file:line exactly, the `// expect-finding:` pins in
the fixtures themselves — plus the production invariant that the real
boundary TUs scan clean.

Usage:
    python3 tools/check_sealed_test.py
"""

from __future__ import annotations

import pathlib
import sys
import unittest
from typing import List, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import check_sealed  # noqa: E402  (path set up above)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tools" / "testdata" / "check_sealed"


def findings_for(name: str) -> List[Tuple[str, int, str]]:
    """All findings for one fixture, deduped to (basename, line, rule)."""
    fixture = FIXTURES / name
    found = check_sealed.scan_boundary_tu(fixture, name)
    found += check_sealed.scan_adopt_calls(REPO_ROOT, [fixture])
    return sorted({(f.file.split("/")[-1], f.line, f.rule) for f in found})


class StripTest(unittest.TestCase):
    def test_comments_and_strings_blanked(self) -> None:
        src = ('int x; // PostingPayload\n'
               '/* SerializePayload */ int y;\n'
               'const char* s = "OpenSnippet";\n')
        stripped = check_sealed.strip_comments_and_strings(src)
        for ident in check_sealed.PLAINTEXT_IDENTIFIERS:
            self.assertNotIn(ident, stripped)
        self.assertEqual(src.count("\n"), stripped.count("\n"),
                         "line structure must survive stripping")

    def test_code_survives(self) -> None:
        stripped = check_sealed.strip_comments_and_strings(
            "PutLengthPrefixed(&out, bytes);  // ok\n")
        self.assertIn("PutLengthPrefixed(&out, bytes);", stripped)


class FixtureTest(unittest.TestCase):
    def expected_for(self, name: str) -> List[Tuple[str, int, str]]:
        return sorted(set(
            check_sealed.expected_fixture_findings(FIXTURES / name)))

    def test_clean_fixture_has_zero_findings(self) -> None:
        self.assertEqual(findings_for("clean.cc"), [])

    def test_leak_payload_to_frame(self) -> None:
        got = findings_for("leak_payload_to_frame.cc")
        self.assertEqual(got, self.expected_for("leak_payload_to_frame.cc"))
        # Double-entry against the annotations: the exact tuples, so a bug
        # in expected_fixture_findings cannot silently pass both sides.
        self.assertEqual(got, [
            ("leak_payload_to_frame.cc", 10, check_sealed.RULE_BOUNDARY),
            ("leak_payload_to_frame.cc", 15, check_sealed.RULE_BOUNDARY),
            ("leak_payload_to_frame.cc", 18, check_sealed.RULE_BOUNDARY),
            ("leak_payload_to_frame.cc", 19, check_sealed.RULE_BOUNDARY),
            ("leak_payload_to_frame.cc", 20, check_sealed.RULE_TAINT),
        ])

    def test_leak_term_to_wal(self) -> None:
        got = findings_for("leak_term_to_wal.cc")
        self.assertEqual(got, self.expected_for("leak_term_to_wal.cc"))
        self.assertIn(("leak_term_to_wal.cc", 19, check_sealed.RULE_TAINT),
                      got)

    def test_leak_serialize_to_frame(self) -> None:
        got = findings_for("leak_serialize_to_frame.cc")
        self.assertEqual(got, self.expected_for("leak_serialize_to_frame.cc"))
        rules = {rule for _, _, rule in got}
        self.assertEqual(rules, {check_sealed.RULE_BOUNDARY,
                                 check_sealed.RULE_TAINT,
                                 check_sealed.RULE_ADOPT})

    def test_taint_does_not_leak_across_functions(self) -> None:
        # clean.cc's EncodeAck sinks a metadata string after EncodeElement-
        # Frame; if taint survived function boundaries the clean fixture
        # would not stay clean. Assert the mechanism directly too.
        findings = check_sealed.scan_boundary_tu(
            FIXTURES / "clean.cc", "clean.cc")
        self.assertEqual(findings, [])


class SelfTestEntryPointTest(unittest.TestCase):
    def test_self_test_passes(self) -> None:
        self.assertEqual(check_sealed.self_test(REPO_ROOT), 0)


class ProductionScanTest(unittest.TestCase):
    def test_boundary_tus_are_clean(self) -> None:
        findings = check_sealed.run_scan(REPO_ROOT)
        self.assertEqual(
            [f.render() for f in findings], [],
            "the real boundary TUs must stay free of plaintext flows")


if __name__ == "__main__":
    unittest.main()
