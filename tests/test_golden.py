"""Golden ``--json`` reports: refactors must keep them byte-identical.

Each case runs one CLI call in-process at small bounds and compares its
standard output with the file of the same name under ``tests/golden/``.
After a change that is meant to alter a report, re-record with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/`` before committing it.
"""

import contextlib
import io
import os
import sys

import pytest

from metalogic.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

SMALL = ["--max-stage", "3", "--max-size", "9", "--pool-size", "3"]

# name: (argv without --json, expected exit code)
CASES = {
    "enum_body_kleene": (
        ["enum-body", "--calc", "builtin:kleene", *SMALL, "--pool-vars", "P"], 0),
    "enum_body_church_p1": (
        ["enum-body", "--calc", "builtin:church_p1", "--max-stage", "3",
         "--max-size", "11", "--pool-size", "3"], 2),
    "derive_found": (
        ["derive", "--calc", "builtin:kleene", "--goal", "(P -> P)",
         "--max-stage", "3", "--max-size", "17", "--pool-size", "3",
         "--pool-vars", "P"], 0),
    "derive_underivable": (
        ["derive", "--calc", "builtin:kleene", "--goal", "(P -> Q)", *SMALL,
         "--pool-vars", "P"], 1),
    "derive_stage_cap": (
        ["derive", "--calc", "builtin:church_p1", "--goal", "(p -> p)",
         "--max-stage", "5", "--max-size", "13", "--pool-size", "3"], 2),
    "stages": (
        ["stages", "--calc", os.path.join(GOLDEN, "staged_chain.json")], 0),
    "check_transitively_closed": (
        ["check", "--calc", "builtin:church_p1",
         "--property", "transitively-closed", "--max-stage", "4",
         "--max-size", "7", "--pool-size", "3"], 0),
    "check_completely_closed": (
        ["check", "--calc", "builtin:kleene", "--property", "completely-closed",
         *SMALL, "--pool-vars", "P"], 1),
    "check_complete_wrt_rules": (
        ["check", "--calc", "builtin:kleene", "--property", "complete-wrt-rules",
         "--target", "(P -> P)", "--target", "((P -> P) -> (P -> P))",
         "--max-stage", "3", "--max-size", "7", "--pool-size", "3",
         "--pool-vars", "P"], 1),
    "relation": (
        ["relation", "--calc", "builtin:church_p1", "--premise", "p",
         "--premise", "(p -> q)", "--premise", "(q -> p)",
         "--max-premises", "2", "--max-stage", "3", "--max-size", "7",
         "--pool-size", "1"], 0),
}


def run_case(name):
    argv, _ = CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    return code, out.getvalue().encode("utf-8")


def golden_path(name):
    return os.path.join(GOLDEN, name + ".json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name):
    code, report = run_case(name)
    assert code == CASES[name][1]
    with open(golden_path(name), "rb") as handle:
        assert report == handle.read()


if __name__ == "__main__":
    for case in sorted(CASES):
        exit_code, payload = run_case(case)
        if exit_code != CASES[case][1]:
            sys.exit(f"{case}: exit {exit_code}, expected {CASES[case][1]}")
        with open(golden_path(case), "wb") as handle:
            handle.write(payload)
        print(f"{case}: exit {exit_code}, {len(payload)} bytes")
