"""Golden text reports: the reports printed without ``--json`` stay
byte-identical too.

Each case runs one CLI call in-process at small bounds and compares its
standard output with the file of the same name under ``tests/golden/text/``.
After a change that is meant to alter a report, re-record with

    PYTHONPATH=src python tests/test_golden_text.py

and review the diff of ``tests/golden/text/`` before committing it.
"""

import contextlib
import io
import os
import sys

import pytest

from metalogic.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
TEXT = os.path.join(GOLDEN, "text")

SMALL = ["--max-stage", "3", "--max-size", "9", "--pool-size", "3"]
# one pool formula, P: the Kleene body is its five stage-1 instances
POOL_P = ["--max-stage", "3", "--max-size", "9", "--pool-size", "1", "--pool-vars", "P"]
FREE = ["--max-stage", "2", "--max-size", "5"]

# name: (argv, expected exit code)
CASES = {
    "enum_body_kleene": (
        ["enum-body", "--calc", "builtin:kleene", *SMALL, "--pool-vars", "P"], 0),
    "enum_body_church_p1": (
        ["enum-body", "--calc", "builtin:church_p1", "--max-stage", "3",
         "--max-size", "11", "--pool-size", "3"], 2),
    "enum_body_budget": (
        ["enum-body", "--calc", "builtin:kleene", *POOL_P, "--budget", "3"], 4),
    "stages": (
        ["stages", "--calc", os.path.join(GOLDEN, "staged_chain.json")], 0),
    "derive_found": (
        ["derive", "--calc", "builtin:kleene", "--goal", "(P -> P)",
         "--max-stage", "3", "--max-size", "17", "--pool-size", "3",
         "--pool-vars", "P"], 0),
    "derive_found_with_parameters": (
        ["derive", "--calc", "builtin:church_p1", "--goal", "(p -> (p -> p))",
         "--max-stage", "3", "--max-size", "9", "--pool-size", "3"], 0),
    "derive_underivable": (
        ["derive", "--calc", "builtin:kleene", "--goal", "(P -> Q)", *SMALL,
         "--pool-vars", "P"], 1),
    "derive_stage_cap": (
        ["derive", "--calc", "builtin:church_p1", "--goal", "(p -> p)",
         "--max-stage", "5", "--max-size", "13", "--pool-size", "3"], 2),
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
    "check_closed_wrt_axioms_holds": (
        ["check", "--calc", "builtin:kleene", "--property", "closed-wrt-axioms",
         *POOL_P, "--budget", "6"], 0),
    "check_closed_wrt_axioms_truncated": (
        ["check", "--calc", "builtin:kleene", "--property", "closed-wrt-axioms",
         *POOL_P, "--budget", "4"], 2),
    "check_consistent_with_pattern": (
        ["check", "--calc", "builtin:kleene", "--property", "consistent-with",
         "--pattern", "(phi -> phi)", *SMALL, "--pool-vars", "P"], 0),
    "compare_logical_holds": (
        ["compare", "--kind", "logical", "--calc-a", "builtin:kleene",
         "--calc-b", "builtin:kleene", *SMALL, "--pool-vars", "P"], 0),
    "compare_logical_forward": (
        ["compare", "--kind", "logical", "--calc-a", "builtin:free,4",
         "--calc-b", "builtin:free,3", *FREE], 1),
    "compare_logical_backward": (
        ["compare", "--kind", "logical", "--calc-a", "builtin:free,3",
         "--calc-b", "builtin:free,4", *FREE], 1),
    "compare_algorithmic_fails": (
        ["compare", "--kind", "algorithmic", "--calc-a", "builtin:free,4",
         "--calc-b", "builtin:free,3", *FREE], 1),
    "compare_axiomatic_fails": (
        ["compare", "--kind", "axiomatic", "--calc-a", "builtin:kleene",
         "--calc-b", "builtin:lv", *SMALL, "--pool-vars", "P"], 1),
    "compare_church_map": (
        ["compare", "--kind", "logical", "--calc-a", "builtin:church_p2",
         "--calc-b", "builtin:church_p1", "--map", "p2_to_p1",
         "--max-stage", "3", "--max-size", "7", "--pool-size", "3"], 2),
}


def run_case(name):
    argv, _ = CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def golden_path(name):
    return os.path.join(TEXT, name + ".txt")


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_report_is_byte_identical(name):
    code, report = run_case(name)
    assert code == CASES[name][1]
    with open(golden_path(name), "rb") as handle:
        assert report == handle.read()


if __name__ == "__main__":
    os.makedirs(TEXT, exist_ok=True)
    for case in sorted(CASES):
        exit_code, payload = run_case(case)
        if exit_code != CASES[case][1]:
            sys.exit(f"{case}: exit {exit_code}, expected {CASES[case][1]}")
        with open(golden_path(case), "wb") as handle:
            handle.write(payload)
        print(f"{case}: exit {exit_code}, {len(payload)} bytes")
