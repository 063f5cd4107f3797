"""Golden property-battery reports: every ``check`` verdict branch that turns
on the run status stays byte-identical.

Each status-settled property check is run once where the body saturated
(its definitive verdict) and once where the run stopped short (its
inconclusive verdict), in text and ``--json`` form, and compared with the
file of the same name under ``tests/golden/battery/``. After a change that
is meant to alter a report, re-record with

    PYTHONPATH=src python tests/test_golden_battery.py

and review the diff of ``tests/golden/battery/`` before committing it.
"""

import contextlib
import io
import os
import sys

import pytest

from metalogic.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "battery")

# church_p1 saturates within four stages at size 7 and hits the stage cap
# at two
SATURATED = ["--calc", "builtin:church_p1", "--max-stage", "4",
             "--max-size", "7", "--pool-size", "3"]
STAGE_CAP = ["--calc", "builtin:church_p1", "--max-stage", "2",
             "--max-size", "7", "--pool-size", "3"]

FORMATS = {"text": [], "json": ["--json"]}

# name stem: (property, bounds and calculus, extra arguments, exit code)
CHECKS = {
    "admissible_holds": ("admissible", SATURATED, [], 0),
    "admissible_stage_cap": ("admissible", STAGE_CAP, [], 2),
    "consistent_holds": ("consistent", SATURATED, [], 0),
    "consistent_stage_cap": ("consistent", STAGE_CAP, [], 2),
    "consistent_budget": ("consistent", SATURATED, ["--budget", "3"], 2),
    "consistent_strict_holds": ("consistent", SATURATED, ["--strict"], 0),
    "consistent_strict_stage_cap": ("consistent", STAGE_CAP, ["--strict"], 2),
    "consistent_with_holds": (
        "consistent-with", SATURATED, ["--member", "(p -> q)"], 0),
    "consistent_with_stage_cap": (
        "consistent-with", STAGE_CAP, ["--member", "(p -> q)"], 2),
    "complete_wrt_map_fails": (
        "complete-wrt-map", ["--calc", "builtin:free,3", "--max-stage", "2",
                             "--max-size", "5"], [], 1),
    "complete_wrt_map_stage_cap": ("complete-wrt-map", STAGE_CAP, [], 2),
    # ~~~P is outside the body, and its image ~~~~P is beyond the cap
    "complete_wrt_map_images_beyond_cap": (
        "complete-wrt-map", ["--calc", "builtin:free,3", "--max-stage", "2",
                             "--max-size", "4"], [], 2),
    "complete_wrt_rules_holds": (
        "complete-wrt-rules", STAGE_CAP, ["--target", "(f -> (f -> f))"], 0),
    "complete_wrt_rules_fails": (
        "complete-wrt-rules", SATURATED, ["--target", "(p -> p)"], 1),
    "complete_wrt_rules_stage_cap": (
        "complete-wrt-rules", STAGE_CAP, ["--target", "(p -> (p -> p))"], 2),
    "transitively_closed_holds": ("transitively-closed", SATURATED, [], 0),
    "transitively_closed_stage_cap": ("transitively-closed", STAGE_CAP, [], 2),
    "closed_wrt_rules_holds": (
        "closed-wrt-rules", ["--calc", "builtin:church_p1", "--max-stage", "5",
                             "--max-size", "11", "--pool-size", "3"], [], 0),
    "closed_wrt_rules_fails": ("closed-wrt-rules", SATURATED, [], 1),
    "closed_wrt_rules_stage_cap": ("closed-wrt-rules", STAGE_CAP, [], 2),
}

# name: (argv, expected exit code)
CASES = {
    f"{stem}_{fmt}": (
        ["check", "--property", prop, *calc, *extra, *fmt_flag], code)
    for stem, (prop, calc, extra, code) in CHECKS.items()
    for fmt, fmt_flag in FORMATS.items()
}


def run_case(name):
    argv, _ = CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def golden_path(name):
    return os.path.join(GOLDEN, name + ".txt")


@pytest.mark.parametrize("name", sorted(CASES))
def test_battery_report_is_byte_identical(name):
    code, report = run_case(name)
    assert code == CASES[name][1]
    with open(golden_path(name), "rb") as handle:
        assert report == handle.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case in sorted(CASES):
        exit_code, payload = run_case(case)
        if exit_code != CASES[case][1]:
            sys.exit(f"{case}: exit {exit_code}, expected {CASES[case][1]}")
        with open(golden_path(case), "wb") as handle:
            handle.write(payload)
        print(f"{case}: exit {exit_code}, {len(payload)} bytes")
