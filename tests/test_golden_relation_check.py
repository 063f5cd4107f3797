"""Golden ``relation-check`` reports: every boundedness verdict stays
byte-identical, witness included.

Each case runs one ``relation-check`` call in-process on a small relation
file under ``tests/golden/relation_check/`` and compares its standard output
with the file of the same name there. The cases cross the four boundedness
kinds with m = 1 and 2 and four relation files:

    exact1      every pair has exactly one premise
    exact2      every pair has exactly two premises
    functional  every conclusion has a one- and a two-premise pair, and one
                conclusion also has a three-premise pair
    mixed       a premise-free pair, and conclusions reachable only with two
                or three premises

so every kind holds and fails at both bounds. The calls run from that
directory, so the file name in each report is relative. After a change that
is meant to alter a report, re-record with

    PYTHONPATH=src python tests/test_golden_relation_check.py

and review the diff of ``tests/golden/relation_check/`` before committing it.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from metalogic.analysis import BOUNDEDNESS_KINDS
from metalogic.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "relation_check")

RELATIONS = ("exact1", "exact2", "functional", "mixed")
FORMATS = {"text": [], "json": ["--json"]}

# name: argv
CASES = {
    f"{relation}_{kind}_m{m}_{fmt}": [
        "relation-check", "--relation", f"{relation}.jsonl",
        "--m", str(m), "--kind", kind, *fmt_flag]
    for relation in RELATIONS
    for kind in BOUNDEDNESS_KINDS
    for m in (1, 2)
    for fmt, fmt_flag in FORMATS.items()
}


def run_case(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(CASES[name])
    return code, out.getvalue().encode("utf-8")


def golden_path(name):
    return os.path.join(GOLDEN, name + ".txt")


def recorded_verdict(name):
    with open(golden_path(name), "rb") as handle:
        report = handle.read()
    if name.endswith("_json"):
        return json.loads(report)["verdict"]
    return report.split(b"\n", 1)[0].decode().split()[-1]


@pytest.mark.parametrize("name", sorted(CASES))
def test_relation_check_report_is_byte_identical(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, report = run_case(name)
    with open(golden_path(name), "rb") as handle:
        assert report == handle.read()
    assert code == {"holds": 0, "fails": 1}[recorded_verdict(name)]


def test_every_kind_holds_and_fails_at_both_bounds():
    outcomes = {}
    for name in CASES:
        # drop the relation file in front and the format behind
        kind_and_m = name.split("_", 1)[1].rsplit("_", 1)[0]
        outcomes.setdefault(kind_and_m, set()).add(recorded_verdict(name))
    assert len(outcomes) == 2 * len(BOUNDEDNESS_KINDS)
    assert all(seen == {"holds", "fails"} for seen in outcomes.values())


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for case in sorted(CASES):
        exit_code, payload = run_case(case)
        with open(golden_path(case), "wb") as handle:
            handle.write(payload)
        print(f"{case}: exit {exit_code}, {len(payload)} bytes")
