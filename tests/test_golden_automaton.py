"""Golden acceptor reports: every ``automaton`` report stays byte-identical.

Each case runs one ``automaton`` call in-process at small bounds and compares
its standard output with the file of the same name under
``tests/golden/automaton/``. The cases cover the chain and the
``--deterministic`` construction, text and ``--json`` reports, ``--accept``
with a member, a non-member and a word with a symbol outside the alphabet,
and ``--language-upto`` on both constructions. After a change that is meant
to alter a report, re-record with

    PYTHONPATH=src python tests/test_golden_automaton.py

and review the diff of ``tests/golden/automaton/`` before committing it.
"""

import contextlib
import io
import os
import sys

import pytest

from metalogic.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "automaton")

FREE = ["--calc", "builtin:free,3"]
# one pool formula, P: the Kleene body is its five stage-1 instances
KLEENE = ["--calc", "builtin:kleene", "--max-stage", "2", "--max-size", "9",
          "--pool-size", "1", "--pool-vars", "P"]
# a three-formula pool: 42 theorems with many shared prefixes
KLEENE_POOL3 = ["--calc", "builtin:kleene", "--max-stage", "2",
                "--max-size", "9", "--pool-size", "3", "--pool-vars", "P"]

CONSTRUCTIONS = {"chain": [], "trie": ["--deterministic"]}
FORMATS = {"text": [], "json": ["--json"]}

# name stem: (calculus arguments, action arguments, expected exit code)
ACTIONS = {
    "free_dump": (FREE, [], 0),
    "free_accept_member": (FREE, ["--accept", "~~P"], 0),
    "free_accept_nonmember": (FREE, ["--accept", "~~~P"], 1),
    "free_accept_unknown_symbol": (FREE, ["--accept", "Q"], 1),
    "free_language": (FREE, ["--language-upto", "12"], 0),
    "kleene_dump": (KLEENE, [], 0),
    "kleene_accept_member": (KLEENE, ["--accept", "(P -> (P -> P))"], 0),
    "kleene_accept_nonmember": (KLEENE, ["--accept", "(P -> P)"], 1),
    "kleene_accept_unknown_symbol": (KLEENE, ["--accept", "(P -> Q)"], 1),
    "kleene_language": (KLEENE, ["--language-upto", "30"], 0),
    "kleene_pool3_language": (KLEENE_POOL3, ["--language-upto", "20"], 0),
}

# name: (argv, expected exit code)
CASES = {
    f"{stem}_{construction}_{fmt}": (
        ["automaton", *calc, *action, *flag, *fmt_flag], code)
    for stem, (calc, action, code) in ACTIONS.items()
    for construction, flag in CONSTRUCTIONS.items()
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
def test_automaton_report_is_byte_identical(name):
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
