"""Command-line behavior: exit codes, reports, bounds flags.

Everything runs in-process through main(argv), so the tests see real exit
codes and captured stdout/stderr without spawning a shell.
"""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from metalogic import cli
from metalogic.analysis import BOUNDEDNESS_KINDS, COMPARISON_KINDS, PROPERTY_NAMES
from metalogic.cli import main
from metalogic.library import translation_map_names

CHAIN = {
    "name": "chain",
    "language": {"variables": ["P", "Q", "R"], "connectives": ["implies"]},
    "axioms": ["P", "(P -> Q)", "(Q -> R)"],
    "rules": [{"name": "modus_ponens"}],
}


@pytest.fixture(scope="module")
def chain_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("calc") / "chain.json"
    path.write_text(json.dumps(CHAIN), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def short_file(tmp_path_factory):
    data = dict(CHAIN, name="short", axioms=["P", "(P -> Q)"])
    path = tmp_path_factory.mktemp("calc") / "short.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def staged_file(tmp_path_factory):
    data = dict(CHAIN, stages=[{"axioms": ["P"]},
                               {"axioms": ["(P -> Q)"]}])
    path = tmp_path_factory.mktemp("calc") / "staged.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestParse:
    def test_canonical_form_and_size(self, capsys, chain_file):
        assert main(["parse", "--calc", chain_file, "(P -> (Q -> R))"]) == 0
        out = capsys.readouterr().out
        assert "(P -> (Q -> R))" in out
        assert "size: 5" in out

    def test_parse_error_exits_3(self, capsys, chain_file):
        assert main(["parse", "--calc", chain_file, "(P ->"]) == 3
        assert "metalogic: error:" in capsys.readouterr().err

    def test_json_report(self, capsys, chain_file):
        assert main(["parse", "--json", "--calc", chain_file, "P"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "metalogic-report/1"
        assert report["command"] == "parse"
        assert report["formula"] == "P"
        assert report["timing_ms"] is None


def _implication_chain(depth):
    text = "P"
    for _ in range(depth):
        text = f"(P -> {text})"
    return text


class TestDeepInput:
    """Input nested past the parser's bound is a parse error, exit 3."""

    @pytest.mark.parametrize("text", [
        "~" * 3000 + "P",
        "(" * 1200 + "P" + ")" * 1200,
        _implication_chain(150),
    ], ids=["negations", "parentheses", "implication-chain"])
    def test_deep_formula_exits_3(self, capsys, text):
        assert main(["parse", "--calc", "builtin:kleene", text]) == 3
        assert "nests deeper than" in capsys.readouterr().err

    def test_formula_at_the_bound_parses(self, capsys):
        assert main(["parse", "--calc", "builtin:kleene", "~" * 100 + "P"]) == 0
        assert "size: 101" in capsys.readouterr().out


class TestDeepCalculus:
    """builtin:free,1200 declares axioms up to 1,200 nodes deep (~...~P).
    Loading it checks every axiom on an explicit stack, and equality and
    truth tables walk negation chains in a loop, so each subcommand runs to
    its report. The automaton case keeps the body shallower: an
    acceptor of the full body has 721,801 states."""

    FREE = "builtin:free,1200"
    DEEP = ["--max-size", "1200", "--max-stage", "2"]

    @pytest.mark.parametrize("argv, code", [
        (["parse", "--calc", FREE, "P"], 0),
        (["enum-body", "--calc", FREE, *DEEP, "--json"], 0),
        (["automaton", "--calc", FREE, "--max-size", "300", "--max-stage", "2",
          "--accept", "P"], 0),
        (["check", "--calc", FREE, *DEEP, "--property", "transitively-closed"], 0),
        (["check", "--calc", FREE, *DEEP, "--property", "consistent",
          "--strict"], 0),
        # the body is the whole language up to the cap
        (["check", "--calc", FREE, *DEEP, "--property", "admissible"], 1),
        (["check", "--calc", FREE, *DEEP, "--property", "complete-wrt-map"], 0),
        (["compare", "--kind", "logical", "--calc-a", FREE, "--calc-b", FREE,
          *DEEP], 0),
        (["compare", "--kind", "axiomatic", "--calc-a", FREE, "--calc-b", FREE,
          *DEEP], 0),
        (["compare", "--kind", "algorithmic", "--calc-a", FREE, "--calc-b", FREE,
          *DEEP], 0),
    ], ids=["parse", "enum-body", "automaton", "check", "consistent-strict",
            "admissible", "complete-wrt-map", "compare-logical",
            "compare-axiomatic", "compare-algorithmic"])
    def test_subcommands_run_to_a_report_with_nothing_on_stderr(
            self, capsys, argv, code):
        assert main(argv) == code
        assert capsys.readouterr().err == ""

    def test_the_body_holds_the_deepest_axiom(self, capsys):
        assert main(["enum-body", "--calc", self.FREE, *self.DEEP, "--json"]) == 0
        body = json.loads(capsys.readouterr().out)["body"]
        assert body["theorem_count"] == 1200
        assert body["theorems"][-1]["formula"] == "~" * 1199 + "P"


class TestEnumLang:
    def test_kleene_language_up_to_three(self, capsys):
        assert main(["enum-lang", "--calc", "builtin:kleene",
                     "--size", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("count: 36")

    def test_missing_size_is_a_usage_error(self, capsys):
        assert main(["enum-lang", "--calc", "builtin:kleene"]) == 3

    def test_negative_size_exits_3(self, capsys):
        assert main(["enum-lang", "--calc", "builtin:kleene", "--size", "-1"]) == 3
        assert "max_size must be an integer >= 0, got -1" in capsys.readouterr().err

    def test_unknown_pool_variable_exits_3(self, capsys):
        assert main(["enum-lang", "--calc", "builtin:kleene", "--size", "1",
                     "--pool-vars", "Z"]) == 3
        assert "pool variable 'Z' is not declared" in capsys.readouterr().err

    def test_budget_exceeded_exits_4(self, capsys):
        assert main(["enum-lang", "--calc", "builtin:kleene", "--size", "5",
                     "--budget", "10"]) == 4
        assert capsys.readouterr().err == (
            "metalogic: budget exceeded: enumeration outgrew its ceiling "
            "of 10\n")


class TestEnumBody:
    def test_saturating_body_exits_0(self, capsys, chain_file):
        assert main(["enum-body", "--calc", chain_file]) == 0
        out = capsys.readouterr().out
        assert "status: saturated-within-size-cap" in out
        assert "theorems: 5" in out
        assert "  R  " in out

    def test_justifications_name_rule_and_premises(self, capsys, chain_file):
        main(["enum-body", "--calc", chain_file])
        out = capsys.readouterr().out
        assert "[axiom]" in out
        assert "modus_ponens: P, (P -> Q)" in out

    def test_budget_exhaustion_exits_4(self, chain_file, capsys):
        assert main(["enum-body", "--calc", chain_file, "--budget", "1"]) == 4

    def test_stage_cap_exits_2(self, chain_file, capsys):
        assert main(["enum-body", "--calc", chain_file,
                     "--max-stage", "1"]) == 2

    def test_builtin_pool_is_goal_directed_so_body_is_empty(self, capsys):
        assert main(["enum-body", "--calc", "builtin:kleene"]) == 0
        assert "theorems: 0" in capsys.readouterr().out

    def test_pool_vars_override_fills_the_pool(self, capsys):
        assert main(["enum-body", "--calc", "builtin:kleene", "--json",
                     "--pool-vars", "P", "--max-stage", "1",
                     "--max-size", "9", "--pool-size", "3"]) in (0, 2)
        report = json.loads(capsys.readouterr().out)
        assert report["body"]["theorem_count"] > 0

    def test_unknown_pool_variable_exits_3(self, capsys):
        assert main(["enum-body", "--calc", "builtin:kleene",
                     "--pool-vars", "P,Z"]) == 3
        assert "pool variable 'Z' is not declared" in capsys.readouterr().err

    @pytest.mark.parametrize("pool_vars", [",", "", "P,,R"])
    def test_an_empty_pool_variable_exits_3(self, capsys, pool_vars):
        # an empty name is undeclared; it neither empties the pool nor is skipped
        assert main(["enum-body", "--calc", "builtin:kleene",
                     "--pool-vars", pool_vars]) == 3
        assert capsys.readouterr().err == (
            "metalogic: error: pool variable '' is not declared\n")

    def test_repeated_pool_variable_exits_3_naming_it(self, capsys):
        assert main(["enum-body", "--calc", "builtin:kleene",
                     "--pool-vars", "P,P"]) == 3
        assert capsys.readouterr().err == (
            "metalogic: error: pool variable 'P' is listed twice\n")

    def test_missing_calculus_file_exits_3(self, capsys, tmp_path):
        assert main(["enum-body", "--calc", str(tmp_path / "no.json")]) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_a_rule_building_an_undeclared_quantifier_exits_3(self, capsys, tmp_path):
        data = {"language": {"kind": "first-order", "individual_variables": ["x"],
                             "predicates": [["P", 1], ["Q", 0]],
                             "connectives": ["implies"], "quantifiers": ["forall"]},
                "axioms": ["P(x) -> Q"], "rules": [{"name": "exists_introduction"}]}
        path = tmp_path / "exists.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["enum-body", "--calc", str(path), "--max-stage", "3",
                     "--max-size", "9"]) == 3
        assert "['exists']" in capsys.readouterr().err


class TestDerive:
    def test_goal_found_exits_0_with_a_proof(self, capsys, chain_file):
        assert main(["derive", "--calc", chain_file, "--goal", "R"]) == 0
        out = capsys.readouterr().out
        assert "status: goal-found" in out
        assert "modus_ponens" in out

    def test_underivable_goal_exits_1(self, capsys, chain_file):
        assert main(["derive", "--calc", chain_file,
                     "--goal", "(P -> R)"]) == 1
        assert "not derivable within the size cap" in capsys.readouterr().out

    def test_stage_cap_exits_2(self, capsys, chain_file):
        assert main(["derive", "--calc", chain_file, "--goal", "R",
                     "--max-stage", "1"]) == 2

    def test_json_derivation_is_one_indexed(self, capsys, chain_file):
        assert main(["derive", "--json", "--calc", chain_file,
                     "--goal", "Q"]) == 0
        report = json.loads(capsys.readouterr().out)
        nodes = report["derivation"]
        assert [n["index"] for n in nodes] == list(range(1, len(nodes) + 1))
        assert nodes[-1]["formula"] == "Q"
        assert all(p < n["index"] for n in nodes for p in n["premises"])

    def test_json_derivation_is_null_when_not_found(self, capsys, chain_file):
        assert main(["derive", "--json", "--calc", chain_file,
                     "--goal", "(P -> R)"]) == 1
        assert json.loads(capsys.readouterr().out)["derivation"] is None


def test_reports_leave_nothing_past_a_young_collection(capsys):
    """Each build collects the young generations as it starts, so the cyclic
    garbage one call leaves (json.dumps's encoder closures, say) is freed by
    the next call's build, and what the last call leaves by a young
    collection: none of it waits in the oldest generation."""
    argv = ["derive", "--calc", "builtin:kleene", "--goal", "(P -> P)", "--json"]
    assert main(argv) == 0  # warms the parser and the built-in
    gc.collect()
    for _ in range(5):
        assert main(argv) == 0
    gc.collect(1)
    assert gc.collect() == 0


class TestUndecodableInput:
    """A file that is not UTF-8, or nests JSON deeper than the decoder can
    follow, is a usage error on one line that names the file."""

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not-utf-8", "deep-json"])
    @pytest.mark.parametrize("command", [
        ["enum-body", "--calc"],
        ["relation-check", "--m", "1", "--kind", "bounded", "--relation"],
    ], ids=["calc", "relation"])
    def test_exits_3(self, capsys, tmp_path, command, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        assert main(command + [str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"metalogic: error: {path}")


class TestStages:
    def test_staged_run_prints_one_block_per_stage(self, capsys, staged_file):
        assert main(["stages", "--calc", staged_file]) == 0
        out = capsys.readouterr().out
        assert "stage 1:" in out
        assert "stage 2:" in out

    def test_unstaged_file_is_a_usage_error(self, capsys, chain_file):
        assert main(["stages", "--calc", chain_file]) == 3
        assert "declares no stages" in capsys.readouterr().err

    def test_budget_exhaustion_exits_4(self, capsys, tmp_path):
        path = tmp_path / "two_axioms.json"
        path.write_text(json.dumps(dict(CHAIN, stages=[
            {"axioms": ["P"]}, {"axioms": ["P", "(P -> Q)"]}])),
            encoding="utf-8")
        assert main(["stages", "--calc", str(path), "--budget", "1"]) == 4
        out = capsys.readouterr().out
        assert "status: saturated-within-size-cap" in out
        assert "status: budget-exceeded" in out


# short.json's two axioms fill the budget in stage 1; the run ends in stage 2
STAGE_TWO_BUDGET = ["--max-stage", "3", "--max-size", "5", "--budget", "2",
                    "--pool-size", "1"]


class TestCompare:
    def test_identical_calculi_hold(self, capsys, chain_file):
        assert main(["compare", "--kind", "logical", "--calc-a", chain_file,
                     "--calc-b", chain_file]) == 0
        assert "verdict: holds" in capsys.readouterr().out

    def test_missing_theorems_fail(self, capsys, chain_file, short_file):
        assert main(["compare", "--kind", "logical", "--calc-a", chain_file,
                     "--calc-b", short_file]) == 1
        assert "verdict: fails" in capsys.readouterr().out

    def test_church_pair_is_inconclusive(self, capsys):
        assert main(["compare", "--kind", "logical",
                     "--calc-a", "builtin:church_p2",
                     "--calc-b", "builtin:church_p1",
                     "--map", "p2_to_p1"]) == 2
        assert "verdict: inconclusive" in capsys.readouterr().out

    def test_algorithmic_reads_the_stage_one_cut_from_the_runs(self, capsys, short_file):
        # both axioms are in stage 1; the budget runs out in stage 2
        assert main(["compare", "--kind", "algorithmic", "--calc-a", short_file,
                     "--calc-b", short_file, *STAGE_TWO_BUDGET]) == 2
        out = capsys.readouterr().out
        assert "did not saturate" in out and "budget-truncated" not in out

    def test_wrong_direction_map_exits_3(self, capsys, chain_file):
        assert main(["compare", "--kind", "logical", "--calc-a", chain_file,
                     "--calc-b", chain_file, "--map", "p2_to_p1"]) == 3
        assert "does not map" in capsys.readouterr().err


class TestCheck:
    def test_closed_wrt_axioms_holds(self, capsys, chain_file):
        assert main(["check", "--calc", chain_file,
                     "--property", "closed-wrt-axioms"]) == 0
        assert "verdict: holds" in capsys.readouterr().out

    def test_closed_wrt_axioms_reads_the_stage_one_cut_from_the_run(self, capsys,
                                                                  short_file):
        assert main(["check", "--calc", short_file, "--property", "closed-wrt-axioms",
                     *STAGE_TWO_BUDGET]) == 0
        assert "verdict: holds" in capsys.readouterr().out

    def test_consistent_with_a_derived_member_fails(self, capsys, chain_file):
        assert main(["check", "--calc", chain_file,
                     "--property", "consistent-with",
                     "--member", "R"]) == 1

    def test_consistent_with_an_underivable_member_holds(self, capsys,
                                                         chain_file):
        assert main(["check", "--calc", chain_file,
                     "--property", "consistent-with",
                     "--member", "(R -> R)"]) == 0

    def test_pattern_spans_phi_chi_psi(self, capsys, chain_file):
        assert main(["check", "--calc", chain_file,
                     "--property", "consistent-with",
                     "--pattern", "(phi -> phi)"]) == 0

    def test_pattern_on_a_calculus_that_declares_phi(self, capsys, tmp_path):
        """A declared ``phi`` reads as the object variable; chi and psi stay
        metavariables."""
        data = dict(CHAIN, axioms=["(phi -> phi)"],
                    language={"kind": "propositional", "variables": ["phi", "Q"],
                              "connectives": ["implies"]})
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = ["check", "--calc", str(path), "--property", "consistent-with",
                "--pattern"]
        assert main(argv + ["(Q -> Q)"]) == 0
        assert main(argv + ["(phi -> Q)"]) == 0
        assert main(argv + ["(chi -> chi)"]) == 1
        assert "evidence: \"(phi -> phi)\"" in capsys.readouterr().out

    def test_unknown_property_is_a_usage_error(self, capsys, chain_file):
        assert main(["check", "--calc", chain_file,
                     "--property", "decidable"]) == 3

    def test_strict_consistency_finds_a_semantic_contradiction(
            self, capsys, tmp_path):
        # 20 variables and the constant f: within the truth-table cap, which
        # counts no constants
        names = [f"P{i}" for i in range(1, 21)]
        rest = names[1]
        for name in names[2:] + ["f"]:
            rest = f"({rest} & {name})"
        data = {
            "name": "unsatisfiable",
            "language": {"variables": names, "constants": ["f"],
                         "connectives": ["not", "and"]},
            "axioms": [f"((P1 & ~P1) & {rest})"],
            "rules": [{"name": "identity"}],
        }
        path = tmp_path / "unsatisfiable.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["check", "--calc", str(path), "--property", "consistent",
                     "--max-size", "100", "--strict"]) == 1
        assert ("detail: semantically unsatisfiable member"
                in capsys.readouterr().out)

    def test_rules_from_a_file_replace_the_calculus_rules(
            self, capsys, chain_file, tmp_path):
        target = ["--property", "complete-wrt-rules", "--target", "R"]
        assert main(["check", "--calc", chain_file, *target]) == 0
        ruleless = tmp_path / "ruleless.json"
        ruleless.write_text(json.dumps(dict(CHAIN, rules=[])),
                            encoding="utf-8")
        assert main(["check", "--calc", chain_file, *target,
                     "--rules-from", str(ruleless)]) == 1
        assert "R is not derivable in one step" in capsys.readouterr().out


class TestUnreadPool:
    """A pool that no schema and no formula parameter reads is never
    enumerated, so its size cannot outgrow the budget and end the run."""

    ARGV = ["--max-stage", "4", "--max-size", "5", "--budget", "20",
            "--pool-size", "5"]

    @pytest.fixture
    def unread_file(self, tmp_path):
        # 66 formulas over P, Q up to size 5: over the budget of 20
        data = {"language": {"variables": ["P", "Q"], "connectives": ["implies", "not"]},
                "axioms": ["P", "P -> Q"], "rules": [{"name": "modus_ponens"}],
                "pool_variables": ["P", "Q"]}
        path = tmp_path / "unread.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def test_check_holds(self, capsys, unread_file):
        assert main(["check", "--calc", unread_file, "--property",
                     "transitively-closed", *self.ARGV]) == 0
        assert "verdict: holds" in capsys.readouterr().out

    def test_derive_finds_a_three_node_derivation(self, capsys, unread_file):
        assert main(["derive", "--json", "--calc", unread_file, "--goal", "Q",
                     *self.ARGV]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "goal-found"
        assert [node["formula"] for node in report["derivation"]] == [
            "P", "(P -> Q)", "Q"]

    def test_a_read_pool_still_ends_the_run_at_the_budget(self, capsys, tmp_path):
        # extension's psi ranges over the pool
        data = {"language": {"variables": ["P", "Q"], "connectives": ["or"]},
                "axioms": ["P"], "rules": [{"name": "extension"}],
                "pool_variables": ["P", "Q"]}
        path = tmp_path / "read.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["check", "--calc", str(path), "--property",
                     "transitively-closed", *self.ARGV]) == 4
        assert "outgrew its ceiling of 20" in capsys.readouterr().err


class TestRelation:
    def test_sample_and_check_round_trip(self, capsys, chain_file, tmp_path):
        out_path = str(tmp_path / "rel.jsonl")
        assert main(["relation", "--calc", chain_file,
                     "--premise", "P", "--premise", "(P -> Q)",
                     "--max-premises", "2", "--out", out_path]) == 0
        assert f"written to {out_path}" in capsys.readouterr().out

        assert main(["relation-check", "--relation", out_path,
                     "--m", "2", "--kind", "bounded"]) == 0
        assert "verdict: holds" in capsys.readouterr().out

        assert main(["relation-check", "--relation", out_path,
                     "--m", "1", "--kind", "bounded"]) == 1
        assert "verdict: fails" in capsys.readouterr().out

    def test_inline_records_without_out(self, capsys, chain_file):
        assert main(["relation", "--calc", chain_file, "--premise", "P",
                     "--max-premises", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("pairs: ")
        assert '"conclusion"' in out

    def test_max_premises_beyond_the_pool_stops_at_the_pool(self):
        """Subsets larger than the pool do not exist, so a huge bound ends at
        once with the report of a bound equal to the pool size."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        base = [sys.executable, "-m", "metalogic.cli", "relation",
                "--calc", "builtin:kleene", "--premise", "P", "--json",
                "--max-premises"]
        reports = [subprocess.run(base + [bound], capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONPATH=src), timeout=60)
                   for bound in ("99999999999999999999", "1")]
        assert [r.returncode for r in reports] == [0, 0]
        assert json.loads(reports[0].stdout) == json.loads(reports[1].stdout)

    def test_budget_exhaustion_exits_4(self, capsys, chain_file):
        assert main(["relation", "--calc", chain_file, "--premise", "P",
                     "--max-premises", "1", "--budget", "1"]) == 4
        assert capsys.readouterr().out.startswith("pairs: ")

    def test_missing_relation_file_exits_3(self, capsys, tmp_path):
        assert main(["relation-check", "--relation",
                     str(tmp_path / "missing.jsonl"), "--m", "1",
                     "--kind", "bounded"]) == 3
        assert "No such file" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["[1, 2]", '"x"'], ids=["list", "string"])
    def test_a_record_that_is_not_an_object_exits_3(self, capsys, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        assert main(["relation-check", "--relation", str(path), "--m", "1",
                     "--kind", "bounded"]) == 3
        assert capsys.readouterr().err == (
            f"metalogic: error: {path}: bad relation record on line 1: "
            f"expected a JSON object\n")

    def test_unwritable_out_path_exits_3(self, capsys, chain_file, tmp_path):
        assert main(["relation", "--calc", chain_file, "--premise", "P",
                     "--max-premises", "1",
                     "--out", str(tmp_path / "missing" / "r.jsonl")]) == 3
        assert "No such file" in capsys.readouterr().err

    def test_functionally_bounded_via_the_empty_premise_set(
            self, capsys, chain_file, tmp_path):
        out_path = str(tmp_path / "rel.jsonl")
        main(["relation", "--calc", chain_file, "--premise", "P",
              "--max-premises", "1", "--out", out_path])
        capsys.readouterr()
        assert main(["relation-check", "--relation", out_path,
                     "--m", "1", "--kind", "functionally_bounded"]) == 0


class TestAutomaton:
    def test_interchange_text_by_default(self, capsys, chain_file):
        assert main(["automaton", "--calc", chain_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("states\t")
        assert "trans\tq0\teps\t" in out

    def test_accept_and_reject(self, capsys, chain_file):
        assert main(["automaton", "--calc", chain_file, "--accept", "R"]) == 0
        assert "accepted: True" in capsys.readouterr().out
        assert main(["automaton", "--calc", chain_file, "--accept", "Z"]) == 1
        assert "accepted: False" in capsys.readouterr().out

    def test_language_listing_equals_the_body(self, capsys, chain_file):
        assert main(["automaton", "--calc", chain_file, "--json",
                     "--language-upto", "8"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["language"] == ["(P -> Q)", "(Q -> R)", "P", "Q", "R"]

    def test_deterministic_variant(self, capsys, chain_file):
        assert main(["automaton", "--calc", chain_file,
                     "--deterministic", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["deterministic"] is True
        assert "eps" not in report["automaton"]

    def test_negative_language_bound_exits_3(self, capsys, chain_file):
        assert main(["automaton", "--calc", chain_file,
                     "--language-upto", "-1"]) == 3

    def test_accept_and_language_listing_exclude_each_other(self, capsys):
        assert main(["automaton", "--calc", "builtin:free,3", "--accept", "~~P",
                     "--language-upto", "12"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("argument --language-upto: not allowed with argument --accept"
                in captured.err)


class TestHarness:
    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 3

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert main(["transmogrify"]) == 3

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("parse", "enum-lang", "enum-body", "derive", "stages",
                     "compare", "check", "relation", "relation-check",
                     "automaton"):
            assert f"    {name} " in out

    def test_machine_reports_are_byte_stable(self, capsys, chain_file):
        argv = ["enum-body", "--json", "--calc", chain_file]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_bounds_flags_override_file_bounds(self, capsys, tmp_path):
        data = dict(CHAIN, bounds={"max_stage": 1})
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        # the file's stage cap stops the run early; the flag lifts it
        assert main(["enum-body", "--calc", str(path)]) == 2
        capsys.readouterr()
        assert main(["enum-body", "--calc", str(path),
                     "--max-stage", "4"]) == 0


FILE_BOUNDS = {"max_stage": 3, "max_formula_size": 9, "node_budget": 1000,
               "instantiation_pool_size": 2}


@pytest.mark.parametrize("flag, field, value", [
    ("--max-stage", "max_stage", 5),
    ("--max-size", "max_formula_size", 11),
    ("--budget", "node_budget", 999),
    ("--pool-size", "instantiation_pool_size", 4),
])
def test_each_bounds_flag_overrides_exactly_its_field(capsys, tmp_path, flag,
                                                      field, value):
    path = tmp_path / "bounded.json"
    path.write_text(json.dumps(dict(CHAIN, bounds=FILE_BOUNDS)),
                    encoding="utf-8")
    main(["enum-body", "--json", "--calc", str(path)])
    assert json.loads(capsys.readouterr().out)["bounds"] == FILE_BOUNDS
    main(["enum-body", "--json", "--calc", str(path), flag, str(value)])
    report = json.loads(capsys.readouterr().out)
    assert report["bounds"] == dict(FILE_BOUNDS, **{field: value})


class TestSharedParser:
    """main reuses one parser; no call may leak state into the next."""

    def _report(self, capsys, argv, fresh):
        if fresh:
            cli._build_parser.cache_clear()
        code = main(argv)
        return code, capsys.readouterr().out

    @pytest.mark.parametrize("first, second", [
        (["--property", "consistent-with", "--member", "R",
          "--member", "Q"],
         ["--property", "consistent-with", "--member", "(R -> P)"]),
        (["--property", "complete-wrt-rules", "--target", "R",
          "--target", "(P -> R)"],
         ["--property", "complete-wrt-rules", "--target", "Q"]),
    ], ids=["member", "target"])
    def test_consecutive_calls_match_lone_calls(self, capsys, chain_file,
                                                 first, second):
        first = ["check", "--json", "--calc", chain_file] + first
        second = ["check", "--json", "--calc", chain_file] + second
        alone = [self._report(capsys, argv, fresh=True)
                 for argv in (first, second)]
        cli._build_parser.cache_clear()
        for order in ((first, second), (second, first)):
            for argv in order:
                expected = alone[0] if argv is first else alone[1]
                assert self._report(capsys, argv, fresh=False) == expected
        assert alone[0] != alone[1]

    def test_one_parser_per_process_and_none_at_import(self):
        assert cli._build_parser() is cli._build_parser()
        src = os.path.dirname(os.path.dirname(cli.__file__))
        probe = ("import metalogic.cli as cli; "
                 "print(cli._build_parser.cache_info().currsize)")
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), check=True)
        assert result.stdout.strip() == "0"


# Argv fuzzing: every subcommand, every bounds flag from -1 to a small cap,
# valid and broken calculi, and well- and ill-formed formula texts. The caps
# keep each draw to a small body.
FUZZ_BOUNDS = (("--max-size", 7), ("--max-stage", 3), ("--budget", 2000),
               ("--pool-size", 2))
FUZZ_BUILTINS = ("builtin:kleene", "builtin:church_p1", "builtin:shoenfield_fragment",
                 "builtin:free,3", "builtin:free,0", "builtin:nope",
                 "builtin:lv,kleene,nope", "builtin:lv,kleene")
FUZZ_FORMULAS = ("P", "(P -> Q)", "~~P", "(p -> q)", "x = x", "R(x, g(c))",
                 "(P ->", "P P", "", "[P -> Q)", "->", "forall x P", "~", "P <- Q")
FUZZ_SUBCOMMANDS = ("parse", "enum-lang", "enum-body", "derive", "stages", "compare",
                    "check", "relation", "relation-check", "automaton")


@st.composite
def argvs(draw, calc_file, relation_file):
    def pick(options):
        return draw(st.sampled_from(options))

    def formula():
        return pick(FUZZ_FORMULAS)

    def maybe(*flag_and_value):
        return list(flag_and_value) if draw(st.booleans()) else []

    calcs = FUZZ_BUILTINS + (calc_file,)
    command = pick(FUZZ_SUBCOMMANDS)
    argv = [command] + maybe("--json")
    if command not in ("parse", "compare", "relation-check"):
        argv += ["--calc", pick(calcs)]
    if command not in ("parse", "relation-check"):
        # one flag at a time may go below 1, so that most draws get past the bounds
        low_flag = pick([flag for flag, _ in FUZZ_BOUNDS] + [None])
        for flag, cap in FUZZ_BOUNDS:
            argv += [flag, str(draw(st.integers(-1 if flag == low_flag else 1, cap)))]
        if draw(st.integers(0, 3)) == 0:
            argv += ["--pool-vars", pick(("P", "P,Q", "p,q", "P,P", ","))]
    if command == "parse":
        argv += ["--calc", pick(calcs), formula()]
    elif command == "enum-lang":
        argv += ["--size", str(draw(st.integers(-1, 7)))]
    elif command == "derive":
        argv += ["--goal", formula()]
    elif command == "compare":
        argv += ["--kind", pick(COMPARISON_KINDS), "--calc-a", pick(calcs),
                 "--calc-b", pick(calcs)]
        argv += maybe("--map", pick(translation_map_names()))
    elif command == "check":
        argv += ["--property", pick(PROPERTY_NAMES)]
        argv += maybe("--member", formula()) + maybe("--pattern", formula())
        argv += maybe("--target", formula()) + maybe("--strict")
    elif command == "relation":
        argv += ["--premise", formula(), "--max-premises", str(draw(st.integers(-1, 2)))]
        argv += maybe("--premise", formula())
    elif command == "relation-check":
        argv += ["--relation", pick((relation_file, relation_file + ".missing")),
                 "--m", str(draw(st.integers(-1, 3))), "--kind", pick(BOUNDEDNESS_KINDS)]
    elif command == "automaton":
        argv += maybe("--deterministic")
        argv += pick((["--accept", formula()], ["--language-upto",
                                                 str(draw(st.integers(-1, 12)))], []))
    return argv


@pytest.fixture(scope="module")
def relation_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("relation") / "relation.jsonl"
    path.write_text('{"conclusion": "Q", "premises": ["P", "(P -> Q)"]}\n'
                    '{"conclusion": "P", "premises": ["P"]}\n', encoding="utf-8")
    return str(path)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_any_drawn_argv_ends_in_an_exit_code(staged_file, relation_file, data):
    """Whatever the argv, main raises nothing and returns a documented code."""
    argv = data.draw(argvs(staged_file, relation_file), label="argv")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in range(5)
