"""Verdicts, calculus comparison, the property battery, finite relations."""

import re

import pytest
from dataclasses import replace

from metalogic import (
    Bounds,
    Calculus,
    FiniteRelation,
    IMPLIES,
    MetalogicError,
    RuleParameterError,
    TranslationMap,
    Verdict,
    check_boundedness,
    check_property,
    compare_calculi,
    make_rule,
    parse_formula,
    print_formula,
    propositional_alphabet,
    relation_from_calculus,
    relation_from_lines,
    relation_to_lines,
    rule_system,
    translation_map,
)
from conftest import small_bounds

PQ = propositional_alphabet(("P", "Q"))


def wff(text):
    return parse_formula(text, PQ)


def mp_calculus(*axiom_texts, name="test"):
    return Calculus(
        alphabet=PQ,
        axioms=tuple(wff(t) for t in axiom_texts),
        rules=rule_system(make_rule("modus_ponens")),
        name=name,
    )


class TestVerdict:
    def test_three_outcomes(self):
        assert Verdict("holds", 1).is_holds
        assert Verdict("fails", 1).is_fails
        assert Verdict("inconclusive", 1).is_inconclusive

    def test_truthiness_is_refused(self):
        verdict = Verdict("holds", "evidence")
        with pytest.raises(TypeError):
            bool(verdict)
        with pytest.raises(TypeError):
            if verdict:  # pragma: no cover
                pass


class TestCompare:
    def test_identical_calculi_hold(self):
        verdict = compare_calculi(
            "logical", mp_calculus("P"), mp_calculus("P"), small_bounds()
        )
        assert verdict.is_holds

    def test_difference_witnessed_when_saturated(self):
        verdict = compare_calculi(
            "logical", mp_calculus("P", "Q"), mp_calculus("P"), small_bounds()
        )
        assert verdict.is_fails
        assert print_formula(verdict.evidence) == "Q"

    def test_backward_difference_needs_identity(self):
        verdict = compare_calculi(
            "logical", mp_calculus("P"), mp_calculus("P", "Q"), small_bounds()
        )
        assert verdict.is_fails  # identity translation, both saturated

    def test_a_map_named_identity_is_still_a_translation(self):
        # it sends P to Q, so P missing from the image of C's body proves
        # nothing: P is an axiom of C
        p, q = wff("P"), wff("Q")
        identity = rule_system(make_rule("identity"))
        c = Calculus(alphabet=PQ, axioms=(p,), rules=identity)
        d = Calculus(alphabet=PQ, axioms=(p, q), rules=identity)
        swap = TranslationMap("identity", PQ, PQ, lambda f: q if f == p else f)
        verdict = compare_calculi("logical", c, d, small_bounds(), swap)
        assert verdict.is_inconclusive
        assert verdict.evidence["undecided"] == ["P"]

    def test_forward_witness_definitive_even_when_first_is_capped(self):
        chain = mp_calculus("P", "(P -> Q)")
        verdict = compare_calculi(
            "logical", chain, mp_calculus("P"),
            small_bounds(max_stage=1),
        )
        # the second body saturated without (P -> Q), so the difference
        # stands no matter how far the first enumeration got
        assert verdict.is_fails

    def test_difference_between_capped_bodies_is_inconclusive(self):
        # both enumerations stop at the stage cap with growth pending, so
        # neither side's missing formula is provably missing
        left = mp_calculus("P", "(P -> Q)")
        right = mp_calculus("P", "(P -> (Q & Q))")
        verdict = compare_calculi(
            "logical", left, right, small_bounds(max_stage=1)
        )
        assert verdict.is_inconclusive
        assert verdict.evidence["statuses"] == ("stage-cap-hit", "stage-cap-hit")

    def test_axiomatic_requires_shared_alphabet(self, kleene, church_p1):
        with pytest.raises(MetalogicError):
            compare_calculi("axiomatic", kleene, church_p1)

    def test_axiomatic_fails_fast_on_rule_mismatch(self):
        plain = mp_calculus("P")
        no_rules = replace(plain, rules=rule_system())
        verdict = compare_calculi("axiomatic", plain, no_rules, small_bounds())
        assert verdict.is_fails
        assert verdict.evidence == ("modus_ponens",)

    def test_algorithmic_compares_realized_axioms(self):
        verdict = compare_calculi(
            "algorithmic", mp_calculus("P", "(P -> Q)"), mp_calculus("P", "Q"),
            small_bounds(),
        )
        assert verdict.is_fails

    def test_translation_endpoints_enforced(self, church_p1, church_p2):
        with pytest.raises(MetalogicError):
            compare_calculi("logical", church_p1, church_p2,
                            small_bounds(), translation_map("p2_to_p1"))

    def test_church_pair_is_undecided_within_default_bounds(self, church_p1, church_p2):
        verdict = compare_calculi("logical", church_p2, church_p1,
                                  Bounds(), translation_map("p2_to_p1"))
        assert verdict.is_inconclusive

    def test_unknown_kind(self):
        with pytest.raises(RuleParameterError):
            compare_calculi("moral", mp_calculus("P"), mp_calculus("P"))

    def test_algorithmic_difference_in_truncated_streams_is_inconclusive(self):
        # a budget of one keeps one realized axiom per side, Q against P
        verdict = compare_calculi("algorithmic", mp_calculus("Q", "P"),
                                  mp_calculus("P", "Q"), small_bounds(node_budget=1))
        assert verdict.is_inconclusive
        assert verdict.detail.endswith("the difference is not definitive")
        assert verdict.evidence == {"undecided": ["P", "Q"]}

    def test_algorithmic_agreement_in_truncated_streams_is_inconclusive(self):
        verdict = compare_calculi("algorithmic", mp_calculus("P", "Q"),
                                  mp_calculus("P", "Q"), small_bounds(node_budget=1))
        assert verdict.is_inconclusive
        assert verdict.detail == "realized axiom streams were budget-truncated"

    def test_logical_across_alphabets_needs_a_translation_map(self, kleene, church_p1):
        with pytest.raises(MetalogicError, match="a translation map is required"):
            compare_calculi("logical", kleene, church_p1, small_bounds())


class TestProperties:
    @pytest.mark.parametrize("name", ["admissible", "complete-wrt-map"])
    def test_a_language_over_the_node_budget_is_inconclusive(self, kleene, name):
        verdict = check_property(kleene, name, Bounds(2, 9, 50, 1))
        assert verdict.is_inconclusive
        assert verdict.detail == ("the language itself exceeds the node budget "
                                  "at this size cap")

    def test_completely_closed_is_inconclusive_through_an_oversized_axiom(self):
        calculus = mp_calculus("P", "(P -> Q)", "(P -> (Q -> (P -> Q)))")
        verdict = check_property(calculus, "completely-closed",
                                 small_bounds(max_formula_size=5))
        assert verdict.is_inconclusive
        assert verdict.detail.startswith("closed-wrt-axioms: some declared axioms "
                                         "exceed the size cap")
        assert verdict.evidence == {"oversized_axioms": ["(P -> (Q -> (P -> Q)))"]}

    def test_admissible_holds_for_small_saturated_body(self):
        verdict = check_property(mp_calculus("P"), "admissible",
                                 small_bounds(max_formula_size=3))
        assert verdict.is_holds

    def test_admissible_fails_when_body_covers_language(self):
        # the free calculus derives every formula up to its cap
        from metalogic import free_calculus
        calculus = free_calculus(size_cap=3, alphabet=PQ)
        verdict = check_property(calculus, "admissible",
                                 small_bounds(max_formula_size=3))
        assert verdict.is_fails

    def test_consistent_flags_structural_contradiction(self):
        verdict = check_property(mp_calculus("(P & ~P)"), "consistent",
                                 small_bounds(max_formula_size=6))
        assert verdict.is_fails

    def test_consistent_strict_uses_semantics(self):
        # ~(P -> P) is no structural contradiction but is unsatisfiable
        verdict = check_property(
            mp_calculus("~(P -> P)"), "consistent",
            small_bounds(max_formula_size=6), strict=True,
        )
        assert verdict.is_fails

    def test_consistent_strict_leaves_the_atom_cap_to_the_tautology_check(self):
        # 20 variables plus the constant f: within is_tautology's cap, which
        # counts no constants, so the contradiction is found
        names = tuple(f"P{i}" for i in range(1, 21))
        alphabet = propositional_alphabet(names, constants=("f",))
        rest = names[1]
        for name in names[2:] + ("f",):
            rest = f"({rest} & {name})"
        axiom = parse_formula(f"((P1 & ~P1) & {rest})", alphabet)
        calculus = Calculus(alphabet=alphabet, axioms=(axiom,),
                            rules=rule_system(make_rule("identity")))
        verdict = check_property(
            calculus, "consistent", small_bounds(max_formula_size=100),
            strict=True,
        )
        assert verdict.is_fails
        assert verdict.evidence == axiom
        assert verdict.detail.startswith("semantically unsatisfiable member")

    def test_consistent_strict_skips_a_theorem_over_the_atom_cap(self):
        # 21 variables: is_tautology refuses the truth table, so the
        # unsatisfiable member is skipped and the saturated body holds
        names = tuple(f"P{i}" for i in range(1, 22))
        alphabet = propositional_alphabet(names)
        rest = names[1]
        for name in names[2:]:
            rest = f"({rest} & {name})"
        axiom = parse_formula(f"((P1 & ~P1) & {rest})", alphabet)
        calculus = Calculus(alphabet=alphabet, axioms=(axiom,),
                            rules=rule_system(make_rule("identity")))
        verdict = check_property(
            calculus, "consistent", small_bounds(max_formula_size=100),
            strict=True,
        )
        assert verdict.is_holds
        assert verdict.evidence == {"theorems_scanned": 1}

    def test_consistent_holds_on_saturated_clean_body(self):
        verdict = check_property(mp_calculus("P"), "consistent", small_bounds())
        assert verdict.is_holds

    def test_consistent_with_members(self):
        verdict = check_property(
            mp_calculus("P", "(P -> Q)"), "consistent-with",
            small_bounds(), members=[wff("Q")],
        )
        assert verdict.is_fails
        assert print_formula(verdict.evidence) == "Q"

    def test_consistent_with_needs_exactly_one_parameter(self):
        with pytest.raises(RuleParameterError):
            check_property(mp_calculus("P"), "consistent-with", small_bounds())

    @pytest.mark.parametrize("name, params, message", [
        ("consistent-with", {"pattern": "(phi -> phi)"}, "pattern must be a schema"),
        ("complete-wrt-rules", {"rules": rule_system(make_rule("modus_ponens"))},
         "complete-wrt-rules needs rules (a rule system) and targets"),
    ], ids=["pattern-not-a-schema", "no-targets"])
    def test_parameter_rejections(self, name, params, message):
        with pytest.raises(RuleParameterError, match=re.escape(message)):
            check_property(mp_calculus("P"), name, small_bounds(), **params)

    def test_complete_wrt_map_on_free_body(self):
        from metalogic import free_calculus
        calculus = free_calculus(size_cap=3, alphabet=PQ)
        verdict = check_property(calculus, "complete-wrt-map",
                                 small_bounds(max_formula_size=2))
        assert verdict.is_holds

    def test_complete_wrt_map_fails_on_gap(self):
        verdict = check_property(
            mp_calculus("P"), "complete-wrt-map",
            small_bounds(max_formula_size=2),
        )
        assert verdict.is_fails

    def test_complete_wrt_rules(self):
        calculus = mp_calculus("P", "(P -> Q)")
        verdict = check_property(
            calculus, "complete-wrt-rules", small_bounds(),
            rules=calculus.rules, targets=[wff("Q")],
        )
        assert verdict.is_holds
        missing = check_property(
            calculus, "complete-wrt-rules", small_bounds(),
            rules=calculus.rules, targets=[wff("(Q & Q)")],
        )
        assert missing.is_fails

    def test_transitively_closed_on_saturated_body(self):
        verdict = check_property(mp_calculus("P", "(P -> Q)"),
                                 "transitively-closed", small_bounds())
        assert verdict.is_holds

    def test_closed_wrt_rules_fails_when_rule_unused(self):
        verdict = check_property(mp_calculus("P"), "closed-wrt-rules",
                                 small_bounds())
        assert verdict.is_fails
        assert verdict.evidence == "modus_ponens"

    def test_closed_wrt_rules_holds_when_every_rule_fires(self):
        verdict = check_property(mp_calculus("P", "(P -> Q)"),
                                 "closed-wrt-rules", small_bounds())
        assert verdict.is_holds

    def test_closed_wrt_axioms_notes_oversized_axioms(self):
        verdict = check_property(
            mp_calculus("(P -> (Q -> (P & Q)))"), "closed-wrt-axioms",
            small_bounds(max_formula_size=3),
        )
        assert verdict.is_inconclusive

    def test_closed_wrt_axioms_holds_normally(self):
        verdict = check_property(mp_calculus("P"), "closed-wrt-axioms",
                                 small_bounds())
        assert verdict.is_holds

    def test_completely_closed_conjunction(self):
        verdict = check_property(mp_calculus("P", "(P -> Q)"),
                                 "completely-closed", small_bounds())
        assert verdict.is_holds

    def test_unknown_property(self):
        with pytest.raises(RuleParameterError):
            check_property(mp_calculus("P"), "decidable", small_bounds())

    def test_leftover_parameters_rejected(self):
        with pytest.raises(RuleParameterError):
            check_property(mp_calculus("P"), "consistent", small_bounds(),
                           wrong_knob=1)


class TestFiniteRelations:
    def test_carrier_enforced(self):
        with pytest.raises(RuleParameterError):
            FiniteRelation(frozenset({"a"}), frozenset({(frozenset({"a"}), "b")}))

    def test_premise_sets_deduplicate(self):
        relation = FiniteRelation(
            frozenset({"a", "b", "z"}),
            {(("a", "b"), "z"), (("b", "a"), "z")},
        )
        assert len(relation) == 1

    def test_range_tokens(self):
        relation = FiniteRelation(
            frozenset({"a", "b", "z"}),
            {(frozenset({"a"}), "z"), (frozenset({"b"}), "z")},
        )
        assert relation.range_tokens() == frozenset({"z"})

class TestBoundedness:
    def build(self, *pairs):
        carrier = set()
        normalized = set()
        for premises, conclusion in pairs:
            carrier.update(premises)
            carrier.add(conclusion)
            normalized.add((frozenset(premises), conclusion))
        return FiniteRelation(frozenset(carrier), frozenset(normalized))

    def test_bounded(self):
        relation = self.build((("a",), "z"), (("a", "b"), "w"))
        assert check_boundedness(relation, 2, "bounded").is_holds
        assert check_boundedness(relation, 1, "bounded").is_fails

    def test_strict(self):
        uniform = self.build((("a", "b"), "z"), (("b", "c"), "w"))
        assert check_boundedness(uniform, 2, "strict").is_holds
        mixed = self.build((("a",), "z"), (("b", "c"), "w"))
        assert check_boundedness(mixed, 2, "strict").is_fails

    def test_functionally_bounded(self):
        # z needs three premises in one pair but only one in another
        relation = self.build((("a", "b", "c"), "z"), (("a",), "z"))
        assert check_boundedness(relation, 1, "functionally_bounded").is_holds
        assert check_boundedness(relation, 2, "bounded").is_fails

    def test_functionally_strict(self):
        relation = self.build((("a", "b"), "z"), (("a",), "z"), (("b", "c"), "w"))
        assert check_boundedness(relation, 2, "functionally_strict").is_holds
        lone = self.build((("a",), "z"))
        assert check_boundedness(lone, 2, "functionally_strict").is_fails

    def test_parameter_validation(self):
        relation = self.build((("a",), "z"))
        for m in (0, True, 1.0, "1"):
            with pytest.raises(RuleParameterError):
                check_boundedness(relation, m, "bounded")
        with pytest.raises(RuleParameterError):
            check_boundedness(relation, 1, "sideways")


class TestRelationSampling:
    def test_premises_seed_their_own_closure(self):
        sample = relation_from_calculus(
            mp_calculus(), [wff("P"), wff("(P -> Q)")], 2, small_bounds()
        )
        pairs = sample.relation.pairs
        both = frozenset({wff("P"), wff("(P -> Q)")})
        assert (both, wff("Q")) in pairs
        assert (both, wff("P")) in pairs
        assert (frozenset({wff("P")}), wff("P")) in pairs

    def test_statuses_reported_per_subset(self):
        sample = relation_from_calculus(
            mp_calculus(), [wff("P")], 1, small_bounds()
        )
        assert len(sample.statuses) == 2  # empty set and {P}
        assert all(status == "saturated-within-size-cap"
                   for _, status in sample.statuses)

    def test_axioms_appear_under_every_subset(self):
        sample = relation_from_calculus(
            mp_calculus("Q"), [wff("P")], 1, small_bounds()
        )
        assert (frozenset(), wff("Q")) in sample.relation.pairs
        assert (frozenset({wff("P")}), wff("Q")) in sample.relation.pairs

    @pytest.mark.parametrize("max_premises", [-1, True, 1.5, "2"])
    def test_max_premises_must_be_an_integer(self, max_premises):
        pool = [wff("P"), wff("Q"), wff("(P -> Q)")]
        with pytest.raises(RuleParameterError, match="max_premises"):
            relation_from_calculus(mp_calculus(), pool, max_premises,
                                   small_bounds())


class TestRelationInterchange:
    def test_round_trip(self):
        sample = relation_from_calculus(
            mp_calculus(), [wff("P"), wff("(P -> Q)")], 2, small_bounds()
        )
        text = relation_to_lines(sample.relation)
        parsed = relation_from_lines(text)
        assert len(parsed) == len(sample.relation)
        assert relation_to_lines(parsed) == text  # fixpoint on string tokens

    def test_empty_relation_serializes_empty(self):
        empty = FiniteRelation(frozenset(), frozenset())
        assert relation_to_lines(empty) == ""
        assert len(relation_from_lines("")) == 0

    def test_blank_lines_are_skipped_and_still_counted(self):
        good = '{"conclusion": "z", "premises": ["a"]}'
        other = '{"conclusion": "a", "premises": []}'
        parsed = relation_from_lines("\n" + good + "\n   \n\t\n" + other + "\n\n")
        assert parsed.pairs == {(frozenset({"a"}), "z"), (frozenset(), "a")}
        with pytest.raises(MetalogicError, match="line 4"):
            relation_from_lines(good + "\n\n \n" + '{"oops": 1}')

    def test_bad_record_reports_line_number(self):
        good = '{"conclusion": "z", "premises": ["a"]}'
        with pytest.raises(MetalogicError) as err:
            relation_from_lines(good + "\n" + '{"oops": 1}')
        assert "line 2" in str(err.value)

    def test_record_nested_past_the_decoder_reports_line_number(self):
        good = '{"conclusion": "z", "premises": ["a"]}'
        with pytest.raises(MetalogicError, match="line 2: maximum recursion"):
            relation_from_lines(good + "\n" + "[" * 100_000 + "]" * 100_000)

    @pytest.mark.parametrize("line", ["[1, 2]", '"x"', "3", "null"],
                             ids=["list", "string", "number", "null"])
    def test_a_record_that_is_not_an_object_is_named_so(self, line):
        with pytest.raises(MetalogicError, match=re.escape(
                "bad relation record on line 1: expected a JSON object")):
            relation_from_lines(line)

    def test_non_string_tokens_rejected(self):
        with pytest.raises(MetalogicError):
            relation_from_lines('{"conclusion": 3, "premises": []}')
