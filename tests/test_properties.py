"""Randomized invariants: the properties that hold for every input, checked
with hypothesis rather than hand-picked cases."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from metalogic import (
    AND,
    BUDGET_EXCEEDED,
    IMPLIES,
    NOT,
    OR,
    SATURATED,
    Atom,
    Binary,
    Calculus,
    FiniteRelation,
    Negation,
    RuleJustification,
    apply_rule,
    canonical_key,
    check_boundedness,
    consequence_step,
    enumerate_body,
    enumerate_wffs,
    inference_closure,
    justification_premises,
    make_rule,
    nfa_accepts,
    nfa_language_upto,
    build_body_automaton,
    build_deterministic_body_automaton,
    parse_formula,
    print_formula,
    propositional_alphabet,
    relation_from_lines,
    relation_to_lines,
    rule_system,
)

from conftest import small_bounds

ATOMS = ("P", "Q")
PQ = propositional_alphabet(ATOMS)
MP = rule_system(make_rule("modus_ponens"))


def formulas(max_leaves=10):
    return st.recursive(
        st.sampled_from(ATOMS).map(Atom),
        lambda sub: st.one_of(
            sub.map(Negation),
            st.builds(Binary, st.sampled_from((AND, OR, IMPLIES)), sub, sub),
        ),
        max_leaves=max_leaves,
    )


def node_count(formula):
    if isinstance(formula, Atom):
        return 1
    if isinstance(formula, Negation):
        return 1 + node_count(formula.operand)
    return 1 + node_count(formula.left) + node_count(formula.right)


class TestSyntaxInvariants:
    @given(formulas())
    def test_parse_inverts_print(self, formula):
        assert parse_formula(print_formula(formula), PQ) == formula

    @given(formulas())
    def test_size_counts_nodes(self, formula):
        assert formula.size == node_count(formula)

    @given(st.integers(min_value=1, max_value=5))
    def test_enumeration_is_sized_sorted_and_nested(self, cap):
        single = propositional_alphabet(("P",), connectives=(NOT, IMPLIES))
        smaller = enumerate_wffs(single, cap)
        larger = enumerate_wffs(single, cap + 1)
        assert all(f.size <= cap for f in smaller)
        keys = [canonical_key(f) for f in smaller]
        assert keys == sorted(set(keys))
        assert set(smaller) <= set(larger)
        for f in smaller:
            assert parse_formula(print_formula(f), single) == f


def axiom_lists():
    return st.lists(formulas(max_leaves=6), min_size=1, max_size=5,
                    unique=True)


def small_calculus(axioms):
    return Calculus(alphabet=PQ, axioms=tuple(axioms), rules=MP)


class TestBodyInvariants:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(axiom_lists())
    def test_stages_are_cumulative_and_exhaustive(self, axioms):
        body = enumerate_body(small_calculus(axioms), small_bounds())
        for earlier, later in zip(body.stage_sets, body.stage_sets[1:]):
            assert earlier <= later
        assert body.stage_sets[-1] == set(body.theorems)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(axiom_lists())
    def test_justifications_rest_on_earlier_stages(self, axioms):
        body = enumerate_body(small_calculus(axioms), small_bounds())
        mp = make_rule("modus_ponens")
        for theorem in body.theorems:
            stage = body.stage_of(theorem)
            justification = body.justification_of(theorem)
            premises = justification_premises(justification)
            for premise in premises:
                assert premise in body
                assert body.stage_of(premise) < stage
            if isinstance(justification, RuleJustification):
                assert theorem in apply_rule(mp, premises)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(axiom_lists())
    def test_axioms_under_the_cap_are_theorems(self, axioms):
        bounds = small_bounds()
        body = enumerate_body(small_calculus(axioms), bounds)
        if body.status == BUDGET_EXCEEDED:
            return
        for axiom in axioms:
            if axiom.size <= bounds.max_formula_size:
                assert axiom in body

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(axiom_lists(), axiom_lists())
    def test_bodies_grow_with_their_axioms(self, base, extra):
        bounds = small_bounds()
        small = enumerate_body(small_calculus(base), bounds)
        large = enumerate_body(small_calculus(set(base) | set(extra)), bounds)
        if BUDGET_EXCEEDED in (small.status, large.status):
            return
        assert set(small.theorems) <= set(large.theorems)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(formulas(max_leaves=6), min_size=1, max_size=4,
                    unique=True))
    def test_one_step_consequence_is_within_the_closure(self, premises):
        bounds = small_bounds(max_stage=3)
        capped = [p for p in premises
                  if p.size <= bounds.max_formula_size]
        if not capped:
            return
        step = consequence_step(MP, capped,
                                size_cap=bounds.max_formula_size,
                                node_budget=bounds.node_budget)
        closure = inference_closure(MP, capped, bounds)
        if closure.status == BUDGET_EXCEEDED:
            return
        for conclusion in step:
            assert conclusion in closure


def string_relations():
    carrier = st.sampled_from("abcde")
    pair = st.tuples(st.frozensets(carrier, max_size=3), carrier)
    return st.lists(pair, max_size=12).map(
        lambda pairs: FiniteRelation(
            frozenset("abcde"), frozenset(pairs))
    )


def brute_force_violation(relation, m, kind):
    """The first pair in ``sorted_pairs`` order that breaks the property,
    or None when it holds."""
    def fits(premises):
        return len(premises) <= m if kind.endswith("bounded") else len(premises) == m

    for premises, conclusion in relation.sorted_pairs():
        if kind in ("bounded", "strict"):
            fine = fits(premises)
        else:
            fine = any(fits(p) for p, c in relation.pairs if c == conclusion)
        if not fine:
            return (premises, conclusion)
    return None


class TestRelationInvariants:
    @given(string_relations(), st.integers(min_value=1, max_value=3),
           st.sampled_from(("bounded", "strict", "functionally_bounded",
                            "functionally_strict")))
    def test_boundedness_matches_brute_force(self, relation, m, kind):
        verdict = check_boundedness(relation, m, kind)
        violation = brute_force_violation(relation, m, kind)
        assert verdict.is_holds == (violation is None)
        assert verdict.is_holds != verdict.is_fails
        if verdict.is_fails:
            assert verdict.evidence == violation

    @given(st.lists(
        st.tuples(
            st.frozensets(st.text(min_size=1, max_size=4), max_size=3),
            st.text(min_size=1, max_size=4),
        ),
        max_size=10,
    ))
    def test_interchange_round_trip(self, raw_pairs):
        tokens = set()
        for premises, conclusion in raw_pairs:
            tokens.update(premises)
            tokens.add(conclusion)
        original = FiniteRelation(frozenset(tokens), frozenset(raw_pairs))
        restored = relation_from_lines(relation_to_lines(original))
        assert restored.pairs == original.pairs
        assert restored.carrier == original.carrier


class TestAutomatonInvariants:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(formulas(max_leaves=5), max_size=6))
    def test_both_acceptors_speak_exactly_the_printed_body(self, body):
        words = {print_formula(f) for f in body}
        longest = max((len(w) for w in words), default=0)
        for build in (build_body_automaton,
                      build_deterministic_body_automaton):
            nfa = build(body)
            assert nfa_language_upto(nfa, longest) == words
            for word in words:
                assert nfa_accepts(nfa, word)
