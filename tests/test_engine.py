"""Staged enumeration, derivations, closure operators."""

import gc
import itertools
import random
import re
import sys
import weakref

import pytest
from dataclasses import replace

from metalogic import (
    AlphabetError,
    Atom,
    AxiomJustification,
    AxiomStage,
    BUDGET_EXCEEDED,
    BoundedBody,
    Bounds,
    BudgetExceededError,
    Calculus,
    Derivation,
    DerivationError,
    DerivationNode,
    GOAL_FOUND,
    IMPLIES,
    InferenceRule,
    Negation,
    PremiseJustification,
    RuleJustification,
    RuleParameterError,
    SATURATED,
    STAGE_CAP_HIT,
    Schema,
    SchemaError,
    SchemaJustification,
    Validator,
    builtin_calculus,
    check_property,
    church_p1_calculus,
    compose,
    consequence_step,
    derive,
    enumerate_body,
    first_order_alphabet,
    inference_closure,
    instantiation_pool,
    kleene_calculus,
    lv_calculus,
    make_rule,
    match_schema,
    parse_formula,
    positional_realization,
    print_formula,
    propositional_alphabet,
    realized_axiom_stream,
    realized_axioms,
    render_justification,
    rule_system,
    schema_instances,
    staged_run,
    validate_derivation,
)
from metalogic import engine
from metalogic.syntax import atom_occurrences, size_vectors
from conftest import small_bounds

CHAIN_ALPHABET = propositional_alphabet(("P", "Q", "R"), connectives=(IMPLIES,))


def chain_calculus():
    """P, P -> Q, Q -> R under modus ponens: saturates in three stages."""
    axioms = tuple(
        parse_formula(t, CHAIN_ALPHABET)
        for t in ("P", "(P -> Q)", "(Q -> R)")
    )
    return Calculus(
        alphabet=CHAIN_ALPHABET,
        axioms=axioms,
        rules=rule_system(make_rule("modus_ponens")),
        name="chain",
    )


class TestBounds:
    def test_defaults(self):
        bounds = Bounds()
        assert (bounds.max_stage, bounds.max_formula_size,
                bounds.node_budget, bounds.instantiation_pool_size) == (4, 25, 200000, 7)

    @pytest.mark.parametrize("field", [
        "max_stage", "max_formula_size", "node_budget", "instantiation_pool_size",
    ])
    def test_each_field_must_be_positive(self, field):
        with pytest.raises(RuleParameterError):
            Bounds(**{field: 0})


class TestCalculusValidation:
    def test_axioms_validated_against_alphabet(self):
        with pytest.raises(AlphabetError):
            Calculus(
                alphabet=CHAIN_ALPHABET,
                axioms=(parse_formula("(P & Q)", propositional_alphabet(("P", "Q"))),),
                rules=rule_system(),
            )

    def test_duplicate_schema_ids_rejected(self, kleene):
        schema = kleene.schemata[0]
        with pytest.raises(SchemaError):
            replace(kleene, schemata=(schema, schema))

    def test_substitution_mode_requires_the_rule(self, church_p1):
        without = rule_system(make_rule("modus_ponens"))
        with pytest.raises(SchemaError):
            replace(church_p1, rules=without)

    def test_rule_connective_requirements_checked(self):
        with pytest.raises(AlphabetError):
            Calculus(
                alphabet=CHAIN_ALPHABET,  # implication only, no disjunction
                rules=rule_system(make_rule("cancellation")),
            )

    def test_undeclared_pool_variable_rejected(self, kleene):
        with pytest.raises(AlphabetError):
            replace(kleene, pool_variables=("Z",))

    @pytest.mark.parametrize("reject, error, message", [
        (lambda: replace(kleene_calculus(), pool_variables=("P", "P")),
         AlphabetError, "pool variable 'P' is listed twice"),
        (lambda: replace(chain_calculus(), schema_mode="lazy"),
         SchemaError, "unknown schema mode: 'lazy'"),
        (lambda: kleene_calculus().schema_by_id("k99"),
         SchemaError, "no schema with id 'k99'"),
        (lambda: kleene_calculus().rule_by_id("cut"),
         RuleParameterError, "no rule with identifier 'cut'"),
        (lambda: positional_realization(kleene_calculus().schemata[1],
                                        propositional_alphabet(("P",))),
         SchemaError, "schema 'k2' has 3 metavariables but the alphabet "
                      "declares only 1 variables"),
        (lambda: replace(builtin_calculus("church_p1"), alphabet=propositional_alphabet(
            ("p",), connectives=(IMPLIES,), constants=("f",))),
         SchemaError, "schema 'p1-1' has 2 metavariables but the alphabet "
                      "declares only 1 variables"),
        (lambda: replace(builtin_calculus("church_p1"), schemata=(
            Schema("negated", Negation(Atom("phi")), ("phi",)),)),
         SchemaError, "schema 'negated': negation is not declared in this alphabet"),
        (lambda: consequence_step(
            rule_system(InferenceRule("counted", 1, lambda premises, context: (),
                                      parameter_kinds=(("n", "int"),))),
            [Atom("P")]),
         RuleParameterError, "rule 'counted' declares unknown parameter kind 'int'"),
    ], ids=["repeated-pool-variable", "schema-mode", "schema-id", "rule-id",
            "positional-realization", "substitution-mode-realization",
            "undeclared-pattern-connective", "parameter-kind"])
    def test_rejections(self, reject, error, message):
        with pytest.raises(error, match=re.escape(message)):
            reject()

    @pytest.mark.parametrize("alphabet, meta", [
        (propositional_alphabet(("P",), constants=("f",)), "P"),
        (propositional_alphabet(("P",), constants=("f",)), "f"),
        (first_order_alphabet(("x",), predicates=(("R", 1),)), "R"),
        (first_order_alphabet(("x",), functions=(("g", 1),)), "g"),
        (first_order_alphabet(("x",)), "x"),
    ], ids=["variable", "constant", "predicate", "function",
            "individual-variable"])
    def test_metavariable_naming_an_object_symbol_rejected(self, alphabet, meta):
        schema = Schema("clash", Atom(meta), (meta,))
        with pytest.raises(SchemaError,
                           match=f"metavariable '{meta}' collides with an object symbol"):
            Calculus(alphabet=alphabet, schemata=(schema,))


class TestRealizedAxioms:
    def test_positional_realization_follows_priority_order(self, kleene, church_p1):
        k1 = kleene.schema_by_id("k1")
        formula, assignment = positional_realization(k1, kleene.alphabet)
        assert print_formula(formula) == "(P -> (Q -> P))"
        assert dict(assignment) == {
            "phi": parse_formula("P", kleene.alphabet),
            "chi": parse_formula("Q", kleene.alphabet),
        }
        p1_2 = church_p1.schema_by_id("p1-2")
        formula, _ = positional_realization(p1_2, church_p1.alphabet)
        assert print_formula(formula) == "((s -> (p -> q)) -> ((s -> p) -> (s -> q)))"

    def test_published_axiom_triple_realized_exactly(self, church_p1):
        realized = {print_formula(f) for f in realized_axioms(church_p1, Bounds())}
        assert realized == {
            "(p -> (q -> p))",
            "((s -> (p -> q)) -> ((s -> p) -> (s -> q)))",
            "(((p -> f) -> f) -> p)",
        }

    def test_oversized_axioms_are_dropped(self):
        calculus = chain_calculus()
        tight = small_bounds(max_formula_size=1)
        assert [print_formula(f) for f in realized_axioms(calculus, tight)] == ["P"]

    def test_on_demand_instances_come_from_the_pool(self, kleene):
        pooled = replace(kleene, pool_variables=("P",))
        bounds = small_bounds(max_formula_size=5, instantiation_pool_size=1)
        realized = {print_formula(f) for f in realized_axioms(pooled, bounds)}
        assert "(P -> (P -> P))" in realized          # k1 with both slots P
        assert "(~~P -> P)" in realized               # k10
        assert all("Q" not in text for text in realized)

    def test_instance_stream_sizes_never_decrease(self, kleene):
        pooled = replace(kleene, pool_variables=("P", "Q"))
        bounds = small_bounds(max_formula_size=9, instantiation_pool_size=2)
        pool = instantiation_pool(pooled, bounds)
        sizes = [f.size for f, _ in schema_instances(kleene.schemata, pool, 9)]
        assert sizes == sorted(sizes)
        assert sizes and sizes[-1] <= 9

    def test_an_empty_pool_walks_no_size(self, kleene, monkeypatch):
        calls = []
        monkeypatch.setattr(engine, "size_vectors", lambda *args: calls.append(args) or iter(()))
        assert list(schema_instances(kleene.schemata, [], 10**6)) == []
        assert calls == []

    def test_the_stream_stops_at_the_largest_reachable_size(self, kleene, monkeypatch):
        pool = [Atom("P"), Negation(Atom("P"))]
        reach = max(schema.pattern.size
                    + sum(atom_occurrences(schema.pattern)[m] for m in schema.metavariables)
                    for schema in kleene.schemata)
        budgets = []

        def counted(weights, sizes, budget):
            budgets.append(budget)
            return size_vectors(weights, sizes, budget)

        monkeypatch.setattr(engine, "size_vectors", counted)
        stream = list(schema_instances(kleene.schemata, pool, 10**4))
        assert max(f.size for f, _ in stream) == reach
        assert len(budgets) < len(kleene.schemata) * reach
        assert stream == list(schema_instances(kleene.schemata, pool, reach))


class TestEnumerateBody:
    def test_chain_saturates_with_cumulative_stages(self):
        body = enumerate_body(chain_calculus(), small_bounds(max_stage=3))
        assert body.status == SATURATED
        assert body.stage_count == 3
        texts = {print_formula(f) for f in body.theorems}
        assert texts == {"P", "(P -> Q)", "(Q -> R)", "Q", "R"}
        assert body.stage_of(parse_formula("Q", CHAIN_ALPHABET)) == 2
        assert body.stage_of(parse_formula("R", CHAIN_ALPHABET)) == 3
        assert {print_formula(f) for f in body.new_at_stage(3)} == {"R"}

    def test_saturation_detected_at_the_final_allowed_stage(self):
        # the probe pass must run even when stage three is the cap
        body = enumerate_body(chain_calculus(), small_bounds(max_stage=3))
        assert body.status == SATURATED

    def test_stage_cap_reported_when_growth_remains(self):
        body = enumerate_body(chain_calculus(), small_bounds(max_stage=2))
        assert body.status == STAGE_CAP_HIT
        assert parse_formula("R", CHAIN_ALPHABET) not in body

    def test_budget_exceeded_when_commit_would_overflow(self):
        body = enumerate_body(chain_calculus(), small_bounds(node_budget=4))
        assert body.status == BUDGET_EXCEEDED
        assert len(body) == 4

    def test_membership_and_lookup_errors(self):
        body = enumerate_body(chain_calculus(), small_bounds())
        q = parse_formula("Q", CHAIN_ALPHABET)
        assert q in body
        missing = parse_formula("(R -> P)", CHAIN_ALPHABET)
        assert missing not in body
        with pytest.raises(DerivationError):
            body.stage_of(missing)
        with pytest.raises(DerivationError):
            body.derivation_of(missing)

    def test_justifications_record_first_support(self):
        body = enumerate_body(chain_calculus(), small_bounds())
        p = parse_formula("P", CHAIN_ALPHABET)
        q = parse_formula("Q", CHAIN_ALPHABET)
        assert isinstance(body.justification_of(p), AxiomJustification)
        rule_j = body.justification_of(q)
        assert rule_j.rule_id == "modus_ponens"
        assert [print_formula(f) for f in rule_j.premises] == ["P", "(P -> Q)"]

    def test_size_cap_prunes_conclusions(self, kleene):
        pooled = replace(kleene, pool_variables=("P",))
        body = enumerate_body(pooled, small_bounds(max_formula_size=5,
                                                   instantiation_pool_size=1))
        assert all(f.size <= 5 for f in body.theorems)

    def test_the_last_stage_stops_at_its_first_new_conclusion(self, monkeypatch):
        # The whole last layer of this run holds some 80,000 conclusions,
        # none of which the body would admit.
        built = 0
        conclusions = InferenceRule.conclusions

        def counted(rule, premises, context=None):
            nonlocal built
            out = conclusions(rule, premises, context)
            built += len(out)
            return out

        monkeypatch.setattr(InferenceRule, "conclusions", counted)
        calculus = replace(builtin_calculus("church_p2"), pool_variables=("p", "q"))
        body = enumerate_body(calculus, Bounds(3, 17, 200000, 5))
        assert (body.status, body.stage_count, len(body)) == (STAGE_CAP_HIT, 3, 5716)
        assert built < 10000

    def test_printed_keys_only_break_ties_within_one_rule(self, monkeypatch):
        # A printed key for every new in-cap candidate would be 7,041 keys.
        keys = []
        tie_key = engine._tie_key
        monkeypatch.setattr(engine, "_tie_key",
                            lambda *args: keys.append(args) or tie_key(*args))
        calculus = replace(builtin_calculus("church_p2"), pool_variables=("p", "q"))
        body = enumerate_body(calculus, Bounds(3, 17, 200000, 5))
        assert len(body) == 5716
        assert 0 < len(keys) < 3000


class TestMemberEntries:
    """A member maps to a (stage, justification) entry; stage-1 members that
    share a justification object share one entry."""

    BOUNDS = Bounds(3, 15, 20000, 3)

    def kleene_body(self):
        calculus = replace(kleene_calculus(), pool_variables=("P", "R"))
        return calculus, enumerate_body(calculus, self.BOUNDS)

    def test_a_kleene_body_keeps_one_stage_one_entry_per_schema(self):
        calculus, body = self.kleene_body()
        stage_one = [entry for entry in body._members.values() if entry[0] == 1]
        assert len(stage_one) > 10 * len(calculus.schemata)
        assert len({id(entry) for entry in stage_one}) <= len(calculus.schemata)
        assert {entry[1] for entry in stage_one} <= set(calculus.schemata)

    @pytest.mark.parametrize("name", ["kleene", "church_p1", "shoenfield_fragment"])
    def test_run_members_unpack_as_stage_and_justification(self, name):
        calculus = builtin_calculus(name)
        calculus = replace(calculus, pool_variables=calculus.alphabet.variables[:2])
        pool = instantiation_pool(calculus, self.BOUNDS)
        run = engine._saturate(realized_axiom_stream(calculus, self.BOUNDS, pool),
                               calculus.rules, pool, calculus.alphabet.variables,
                               self.BOUNDS)
        closure = engine._saturate(((f, engine.PremiseJustification()) for f in pool),
                                   calculus.rules, pool, (), self.BOUNDS)
        for members in (run.members, closure.members):
            assert members
            for stage, _ in members.values():
                assert type(stage) is int and stage >= 1

    def test_closed_wrt_rules_resolves_no_leaf(self, monkeypatch):
        calls = []
        matched = engine.match_schema
        monkeypatch.setattr(engine, "match_schema",
                            lambda *args: calls.append(args) or matched(*args))
        calculus = replace(kleene_calculus(), pool_variables=("P", "R"))
        verdict = check_property(calculus, "closed-wrt-rules", self.BOUNDS)
        assert verdict.is_holds
        assert calls == []
        body = enumerate_body(calculus, self.BOUNDS)
        body.justification_of(body.new_at_stage(1)[0])
        assert len(calls) == 1

    def test_a_schema_record_is_built_on_each_request(self):
        _, body = self.kleene_body()
        leaf = body.new_at_stage(1)[-1]
        first, second = body.justification_of(leaf), body.justification_of(leaf)
        assert first == second and first is not second
        assert isinstance(first, SchemaJustification)
        derived = body.new_at_stage(2)[0]
        assert body.justification_of(derived) is body.justification_of(derived)


class TestDerivations:
    KLEENE_IDENTITY_PROOF = [
        "(P -> (P -> P))",
        "(P -> ((P -> P) -> P))",
        "((P -> ((P -> P) -> P)) -> ((P -> (P -> P)) -> (P -> P)))",
        "((P -> (P -> P)) -> (P -> P))",
        "(P -> P)",
    ]

    def derive_identity(self, kleene):
        goal = parse_formula("(P -> P)", kleene.alphabet)
        bounds = Bounds(max_stage=5, max_formula_size=21,
                        node_budget=200000, instantiation_pool_size=2)
        return kleene, derive(kleene, goal, bounds)

    def test_identity_proof_matches_the_pinned_derivation(self, kleene):
        _, outcome = self.derive_identity(kleene)
        assert outcome.status == GOAL_FOUND
        nodes = [print_formula(n.formula) for n in outcome.derivation.nodes]
        assert nodes == self.KLEENE_IDENTITY_PROOF

    def test_identity_proof_revalidates(self, kleene):
        _, outcome = self.derive_identity(kleene)
        validate_derivation(outcome.derivation, kleene)

    def test_tampered_stage_detected(self, kleene):
        _, outcome = self.derive_identity(kleene)
        nodes = list(outcome.derivation.nodes)
        nodes[-1] = replace(nodes[-1], stage=nodes[-1].stage + 1)
        with pytest.raises(DerivationError):
            validate_derivation(replace(outcome.derivation, nodes=tuple(nodes)), kleene)

    def test_foreign_axiom_detected(self, kleene):
        _, outcome = self.derive_identity(kleene)
        nodes = list(outcome.derivation.nodes)
        fake = parse_formula("(P -> Q)", kleene.alphabet)
        nodes[0] = replace(nodes[0], formula=fake,
                           justification=AxiomJustification())
        with pytest.raises(DerivationError):
            validate_derivation(replace(outcome.derivation, nodes=tuple(nodes)), kleene)

    def test_schema_citation_must_reinstantiate(self, kleene):
        _, outcome = self.derive_identity(kleene)
        nodes = list(outcome.derivation.nodes)
        justification = nodes[0].justification
        assert isinstance(justification, SchemaJustification)
        wrong = SchemaJustification("k10", justification.assignment)
        nodes[0] = replace(nodes[0], justification=wrong)
        with pytest.raises(DerivationError):
            validate_derivation(replace(outcome.derivation, nodes=tuple(nodes)), kleene)

    def test_goal_outside_alphabet_rejected(self, kleene):
        foreign = parse_formula("(a -> a)", propositional_alphabet(("a",)))
        with pytest.raises(AlphabetError):
            derive(kleene, foreign)

    def test_underivable_goal_reported_saturated(self):
        goal = parse_formula("(R -> P)", CHAIN_ALPHABET)
        outcome = derive(chain_calculus(), goal, small_bounds())
        assert not outcome.found
        assert outcome.status == SATURATED

    def test_out_of_reach_goal_reports_stage_cap(self):
        goal = parse_formula("R", CHAIN_ALPHABET)
        outcome = derive(chain_calculus(), goal, small_bounds(max_stage=2))
        assert not outcome.found
        assert outcome.status == STAGE_CAP_HIT

    def test_body_derivation_lookup_validates(self):
        calculus = chain_calculus()
        body = enumerate_body(calculus, small_bounds())
        derivation = body.derivation_of(parse_formula("R", CHAIN_ALPHABET))
        validate_derivation(derivation, calculus)
        assert derivation.nodes[-1].stage == 3

    def test_a_conclusion_of_no_premises_validates_at_stage_two(self):
        q = parse_formula("Q", CHAIN_ALPHABET)
        calculus = Calculus(
            alphabet=CHAIN_ALPHABET,
            axioms=(parse_formula("P", CHAIN_ALPHABET),),
            rules=rule_system(InferenceRule("always_q", 0, lambda premises, context: (q,))),
        )
        outcome = derive(calculus, q, small_bounds())
        assert outcome.found
        (node,) = [n for n in outcome.derivation.nodes if n.formula == q]
        assert node.stage == 2 and node.premise_indices == ()
        validate_derivation(outcome.derivation, calculus)
        early = replace(outcome.derivation, nodes=tuple(
            replace(n, stage=1) if n is node else n for n in outcome.derivation.nodes))
        with pytest.raises(DerivationError, match="has stage 1, expected 2"):
            validate_derivation(early, calculus)

    @pytest.mark.parametrize("mutate, message", [
        (lambda nodes, leaf, step: {step: replace(nodes[step], premise_indices=(
            step,) + nodes[step].premise_indices[1:])},
         "references node {step1}, which does not precede it"),
        (lambda nodes, leaf, step: {leaf: replace(nodes[leaf], premise_indices=(0,))},
         "node {leaf1} is a leaf but lists premises"),
        (lambda nodes, leaf, step: {leaf: replace(nodes[leaf], stage=2)},
         "node {leaf1} is a leaf but has stage 2"),
        (lambda nodes, leaf, step: {step: replace(nodes[step], premise_indices=tuple(
            reversed(nodes[step].premise_indices)))},
         "node {step1} premise references disagree with its justification"),
        (lambda nodes, leaf, step: {step: replace(nodes[step], formula=nodes[0].formula)},
         "node {step1} is not a conclusion of 'modus_ponens'"),
    ], ids=["forward-reference", "leaf-with-premises", "leaf-at-stage-2",
            "premises-disagree", "not-a-conclusion"])
    def test_mutants_of_a_derivation_are_rejected(self, mutate, message):
        calculus = chain_calculus()
        outcome = derive(calculus, parse_formula("R", CHAIN_ALPHABET), small_bounds())
        nodes = outcome.derivation.nodes
        validate_derivation(outcome.derivation, calculus)
        # the second leaf, and the first node a rule concluded
        leaf = [i for i, n in enumerate(nodes) if not n.premise_indices][1]
        step = next(i for i, n in enumerate(nodes) if n.premise_indices)
        changed = mutate(nodes, leaf, step)
        mutant = replace(outcome.derivation, nodes=tuple(
            changed.get(i, n) for i, n in enumerate(nodes)))
        with pytest.raises(DerivationError,
                           match=message.format(leaf1=leaf + 1, step1=step + 1)):
            validate_derivation(mutant, calculus)

    def test_a_premise_leaf_is_rejected(self, kleene):
        # a calculus derivation has no premises; only inference_closure bodies do
        formula = parse_formula("(P & ~P)", kleene.alphabet)
        leaf = DerivationNode(formula, PremiseJustification(), (), 1)
        with pytest.raises(DerivationError, match=re.escape(
                "node 1 is not an axiom, a schema instance or a rule conclusion: (P & ~P)")):
            validate_derivation(Derivation((leaf,)), kleene)

    @pytest.mark.parametrize("justification, stage, message", [
        (SchemaJustification("nope", ()), 1, "no schema with id 'nope'"),
        (SchemaJustification("k1", (("phi", Atom("P")),)), 1,
         "schema 'k1' is missing assignments for ['chi']"),
        (RuleJustification("nope", (), ()), 2, "no rule with identifier 'nope'"),
        (RuleJustification("modus_ponens", (), ()), 2,
         "rule 'modus_ponens' takes 2 premise(s), got 0"),
    ], ids=["unknown-schema", "partial-assignment", "unknown-rule", "no-premises"])
    def test_every_failure_is_a_derivation_error_naming_the_node(
            self, kleene, justification, stage, message):
        formula = parse_formula("(P -> (Q -> P))", kleene.alphabet)
        node = DerivationNode(formula, justification, (), stage)
        with pytest.raises(DerivationError, match=re.escape(f"node 1: {message}")):
            validate_derivation(Derivation((node,)), kleene)

    def test_substitution_mode_leaf_must_be_the_positional_realization(self):
        # An instance of p1-1 that no bounded church_p1 body holds at stage 1.
        calculus = church_p1_calculus()
        formula = parse_formula("((q -> q) -> (s -> (q -> q)))", calculus.alphabet)
        schema = calculus.schema_by_id("p1-1")
        assignment = tuple(sorted(match_schema(schema, formula).items()))
        leaf = DerivationNode(formula, SchemaJustification("p1-1", assignment), (), 1)
        with pytest.raises(DerivationError, match="positional realization"):
            validate_derivation(Derivation((leaf,)), calculus)

    def test_substitution_mode_accepts_the_positional_realization(self):
        calculus = church_p1_calculus()
        for schema in calculus.schemata:
            formula, assignment = positional_realization(schema, calculus.alphabet)
            leaf = DerivationNode(formula, SchemaJustification(schema.schema_id, assignment),
                                  (), 1)
            validate_derivation(Derivation((leaf,)), calculus)


class TestClosureOperators:
    def test_consequence_is_one_layer_only(self):
        rules = rule_system(make_rule("modus_ponens"))
        premises = [parse_formula(t, CHAIN_ALPHABET)
                    for t in ("P", "(P -> Q)", "(Q -> R)")]
        layer = consequence_step(rules, premises)
        assert {print_formula(f) for f in layer} == {"Q"}

    def test_closure_reaches_the_fixpoint_and_keeps_premises(self):
        rules = rule_system(make_rule("modus_ponens"))
        premises = [parse_formula(t, CHAIN_ALPHABET)
                    for t in ("P", "(P -> Q)", "(Q -> R)")]
        closed = inference_closure(rules, premises, small_bounds())
        assert closed.status == SATURATED
        assert {print_formula(f) for f in closed.theorems} == {
            "P", "(P -> Q)", "(Q -> R)", "Q", "R",
        }

    def test_consequence_step_budget(self):
        rules = rule_system(make_rule("extension"))
        premises = [parse_formula("P", propositional_alphabet(("P", "Q")))]
        with pytest.raises(BudgetExceededError):
            consequence_step(rules, premises,
                             parameter_pool=premises * 1, node_budget=0)

    def test_composite_keeps_candidates_its_first_rule_would_skip(self):
        # Q does not occur in (P | P), so the substitution alone is a no-op
        # that a size-pruning strategy skips; cancellation then yields P.
        alphabet = propositional_alphabet(("P", "Q"))
        rules = rule_system(compose(make_rule("substitution"), make_rule("cancellation")))
        closed = inference_closure(rules, [parse_formula("(P | P)", alphabet)],
                                   Bounds(3, 9, 1000, 3), variables=("Q",))
        target = parse_formula("P", alphabet)
        assert closed.stage_of(target) == 2
        assert render_justification(closed.justification_of(target)) == (
            "compose(substitution, cancellation): (P | P) with formula=(P | P), variable=Q"
        )

    def test_seeded_premises_render_as_premise(self):
        alphabet = propositional_alphabet(("P",))
        premise = parse_formula("P", alphabet)
        closed = inference_closure(rule_system(make_rule("modus_ponens")),
                                   [premise], Bounds(3, 9, 1000, 3))
        assert render_justification(closed.justification_of(premise)) == "premise"

    def test_parameter_pool_defaults_to_premises(self):
        rules = rule_system(make_rule("extension"))
        alphabet = propositional_alphabet(("P", "Q"))
        premises = [parse_formula("P", alphabet), parse_formula("Q", alphabet)]
        layer = consequence_step(rules, premises)
        assert {print_formula(f) for f in layer} == {
            "(P | P)", "(P | Q)", "(Q | P)", "(Q | Q)",
        }


class TestStagedRuns:
    def test_each_stage_is_independent(self):
        calculus = chain_calculus()
        stages = (
            AxiomStage(axioms=calculus.axioms),
            AxiomStage(axioms=calculus.axioms[:2]),
        )
        first, second = staged_run(calculus, stages, small_bounds())
        assert {print_formula(f) for f in first.theorems} == {
            "P", "(P -> Q)", "(Q -> R)", "Q", "R",
        }
        assert {print_formula(f) for f in second.theorems} == {"P", "(P -> Q)", "Q"}

    def test_rule_override_is_honored(self):
        calculus = chain_calculus()
        stages = (AxiomStage(axioms=calculus.axioms, rules=rule_system()),)
        (body,) = staged_run(calculus, stages, small_bounds())
        assert {print_formula(f) for f in body.theorems} == {
            "P", "(P -> Q)", "(Q -> R)",
        }


class TestSizeVectors:
    def test_matches_a_brute_force_filter_in_order(self):
        rng = random.Random(8)
        for _ in range(400):
            weights = [rng.randint(1, 4) for _ in range(rng.randint(0, 4))]
            sizes = sorted(rng.sample(range(1, 10), rng.randint(1, 6)))
            budget = rng.randint(0, 20)
            expected = [v for v in itertools.product(sizes, repeat=len(weights))
                        if sum(w * (s - 1) for w, s in zip(weights, v)) == budget]
            assert list(size_vectors(weights, sizes, budget)) == expected


class TestCollectorPause:
    """Bodies are built with the cyclic collector paused; every public call
    leaves it on or off as the caller had it."""

    @pytest.fixture(autouse=True)
    def collector_on(self):
        assert gc.isenabled()
        yield
        gc.enable()

    def test_back_on_after_every_build(self):
        calculus = chain_calculus()
        goal = parse_formula("R", CHAIN_ALPHABET)
        missing = parse_formula("(R -> P)", CHAIN_ALPHABET)
        enumerate_body(calculus, small_bounds())
        assert gc.isenabled()
        inference_closure(calculus.rules, calculus.axioms, small_bounds())
        assert gc.isenabled()
        assert derive(calculus, goal, small_bounds()).found
        assert gc.isenabled()
        assert not derive(calculus, missing, small_bounds()).found
        assert gc.isenabled()

    def test_stays_off_when_the_caller_had_it_off(self):
        calculus = chain_calculus()
        gc.disable()
        enumerate_body(calculus, small_bounds())
        inference_closure(calculus.rules, calculus.axioms, small_bounds())
        derive(calculus, parse_formula("R", CHAIN_ALPHABET), small_bounds())
        assert not gc.isenabled()

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_back_on_after_a_rule_raises(self, error):
        def conclude(premises, context):
            raise error("from a rule")

        calculus = replace(chain_calculus(), rules=rule_system(
            make_rule("modus_ponens"), InferenceRule("raises", 1, conclude)))
        with pytest.raises(error):
            enumerate_body(calculus, small_bounds())
        assert gc.isenabled()
        with pytest.raises(error):
            derive(calculus, parse_formula("(R -> P)", CHAIN_ALPHABET), small_bounds())
        assert gc.isenabled()

    def test_back_on_after_a_seed_stream_raises(self):
        def premises():
            yield parse_formula("P", CHAIN_ALPHABET)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            inference_closure(chain_calculus().rules, premises(), small_bounds())
        assert gc.isenabled()

    def test_back_on_after_a_nested_build(self):
        inner = []

        def accepts(formula):
            enumerate_body(chain_calculus(), small_bounds())
            inner.append(gc.isenabled())
            return True

        calculus = lv_calculus(chain_calculus(), Validator("nested", accepts))
        body = enumerate_body(calculus, small_bounds())
        assert parse_formula("R", CHAIN_ALPHABET) in body
        assert inner and not any(inner)
        assert gc.isenabled()

    def test_no_collection_starts_inside_a_build(self):
        """Kleene over P, Q at size 13 allocates enough to set off young
        collections many times over when the collector is on."""
        calculus = replace(builtin_calculus("kleene"), pool_variables=("P", "Q"))
        bounds = Bounds(max_formula_size=13, instantiation_pool_size=3)
        inside = []

        def hook(phase, info):
            frame = sys._getframe(1)
            while frame is not None and phase == "start":
                if frame.f_code.co_name == "enumerate_body":
                    inside.append(info["generation"])
                    break
                frame = frame.f_back

        gc.callbacks.append(hook)
        try:
            body = enumerate_body(calculus, bounds)
        finally:
            gc.callbacks.remove(hook)
        assert len(body) > 1000
        assert inside == []

    def test_a_build_promotes_what_it_keeps_to_the_oldest_generation(self):
        body = enumerate_body(chain_calculus(), small_bounds())
        assert gc.get_count()[0] == 0
        oldest = {id(obj) for obj in gc.get_objects(generation=2)}
        assert body.theorems and all(id(theorem) in oldest for theorem in body)

    def test_a_build_with_the_collector_off_promotes_nothing(self):
        gc.disable()
        marker = []
        enumerate_body(chain_calculus(), small_bounds())
        assert gc.get_count()[0] > 0
        assert any(obj is marker for obj in gc.get_objects(generation=0))

    def test_a_callers_cyclic_garbage_is_freed_as_a_build_starts(self):
        gc.collect()
        node = _Node()
        node.loop = node
        freed = weakref.ref(node)
        del node
        enumerate_body(chain_calculus(), small_bounds())
        assert freed() is None

    def test_no_collection_runs_in_a_build_with_the_collector_off_or_nested(self):
        started = []
        nested = []

        def hook(phase, info):
            if phase == "start":
                started.append(info["generation"])

        def accepts(formula):
            before = len(started)
            enumerate_body(chain_calculus(), small_bounds())
            nested.append(len(started) - before)
            return True

        calculus = lv_calculus(chain_calculus(), Validator("nested", accepts))
        gc.callbacks.append(hook)
        try:
            gc.disable()
            enumerate_body(chain_calculus(), small_bounds())
            off = list(started)
            gc.enable()
            enumerate_body(calculus, small_bounds())
        finally:
            gc.callbacks.remove(hook)
        assert off == []
        assert nested and not any(nested)
        assert started[:1] == [1]  # the outer build's own young collection


class _Node:
    """An object that can hold a reference to itself."""
