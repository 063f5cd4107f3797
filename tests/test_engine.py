"""Staged enumeration, derivations, closure operators."""

import gc
import itertools
import random
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
    RuleParameterError,
    SATURATED,
    STAGE_CAP_HIT,
    Schema,
    SchemaError,
    SchemaJustification,
    StagedAxioms,
    Validator,
    builtin_calculus,
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
        staged = StagedAxioms((
            AxiomStage(axioms=calculus.axioms),
            AxiomStage(axioms=calculus.axioms[:2]),
        ))
        first, second = staged_run(calculus, staged, small_bounds())
        assert {print_formula(f) for f in first.theorems} == {
            "P", "(P -> Q)", "(Q -> R)", "Q", "R",
        }
        assert {print_formula(f) for f in second.theorems} == {"P", "(P -> Q)", "Q"}

    def test_rule_override_is_honored(self):
        calculus = chain_calculus()
        staged = StagedAxioms((
            AxiomStage(axioms=calculus.axioms, rules=rule_system()),
        ))
        (body,) = staged_run(calculus, staged, small_bounds())
        assert {print_formula(f) for f in body.theorems} == {
            "P", "(P -> Q)", "(Q -> R)",
        }

    def test_empty_staging_rejected(self):
        with pytest.raises(RuleParameterError):
            StagedAxioms(())


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

    def test_a_callers_cyclic_garbage_is_freed_by_a_full_collection(self):
        gc.collect()
        node = _Node()
        node.loop = node
        freed = weakref.ref(node)
        del node
        enumerate_body(chain_calculus(), small_bounds())
        gc.collect(1)
        assert freed() is not None
        gc.collect()
        assert freed() is None


class _Node:
    """An object that can hold a reference to itself."""
