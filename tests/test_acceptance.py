"""Acceptance battery: one test per criterion, run with -v for a line each.

Every check here is exact. Randomized criteria use fixed seeds so reruns
are reproducible; timed criteria assert the stated wall-clock budget.
"""

import itertools
import random
import time
from dataclasses import replace

from metalogic import (
    AND,
    BOUNDEDNESS_KINDS,
    BUDGET_EXCEEDED,
    IMPLIES,
    NOT,
    OR,
    SATURATED,
    STAGE_CAP_HIT,
    Bounds,
    Calculus,
    DEFAULT_BOUNDS,
    FiniteRelation,
    GOAL_FOUND,
    RuleJustification,
    SchemaJustification,
    apply_rule,
    build_body_automaton,
    build_deterministic_body_automaton,
    builtin_calculus,
    check_boundedness,
    compare_calculi,
    consequence_step,
    derive,
    enumerate_body,
    enumerate_wffs,
    inference_closure,
    instantiate_schema,
    is_tautology,
    lv_calculus,
    make_rule,
    make_validator,
    nfa_language_upto,
    parse_formula,
    print_formula,
    propositional_alphabet,
    rule_system,
    translation_map,
    validate_derivation,
    validated_mp,
)

from conftest import random_formula

SWEEP_BOUNDS = Bounds(max_stage=3, max_formula_size=21, node_budget=200000,
                      instantiation_pool_size=5)


def mp_system(*names):
    return rule_system(*(make_rule(n) for n in names))


# --------------------------------------------------------------------------
# 1. Soundness sweep
# --------------------------------------------------------------------------

def _soundness_sweep(name, pool_vars, constants, expected_status,
                     expected_count):
    calculus = replace(builtin_calculus(name), pool_variables=pool_vars)
    start = time.monotonic()
    body = enumerate_body(calculus, SWEEP_BOUNDS)
    violations = [
        theorem for theorem in body.theorems
        if not is_tautology(theorem, constants=frozenset(constants))
    ]
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"{name} sweep took {elapsed:.1f}s"
    assert violations == [], (
        f"{name}: {len(violations)} non-tautologies, first "
        f"{print_formula(violations[0])}"
    )
    assert body.status == expected_status
    assert len(body) == expected_count


def test_criterion_01_kleene_sweep_derives_only_tautologies():
    _soundness_sweep("kleene", ("P", "Q"), (), BUDGET_EXCEEDED, 200000)


def test_criterion_01_church_p1_sweep_derives_only_tautologies():
    _soundness_sweep("church_p1", ("p", "q"), ("f",), STAGE_CAP_HIT, 10147)


def test_criterion_01_church_p2_sweep_derives_only_tautologies():
    _soundness_sweep("church_p2", ("p", "q"), (), STAGE_CAP_HIT, 11166)


# --------------------------------------------------------------------------
# 2. Derivability with node-by-node revalidation
# --------------------------------------------------------------------------

def _revalidate_nodes(derivation, calculus):
    """Independent re-check: each node must be an axiom, a schema instance,
    or literally reproducible by applying its cited rule to its premises."""
    rules = {rule.identifier: rule for rule in calculus.rules}
    for node in derivation.nodes:
        justification = node.justification
        if isinstance(justification, RuleJustification):
            rule = rules[justification.rule_id]
            conclusions = apply_rule(rule, justification.premises,
                                     justification.context_dict())
            assert node.formula in conclusions
        elif isinstance(justification, SchemaJustification):
            schema = next(s for s in calculus.schemata
                          if s.schema_id == justification.schema_id)
            built = instantiate_schema(schema,
                                       justification.assignment_dict())
            assert built == node.formula
        else:
            assert node.formula in calculus.axioms


def test_criterion_02_identity_is_derivable_in_kleene():
    calculus = builtin_calculus("kleene")
    goal = parse_formula("(P -> P)", calculus.alphabet)
    outcome = derive(calculus, goal, Bounds(5, 21, 200000, 2))
    assert outcome.found
    assert outcome.status == GOAL_FOUND
    assert outcome.derivation.conclusion == goal
    assert outcome.stages_run <= 5
    validate_derivation(outcome.derivation, calculus)
    _revalidate_nodes(outcome.derivation, calculus)


def test_criterion_02_identity_is_derivable_in_church_p1():
    calculus = builtin_calculus("church_p1")
    goal = parse_formula("(p -> p)", calculus.alphabet)
    outcome = derive(calculus, goal, Bounds(6, 25, 200000, 2))
    assert outcome.found
    assert outcome.status == GOAL_FOUND
    assert outcome.derivation.conclusion == goal
    assert outcome.stages_run <= 6
    validate_derivation(outcome.derivation, calculus)
    _revalidate_nodes(outcome.derivation, calculus)


# --------------------------------------------------------------------------
# 3. Finite bodies become exact acceptors
# --------------------------------------------------------------------------

def test_criterion_03_acceptors_speak_exactly_their_finite_bodies():
    rng = random.Random(34034)
    start = time.monotonic()
    for _ in range(100):
        body = [random_formula(rng, ("P", "Q"), (NOT, AND, OR, IMPLIES), 4)
                for _ in range(rng.randint(0, 30))]
        words = {print_formula(f) for f in body}
        longest = max((len(w) for w in words), default=0)
        chain = build_body_automaton(body)
        trie = build_deterministic_body_automaton(body)
        assert trie.is_deterministic()
        assert nfa_language_upto(chain, longest) == words
        assert nfa_language_upto(trie, longest) == words
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"acceptor sweep took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 4. Goal search agrees with enumeration
# --------------------------------------------------------------------------

def test_criterion_04_derive_succeeds_exactly_on_body_members():
    rng = random.Random(77001)
    alphabet = propositional_alphabet(("P", "Q", "R"),
                                      connectives=(NOT, IMPLIES))
    bounds = Bounds(max_stage=4, max_formula_size=11, node_budget=20000,
                    instantiation_pool_size=11)
    probe_pool = list(enumerate_wffs(alphabet, 7))
    for _ in range(20):
        axioms = {random_formula(rng, ("P", "Q", "R"), (NOT, IMPLIES), 3)
                  for _ in range(rng.randint(2, 5))}
        calculus = Calculus(alphabet=alphabet, axioms=tuple(axioms),
                            rules=mp_system("modus_ponens"))
        body = enumerate_body(calculus, bounds)
        probes = list(body.theorems) + rng.sample(probe_pool, 25)
        for probe in probes:
            outcome = derive(calculus, probe, bounds)
            assert outcome.found == (probe in body), print_formula(probe)


# --------------------------------------------------------------------------
# 5. Bodies grow with axioms and rules
# --------------------------------------------------------------------------

def test_criterion_05_bounded_bodies_are_monotone_in_axioms_and_rules():
    rng = random.Random(51420)
    alphabet = propositional_alphabet(("P", "Q"))
    rule_pool = ("modus_ponens", "identity", "cancellation",
                 "associativity_left", "associativity_right", "cut")
    bounds = Bounds(max_stage=3, max_formula_size=9, node_budget=50000,
                    instantiation_pool_size=3)
    for _ in range(100):
        big_rules = rng.sample(rule_pool, rng.randint(1, len(rule_pool)))
        small_rules = rng.sample(big_rules, rng.randint(1, len(big_rules)))
        base = {random_formula(rng, ("P", "Q"), (NOT, AND, OR, IMPLIES), 3)
                for _ in range(rng.randint(1, 4))}
        extra = {random_formula(rng, ("P", "Q"), (NOT, AND, OR, IMPLIES), 3)
                 for _ in range(rng.randint(0, 3))}
        small = Calculus(alphabet=alphabet, axioms=tuple(base),
                         rules=mp_system(*small_rules))
        big = Calculus(alphabet=alphabet, axioms=tuple(base | extra),
                       rules=mp_system(*big_rules))
        body_small = enumerate_body(small, bounds)
        body_big = enumerate_body(big, bounds)
        assert body_small.status != BUDGET_EXCEEDED
        assert body_big.status != BUDGET_EXCEEDED
        assert set(body_small.theorems) <= set(body_big.theorems)


# --------------------------------------------------------------------------
# 6. One-step consequence is inside the inference closure
# --------------------------------------------------------------------------

def test_criterion_06_consequence_is_contained_in_inference():
    rng = random.Random(60606)
    rules = mp_system("modus_ponens", "cut")
    bounds = Bounds(max_stage=3, max_formula_size=11, node_budget=50000,
                    instantiation_pool_size=3)
    for _ in range(200):
        premises = {random_formula(rng, ("P", "Q"), (NOT, IMPLIES), 2)
                    for _ in range(rng.randint(1, 5))}
        step = consequence_step(rules, premises,
                                size_cap=bounds.max_formula_size,
                                node_budget=bounds.node_budget)
        closure = inference_closure(rules, premises, bounds)
        assert closure.status != BUDGET_EXCEEDED
        for conclusion in step:
            assert conclusion in closure


# --------------------------------------------------------------------------
# 7. Boundedness decisions match brute force
# --------------------------------------------------------------------------

def _brute_force_bounded(pairs, m, kind):
    if kind == "bounded":
        return all(len(p) <= m for p, _ in pairs)
    if kind == "strict":
        return all(len(p) == m for p, _ in pairs)
    conclusions = {c for _, c in pairs}
    if kind == "functionally_bounded":
        return all(
            any(len(p) <= m for p, c2 in pairs if c2 == c)
            for c in conclusions
        )
    return all(
        any(len(p) == m for p, c2 in pairs if c2 == c)
        for c in conclusions
    )


def test_criterion_07_boundedness_agrees_with_brute_force():
    rng = random.Random(70707)
    letters = ("a", "b", "c", "d", "e")
    for _ in range(500):
        tokens = letters[:rng.randint(1, 5)]
        pairs = set()
        for _ in range(rng.randint(0, 20)):
            premises = frozenset(
                rng.sample(tokens, rng.randint(0, len(tokens))))
            pairs.add((premises, rng.choice(tokens)))
        relation = FiniteRelation(frozenset(tokens), frozenset(pairs))
        for kind in BOUNDEDNESS_KINDS:
            for m in (1, 2, 3):
                verdict = check_boundedness(relation, m, kind)
                assert verdict.is_holds != verdict.is_fails
                assert verdict.is_holds == _brute_force_bounded(
                    relation.pairs, m, kind)


# --------------------------------------------------------------------------
# 8. Validated detachment is conservative
# --------------------------------------------------------------------------

def test_criterion_08_validated_detachment_is_conservative():
    alphabet = propositional_alphabet(("P", "Q"), connectives=(NOT, IMPLIES))
    bounds = Bounds(max_stage=3, max_formula_size=9, node_budget=20000,
                    instantiation_pool_size=3)
    p = parse_formula("P", alphabet)
    q = parse_formula("Q", alphabet)
    p_implies_q = parse_formula("(P -> Q)", alphabet)

    gated = rule_system(validated_mp(make_validator("tautology", Calculus(alphabet))))
    plain = mp_system("modus_ponens")
    assert q not in inference_closure(gated, (p, p_implies_q), bounds)
    assert q in inference_closure(plain, (p, p_implies_q), bounds)

    rng = random.Random(80808)
    for _ in range(50):
        axioms = tuple({
            random_formula(rng, ("P", "Q"), (NOT, IMPLIES), 3)
            for _ in range(rng.randint(1, 4))
        })
        base = Calculus(alphabet=alphabet, axioms=axioms, rules=plain,
                        name="plain")
        free_pass = lv_calculus(base=base, validator="always-true")
        tautology_gated = lv_calculus(base=base, validator="tautology")
        body_plain = set(enumerate_body(base, bounds).theorems)
        body_free = set(enumerate_body(free_pass, bounds).theorems)
        body_gated = set(enumerate_body(tautology_gated, bounds).theorems)
        assert body_free == body_plain
        assert body_gated <= body_plain


# --------------------------------------------------------------------------
# 9. Equivalence laws on a ten-calculus family
# --------------------------------------------------------------------------

def test_criterion_09_equivalence_laws_hold_exactly_on_a_family_of_ten():
    alphabet = propositional_alphabet(("P", "Q"), connectives=(IMPLIES,))
    bounds = Bounds(max_stage=4, max_formula_size=9, node_budget=5000,
                    instantiation_pool_size=3)

    def calc(axiom_texts, rule_names, name):
        return Calculus(
            alphabet=alphabet,
            axioms=tuple(parse_formula(t, alphabet) for t in axiom_texts),
            rules=mp_system(*rule_names),
            name=name,
        )

    x = ("P", "(P -> Q)")
    y = ("Q", "(Q -> P)")
    family = (
        calc(x, ("modus_ponens",), "a"),
        calc(x + ("Q",), ("modus_ponens",), "b"),
        calc(x, ("modus_ponens", "identity"), "c"),
        calc(x + ("Q",), ("modus_ponens", "identity"), "d"),
        calc(y, ("modus_ponens",), "e"),
        calc(y + ("P",), ("modus_ponens",), "f"),
        calc(y, ("modus_ponens", "identity"), "g"),
        calc(("P",), ("modus_ponens",), "h"),
        calc(("P",), ("modus_ponens", "identity"), "i"),
        calc(("Q",), ("modus_ponens",), "j"),
    )
    size = len(family)

    bodies = []
    for calculus in family:
        body = enumerate_body(calculus, bounds)
        assert body.status == SATURATED, calculus.name
        bodies.append(frozenset(body.theorems))
    axiom_sets = [frozenset(c.axioms) for c in family]
    rule_sets = [c.rules.identifiers() for c in family]

    expected = {
        "logical": lambda i, j: bodies[i] == bodies[j],
        "algorithmic": lambda i, j: (bodies[i] == bodies[j]
                                     and axiom_sets[i] == axiom_sets[j]),
        "axiomatic": lambda i, j: (bodies[i] == bodies[j]
                                   and rule_sets[i] == rule_sets[j]),
    }

    holds = {}
    for kind in expected:
        matrix = [[None] * size for _ in range(size)]
        for i in range(size):
            for j in range(size):
                verdict = compare_calculi(kind, family[i], family[j], bounds)
                assert not verdict.is_inconclusive
                assert verdict.is_holds == expected[kind](i, j), (
                    kind, family[i].name, family[j].name)
                matrix[i][j] = verdict.is_holds
        holds[kind] = matrix

    indices = range(size)
    for kind, matrix in holds.items():
        for i in indices:
            assert matrix[i][i], (kind, "reflexivity")
        for i, j in itertools.product(indices, repeat=2):
            assert matrix[i][j] == matrix[j][i], (kind, "symmetry")
        for i, j, k in itertools.product(indices, repeat=3):
            if matrix[i][j] and matrix[j][k]:
                assert matrix[i][k], (kind, "transitivity")

    for i, j in itertools.product(indices, repeat=2):
        # the stricter equivalences refine the logical one, and holding
        # both pins the calculi down completely
        assert not holds["algorithmic"][i][j] or holds["logical"][i][j]
        assert not holds["axiomatic"][i][j] or holds["logical"][i][j]
        coincide = (axiom_sets[i] == axiom_sets[j]
                    and rule_sets[i] == rule_sets[j])
        both = holds["algorithmic"][i][j] and holds["axiomatic"][i][j]
        assert both == coincide


# --------------------------------------------------------------------------
# 10. Saturation really is a fixpoint
# --------------------------------------------------------------------------

def test_criterion_10_saturated_bodies_absorb_an_extra_pass():
    rng = random.Random(101010)
    alphabet = propositional_alphabet(("P", "Q"))
    rule_pool = ("modus_ponens", "cut", "identity", "cancellation")
    bounds = Bounds(max_stage=6, max_formula_size=9, node_budget=50000,
                    instantiation_pool_size=3)
    saturated = []
    for _ in range(40):
        names = tuple(sorted(rng.sample(rule_pool, rng.randint(1, 3))))
        axioms = {random_formula(rng, ("P", "Q"), (NOT, AND, OR, IMPLIES), 2)
                  for _ in range(rng.randint(1, 4))}
        calculus = Calculus(alphabet=alphabet, axioms=tuple(axioms),
                            rules=mp_system(*names))
        body = enumerate_body(calculus, bounds)
        if body.status != SATURATED:
            continue
        theorems = frozenset(body.theorems)
        extra = consequence_step(calculus.rules, theorems,
                                 size_cap=bounds.max_formula_size,
                                 node_budget=bounds.node_budget)
        assert extra <= theorems
        saturated.append((names, theorems))
    assert len(saturated) >= 10

    by_rules = {}
    for names, theorems in saturated:
        by_rules.setdefault(names, []).append(theorems)
    intersections_checked = 0
    for names, theorem_sets in by_rules.items():
        rules = mp_system(*names)
        for first, second in itertools.combinations(theorem_sets, 2):
            meet = first & second
            extra = consequence_step(rules, meet,
                                     size_cap=bounds.max_formula_size,
                                     node_budget=bounds.node_budget)
            assert extra <= meet
            intersections_checked += 1
    assert intersections_checked >= 5


# --------------------------------------------------------------------------
# 11. The two Church presentations stay undecided within bounds
# --------------------------------------------------------------------------

def test_criterion_11_church_comparison_is_inconclusive_never_holds():
    p2 = builtin_calculus("church_p2")
    p1 = builtin_calculus("church_p1")
    verdict = compare_calculi("logical", p2, p1, DEFAULT_BOUNDS,
                              translation_map("p2_to_p1"))
    assert verdict.is_inconclusive
    assert not verdict.is_holds
    assert verdict.evidence["statuses"] == (SATURATED, STAGE_CAP_HIT)
    assert verdict.evidence["undecided"], (
        "candidates should remain, undecided rather than refuted"
    )
