"""Differential oracle: the engine against naive references.

The reference saturator builds each stage from every premise tuple over
the whole body, every parameter context and every rule, with no strategies
and no pruning: stage n + 1 adds every conclusion within the size cap that
is not already a member, each with its least justification. The engine must
give the same members, stages, canonical justifications and status.

``reference_layer`` is the all-tuples application layer that
``consequence_step`` must reproduce, budget error included.

``reference_closed_wrt_axioms`` decides closed-wrt-axioms from a second
realization of the axioms, which the check itself reads off stage 1. A
declared axiom, or in substitution-rule mode a schema's positional
realization, over the size cap makes the verdict inconclusive.

The reference seeds stage 1 with full justification records: the concrete
axioms, each positional realization, and ``reference_schema_instances``.
The engine stores a schema member's ``Schema`` alone and reads its
assignment back when asked, so its records must equal the reference's.

The reference builds the last allowed layer whole; the engine stops it at
its first conclusion outside the body. The stage-cap sweeps at the end make
every stage of a run the last one in turn.
"""

import itertools
import random
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import random_formula
from metalogic import (
    BUDGET_EXCEEDED,
    IMPLIES,
    NOT,
    OR,
    SATURATED,
    STAGE_CAP_HIT,
    SUBSTITUTION_RULE_MODE,
    AxiomJustification,
    Bounds,
    BudgetExceededError,
    Calculus,
    Binary,
    Formula,
    InferenceRule,
    Negation,
    PremiseJustification,
    RuleJustification,
    Schema,
    SchemaJustification,
    builtin_calculus,
    check_property,
    compose,
    consequence_step,
    derive,
    enumerate_body,
    formula_atoms,
    inference_closure,
    instantiation_pool,
    length_filtered,
    make_rule,
    parse_formula,
    positional_realization,
    print_formula,
    propositional_alphabet,
    realized_axioms,
    rule_system,
    subformulas,
)
from metalogic.cli import main
from metalogic.library import _CALCULI
from test_instantiation import reference_schema_instances


def _printed(value):
    return print_formula(value) if isinstance(value, Formula) else str(value)


def _reference_key(justification):
    return (justification.rule_id,
            tuple(print_formula(p) for p in justification.premises),
            tuple((name, _printed(v)) for name, v in justification.context))


def _contexts(rule, pool, variables):
    if not rule.parameter_kinds:
        return [None]
    slots = [[(name, value) for value in (pool if kind == "formula" else variables)]
             for name, kind in rule.parameter_kinds]
    return [dict(combo) for combo in itertools.product(*slots)]


def reference_saturate(seeds, rules, pool, variables, bounds):
    """Returns (members, status, stage count); members maps a formula to
    (first stage, justification)."""
    members = {}
    for formula, justification in seeds:
        if formula in members:
            continue
        if len(members) >= bounds.node_budget:
            return members, BUDGET_EXCEEDED, 1
        members[formula] = (1, justification)
    stage = 1
    while True:
        universe = list(members)
        best = {}
        for rule in rules:
            contexts = _contexts(rule, pool, variables)
            for premises in itertools.product(universe, repeat=rule.arity):
                for context in contexts:
                    items = tuple(sorted(context.items())) if context else ()
                    for conclusion in rule.conclusions(premises, context):
                        if conclusion.size > bounds.max_formula_size or conclusion in members:
                            continue
                        justification = RuleJustification(rule.identifier, premises, items)
                        key = _reference_key(justification)
                        if conclusion not in best or key < best[conclusion][0]:
                            best[conclusion] = (key, justification)
        if not best:
            return members, SATURATED, stage
        if stage >= bounds.max_stage:
            return members, STAGE_CAP_HIT, stage
        stage += 1
        for conclusion in sorted(best, key=lambda f: (f.size, print_formula(f))):
            if len(members) >= bounds.node_budget:
                return members, BUDGET_EXCEEDED, stage
            members[conclusion] = (stage, best[conclusion][1])


def reference_seeds(calculus, bounds, pool):
    """Stage 1 as (formula, justification record), within the size cap."""
    cap = bounds.max_formula_size
    fixed = [(axiom, AxiomJustification()) for axiom in calculus.axioms]
    if calculus.schema_mode == SUBSTITUTION_RULE_MODE:
        for schema in calculus.schemata:
            formula, assignment = positional_realization(schema, calculus.alphabet)
            fixed.append((formula, SchemaJustification(schema.schema_id, assignment)))
    yield from ((f, j) for f, j in fixed if f.size <= cap)
    if calculus.schema_mode != SUBSTITUTION_RULE_MODE:
        yield from reference_schema_instances(calculus.schemata, pool, cap)


def reference_body(calculus, bounds):
    pool = instantiation_pool(calculus, bounds)
    return reference_saturate(reference_seeds(calculus, bounds, pool),
                              calculus.rules, pool, calculus.alphabet.variables, bounds)


def reference_closure(rules, premises, bounds, variables=()):
    ordered = sorted(set(premises), key=lambda f: (f.size, print_formula(f)))
    seeds = ((f, PremiseJustification()) for f in ordered
             if f.size <= bounds.max_formula_size)
    return reference_saturate(seeds, rules, ordered, variables, bounds)


def assert_same(body, expected):
    members, status, stages = expected
    got = {f: (body.stage_of(f), body.justification_of(f)) for f in body}
    assert got == members
    assert body.status == status
    assert body.stage_count == stages


def pooled(name, variables, **params):
    return replace(builtin_calculus(name, **params), pool_variables=variables)


# (calculus, bounds) pairs: every built-in at small bounds, chosen so the
# size cap, the stage cap and the budget each end some run.
BUILTIN_CASES = {
    "kleene-saturated": (lambda: pooled("kleene", ("P",)), Bounds(3, 11, 2000, 3)),
    "kleene-budget": (lambda: pooled("kleene", ("P", "Q")), Bounds(3, 11, 300, 3)),
    "church_p1-saturated": (lambda: pooled("church_p1", ("p",)), Bounds(3, 9, 5000, 5)),
    "church_p1-stage-cap": (lambda: pooled("church_p1", ("p", "q")), Bounds(3, 11, 5000, 3)),
    "church_p2-stage-cap": (lambda: pooled("church_p2", ("p", "q")), Bounds(3, 9, 5000, 3)),
    "church_p2-budget": (lambda: pooled("church_p2", ("p",)), Bounds(4, 11, 30, 4)),
    "shoenfield-saturated": (lambda: builtin_calculus("shoenfield_fragment"), Bounds(3, 8, 5000, 3)),
    "shoenfield-stage-cap": (lambda: builtin_calculus("shoenfield_fragment"), Bounds(3, 10, 5000, 4)),
    "lv-kleene": (lambda: pooled("lv", ("P",)), Bounds(3, 11, 2000, 3)),
    "lv-church_p1": (lambda: pooled("lv", ("p",), base="church_p1"), Bounds(3, 9, 5000, 5)),
    "free-3": (lambda: builtin_calculus("free", size_cap=3), Bounds(3, 5, 2000, 2)),
    "free-3-over-cap": (lambda: builtin_calculus("free", size_cap=3), Bounds(3, 2, 2000, 2)),
}


@pytest.mark.parametrize("case", sorted(BUILTIN_CASES))
def test_builtin_bodies_match_the_reference(case):
    make, bounds = BUILTIN_CASES[case]
    calculus = make()
    assert_same(enumerate_body(calculus, bounds), reference_body(calculus, bounds))


PQ_OR = propositional_alphabet(("P", "Q"), connectives=(NOT, OR, IMPLIES))


def _wffs(*texts):
    return [parse_formula(t, PQ_OR) for t in texts]


PREMISES = _wffs("(P | P)", "(P | Q)", "(Q | ~P)", "(~Q | (P | P))", "(P -> (Q | Q))")


def _composite_calculus(rule):
    return Calculus(alphabet=PQ_OR, axioms=tuple(PREMISES),
                    rules=rule_system(rule, make_rule("modus_ponens")),
                    pool_variables=("P", "Q"))


@pytest.mark.parametrize("cap", [4, 7])
def test_length_filtered_substitution_matches_the_reference(cap):
    calculus = _composite_calculus(length_filtered(make_rule("substitution"), cap))
    for bounds in (Bounds(3, 9, 2000, 2), Bounds(4, 6, 2000, 3)):
        assert_same(enumerate_body(calculus, bounds), reference_body(calculus, bounds))


def test_composed_substitution_matches_the_reference():
    rule = compose(make_rule("substitution"), make_rule("cancellation"))
    calculus = _composite_calculus(rule)
    for bounds in (Bounds(3, 9, 2000, 2), Bounds(4, 5, 2000, 3)):
        assert_same(enumerate_body(calculus, bounds), reference_body(calculus, bounds))


@pytest.mark.parametrize("rules", [
    (make_rule("substitution"),),
    (make_rule("extension"), make_rule("cancellation")),
    (compose(make_rule("substitution"), make_rule("cancellation")),),
    (compose(make_rule("extension"), make_rule("associativity_left")),),
    (length_filtered(make_rule("extension"), 6), make_rule("cut")),
], ids=lambda rules: " + ".join(r.identifier for r in rules))
def test_closures_match_the_reference(rules):
    system = rule_system(*rules)
    for bounds in (Bounds(3, 7, 2000, 3), Bounds(2, 9, 150, 3)):
        body = inference_closure(system, PREMISES, bounds, variables=("P", "Q"))
        assert_same(body, reference_closure(system, PREMISES, bounds, ("P", "Q")))


# Rules without a strategy take the generic candidate scan.
NEGATE_PARAMETER = InferenceRule(
    "negate_parameter", 0, lambda premises, context: {Negation(context["phi"])},
    parameter_kinds=(("phi", "formula"),))
DISJOIN = InferenceRule(
    "disjoin", 2, lambda premises, context: {Binary(OR, *premises)})


@pytest.mark.parametrize("rules", [
    (NEGATE_PARAMETER,),
    (DISJOIN,),
    (DISJOIN, NEGATE_PARAMETER, make_rule("cancellation")),
], ids=lambda rules: " + ".join(r.identifier for r in rules))
def test_rules_without_a_strategy_match_the_reference(rules):
    system = rule_system(*rules)
    for bounds in (Bounds(3, 7, 2000, 3), Bounds(2, 9, 150, 3)):
        body = inference_closure(system, PREMISES, bounds, variables=("P", "Q"))
        assert_same(body, reference_closure(system, PREMISES, bounds, ("P", "Q")))


def reference_layer(rules, premises, *, parameter_pool=None, variables=(),
                    size_cap=None, node_budget=None):
    """Every rule on every premise tuple and parameter context."""
    premise_list = sorted(set(premises), key=lambda f: (f.size, print_formula(f)))
    pool = (sorted(set(parameter_pool), key=lambda f: (f.size, print_formula(f)))
            if parameter_pool is not None else premise_list)
    out = set()
    for rule in rules:
        contexts = _contexts(rule, pool, variables)
        for combo in itertools.product(premise_list, repeat=rule.arity):
            for context in contexts:
                for conclusion in rule.conclusions(combo, context):
                    if size_cap is not None and conclusion.size > size_cap:
                        continue
                    out.add(conclusion)
                    if node_budget is not None and len(out) > node_budget:
                        raise BudgetExceededError(
                            f"consequence step produced more than {node_budget} formulas"
                        )
    return frozenset(out)


LAYER_PREMISES = PREMISES + _wffs("P", "(P -> Q)", "(P | ~Q)", "(~P | Q)", "((P | P) | Q)")
LAYER_POOL = _wffs("Q", "~P", "(P | Q)")
RULE_POOL = ("modus_ponens", "cut", "identity", "cancellation")

LAYER_RULES = [
    tuple(make_rule(name) for name in names)
    for k in range(1, len(RULE_POOL) + 1)
    for names in itertools.combinations(RULE_POOL, k)
] + [
    (make_rule("substitution"),),
    (make_rule("extension"),),
    (compose(make_rule("substitution"), make_rule("cancellation")),),
    (compose(make_rule("extension"), make_rule("associativity_left")),),
    (length_filtered(make_rule("substitution"), 5),),
    (length_filtered(make_rule("extension"), 6), make_rule("cut")),
]


def _layer_id(rules):
    return " + ".join(r.identifier for r in rules)


@pytest.mark.parametrize("parameter_pool", [None, LAYER_POOL], ids=["premises", "pool"])
@pytest.mark.parametrize("size_cap", [None, 3, 5])
@pytest.mark.parametrize("rules", LAYER_RULES, ids=_layer_id)
def test_consequence_step_matches_the_reference(rules, size_cap, parameter_pool):
    system = rule_system(*rules)
    kwargs = dict(parameter_pool=parameter_pool, variables=("P", "Q"), size_cap=size_cap)
    expected = reference_layer(system, LAYER_PREMISES, **kwargs)
    assert consequence_step(system, LAYER_PREMISES, **kwargs) == expected


@pytest.mark.parametrize("rules", LAYER_RULES, ids=_layer_id)
def test_consequence_step_budget_matches_the_reference(rules):
    system = rule_system(*rules)
    kwargs = dict(variables=("P", "Q"), size_cap=5)
    full = reference_layer(system, LAYER_PREMISES, **kwargs)
    assert consequence_step(system, LAYER_PREMISES, node_budget=len(full),
                            **kwargs) == full
    if full:
        with pytest.raises(BudgetExceededError):
            reference_layer(system, LAYER_PREMISES, node_budget=len(full) - 1, **kwargs)
        with pytest.raises(BudgetExceededError):
            consequence_step(system, LAYER_PREMISES, node_budget=len(full) - 1, **kwargs)


# ==========================================================================
# A saturated body is closed under one more pass
# ==========================================================================

# transitively-closed reads the run status instead of running a further
# pass; this checks, on every built-in, that such a pass adds nothing.
SATURATING_BUILTINS = {
    "kleene": lambda: pooled("kleene", ("P",)),
    "church_p1": lambda: pooled("church_p1", ("p",)),
    "church_p2": lambda: pooled("church_p2", ("p",)),
    "shoenfield_fragment": lambda: builtin_calculus("shoenfield_fragment"),
    "lv": lambda: pooled("lv", ("P",)),
    "free": lambda: builtin_calculus("free", size_cap=4),
}
CLOSURE_BOUNDS = (Bounds(3, 7, 5000, 3), Bounds(4, 9, 5000, 3),
                  Bounds(5, 11, 5000, 3), Bounds(6, 5, 5000, 2))


def test_every_builtin_is_checked_for_closure():
    assert set(SATURATING_BUILTINS) == set(_CALCULI)


@pytest.mark.parametrize("name", sorted(SATURATING_BUILTINS))
def test_a_further_pass_over_a_saturated_body_adds_nothing(name):
    calculus = SATURATING_BUILTINS[name]()
    saturated = 0
    for bounds in CLOSURE_BOUNDS:
        body = enumerate_body(calculus, bounds)
        verdict = check_property(calculus, "transitively-closed", bounds)
        assert verdict.is_holds == (body.status == SATURATED)
        if body.status != SATURATED:
            continue
        saturated += 1
        layer = consequence_step(
            calculus.rules, body.theorems,
            parameter_pool=instantiation_pool(calculus, bounds),
            variables=calculus.alphabet.variables,
            size_cap=bounds.max_formula_size,
            node_budget=bounds.node_budget,
        )
        assert not frozenset(layer) - body.as_set()
    assert saturated >= 3


# ==========================================================================
# Budgets around stage 1
# ==========================================================================

def budgets_around_stage_one(calculus, bounds):
    """Bounds whose budget is the stage-1 count, one less, and one that runs
    out inside stage 2 (when stage 2 adds two formulas or more)."""
    body = enumerate_body(calculus, replace(bounds, max_stage=2, node_budget=10 ** 6))
    first, second = len(body.new_at_stage(1)), len(body.new_at_stage(2))
    budgets = [first, first - 1] + ([first + second // 2] if second > 1 else [])
    return [replace(bounds, node_budget=budget) for budget in budgets if budget >= 1]


def _or_budget_error(build, *args):
    try:
        return build(*args)
    except BudgetExceededError as exc:
        return str(exc)


@pytest.mark.parametrize("case", sorted(BUILTIN_CASES))
def test_budgets_around_stage_one_match_the_reference(case):
    make, bounds = BUILTIN_CASES[case]
    calculus = make()
    for tight in budgets_around_stage_one(calculus, bounds):
        expected = _or_budget_error(reference_body, calculus, tight)
        got = _or_budget_error(enumerate_body, calculus, tight)
        if isinstance(expected, str):
            # the instantiation pool alone outgrew the budget
            assert got == expected
        else:
            assert_same(got, expected)


def test_budgets_around_stage_one_end_in_stage_one_and_two():
    """The budgets above do cut runs in stage 1 and inside stage 2."""
    ends = set()
    for case in sorted(BUILTIN_CASES):
        make, bounds = BUILTIN_CASES[case]
        calculus = make()
        for tight in budgets_around_stage_one(calculus, bounds):
            body = _or_budget_error(enumerate_body, calculus, tight)
            if not isinstance(body, str) and body.status == BUDGET_EXCEEDED:
                ends.add(body.stage_count)
    assert ends == {1, 2}


# ==========================================================================
# closed-wrt-axioms against a second realization of the axioms
# ==========================================================================

def reference_closed_wrt_axioms(calculus, bounds):
    """(outcome, evidence, detail) from ``realized_axioms`` and the body.
    The stream was cut when the run ended on the budget in stage 1."""
    body = enumerate_body(calculus, bounds)
    axioms = list(calculus.axioms)
    if calculus.schema_mode == SUBSTITUTION_RULE_MODE:
        axioms += [positional_realization(s, calculus.alphabet)[0]
                   for s in calculus.schemata]
    oversize = [a for a in axioms if a.size > bounds.max_formula_size]
    if oversize:
        return ("inconclusive",
                {"oversized_axioms": [print_formula(a) for a in oversize[:5]]},
                "some declared axioms exceed the size cap, so their membership "
                "cannot be witnessed within it")
    realized = realized_axioms(calculus, bounds)
    assert all(a in body for a in realized)
    if body.status == BUDGET_EXCEEDED and body.stage_count == 1:
        assert len(realized) == bounds.node_budget
        return ("inconclusive", {"realized": len(realized)},
                "the realized axiom stream was budget-truncated")
    return ("holds", {"axioms_present": len(realized)},
            "every realized axiom is in the body")


def _closed_wrt_axioms(calculus, bounds):
    verdict = check_property(calculus, "closed-wrt-axioms", bounds)
    return verdict.outcome, verdict.evidence, verdict.detail


def _assert_closed_wrt_axioms_matches(calculus, bounds):
    for tight in [bounds] + budgets_around_stage_one(calculus, bounds):
        expected = _or_budget_error(reference_closed_wrt_axioms, calculus, tight)
        assert _or_budget_error(_closed_wrt_axioms, calculus, tight) == expected


@pytest.mark.parametrize("case", sorted(BUILTIN_CASES))
def test_closed_wrt_axioms_matches_realized_axioms_on_builtins(case):
    make, bounds = BUILTIN_CASES[case]
    _assert_closed_wrt_axioms_matches(make(), bounds)


RANDOM_RULES = ("modus_ponens", "cancellation", "identity", "cut")


def random_calculus(rng):
    """Concrete axioms, on-demand schemata over phi and psi, and one or two
    parameter-free rules."""
    axioms = {random_formula(rng, ("P", "Q"), (NOT, OR, IMPLIES), 2)
              for _ in range(rng.randint(0, 4))}
    schemata = []
    for index in range(rng.randint(0, 2)):
        metas = ("phi", "psi")[:rng.randint(1, 2)]
        pattern = random_formula(rng, metas + ("P",), (NOT, OR, IMPLIES), 3)
        present = formula_atoms(pattern) & set(metas)
        if present:
            schemata.append(Schema(f"s{index}", pattern, tuple(sorted(present))))
    rules = rng.sample(RANDOM_RULES, rng.randint(1, 2))
    return Calculus(alphabet=PQ_OR, axioms=tuple(sorted(axioms, key=print_formula)),
                    schemata=tuple(schemata),
                    rules=rule_system(*(make_rule(name) for name in rules)),
                    pool_variables=("P", "Q")[:rng.randint(1, 2)])


@pytest.mark.parametrize("seed", range(16))
def test_closed_wrt_axioms_matches_realized_axioms_on_random_calculi(seed):
    rng = random.Random(seed)
    calculus = random_calculus(rng)
    bounds = Bounds(3, rng.choice((6, 7, 9)), 5000, rng.choice((1, 2, 3)))
    _assert_closed_wrt_axioms_matches(calculus, bounds)
    assert_same(enumerate_body(calculus, bounds), reference_body(calculus, bounds))


# ==========================================================================
# The stage cap swept: the last layer stops at its first new conclusion
# ==========================================================================

SWEPT_RULES = ("modus_ponens", "cut", "cancellation", "identity", "extension",
               "associativity_left")


def staged_calculus(rng):
    """Concrete axioms, sometimes an on-demand schema, and one to three
    rules, parametric and strategy-free ones included: runs that take
    several stages to saturate."""
    axioms = {random_formula(rng, ("P", "Q"), (NOT, OR, IMPLIES, IMPLIES), 3)
              for _ in range(rng.randint(1, 5))}
    schemata = ()
    if rng.random() < 0.3:
        pattern = random_formula(rng, ("phi", "P"), (NOT, OR, IMPLIES), 2)
        if "phi" in formula_atoms(pattern):
            schemata = (Schema("s", pattern, ("phi",)),)
    rules = [make_rule(name) for name in rng.sample(SWEPT_RULES, rng.randint(1, 3))]
    if rng.random() < 0.2:
        rules.append(DISJOIN)
    return Calculus(alphabet=PQ_OR, axioms=tuple(sorted(axioms, key=print_formula)),
                    schemata=schemata, rules=rule_system(*rules),
                    pool_variables=("P", "Q")[:rng.randint(1, 2)])


def swept_stage_caps(build, bounds):
    """``bounds`` with every stage cap from 1 to one past the stage at which
    the run with a high cap ends."""
    last = build(replace(bounds, max_stage=12)).stage_count
    return [replace(bounds, max_stage=cap) for cap in range(1, last + 2)]


SWEPT_BOUNDS = st.builds(lambda size, budget: Bounds(1, size, budget, 1),
                         st.sampled_from((5, 6, 7, 8)), st.sampled_from((40, 2000)))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), SWEPT_BOUNDS)
def test_swept_stage_caps_match_the_reference_bodies(rng, bounds):
    calculus = staged_calculus(rng)
    for capped in swept_stage_caps(lambda b: enumerate_body(calculus, b), bounds):
        assert_same(enumerate_body(calculus, capped), reference_body(calculus, capped))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), SWEPT_BOUNDS)
def test_swept_stage_caps_match_the_reference_closures(rng, bounds):
    premises = {random_formula(rng, ("P", "Q"), (NOT, OR, IMPLIES), 2)
                for _ in range(rng.randint(1, 5))}
    rules = [make_rule(name) for name in rng.sample(SWEPT_RULES, rng.randint(1, 3))]
    system = rule_system(*rules, *rng.sample((DISJOIN, NEGATE_PARAMETER), rng.randint(0, 1)))

    def closure(b):
        return inference_closure(system, premises, b, variables=("P", "Q"))

    for capped in swept_stage_caps(closure, bounds):
        assert_same(closure(capped), reference_closure(system, premises, capped, ("P", "Q")))


def test_a_last_layer_of_members_only_is_saturation():
    calculus = Calculus(alphabet=PQ_OR, axioms=tuple(_wffs("P", "(P -> P)")),
                        rules=rule_system(make_rule("modus_ponens")))
    bounds = Bounds(1, 9, 2000, 1)
    body = enumerate_body(calculus, bounds)
    last_layer = consequence_step(calculus.rules, body.theorems)
    assert last_layer and last_layer <= body.as_set()
    assert body.status == SATURATED
    assert_same(body, reference_body(calculus, bounds))


def test_a_goal_one_stage_past_the_cap_is_stage_cap_hit():
    calculus = builtin_calculus("kleene")
    goal = parse_formula("(P -> P)", calculus.alphabet)
    bounds = Bounds(4, 17, 5000, 1)
    reached = derive(calculus, goal, bounds)
    assert reached.found
    capped = replace(bounds, max_stage=reached.stages_run - 1)
    outcome = derive(calculus, goal, capped)
    pool = instantiation_pool(calculus, capped, subformulas(goal))
    members, status, stages = reference_saturate(
        reference_seeds(calculus, capped, pool), calculus.rules, pool,
        calculus.alphabet.variables, capped)
    assert goal not in members
    assert status == outcome.status == STAGE_CAP_HIT
    assert (outcome.theorems_seen, outcome.stages_run) == (len(members), stages)
    argv = ["derive", "--calc", "builtin:kleene", "--goal", "(P -> P)", "--json",
            "--max-stage", str(capped.max_stage), "--max-size", "17", "--pool-size", "1"]
    assert main(argv) == 2
