"""The instantiation pool is built only for a run that reads it.

Only an on-demand schema and a rule's formula parameter read the pool, so
a run with neither gets an empty pool and never enumerates one. The skip
must change no result: every body and every goal search here equals the
same run given the whole pool, built directly by ``enumerate_wffs`` over
the pool variables, on calculi drawn with and without readers, at budgets
the whole pool fits in. The work count is pinned too: a property check
enumerates a pool only for a calculus that reads it. And the rules a run
applies decide whether it reads the pool: ``complete-wrt-rules`` with an
override rule system reads it for the override's formula parameter.
"""

import random
from dataclasses import replace

import pytest

from conftest import random_formula
from metalogic import (
    IMPLIES,
    Alphabet,
    NOT,
    ON_DEMAND_MODE,
    OR,
    SUBSTITUTION_RULE_MODE,
    Binary,
    Bounds,
    Calculus,
    Schema,
    canonical_sorted,
    check_property,
    compose,
    derive,
    enumerate_body,
    enumerate_wffs,
    formula_atoms,
    instantiation_pool,
    kleene_calculus,
    length_filtered,
    make_rule,
    make_validator,
    parse_formula,
    propositional_alphabet,
    rule_system,
    subformulas,
    validated_mp,
)
from metalogic import engine

PQ = propositional_alphabet(("P", "Q"), connectives=(NOT, OR, IMPLIES))

PLAIN = ("modus_ponens", "cut", "identity", "cancellation")

# rules with a formula parameter, alone and through each wrapper that
# passes its inner rule's parameters on
READERS = {
    "extension": lambda: make_rule("extension"),
    "substitution": lambda: make_rule("substitution"),
    "compose(substitution)": lambda: compose(make_rule("substitution"),
                                             make_rule("cancellation")),
    "compose(extension)": lambda: compose(make_rule("extension"),
                                          make_rule("associativity_left")),
    "length_filtered(extension)": lambda: length_filtered(make_rule("extension"), 6),
    "length_filtered(substitution)": lambda: length_filtered(make_rule("substitution"), 5),
}


def whole_pool(calculus, bounds, extra=()):
    """The pool as it was built before any skip: every formula over the
    pool variables up to the pool size, and ``extra``."""
    restricted = replace(calculus.alphabet, variables=calculus.pool_variables)
    return canonical_sorted(set(enumerate_wffs(restricted, bounds.instantiation_pool_size))
                            | set(extra))


def reads_pool(calculus):
    return (bool(calculus.schemata) and calculus.schema_mode == ON_DEMAND_MODE
            or any(kind == "formula" for rule in calculus.rules
                   for _, kind in rule.parameter_kinds))


def drawn_calculus(rng):
    """Concrete axioms, with a chain of implications for modus ponens and
    cut; one or two parameter-free rules; sometimes a rule that reads the
    pool; sometimes one schema, on demand or (with the substitution rule)
    in substitution-rule mode."""
    links = [random_formula(rng, ("P", "Q"), (NOT, OR), 1) for _ in range(rng.randint(1, 4))]
    axioms = {links[0], random_formula(rng, ("P", "Q"), (NOT, OR, IMPLIES), 2)}
    axioms.update(Binary(IMPLIES, a, b) for a, b in zip(links, links[1:]))
    rules = [make_rule(name) for name in rng.sample(PLAIN, rng.randint(1, 2))]
    if rng.random() < 0.5:
        rules.append(READERS[rng.choice(sorted(READERS))]())
    schemata = ()
    mode = ON_DEMAND_MODE
    if rng.random() < 0.5:
        pattern = random_formula(rng, ("phi", "P"), (NOT, OR, IMPLIES), 2)
        if "phi" in formula_atoms(pattern):
            schemata = (Schema("s", pattern, ("phi",)),)
            if rng.random() < 0.4:
                mode = SUBSTITUTION_RULE_MODE
                if "substitution" not in {rule.identifier for rule in rules}:
                    rules.append(make_rule("substitution"))
    return Calculus(alphabet=PQ, axioms=tuple(sorted(axioms, key=str)),
                    schemata=schemata, rules=rule_system(*rules), schema_mode=mode,
                    pool_variables=("P", "Q")[:rng.randint(0, 2)])


def drawn_bounds(rng):
    # the whole pool, at most 14 formulas up to size 3 over P and Q, fits
    # either budget; the smaller one cuts some bodies
    return Bounds(rng.randint(2, 4), rng.choice((5, 7, 9)), rng.choice((40, 3000)),
                  rng.randint(1, 3))


def run_of(body):
    return ([(f, body.stage_of(f), body.justification_of(f)) for f in body.theorems],
            body.status, body.stage_count)


def goals(rng, body):
    """A member of the body's last stage, and a drawn formula."""
    last = body.new_at_stage(body.stage_count)
    drawn = random_formula(rng, ("P", "Q"), (NOT, OR, IMPLIES), 2)
    return [rng.choice(last), drawn] if last else [drawn]


SEEDS = range(64)


def test_the_draws_cover_readers_and_non_readers_in_both_schema_modes():
    calculi = [drawn_calculus(random.Random(seed)) for seed in SEEDS]
    assert {reads_pool(c) for c in calculi} == {True, False}
    assert {c.schema_mode for c in calculi if c.schemata} == {
        ON_DEMAND_MODE, SUBSTITUTION_RULE_MODE}
    assert any(c.schemata and not any(r.parameter_kinds for r in c.rules)
               for c in calculi)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_pool_is_the_whole_pool_for_a_reader_and_empty_otherwise(seed):
    rng = random.Random(seed)
    calculus, bounds = drawn_calculus(rng), drawn_bounds(rng)
    expected = whole_pool(calculus, bounds) if reads_pool(calculus) else []
    assert instantiation_pool(calculus, bounds) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_bodies_equal_the_runs_given_the_whole_pool(seed):
    rng = random.Random(seed)
    calculus, bounds = drawn_calculus(rng), drawn_bounds(rng)
    assert run_of(enumerate_body(calculus, bounds)) == run_of(
        enumerate_body(calculus, bounds, pool=whole_pool(calculus, bounds)))


@pytest.mark.parametrize("seed", SEEDS)
def test_goal_searches_equal_the_runs_given_the_whole_pool(seed, monkeypatch):
    rng = random.Random(seed)
    calculus, bounds = drawn_calculus(rng), drawn_bounds(rng)
    targets = goals(rng, enumerate_body(calculus, bounds))
    got = [derive(calculus, goal, bounds) for goal in targets]
    monkeypatch.setattr(engine, "instantiation_pool", whole_pool)
    assert got == [derive(calculus, goal, bounds) for goal in targets]


def test_wrappers_read_the_pool_as_their_inner_rule_does():
    bounds = Bounds(3, 6, 3000, 2)
    base = Calculus(alphabet=PQ, axioms=(parse_formula("P", PQ),), pool_variables=("P",))
    for name, make in READERS.items():
        calculus = replace(base, rules=rule_system(make()))
        assert instantiation_pool(calculus, bounds) == whole_pool(calculus, bounds), name
    for rule in (make_rule("extension", psi=parse_formula("Q", PQ)),
                 validated_mp(make_validator("tautology", base)),
                 length_filtered(make_rule("cut"), 6)):
        calculus = replace(base, rules=rule_system(rule))
        assert instantiation_pool(calculus, bounds) == [], rule.identifier


def test_a_goal_search_without_a_reader_takes_no_goal_subformulas():
    calculus = Calculus(alphabet=PQ, axioms=(parse_formula("P", PQ),),
                        rules=rule_system(make_rule("identity")))
    goal = parse_formula("(P -> Q)", PQ)
    assert instantiation_pool(calculus, Bounds(), subformulas(goal)) == []
    assert derive(calculus, goal, Bounds(3, 5, 100, 1)).status == "saturated-within-size-cap"


def test_a_property_check_enumerates_a_pool_only_for_a_reader(monkeypatch):
    calls = []
    enumerate_all = engine.enumerate_wffs

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_all(*args, **kwargs)

    monkeypatch.setattr(engine, "enumerate_wffs", counted)
    bounds = Bounds(3, 7, 5000, 2)
    plain = Calculus(alphabet=PQ, axioms=tuple(parse_formula(t, PQ) for t in ("P", "(P -> Q)")),
                     rules=rule_system(make_rule("modus_ponens"), make_rule("cut")),
                     pool_variables=("P", "Q"))
    check_property(plain, "transitively-closed", bounds)
    assert len(calls) == 0
    kleene = replace(kleene_calculus(), pool_variables=("P",))
    check_property(kleene, "transitively-closed", bounds)
    assert len(calls) == 1


def test_an_override_rule_system_decides_whether_complete_wrt_rules_reads_the_pool():
    """The calculus's own rule reads no pool, but the override's extension
    draws its psi from it: from the axiom P, one step reaches (P | Q)."""
    alphabet = propositional_alphabet(("P", "Q"), connectives=(OR,))
    calculus = Calculus(alphabet=alphabet, axioms=(parse_formula("P", alphabet),),
                        rules=rule_system(make_rule("identity")), pool_variables=("P", "Q"))
    verdict = check_property(calculus, "complete-wrt-rules", Bounds(3, 5, 1000, 1),
                             targets=[parse_formula("P | Q", alphabet)],
                             rules=rule_system(make_rule("extension")))
    assert verdict.is_holds, verdict


def test_bodies_of_one_calculus_share_one_validated_pool_alphabet(monkeypatch):
    """The alphabet restricted to the pool variables is built and validated
    on the first body that reads it, then reused; the pools are unchanged."""
    kleene = replace(kleene_calculus(), pool_variables=("P",))
    small, large = Bounds(2, 7, 5000, 2), Bounds(2, 9, 5000, 3)
    validated = []
    post_init = Alphabet.__post_init__

    def counted(alphabet):
        post_init(alphabet)
        if alphabet.variables == kleene.pool_variables:
            validated.append(alphabet)

    monkeypatch.setattr(Alphabet, "__post_init__", counted)
    pools = [instantiation_pool(kleene, bounds) for bounds in (small, large)]
    bodies = [enumerate_body(kleene, bounds) for bounds in (small, large)]
    assert len(validated) == 1
    monkeypatch.undo()
    assert validated[0] is kleene.pool_alphabet
    assert pools == [whole_pool(kleene, small), whole_pool(kleene, large)]
    assert [body.theorems for body in bodies] == [
        enumerate_body(kleene, bounds, pool=pool).theorems
        for bounds, pool in zip((small, large), pools)]
