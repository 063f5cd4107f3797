"""Differential checks of schema instantiation against naive references.

``reference_schema_instances`` is the straightforward stream: for each
target size and schema, every metavariable size vector, every pool
combination, an assignment dict, the instance from ``_replace_atoms`` and
the name-sorted assignment. ``schema_instances`` yields (formula, schema);
with the assignment read back from the formula, as a body reads it, it
must give the same (formula, justification) sequence, order included, and
each schema's compiled builder must agree with ``_replace_atoms``.
"""

import copy
import itertools
import pickle
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from metalogic import (
    AND,
    EXISTS,
    FORALL,
    IFF,
    IMPLIES,
    OR,
    ON_DEMAND_MODE,
    Atom,
    AxiomJustification,
    Binary,
    Bounds,
    Negation,
    PredApp,
    Quantified,
    Schema,
    SchemaJustification,
    Var,
    builtin_calculus,
    derive,
    enumerate_body,
    instantiation_pool,
    parse_formula,
    propositional_alphabet,
    schema_instances,
    subformulas,
)
from metalogic.engine import _record
from metalogic.library import _CALCULI
from metalogic.syntax import _replace_atoms


def _occurrences(formula, name):
    if type(formula) is Atom:
        return int(formula.name == name)
    if type(formula) is Negation:
        return _occurrences(formula.operand, name)
    if type(formula) is Binary:
        return _occurrences(formula.left, name) + _occurrences(formula.right, name)
    if type(formula) is Quantified:
        return _occurrences(formula.body, name)
    return 0


def _vectors(weights, sizes, budget):
    """Every size tuple over ``sizes`` with sum(w * (s - 1)) == budget, in
    lexicographic order."""
    for vector in itertools.product(sizes, repeat=len(weights)):
        if sum(w * (s - 1) for w, s in zip(weights, vector)) == budget:
            yield vector


def reference_schema_instances(schemata, pool, max_size):
    by_size = {}
    for f in pool:
        by_size.setdefault(f.size, []).append(f)
    sizes = sorted(by_size)
    if not schemata:
        return
    for target in range(min(s.pattern.size for s in schemata), max_size + 1):
        for schema in schemata:
            budget = target - schema.pattern.size
            if budget < 0:
                continue
            metas = list(schema.metavariables)
            weights = [_occurrences(schema.pattern, m) for m in metas]
            for vector in _vectors(weights, sizes, budget):
                for combo in itertools.product(*(by_size[s] for s in vector)):
                    assignment = dict(zip(metas, combo))
                    yield (_replace_atoms(schema.pattern, assignment),
                           SchemaJustification(schema.schema_id,
                                               tuple(sorted(assignment.items()))))


def as_record(item):
    """A stream item as a body reads it back: the formula and its record."""
    formula, schema = item
    return formula, _record(formula, schema)


SCHEMATIC = ("kleene", "church_p1", "church_p2", "shoenfield_fragment", "lv")


def test_every_schematic_builtin_is_checked():
    assert set(_CALCULI) - set(SCHEMATIC) == {"free"}
    assert not builtin_calculus("free", size_cap=3).schemata


@pytest.mark.parametrize("pool_size", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", SCHEMATIC)
def test_schema_instances_match_the_reference(name, pool_size):
    calculus = builtin_calculus(name)
    calculus = replace(calculus, pool_variables=calculus.alphabet.variables[:2])
    pool = instantiation_pool(calculus, Bounds(instantiation_pool_size=pool_size))
    assert compare_with_the_reference(calculus.schemata, pool, 13) > 0 or not pool


def compare_with_the_reference(schemata, pool, max_size):
    """Compare the first 20,000 items of both streams, order included, and
    return how many were compared."""
    got = itertools.islice(schema_instances(schemata, pool, max_size), 20000)
    expected = itertools.islice(reference_schema_instances(schemata, pool, max_size), 20000)
    count = 0
    for item, ref_item in itertools.zip_longest(got, expected):
        assert as_record(item) == ref_item
        count += 1
    return count


# derive's pool: the pool formulas plus the goal's subformulas, whose sizes
# leave gaps (the first goal gives sizes 1, 3 and 7 at pool size 1)
DERIVE_GOALS = ("((P & Q) -> (P & Q))", "~(P | ~~Q)",
                "((P -> Q) -> ((Q -> R) -> (P -> R)))")


@pytest.mark.parametrize("max_size", [7, 21, 35, 44])
@pytest.mark.parametrize("pool_size", [1, 2])
@pytest.mark.parametrize("goal", DERIVE_GOALS)
def test_schema_instances_on_derive_pools_match_the_reference(goal, pool_size, max_size):
    calculus = builtin_calculus("kleene")
    goal = parse_formula(goal, calculus.alphabet)
    pool = instantiation_pool(calculus, Bounds(instantiation_pool_size=pool_size),
                              subformulas(goal))
    sizes = sorted({f.size for f in pool})
    assert any(larger - smaller > 1 for smaller, larger in zip(sizes, sizes[1:]))
    assert compare_with_the_reference(calculus.schemata, pool, max_size) > 0


PHI, CHI, PSI = Atom("phi"), Atom("chi"), Atom("psi")
FX = PredApp("F", (Var("x"),))
EDGE_SCHEMATA = (
    Schema("negated", Negation(PHI), ("phi",)),
    Schema("quantified", Quantified(FORALL, "x", PHI), ("phi",)),
    Schema("bare", PHI, ("phi",)),
    Schema("closed", Binary(IMPLIES, FX, Negation(FX)), ()),
    Schema("mixed", Binary(AND, Negation(CHI), Quantified(EXISTS, "x", Binary(OR, PHI, FX))),
           ("chi", "phi")),
    Schema("twice", Binary(IFF, PHI, Negation(PHI)), ("phi",)),
    Schema("scoped", Binary(IMPLIES, PHI, Binary(OR, Negation(CHI), Quantified(FORALL, "x", PSI))),
           ("phi", "chi", "psi")),
)


@pytest.mark.parametrize("max_size", [0, 1, 5, 13, 44])
def test_edge_patterns_on_a_gapped_pool_match_the_reference(max_size):
    alphabet = propositional_alphabet(("P", "Q"))
    pool = [parse_formula(text, alphabet)
            for text in ("P", "Q", "(P & Q)", "(Q | P)", "((P & Q) -> (P & Q))")]
    assert sorted({f.size for f in pool}) == [1, 3, 7]
    count = compare_with_the_reference(EDGE_SCHEMATA, pool, max_size)
    assert count == 0 if max_size == 0 else count > 0
    built = {schema.schema_id for _, schema in schema_instances(EDGE_SCHEMATA, pool, 44)}
    assert built == {schema.schema_id for schema in EDGE_SCHEMATA}


ON_DEMAND = ("kleene", "shoenfield_fragment", "lv")


def first_records(calculus, pool, max_size, wanted):
    """The first record the reference stage-1 stream, the concrete axioms
    and then ``reference_schema_instances``, gives for each wanted formula."""
    stream = itertools.chain(
        ((axiom, AxiomJustification()) for axiom in calculus.axioms),
        reference_schema_instances(calculus.schemata, pool, max_size))
    first = {}
    for formula, record in stream:
        if formula in wanted and formula not in first:
            first[formula] = record
            if len(first) == len(wanted):
                break
    return first


def test_every_on_demand_builtin_is_checked():
    on_demand = {name for name in set(_CALCULI) - {"free"}
                 if builtin_calculus(name).schema_mode == ON_DEMAND_MODE
                 and builtin_calculus(name).schemata}
    assert on_demand == set(ON_DEMAND)


@pytest.mark.parametrize("bounds", [Bounds(1, 9, 200000, 2), Bounds(1, 11, 3000, 3),
                                    Bounds(2, 13, 1500, 4)], ids=str)
@pytest.mark.parametrize("name", ON_DEMAND)
def test_justification_of_is_the_first_reference_record(name, bounds):
    calculus = builtin_calculus(name)
    calculus = replace(calculus, pool_variables=calculus.alphabet.variables[:2])
    body = enumerate_body(calculus, bounds)
    leaves = body.new_at_stage(1)
    assert leaves
    expected = first_records(calculus, instantiation_pool(calculus, bounds),
                             bounds.max_formula_size, set(leaves))
    assert {f: body.justification_of(f) for f in leaves} == expected


def test_justification_of_on_a_derive_pool_is_the_first_reference_record():
    calculus = builtin_calculus("kleene")
    goal = parse_formula("(P -> P)", calculus.alphabet)
    bounds = Bounds(4, 17, 5000, 1)
    pool = instantiation_pool(calculus, bounds, subformulas(goal))
    body = enumerate_body(calculus, bounds, pool=pool)
    leaves = body.new_at_stage(1)
    expected = first_records(calculus, pool, bounds.max_formula_size, set(leaves))
    assert {f: body.justification_of(f) for f in leaves} == expected
    outcome = derive(calculus, goal, bounds)
    assert outcome.found
    for node in outcome.derivation.nodes:
        if node.stage == 1:
            assert node.justification == expected[node.formula]


def test_declared_order_is_not_name_order():
    """The builder reads pairs in declared order; the justification lists
    them by name."""
    alphabet = propositional_alphabet(("P", "Q"), constants=("f",))
    meta = propositional_alphabet(("P", "Q", "psi", "chi", "phi"), constants=("f",))
    schema = Schema("s", parse_formula("(psi -> (phi -> (chi | f)))", meta),
                    ("psi", "phi", "chi"))
    pool = [Atom("P"), Atom("Q"), parse_formula("~P", alphabet)]
    got = [as_record(item) for item in schema_instances([schema], pool, 10)]
    assert got == list(reference_schema_instances([schema], pool, 10))
    assert all([name for name, _ in j.assignment] == ["chi", "phi", "psi"] for _, j in got)


def test_a_schema_without_metavariables_is_its_pattern():
    pattern = parse_formula("(P -> P)", propositional_alphabet(("P",)))
    schema = Schema("c", pattern, ())
    assert schema.build(()) is pattern
    assert list(schema_instances([schema], [Atom("P")], 5)) == [(pattern, schema)]
    assert as_record((pattern, schema)) == (pattern, SchemaJustification("c", ()))


def test_copied_and_pickled_schemata_build_the_same_instances():
    pool = [Atom("P"), Negation(Atom("Q"))]
    for schema in builtin_calculus("kleene").schemata:
        formulas = tuple(pool + pool)[:len(schema.metavariables)]
        for twin in (copy.deepcopy(schema), pickle.loads(pickle.dumps(schema))):
            assert twin == schema
            assert twin.build(formulas) == schema.build(formulas)


METAVARIABLES = ("phi", "chi", "psi")


def patterns():
    leaves = st.one_of(
        st.sampled_from(METAVARIABLES + ("P", "Q")).map(Atom),
        st.just(PredApp("F", (Var("x"),))),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Negation, sub),
            st.builds(Binary, st.sampled_from((AND, OR, IMPLIES, IFF)), sub, sub),
            st.builds(Quantified, st.sampled_from((FORALL, EXISTS)), st.just("x"), sub),
        ),
        max_leaves=12,
    )


def values():
    return st.recursive(
        st.sampled_from(("P", "Q", "R")).map(Atom),
        lambda sub: st.one_of(st.builds(Negation, sub),
                              st.builds(Binary, st.sampled_from((AND, IMPLIES)), sub, sub)),
        max_leaves=4,
    )


@settings(max_examples=200, deadline=None)
@given(patterns(), st.data())
def test_builder_agrees_with_replace_atoms(pattern, data):
    present = [m for m in METAVARIABLES if _occurrences(pattern, m)]
    metas = tuple(data.draw(st.permutations(present)))
    schema = Schema("h", pattern, metas)
    assignment = {m: data.draw(values()) for m in metas}
    built = schema.build(tuple(assignment[m] for m in metas))
    assert built == _replace_atoms(pattern, assignment)
    if not metas:
        assert built is pattern


@settings(max_examples=100, deadline=None)
@given(st.lists(patterns(), min_size=1, max_size=3),
       st.lists(values(), min_size=1, max_size=6, unique=True),
       st.integers(min_value=0, max_value=44))
def test_random_patterns_and_pools_match_the_reference(patterns_drawn, pool, max_size):
    schemata = [Schema(f"s{i}", pattern,
                       tuple(m for m in METAVARIABLES if _occurrences(pattern, m)))
                for i, pattern in enumerate(patterns_drawn)]
    compare_with_the_reference(schemata, pool, max_size)
