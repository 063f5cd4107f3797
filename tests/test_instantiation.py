"""Differential checks of schema instantiation against naive references.

``reference_schema_instances`` is the straightforward stream: for each
target size and schema, every metavariable size vector, every pool
combination, an assignment dict, the instance from ``_replace_atoms`` and
the name-sorted assignment. ``schema_instances`` must give the same
(formula, justification) sequence, order included, and each schema's
compiled builder must agree with ``_replace_atoms``.
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
    Atom,
    Binary,
    Bounds,
    Negation,
    PredApp,
    Quantified,
    Schema,
    SchemaJustification,
    Var,
    builtin_calculus,
    instantiation_pool,
    parse_formula,
    propositional_alphabet,
    schema_instances,
)
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
    got = itertools.islice(schema_instances(calculus.schemata, pool, 13), 20000)
    expected = itertools.islice(reference_schema_instances(calculus.schemata, pool, 13), 20000)
    count = 0
    for item, ref_item in itertools.zip_longest(got, expected):
        assert item == ref_item
        count += 1
    assert count > 0 or not pool


def test_declared_order_is_not_name_order():
    """The builder reads pairs in declared order; the justification lists
    them by name."""
    alphabet = propositional_alphabet(("P", "Q"), constants=("f",))
    meta = propositional_alphabet(("P", "Q", "psi", "chi", "phi"), constants=("f",))
    schema = Schema("s", parse_formula("(psi -> (phi -> (chi | f)))", meta),
                    ("psi", "phi", "chi"))
    pool = [Atom("P"), Atom("Q"), parse_formula("~P", alphabet)]
    got = list(schema_instances([schema], pool, 10))
    assert got == list(reference_schema_instances([schema], pool, 10))
    assert all([name for name, _ in j.assignment] == ["chi", "phi", "psi"] for _, j in got)


def test_a_schema_without_metavariables_is_its_pattern():
    pattern = parse_formula("(P -> P)", propositional_alphabet(("P",)))
    schema = Schema("c", pattern, ())
    assert schema.build(()) is pattern
    assert list(schema_instances([schema], [Atom("P")], 5)) == [
        (pattern, SchemaJustification("c", ()))]


def test_copied_and_pickled_schemata_build_the_same_instances():
    pool = [Atom("P"), Negation(Atom("Q"))]
    for schema in builtin_calculus("kleene").schemata:
        pairs = tuple(zip(schema.metavariables, pool + pool))
        for twin in (copy.deepcopy(schema), pickle.loads(pickle.dumps(schema))):
            assert twin == schema
            assert twin.build(pairs) == schema.build(pairs)


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
    built = schema.build(tuple((m, assignment[m]) for m in metas))
    assert built == _replace_atoms(pattern, assignment)
    if not metas:
        assert built is pattern
