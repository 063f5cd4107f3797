"""The print cache and the canonical sort.

``print_formula`` caches text on the formula it is called on and on nothing
else, and ``canonical_sorted`` orders formulas as ``canonical_key`` does
without building a key tuple per item. The differential tests check both
against the plain definitions over random propositional and first-order
formulas; the memory guard checks what a bounded body keeps.
"""

import tracemalloc
from dataclasses import replace

import hypothesis.strategies as st
from hypothesis import given, settings

from metalogic import (
    AND,
    FORALL,
    EXISTS,
    IFF,
    IMPLIES,
    OR,
    Atom,
    Binary,
    Bounds,
    Equality,
    FuncApp,
    Negation,
    PredApp,
    Quantified,
    SchemaJustification,
    Var,
    builtin_calculus,
    canonical_key,
    canonical_sorted,
    enumerate_body,
    first_order_alphabet,
    parse_formula,
    print_formula,
    propositional_alphabet,
)

PROPOSITIONAL = propositional_alphabet(("P", "Q", "R"))
FIRST_ORDER = first_order_alphabet(
    ("x", "y"), variables=("P", "Q"),
    functions={"c": 0, "g": 1, "h": 2}, predicates={"R": 1, "S": 2, "T": 0})
OPS = (AND, OR, IMPLIES, IFF)


def propositional_formulas():
    return st.recursive(
        st.sampled_from(("P", "Q", "R")).map(Atom),
        lambda sub: st.one_of(
            sub.map(Negation),
            st.builds(Binary, st.sampled_from(OPS), sub, sub),
        ),
        max_leaves=12,
    )


def terms():
    # builds, not just: every draw is a new object with nothing cached
    return st.recursive(
        st.one_of(st.sampled_from(("x", "y")).map(Var), st.builds(FuncApp, st.just("c"))),
        lambda sub: st.one_of(
            st.builds(lambda a: FuncApp("g", (a,)), sub),
            st.builds(lambda a, b: FuncApp("h", (a, b)), sub, sub),
        ),
        max_leaves=4,
    )


def _quantified(quant, variable, body):
    # R(variable) keeps the quantifier from being vacuous
    return Quantified(quant, variable, Binary(AND, PredApp("R", (Var(variable),)), body))


def first_order_formulas():
    leaves = st.one_of(
        st.sampled_from(("P", "Q")).map(Atom),
        st.builds(PredApp, st.just("T")),
        st.builds(lambda t: PredApp("R", (t,)), terms()),
        st.builds(lambda a, b: PredApp("S", (a, b)), terms(), terms()),
        st.builds(Equality, terms(), terms()),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Negation),
            st.builds(Binary, st.sampled_from(OPS), sub, sub),
            st.builds(_quantified, st.sampled_from((FORALL, EXISTS)),
                      st.sampled_from(("x", "y")), sub),
        ),
        max_leaves=8,
    )


def children(node) -> tuple:
    kind = type(node)
    if kind is Negation:
        return (node.operand,)
    if kind in (Binary, Equality):
        return (node.left, node.right)
    if kind is Quantified:
        return (node.body,)
    if kind in (PredApp, FuncApp):
        return node.args
    return ()


def nodes_of(root) -> list:
    """Every node object under ``root``, root first."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(children(node))
    return out


def rebuilt(node):
    """A structurally equal copy made of new objects, none printed."""
    kind = type(node)
    if kind in (Atom, Var):
        return kind(node.name)
    if kind in (PredApp, FuncApp):
        return kind(node.name, tuple(map(rebuilt, node.args)))
    if kind is Negation:
        return Negation(rebuilt(node.operand))
    if kind is Binary:
        return Binary(node.op, rebuilt(node.left), rebuilt(node.right))
    if kind is Equality:
        return Equality(rebuilt(node.left), rebuilt(node.right))
    return Quantified(node.quant, node.variable, rebuilt(node.body))


class TestCanonicalSorted:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(propositional_formulas(), first_order_formulas()),
                    max_size=30),
           st.lists(st.integers(min_value=0), max_size=5))
    def test_same_order_as_the_canonical_key(self, formulas, copied):
        # equal formulas in distinct objects must keep their input order too
        items = formulas + [rebuilt(formulas[i % len(formulas)])
                            for i in copied if formulas]
        ordered = canonical_sorted(items)
        expected = sorted(items, key=canonical_key)
        assert list(map(id, ordered)) == list(map(id, expected))


class TestPrintCache:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
               st.tuples(propositional_formulas(), st.just(PROPOSITIONAL)),
               st.tuples(first_order_formulas(), st.just(FIRST_ORDER))),
           st.lists(st.integers(min_value=0), max_size=8))
    def test_text_does_not_depend_on_what_was_printed_first(self, case, picks):
        formula, alphabet = case
        reference = print_formula(rebuilt(formula))
        nodes = nodes_of(formula)
        printed_first = set()
        for pick in picks:
            node = nodes[pick % len(nodes)]
            print_formula(node)
            printed_first.add(id(node))
        text = print_formula(formula)
        assert text == reference
        fresh = parse_formula(text, alphabet)
        assert fresh == formula
        assert print_formula(fresh) == text
        # only the root and the nodes printed as roots hold text
        for node in nodes:
            cached = node is formula or id(node) in printed_first
            assert (node._printed is not None) == cached, print_formula(node)


class TestBodyMemory:
    """A mid-size Kleene stage-1 body: 20,000 schema instances over a pool of
    the formulas up to size 5 in P and Q."""

    BOUNDS = Bounds(max_stage=1, max_formula_size=21, node_budget=20000,
                    instantiation_pool_size=5)
    # Retained bytes per theorem, measured with tracemalloc on CPython
    # 3.10-3.13: 580-598 when every inner node of an instance cached its
    # text, 518-527 when only the members and pool formulas do.
    CEILING = 555

    def build(self):
        calculus = replace(builtin_calculus("kleene"), pool_variables=("P", "Q"))
        return enumerate_body(calculus, self.BOUNDS)

    def test_retained_bytes_per_theorem(self):
        tracemalloc.start()
        try:
            body = self.build()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(body) == self.BOUNDS.node_budget
        assert retained / len(body) < self.CEILING

    def test_only_members_and_pool_formulas_hold_text(self):
        body = self.build()
        spine_nodes = 0
        for theorem in body:
            assert theorem._printed is not None
            justification = body.justification_of(theorem)
            assert isinstance(justification, SchemaJustification)
            # the assignment holds the pool formulas the instance shares
            filled = {id(f) for _, f in justification.assignment}
            stack = list(children(theorem))
            while stack:
                node = stack.pop()
                if id(node) in filled:
                    continue
                assert node._printed is None, print_formula(theorem)
                spine_nodes += 1
                stack.extend(children(node))
        assert spine_nodes >= len(body)
