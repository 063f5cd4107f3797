"""enumerate_wffs against a brute-force reference.

The reference builds every term and formula of size s from all the terms
and formulas of smaller sizes, straight from the grammar, then sorts the
lot canonically. It shares no code with the enumerator: it computes free
variables with its own recursive walk and never calls the size-vector
enumerator.
"""

import collections
import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from metalogic import (
    AND,
    CONNECTIVES,
    IFF,
    IMPLIES,
    NOT,
    OR,
    QUANTIFIERS,
    Atom,
    Binary,
    BudgetExceededError,
    Equality,
    FuncApp,
    Negation,
    PredApp,
    Quantified,
    RuleParameterError,
    Var,
    enumerate_wffs,
    first_order_alphabet,
    print_formula,
    propositional_alphabet,
    shoenfield_fragment_calculus,
)


def _free(node):
    if type(node) is Var:
        return {node.name}
    if type(node) in (FuncApp, PredApp):
        return set().union(*map(_free, node.args))
    if type(node) is Equality:
        return _free(node.left) | _free(node.right)
    if type(node) is Negation:
        return _free(node.operand)
    if type(node) is Binary:
        return _free(node.left) | _free(node.right)
    if type(node) is Quantified:
        return _free(node.body) - {node.variable}
    return set()


def _argument_tuples(terms, arity, total):
    """Every ``arity``-tuple of the given terms whose sizes sum to ``total``."""
    return [args for args in itertools.product(terms, repeat=arity)
            if sum(t.size for t in args) == total]


def reference_wffs(alphabet, max_size, limit=None):
    """Every formula of size at most ``max_size``, canonically sorted; more
    than ``limit`` of them raise BudgetExceededError, and a negative size
    RuleParameterError, each with the enumerator's message."""
    if max_size < 0:
        raise RuleParameterError(f"max_size must be an integer >= 0, got {max_size!r}")
    first_order = alphabet.kind == "first-order"
    binary_ops = [op for op in (AND, OR, IMPLIES, IFF) if op in alphabet.connectives]
    terms, formulas = [], []
    by_size = collections.defaultdict(list)
    for size in range(1, max_size + 1):
        new_terms, new = [], []
        if first_order:
            for name, arity in alphabet.functions:
                if arity == 0 and size == 1:
                    new_terms.append(FuncApp(name, ()))
                elif arity:
                    new_terms += [FuncApp(name, args)
                                  for args in _argument_tuples(terms, arity, size - 1)]
            if size == 1:
                new_terms += [Var(v) for v in alphabet.individual_variables]
        if size == 1:
            new += [Atom(v) for v in alphabet.variables]
            if not first_order:
                new += [Atom(c) for c in alphabet.constants]
        if first_order:
            # terms of this size cannot sit inside an atom of this size
            for name, arity in alphabet.predicates:
                if arity == 0 and size == 1:
                    new.append(PredApp(name, ()))
                elif arity:
                    new += [PredApp(name, args)
                            for args in _argument_tuples(terms, arity, size - 1)]
            new += [Equality(*pair) for pair in _argument_tuples(terms, 2, size - 1)]
        if NOT in alphabet.connectives:
            new += [Negation(f) for f in by_size[size - 1]]
        if first_order:
            for quant in alphabet.quantifiers:
                new += [Quantified(quant, v, f) for f in by_size[size - 1]
                        for v in alphabet.individual_variables if v in _free(f)]
        for op in binary_ops:
            for left_size in range(1, size - 1):
                new += [Binary(op, left, right) for left in by_size[left_size]
                        for right in by_size[size - 1 - left_size]]
        terms += new_terms
        by_size[size] = new
        formulas += new
        if limit is not None and len(formulas) > limit:
            raise BudgetExceededError(f"enumeration outgrew its ceiling of {limit}")
    assert len(set(formulas)) == len(formulas)
    return sorted(formulas, key=lambda f: (f.size, print_formula(f)))


def _outcome(build, *args):
    """The list, or the ceiling or size error's message."""
    try:
        return build(*args)
    except BudgetExceededError as error:
        return ("ceiling", str(error))
    except RuleParameterError as error:
        return ("size", str(error))


def _subset(options):
    return st.lists(st.sampled_from(options), unique=True).map(
        lambda chosen: tuple(o for o in options if o in chosen))


@st.composite
def alphabets(draw):
    connectives = draw(_subset(CONNECTIVES))
    if draw(st.booleans()):
        return propositional_alphabet(draw(_subset(("p", "q"))), connectives,
                                      constants=draw(_subset(("t", "f"))))
    arities = st.integers(min_value=0, max_value=2)
    functions = draw(st.dictionaries(st.sampled_from(("c", "g", "h")), arities, max_size=2))
    predicates = draw(st.dictionaries(st.sampled_from(("P", "R", "S")), arities,
                                      min_size=1, max_size=2))
    return first_order_alphabet(
        draw(st.sampled_from((("x",), ("x", "y")))),
        variables=draw(_subset(("p",))),
        connectives=connectives,
        functions=sorted(functions.items()),
        predicates=sorted(predicates.items()),
        quantifiers=draw(_subset(QUANTIFIERS)),
    )


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(alphabet=alphabets(), max_size=st.integers(min_value=-1, max_value=7),
       limit=st.one_of(st.none(), st.integers(min_value=0, max_value=60)))
def test_enumeration_matches_the_reference(alphabet, max_size, limit):
    if limit is None:
        # keep unlimited cases small enough for the reference to list
        assume(isinstance(_outcome(reference_wffs, alphabet, max_size, 3000), list))
    expected = _outcome(reference_wffs, alphabet, max_size, limit)
    assert _outcome(enumerate_wffs, alphabet, max_size, limit) == expected


@pytest.mark.parametrize("alphabet", [
    propositional_alphabet(("P", "Q")),
    propositional_alphabet(("p", "q"), connectives=(IMPLIES,), constants=("f",)),
    first_order_alphabet(("x", "y"), functions=(("c", 0), ("g", 1), ("h", 2)),
                         predicates=(("P", 1), ("R", 2))),
], ids=["kleene-pq", "implication-f", "first-order"])
@pytest.mark.parametrize("limit", [None, 40, 400])
def test_fixed_alphabets_match_the_reference(alphabet, limit):
    expected = _outcome(reference_wffs, alphabet, 6, limit)
    assert _outcome(enumerate_wffs, alphabet, 6, limit) == expected


# recorded from the enumerator before terms and atoms were built in the
# one pass up the sizes; the reference agrees
SHOENFIELD_SIZE_COUNTS = {2: 3, 3: 18, 4: 60, 5: 183, 6: 741}


def test_shoenfield_fragment_counts_by_size():
    alphabet = shoenfield_fragment_calculus().alphabet
    formulas = enumerate_wffs(alphabet, 6)
    assert dict(collections.Counter(f.size for f in formulas)) == SHOENFIELD_SIZE_COUNTS
    assert formulas == reference_wffs(alphabet, 6)
