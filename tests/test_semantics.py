"""Truth tables and the tautology decision."""

import pytest

from metalogic import (
    EvaluationError,
    MAX_TAUTOLOGY_ATOMS,
    Atom,
    Negation,
    enumerate_wffs,
    evaluate_prop,
    is_tautology,
    parse_formula,
    propositional_alphabet,
)

ALPHABET = propositional_alphabet(("P", "Q", "R"))


def wff(text):
    return parse_formula(text, ALPHABET)


def test_evaluate_connectives():
    assignment = {"P": True, "Q": False}
    assert evaluate_prop(wff("(P & Q)"), assignment) is False
    assert evaluate_prop(wff("(P | Q)"), assignment) is True
    assert evaluate_prop(wff("(P -> Q)"), assignment) is False
    assert evaluate_prop(wff("(Q -> P)"), assignment) is True
    assert evaluate_prop(wff("~Q"), assignment) is True
    assert evaluate_prop(wff("(P <-> Q)"), assignment) is False


def test_evaluate_missing_atom_errors():
    with pytest.raises(EvaluationError):
        evaluate_prop(wff("(P & Q)"), {"P": True})


@pytest.mark.parametrize("text", [
    "(P -> P)",
    "(P -> (Q -> P))",
    "((P -> (Q -> R)) -> ((P -> Q) -> (P -> R)))",
    "(~~P -> P)",
    "((P & Q) -> P)",
    "(P | ~P)",
])
def test_known_tautologies(text):
    assert is_tautology(wff(text))


@pytest.mark.parametrize("text", [
    "P",
    "(P -> Q)",
    "(P | Q)",
    "~(P & ~P) ",
])
def test_non_tautologies_and_one_actual(text):
    # the last parametrization is a tautology; keep the split honest
    expected = text.strip() == "~(P & ~P)"
    assert is_tautology(wff(text.strip())) is expected


def test_constants_evaluate_false():
    alphabet = propositional_alphabet(
        ("p", "q"), connectives=("implies",), constants=("f",)
    )
    # ((p -> f) -> f) -> p is the double negation axiom with f for falsum
    formula = parse_formula("(((p -> f) -> f) -> p)", alphabet)
    assert is_tautology(formula, constants=frozenset(alphabet.constants))
    not_valid = parse_formula("(p -> f)", alphabet)
    assert not is_tautology(not_valid, constants=frozenset(alphabet.constants))


def test_atom_cap_guards_blowup():
    names = [f"A{i}" for i in range(MAX_TAUTOLOGY_ATOMS + 1)]
    wide = propositional_alphabet(tuple(names))
    conjunction = names[0]
    for name in names[1:]:
        conjunction = f"({conjunction} & {name})"
    with pytest.raises(EvaluationError):
        is_tautology(parse_formula(conjunction, wide))


def test_assignment_overrides_a_constant():
    constants = frozenset({"f"})
    assert evaluate_prop(Atom("f"), {}, constants) is False
    assert evaluate_prop(Atom("f"), {"f": True}, constants) is True
    assert evaluate_prop(Negation(Atom("f")), {"f": 1}, constants) is False


def test_evaluate_agrees_with_the_truth_table():
    """A wff is a tautology iff every row makes it true, and its negation is
    a tautology iff every row makes it false."""
    alphabet = propositional_alphabet(("P", "Q"), constants=("f",))
    constants = frozenset(alphabet.constants)
    rows = [{"P": p, "Q": q} for p in (False, True) for q in (False, True)]
    formulas = enumerate_wffs(alphabet, 5)
    assert len(formulas) > 1000
    for formula in formulas:
        values = [evaluate_prop(formula, row, constants) for row in rows]
        assert all(type(value) is bool for value in values)
        assert is_tautology(formula, constants) is all(values), formula
        assert is_tautology(Negation(formula), constants) is not any(values), formula
