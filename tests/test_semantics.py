"""Truth tables and the tautology decision."""

import itertools
import random

import pytest

from metalogic import (
    EvaluationError,
    MAX_TAUTOLOGY_ATOMS,
    AND,
    IFF,
    IMPLIES,
    OR,
    Atom,
    Binary,
    Negation,
    enumerate_wffs,
    is_tautology,
    parse_formula,
    propositional_alphabet,
)
from metalogic.semantics import _table

ALPHABET = propositional_alphabet(("P", "Q", "R"))


def wff(text):
    return parse_formula(text, ALPHABET)


def evaluate(formula, row, constants=frozenset()):
    """The formula's value in one row, read off the connectives' truth
    tables one node at a time: a reference independent of the column
    arithmetic in ``is_tautology``. A constant is false."""
    if type(formula) is Atom:
        return False if formula.name in constants else row[formula.name]
    if type(formula) is Negation:
        return not evaluate(formula.operand, row, constants)
    left = evaluate(formula.left, row, constants)
    right = evaluate(formula.right, row, constants)
    return {AND: left and right, OR: left or right,
            IMPLIES: not left or right, IFF: left is right}[formula.op]


def test_evaluate_connectives():
    assignment = {"P": True, "Q": False}
    assert evaluate(wff("(P & Q)"), assignment) is False
    assert evaluate(wff("(P | Q)"), assignment) is True
    assert evaluate(wff("(P -> Q)"), assignment) is False
    assert evaluate(wff("(Q -> P)"), assignment) is True
    assert evaluate(wff("~Q"), assignment) is True
    assert evaluate(wff("(P <-> Q)"), assignment) is False


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


def test_evaluate_agrees_with_the_truth_table():
    """A wff is a tautology iff every row makes it true, and its negation is
    a tautology iff every row makes it false."""
    alphabet = propositional_alphabet(("P", "Q"), constants=("f",))
    constants = frozenset(alphabet.constants)
    rows = [{"P": p, "Q": q} for p in (False, True) for q in (False, True)]
    formulas = enumerate_wffs(alphabet, 5)
    assert len(formulas) > 1000
    for formula in formulas:
        values = [evaluate(formula, row, constants) for row in rows]
        assert all(type(value) is bool for value in values)
        assert is_tautology(formula, constants) is all(values), formula
        assert is_tautology(Negation(formula), constants) is not any(values), formula


@pytest.mark.parametrize("atoms", range(1, 9))
def test_closed_form_columns(atoms):
    """Column i is set exactly in the rows whose bit i is 1, and is the
    closed form full // (2^(2^(i+1)) - 1) * ((2^(2^i) - 1) << 2^i)."""
    full = (1 << (1 << atoms)) - 1
    for i, column in enumerate(_table(atoms)):
        expected = sum(1 << row for row in range(1 << atoms) if row >> i & 1)
        assert column == expected, (atoms, i)
        block = ((1 << (1 << i)) - 1) << (1 << i)
        assert column == full // ((1 << (2 << i)) - 1) * block, (atoms, i)


def _chain(op, names):
    formula = Atom(names[0])
    for name in names[1:]:
        formula = Binary(op, formula, Atom(name))
    return formula


def test_twenty_atoms():
    names = [f"A{i}" for i in range(MAX_TAUTOLOGY_ATOMS)]
    assert is_tautology(Binary(IMPLIES, _chain(AND, names), Atom(names[7])))
    assert not is_tautology(Binary(IMPLIES, _chain(OR, names), Atom(names[7])))


def _rows(names):
    return [dict(zip(names, bits))
            for bits in itertools.product((False, True), repeat=len(names))]


def _agrees_on_every_row(formula, rows, constants):
    values = [evaluate(formula, row, constants) for row in rows]
    assert is_tautology(formula, constants) is all(values), formula
    assert is_tautology(Negation(formula), constants) is not any(values), formula


@pytest.mark.parametrize("variables, constants", [
    (("P", "Q", "R"), ()),
    (("P", "Q"), ("f",)),
], ids=["no-constant", "constant"])
def test_every_small_wff_agrees_with_evaluate(variables, constants):
    alphabet = propositional_alphabet(variables, constants=constants)
    rows = _rows(variables)
    for formula in enumerate_wffs(alphabet, 7):
        _agrees_on_every_row(formula, rows, frozenset(constants))


def _random_formula(rng, names, leaves):
    if leaves == 1:
        atom = Atom(rng.choice(names))
        return Negation(atom) if rng.random() < 0.3 else atom
    split = rng.randint(1, leaves - 1)
    return Binary(rng.choice((AND, OR, IMPLIES, IFF)),
                  _random_formula(rng, names, split),
                  _random_formula(rng, names, leaves - split))


@pytest.mark.parametrize("atoms", [7, 8, 9])
def test_formulas_past_the_first_table_agree_with_evaluate(atoms):
    """Seven or more atoms take the recount over exactly 2^n rows."""
    rng = random.Random(atoms)
    names = [f"A{i}" for i in range(atoms)]
    rows = _rows(names)
    for constants in (frozenset(), frozenset({"f"})):
        for _ in range(12):
            phi = _random_formula(rng, names + sorted(constants), 12)
            chi = _chain(OR, names)
            # every atom occurs, and a third of the formulas are tautologies
            for formula in (Binary(OR, phi, chi), Binary(IMPLIES, phi, Binary(OR, phi, chi)),
                            Binary(IMPLIES, chi, Binary(AND, phi, chi))):
                _agrees_on_every_row(formula, rows, constants)
