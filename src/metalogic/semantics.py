"""Classical two-valued evaluation of propositional formulas.

Declared constant symbols (for instance the falsum constant of an
implication-and-falsum language) evaluate to False unless an assignment
explicitly overrides them.
"""

from __future__ import annotations

from typing import Mapping

from .errors import EvaluationError
from .syntax import (
    AND,
    Atom,
    Binary,
    Formula,
    IFF,
    IMPLIES,
    Negation,
    OR,
    formula_atoms,
)

MAX_TAUTOLOGY_ATOMS = 20


def _truth_column(formula: Formula, columns: Mapping[str, int], full: int) -> int:
    """The formula's column of a truth table: bit i is its value in row i.

    ``columns`` holds each atom's column and ``full`` has a bit set for
    every row. The connectives act on whole columns at once.
    """
    kind = type(formula)
    if kind is Binary:
        left = _truth_column(formula.left, columns, full)
        right = _truth_column(formula.right, columns, full)
        op = formula.op
        if op == IMPLIES:
            return (full & ~left) | right
        if op == AND:
            return left & right
        if op == OR:
            return left | right
        if op == IFF:
            return full & ~(left ^ right)
    elif kind is Atom:
        column = columns.get(formula.name)
        if column is None:
            raise EvaluationError(f"unassigned atom: {formula.name!r}")
        return column
    elif kind is Negation:
        return full & ~_truth_column(formula.operand, columns, full)
    raise EvaluationError(f"not a propositional formula: {formula!r}")


def evaluate_prop(formula: Formula, assignment: Mapping[str, bool],
                  constants: frozenset = frozenset()) -> bool:
    """The formula's value in one row; the assignment overrides constants."""
    columns = dict.fromkeys(constants, 0)
    for name, value in assignment.items():
        columns[name] = 1 if value else 0
    return _truth_column(formula, columns, 1) == 1


def is_tautology(formula: Formula, constants: frozenset = frozenset()) -> bool:
    """Exhaustive truth-table check.

    All 2^n assignment rows are evaluated at once: each atom becomes an
    integer whose bits are that atom's column of the truth table, and the
    connectives become bitwise operations on whole columns. Constants
    contribute an all-False column.
    """
    atoms = sorted(formula_atoms(formula) - constants)
    if len(atoms) > MAX_TAUTOLOGY_ATOMS:
        raise EvaluationError(
            f"formula has {len(atoms)} distinct atoms; "
            f"the truth-table cap is {MAX_TAUTOLOGY_ATOMS}"
        )
    rows = 1 << len(atoms)
    full = (1 << rows) - 1
    columns = dict.fromkeys(constants, 0)
    for i, name in enumerate(atoms):
        # Atom i alternates in blocks of 2^i rows: 0101... for i = 0.
        block = 1 << i
        column = 0
        for row in range(rows):
            if (row // block) % 2:
                column |= 1 << row
        columns[name] = column
    return _truth_column(formula, columns, full) == full
