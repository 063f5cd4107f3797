"""Classical two-valued evaluation of propositional formulas.

Declared constant symbols (for instance the falsum constant of an
implication-and-falsum language) evaluate to False.
"""

from __future__ import annotations

from functools import lru_cache
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

    ``columns[name]`` is each atom's column and ``full`` has a bit set for
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
        return columns[formula.name]
    elif kind is Negation:
        # ~~x has the column of x: a negation chain is peeled in a loop, so
        # that a deep chain does not recurse
        operand = formula.operand
        negated = True
        while type(operand) is Negation:
            operand = operand.operand
            negated = not negated
        column = _truth_column(operand, columns, full)
        return full & ~column if negated else column
    raise EvaluationError(f"not a propositional formula: {formula!r}")


@lru_cache(maxsize=None)
def _table(atoms: int) -> tuple:
    """The columns of a truth table with 2^atoms rows, one per atom.

    Column i is set in the rows whose bit i is 1: 0101... for i = 0, then
    0011..., and so on. That is the block of 2^i zeros then 2^i ones,
    repeated: ``repeat * (((1 << 2^i) - 1) << 2^i)``, where ``repeat`` has
    bit 0 of every 2^(i+1)-row block set. ``repeat`` equals
    ``((1 << 2^atoms) - 1) // ((1 << 2^(i+1)) - 1)``; it is built by
    doubling from the top column down, because the division is quadratic
    in the table's size.
    """
    columns = []
    repeat = 1
    for i in reversed(range(atoms)):
        half = 1 << i
        columns.append(((repeat << half) - repeat) << half)
        repeat |= repeat << half
    return tuple(reversed(columns))


# is_tautology first evaluates over a table of this many atom columns, and
# only a formula with more atoms is evaluated again over its own table.
_FIRST_ATOMS = 6
_FIRST_TABLE = _table(_FIRST_ATOMS)
_FIRST_FULL = (1 << (1 << _FIRST_ATOMS)) - 1


class _TooManyAtoms(Exception):
    """The formula has more atoms than the first table has columns."""


class _FreshColumns(dict):
    """Atom columns that hand the next free column to each atom first seen."""

    __slots__ = ("free",)

    def __missing__(self, name):
        column = next(self.free, None)
        if column is None:
            raise _TooManyAtoms
        self[name] = column
        return column


def is_tautology(formula: Formula, constants: frozenset = frozenset()) -> bool:
    """Exhaustive truth-table check.

    All assignment rows are evaluated at once: each atom becomes an integer
    whose bits are that atom's column of the truth table, and the
    connectives become bitwise operations on whole columns. Constants
    contribute an all-False column.

    A formula is a tautology exactly when it is true in every row of any
    table that gives each of its atoms its own independent column. So one
    walk hands out the columns of a 2^6-row table as atoms are first seen;
    only a formula with more atoms is evaluated again over its 2^n rows.
    """
    columns = _FreshColumns.fromkeys(constants, 0)
    columns.free = iter(_FIRST_TABLE)
    try:
        return _truth_column(formula, columns, _FIRST_FULL) == _FIRST_FULL
    except _TooManyAtoms:
        pass
    atoms = formula_atoms(formula) - constants
    if len(atoms) > MAX_TAUTOLOGY_ATOMS:
        raise EvaluationError(
            f"formula has {len(atoms)} distinct atoms; "
            f"the truth-table cap is {MAX_TAUTOLOGY_ATOMS}"
        )
    full = (1 << (1 << len(atoms))) - 1
    columns = dict.fromkeys(constants, 0)
    columns.update(zip(atoms, _table(len(atoms))))
    return _truth_column(formula, columns, full) == full
