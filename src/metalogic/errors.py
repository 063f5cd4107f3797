"""Exception types shared across the package."""


class MetalogicError(Exception):
    """Base class for all package errors."""


class AlphabetError(MetalogicError):
    """A symbol table is malformed or a formula uses undeclared symbols."""


class ParseError(MetalogicError):
    """Surface text cannot be read as a formula.

    ``position`` is the character offset (0-based) where reading failed.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SchemaError(MetalogicError):
    """A schema is malformed or an instantiation is incomplete."""


class ArityError(MetalogicError):
    """A rule received the wrong number of premises or parameters."""


class UnknownRuleError(MetalogicError):
    """A rule specification names no known rule."""


class UnknownCalculusError(MetalogicError):
    """A calculus name matches no built-in."""


class RuleParameterError(MetalogicError):
    """A rule was built or applied with missing or invalid parameters."""


class DerivationError(MetalogicError):
    """A derivation failed re-validation, or a lookup asked for a formula
    the body does not contain."""


class EvaluationError(MetalogicError):
    """A truth-value computation met an unassigned or non-propositional node."""


class BudgetExceededError(MetalogicError):
    """An enumeration or search outgrew its configured ceiling."""


class CalculusFileError(MetalogicError):
    """A calculus description file is malformed."""


def check_count(value, minimum: int, what: str):
    """Raise RuleParameterError unless ``value`` is an integer (not a bool)
    of at least ``minimum``."""
    if type(value) is not int or value < minimum:
        raise RuleParameterError(f"{what} must be an integer >= {minimum}, got {value!r}")
