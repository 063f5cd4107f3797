"""Object-language syntax: alphabets, terms and formulas, parsing, printing,
validation, enumeration.

Surface grammar (ASCII canonical, Unicode synonyms accepted on input):

    formula   := iff
    iff       := imp ('<->' iff)?                 right associative
    imp       := or ('->' imp)?                   right associative
    or        := and ('|' and)*                   left associative
    and       := unary ('&' unary)*               left associative
    unary     := '~' unary
               | ('forall' | 'exists') VAR unary
               | primary
    primary   := '(' formula ')' | '[' formula ']'
               | ATOM
               | PREDICATE '(' term (',' term)* ')'
               | term '=' term
    term      := VAR | CONSTANT | FUNCTION '(' term (',' term)* ')'

Connective precedence is ~ over & over | over -> over <->. Accepted input
synonyms: not ~ <- {~, ¬, ∼}, and <- {&, ∧}, or <- {|, ∨}, implies <- {->, →,
⊃}, iff <- {<->, ↔}, forall <- {forall, ∀}, exists <- {exists, ∃}. Brackets
[ ] pair like parentheses. The printer emits the fully parenthesized ASCII
canonical form; round-tripping print then parse is the identity.

A formula's size is its node count: one per atom, predicate application,
equality, connective, quantifier, and term node. Quantifiers only bind
variables that occur free in their body (vacuous quantification is not well
formed). Individual variables may carry trailing apostrophes: declaring x
also declares x', x'' and so on.

Input may nest at most 100 levels deep. Each open bracket counts one level,
and so does each connective or quantifier whose operand is still being read:
a negation, a quantifier, the right operand of -> and <->, and every further
operand of an & or | chain. Deeper input is a ParseError, so the recursive
parser and the recursive tree walkers that later visit the formula stay
within Python's stack.

Printed text is cached only on the formula or term ``print_formula`` is
called on. Subformulas and subterms are printed by a walk that reads their
cached text where it is set and stores none, so a subformula holds a
string only if it was itself printed as a root. A bounded body prints
its theorems and its instantiation pool as such, to sort them: it keeps one
string per theorem and per pool formula, and none on the inner nodes that
schema instances and rule conclusions build around them. The canonical
order (size, then printed text) is ``canonical_sorted``; ``canonical_key``
is the same order as a sort key.

``enumerate_wffs`` builds the language in one pass up the sizes, and its
ceiling or the language, not the size bound, bounds the work. ``size_vectors`` is the one
enumerator of size compositions: the argument sizes of terms and atoms and
the part sizes of equalities and binary formulas here at exact budgets, and
the metavariable sizes of schema instances in ``engine``, each schema's
walked once up to the budget the size cap leaves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (
    AlphabetError,
    BudgetExceededError,
    ParseError,
    SchemaError,
    check_count,
)

NOT = "not"
AND = "and"
OR = "or"
IMPLIES = "implies"
IFF = "iff"
CONNECTIVES = (NOT, AND, OR, IMPLIES, IFF)
BINARY_CONNECTIVES = (AND, OR, IMPLIES, IFF)

FORALL = "forall"
EXISTS = "exists"
QUANTIFIERS = (FORALL, EXISTS)

_BINARY_SYMBOL = {AND: "&", OR: "|", IMPLIES: "->", IFF: "<->"}

PROPOSITIONAL = "propositional"
FIRST_ORDER = "first-order"


# ==========================================================================
# Terms and formulas
#
# Plain slotted classes rather than dataclasses: these are the hot objects of
# every enumeration, so the hash is computed once at construction and the
# printed form is cached on the nodes printed as roots (see print_formula).
# Treat instances as immutable.
# ==========================================================================

class Term:
    __slots__ = ("size", "_hash", "_printed")

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return print_formula(self)


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.size = 1
        self._hash = hash((1, name))
        self._printed = None

    def __eq__(self, other):
        return self is other or (type(other) is Var and other.name == self.name)

    __hash__ = Term.__hash__


class FuncApp(Term):
    """A function symbol applied to argument terms; arity 0 is a constant."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple = ()):
        self.name = name
        self.args = tuple(args)
        self.size = 1 + sum(a.size for a in self.args)
        self._hash = hash((2, name) + tuple(a._hash for a in self.args))
        self._printed = None

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is FuncApp
            and other._hash == self._hash
            and other.name == self.name
            and other.args == self.args
        )

    __hash__ = Term.__hash__


class Formula:
    __slots__ = ("size", "_hash", "_printed")

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return print_formula(self)


class Atom(Formula):
    """A propositional variable or propositional constant."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.size = 1
        self._hash = hash((3, name))
        self._printed = None

    def __eq__(self, other):
        return self is other or (type(other) is Atom and other.name == self.name)

    __hash__ = Formula.__hash__


class PredApp(Formula):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple = ()):
        self.name = name
        self.args = tuple(args)
        self.size = 1 + sum(a.size for a in self.args)
        self._hash = hash((4, name) + tuple(a._hash for a in self.args))
        self._printed = None

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is PredApp
            and other._hash == self._hash
            and other.name == self.name
            and other.args == self.args
        )

    __hash__ = Formula.__hash__


class Equality(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right
        self.size = 1 + left.size + right.size
        self._hash = hash((5, left._hash, right._hash))
        self._printed = None

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is Equality
            and other._hash == self._hash
            and other.left == self.left
            and other.right == self.right
        )

    __hash__ = Formula.__hash__


class Negation(Formula):
    __slots__ = ("operand",)

    def __init__(self, operand: Formula):
        self.operand = operand
        self.size = 1 + operand.size
        self._hash = hash((6, operand._hash))
        self._printed = None

    def __eq__(self, other):
        # A loop down the negation chain, so that a deep chain does not
        # recurse once per negation.
        formula = self
        while formula is not other:
            if type(other) is not Negation or other._hash != formula._hash:
                return False
            formula, other = formula.operand, other.operand
            if type(formula) is not Negation:
                return formula == other
        return True

    __hash__ = Formula.__hash__


class Binary(Formula):
    """A binary connective node; ``op`` is one of and/or/implies/iff."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Formula, right: Formula):
        self.op = op
        self.left = left
        self.right = right
        self.size = 1 + left.size + right.size
        self._hash = hash((7, op, left._hash, right._hash))
        self._printed = None

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is Binary
            and other._hash == self._hash
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    __hash__ = Formula.__hash__


class Quantified(Formula):
    """forall/exists over a named individual variable. Identity is
    structural: quantifying the same body over differently named variables
    gives different formulas."""

    __slots__ = ("quant", "variable", "body")

    def __init__(self, quant: str, variable: str, body: Formula):
        self.quant = quant
        self.variable = variable
        self.body = body
        self.size = 1 + body.size
        self._hash = hash((8, quant, variable, body._hash))
        self._printed = None

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is Quantified
            and other._hash == self._hash
            and other.quant == self.quant
            and other.variable == self.variable
            and other.body == self.body
        )

    __hash__ = Formula.__hash__


# ==========================================================================
# Printing
# ==========================================================================

def _text(node) -> str:
    """The printed term or formula; reads any cached text, writes none."""
    cached = node._printed
    if cached is not None:
        return cached
    kind = type(node)
    if kind is Binary:
        return "(%s %s %s)" % (
            _text(node.left),
            _BINARY_SYMBOL[node.op],
            _text(node.right),
        )
    if kind is Atom or kind is Var:
        return node.name
    if kind is Negation:
        # A loop down the negation chain, to its first node that is not an
        # uncached negation, so that a deep chain does not recurse.
        depth = 0
        while type(node) is Negation and node._printed is None:
            node = node.operand
            depth += 1
        return "~" * depth + _text(node)
    if kind is Quantified:
        return "%s %s %s" % (node.quant, node.variable, _text(node.body))
    if kind is PredApp or kind is FuncApp:
        if node.args:
            return "%s(%s)" % (node.name, ", ".join(map(_text, node.args)))
        return node.name
    if kind is Equality:
        return "(%s = %s)" % (_text(node.left), _text(node.right))
    raise TypeError(f"not a formula or term: {node!r}")


def print_formula(formula) -> str:
    """Fully parenthesized ASCII canonical form of a formula or a term;
    parse of a printed formula is the identity.

    The text is cached on ``formula`` alone: its subformulas and subterms
    are printed by a walk that reads their cached text and stores none.
    """
    cached = formula._printed
    if cached is None:
        cached = formula._printed = _text(formula)
    return cached


def canonical_key(formula: Formula):
    """Sort key for the canonical size-lexicographic order."""
    return (formula.size, print_formula(formula))


_size = attrgetter("size")


def canonical_sorted(formulas: Iterable[Formula]) -> list:
    """The formulas in canonical order, ``sorted(formulas, key=canonical_key)``.

    Sorting by printed text and then stably by size gives that order with
    no (size, text) tuple per item.
    """
    out = sorted(formulas, key=print_formula)
    out.sort(key=_size)
    return out


# ==========================================================================
# Alphabets
# ==========================================================================

def _as_arity_table(value) -> tuple:
    """``value`` as ((name, arity), ...); each entry must be a [name, arity]
    pair whose arity is an integer (not a bool) >= 0."""
    items = tuple(sorted(value.items())) if isinstance(value, Mapping) else tuple(value)
    for item in items:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or type(item[1]) is not int or item[1] < 0):
            raise AlphabetError(
                f"bad symbol declaration: expected a [name, arity] pair with an "
                f"integer arity >= 0, got {item!r}")
    return tuple(tuple(item) for item in items)


@dataclass(frozen=True)
class Alphabet:
    """Symbol table of an object language.

    ``kind`` is "propositional" or "first-order". ``variables`` are the
    propositional atoms; ``constants`` are propositional constants (nullary
    atoms), which only propositional alphabets declare. First-order
    alphabets declare individual variables, quantifiers, and arities for
    function and predicate symbols; constants of a first-order language are
    arity-0 function symbols. Parentheses and brackets are both accepted on
    input in every language, and the canonical printer emits parentheses.
    Every symbol name is an identifier that the tokenizer reads back as
    itself, and every arity an integer >= 0.
    """

    kind: str
    variables: tuple = ()
    connectives: tuple = ()
    constants: tuple = ()
    functions: tuple = ()
    predicates: tuple = ()
    individual_variables: tuple = ()
    quantifiers: tuple = ()
    _function_arity: Mapping = field(init=False, repr=False, compare=False, default=None)
    _predicate_arity: Mapping = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.kind not in (PROPOSITIONAL, FIRST_ORDER):
            raise AlphabetError(f"unknown language kind: {self.kind!r}")
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "connectives", tuple(self.connectives))
        object.__setattr__(self, "constants", tuple(self.constants))
        object.__setattr__(self, "functions", _as_arity_table(self.functions))
        object.__setattr__(self, "predicates", _as_arity_table(self.predicates))
        object.__setattr__(self, "individual_variables", tuple(self.individual_variables))
        object.__setattr__(self, "quantifiers", tuple(self.quantifiers))
        for c in self.connectives:
            if c not in CONNECTIVES:
                raise AlphabetError(f"unknown connective: {c!r}")
        for q in self.quantifiers:
            if q not in QUANTIFIERS:
                raise AlphabetError(f"unknown quantifier: {q!r}")
        if self.kind == PROPOSITIONAL:
            if self.functions or self.predicates or self.individual_variables or self.quantifiers:
                raise AlphabetError("propositional alphabets declare no first-order symbols")
        elif self.constants:
            raise AlphabetError("first-order alphabets declare no propositional constants")
        others = (*self.variables, *self.constants,
                  *(n for n, _ in self.functions + self.predicates))
        seen = set()
        for name in itertools.chain(others, self.individual_variables):
            # a name is what the tokenizer reads back as one identifier
            if (not isinstance(name, str) or not name or "′" in name
                    or _identifier_end(name, 0) != len(name)):
                raise AlphabetError(f"bad symbol name: {name!r}")
            if name in _KEYWORDS:
                raise AlphabetError(f"symbol name collides with a keyword: {name!r}")
            if name in seen:
                raise AlphabetError(f"symbol declared twice: {name!r}")
            seen.add(name)
        # declaring x declares x', x'' and so on (is_individual_variable)
        for name in self.individual_variables:
            if name.endswith("'"):
                raise AlphabetError(f"individual variable declared with a prime: {name!r}")
        for name in others:
            if self.is_individual_variable(name):
                raise AlphabetError(
                    f"symbol name {name!r} is a primed form of an individual variable")
        object.__setattr__(self, "_function_arity", dict(self.functions))
        object.__setattr__(self, "_predicate_arity", dict(self.predicates))

    def is_individual_variable(self, name: str) -> bool:
        base = name.rstrip("'")
        return bool(base) and base in self.individual_variables

    def declares(self, name: str) -> bool:
        """Whether ``name`` is one of the alphabet's object symbols."""
        return (name in self.variables or name in self.constants
                or name in self._function_arity or name in self._predicate_arity
                or self.is_individual_variable(name))


def propositional_alphabet(variables, connectives=CONNECTIVES, constants=()) -> Alphabet:
    return Alphabet(
        kind=PROPOSITIONAL,
        variables=tuple(variables),
        connectives=tuple(connectives),
        constants=tuple(constants),
    )


def first_order_alphabet(individual_variables, *, variables=(), connectives=CONNECTIVES,
                         functions=(), predicates=(), quantifiers=QUANTIFIERS) -> Alphabet:
    return Alphabet(
        kind=FIRST_ORDER,
        variables=tuple(variables),
        connectives=tuple(connectives),
        functions=functions,
        predicates=predicates,
        individual_variables=tuple(individual_variables),
        quantifiers=tuple(quantifiers),
    )


# ==========================================================================
# Structural queries
# ==========================================================================

def free_variables(node) -> frozenset:
    """Free individual variables of a formula, or all variables of a term.
    Propositional formulas have none.

    The walk keeps an explicit stack, so any depth can be walked.
    """
    out = set()
    stack = [(node, frozenset())]  # (node, variables bound above it)
    while stack:
        node, bound = stack.pop()
        kind = type(node)
        if kind is Var:
            if node.name not in bound:
                out.add(node.name)
        elif kind is FuncApp or kind is PredApp:
            stack.extend((a, bound) for a in node.args)
        elif kind is Equality or kind is Binary:
            stack.append((node.left, bound))
            stack.append((node.right, bound))
        elif kind is Negation:
            stack.append((node.operand, bound))
        elif kind is Quantified:
            stack.append((node.body, bound | {node.variable}))
        elif kind is not Atom:
            raise TypeError(f"not a formula or term: {node!r}")
    return frozenset(out)


def formula_atoms(formula: Formula) -> frozenset:
    """Names of the propositional atoms occurring in the formula."""
    return frozenset(atom_occurrences(formula))


def atom_occurrences(formula: Formula) -> dict:
    """How often each propositional atom occurs, by name.

    Replacing every occurrence of atom ``x`` by ``q`` gives a formula of
    size ``formula.size + atom_occurrences(formula)[x] * (q.size - 1)``.
    """
    counts = {}
    stack = [formula]
    while stack:
        f = stack.pop()
        kind = type(f)
        if kind is Atom:
            counts[f.name] = counts.get(f.name, 0) + 1
        elif kind is Negation:
            stack.append(f.operand)
        elif kind is Binary:
            stack.append(f.left)
            stack.append(f.right)
        elif kind is Quantified:
            stack.append(f.body)
    return counts


def _formula_children(node) -> tuple:
    kind = type(node)
    if kind is Binary:
        return (node.left, node.right)
    if kind is Negation:
        return (node.operand,)
    if kind is Quantified:
        return (node.body,)
    return ()


def subformulas(formula: Formula) -> set:
    """All formula-level subtrees, the formula itself included."""
    out = set()
    stack = [formula]
    while stack:
        f = stack.pop()
        if f not in out:
            out.add(f)
            stack.extend(_formula_children(f))
    return out


# ==========================================================================
# Substitution
# ==========================================================================

def _replace_atoms(formula: Formula, mapping: Mapping) -> Formula:
    """Replace every atom whose name ``mapping`` holds by its formula.

    Subtrees without such an atom are kept as they are, so a formula in
    which no mapped atom occurs comes back as the same object.
    """
    kind = type(formula)
    if kind is Atom:
        return mapping.get(formula.name, formula)
    if kind is Binary:
        left = _replace_atoms(formula.left, mapping)
        right = _replace_atoms(formula.right, mapping)
        if left is formula.left and right is formula.right:
            return formula
        return Binary(formula.op, left, right)
    if kind is Negation:
        # A loop down the negation chain, so that a deep chain does not
        # recurse once per negation.
        inner, depth = formula, 0
        while type(inner) is Negation:
            inner = inner.operand
            depth += 1
        replaced = _replace_atoms(inner, mapping)
        if replaced is inner:
            return formula
        for _ in range(depth):
            replaced = Negation(replaced)
        return replaced
    if kind is Quantified:
        body = _replace_atoms(formula.body, mapping)
        return formula if body is formula.body else Quantified(formula.quant, formula.variable, body)
    if kind in (PredApp, Equality):
        return formula
    raise TypeError(f"not a formula: {formula!r}")


def substitute_prop(formula: Formula, name: str, replacement: Formula) -> Formula:
    """Replace every occurrence of the propositional atom ``name``."""
    return _replace_atoms(formula, {name: replacement})


# ==========================================================================
# Tokenizer and parser
# ==========================================================================

_SINGLE = {
    "~": "NOT", "¬": "NOT", "∼": "NOT",
    "&": "AND", "∧": "AND",
    "|": "OR", "∨": "OR",
    "→": "IMPLIES", "⊃": "IMPLIES",
    "↔": "IFF",
    "∀": "FORALL", "∃": "EXISTS",
    "(": "LPAREN", "[": "LBRACKET",
    ")": "RPAREN", "]": "RBRACKET",
    ",": "COMMA", "=": "EQUALS",
}


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _identifier_end(text: str, start: int) -> int:
    """Where the identifier at ``text[start]`` ends, or ``start`` when none
    begins there. An identifier is a letter or '_', then letters, digits or
    '_', then optional primes (' or ′)."""
    n = len(text)
    i = start
    if i < n and (text[i].isalpha() or text[i] == "_"):
        i += 1
        while i < n and (text[i].isalnum() or text[i] == "_"):
            i += 1
        while i < n and text[i] in ("'", "′"):
            i += 1
    return i


_KEYWORDS = {"forall": "FORALL", "exists": "EXISTS"}
_ARROWS = {"-": ("IMPLIES", "->"), "<": ("IFF", "<->")}


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        arrow = _ARROWS.get(ch)
        if arrow is not None:
            kind, symbol = arrow
            if not text.startswith(symbol, i):
                raise ParseError(f"stray {ch!r}", i)
            tokens.append(_Token(kind, symbol, i))
            i += len(symbol)
            continue
        kind = _SINGLE.get(ch)
        if kind is not None:
            tokens.append(_Token(kind, ch, i))
            i += 1
            continue
        end = _identifier_end(text, i)
        if end == i:
            raise ParseError(f"unexpected character {ch!r}", i)
        name = text[i:end].replace("′", "'")
        tokens.append(_Token(_KEYWORDS.get(name, "IDENT"), name, i))
        i = end
    tokens.append(_Token("END", "", n))
    return tokens


_CLOSER = {"LPAREN": ("RPAREN", ")"), "LBRACKET": ("RBRACKET", "]")}

# (token kind, connective, right associative), loosest first
_BINARY_LEVELS = (
    ("IFF", IFF, True),
    ("IMPLIES", IMPLIES, True),
    ("OR", OR, False),
    ("AND", AND, False),
)


class _Parser:
    """Recursive descent, bounded to MAX_NESTING levels (see the module
    docstring); ``depth`` counts the levels open at the current token."""

    MAX_NESTING = 100

    def __init__(self, text: str, alphabet: Alphabet):
        self.text = text
        self.alphabet = alphabet
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.pos)

    def descend(self, tok):
        """Open one nesting level; callers close it by decrementing depth."""
        self.depth += 1
        if self.depth > self.MAX_NESTING:
            self.fail(f"formula nests deeper than {self.MAX_NESTING} levels", tok)

    def require_connective(self, name, tok):
        if name not in self.alphabet.connectives:
            self.fail(f"connective {_BINARY_SYMBOL.get(name, '~')!r} is not declared in this alphabet", tok)

    # ---- precedence climbing ---------------------------------------------

    def parse(self) -> Formula:
        formula = self.parse_binary(0)
        tok = self.peek()
        if tok.kind != "END":
            self.fail(f"unexpected trailing input {tok.value!r}", tok)
        return formula

    def parse_binary(self, level: int) -> Formula:
        """Connectives from ``_BINARY_LEVELS[level]`` inward. The last level
        calls parse_unary itself: one more call per level would cost every
        bracket another stack frame."""
        kind, connective, right_associative = _BINARY_LEVELS[level]
        tighter = level + 1
        innermost = tighter == len(_BINARY_LEVELS)
        left = self.parse_unary() if innermost else self.parse_binary(tighter)
        entered = self.depth
        while self.peek().kind == kind:
            tok = self.advance()
            self.require_connective(connective, tok)
            self.descend(tok)
            if right_associative:
                right = self.parse_binary(level)
            else:
                right = self.parse_unary() if innermost else self.parse_binary(tighter)
            left = Binary(connective, left, right)
        self.depth = entered
        return left

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "NOT":
            self.advance()
            self.require_connective(NOT, tok)
            self.descend(tok)
            operand = self.parse_unary()
            self.depth -= 1
            return Negation(operand)
        if tok.kind in ("FORALL", "EXISTS"):
            return self.parse_quantifier()
        return self.parse_primary()

    def parse_quantifier(self) -> Formula:
        tok = self.advance()
        quant = FORALL if tok.kind == "FORALL" else EXISTS
        if self.alphabet.kind != FIRST_ORDER:
            self.fail("quantifier in a propositional language", tok)
        if quant not in self.alphabet.quantifiers:
            self.fail(f"quantifier {quant!r} is not declared in this alphabet", tok)
        name_tok = self.peek()
        if name_tok.kind != "IDENT" or not self.alphabet.is_individual_variable(name_tok.value):
            self.fail("expected an individual variable after the quantifier", name_tok)
        self.advance()
        self.descend(tok)
        body = self.parse_unary()
        self.depth -= 1
        if name_tok.value not in free_variables(body):
            self.fail(
                f"bound variable {name_tok.value!r} does not occur free in the quantifier body",
                name_tok,
            )
        return Quantified(quant, name_tok.value, body)

    def parse_primary(self) -> Formula:
        tok = self.peek()
        if tok.kind in ("LPAREN", "LBRACKET"):
            self.advance()
            self.descend(tok)
            inner = self.parse_binary(0)
            self.close(tok)
            return inner
        if tok.kind == "IDENT":
            return self.parse_ident()
        self.fail(f"expected a formula, found {tok.value!r}" if tok.kind != "END"
                  else "unexpected end of input", tok)

    def parse_ident(self) -> Formula:
        tok = self.peek()
        name = tok.value
        ab = self.alphabet
        if name in ab.variables or name in ab.constants:
            self.advance()
            return Atom(name)
        arity = ab._predicate_arity.get(name)
        if arity is not None:
            return self.parse_application(PredApp, arity)
        if ab.kind == FIRST_ORDER and (ab.is_individual_variable(name)
                                       or name in ab._function_arity):
            left = self.parse_term()
            eq_tok = self.peek()
            if eq_tok.kind != "EQUALS":
                self.fail("expected '=' after a term", eq_tok)
            self.advance()
            right = self.parse_term()
            return Equality(left, right)
        self.fail(f"unknown symbol {name!r}", tok)

    def close(self, open_tok):
        """Read the bracket that closes ``open_tok`` and leave the nesting
        level it opened."""
        closer_kind, closer_text = _CLOSER[open_tok.kind]
        end = self.peek()
        if end.kind != closer_kind:
            self.fail(f"expected {closer_text!r}", end)
        self.advance()
        self.depth -= 1

    def parse_application(self, node, arity: int):
        """The symbol at the current token applied to ``arity`` terms, as a
        ``node`` (PredApp or FuncApp); arity 0 takes no argument list."""
        tok = self.advance()
        name = tok.value
        if arity == 0:
            return node(name, ())
        open_tok = self.peek()
        if open_tok.kind not in _CLOSER:
            self.fail(f"expected an argument list for {name!r}", open_tok)
        self.advance()
        self.descend(open_tok)
        args = [self.parse_term()]
        while self.peek().kind == "COMMA":
            self.advance()
            args.append(self.parse_term())
        self.close(open_tok)
        if len(args) != arity:
            self.fail(f"{name!r} expects {arity} argument(s), got {len(args)}", tok)
        return node(name, tuple(args))

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail("expected a term", tok)
        name = tok.value
        ab = self.alphabet
        if ab.is_individual_variable(name):
            self.advance()
            return Var(name)
        arity = ab._function_arity.get(name)
        if arity is not None:
            return self.parse_application(FuncApp, arity)
        self.fail(f"unknown term symbol {name!r}", tok)


def parse_formula(text: str, alphabet: Alphabet) -> Formula:
    """Read the surface syntax into a formula, or raise ParseError.

    Input nested deeper than 100 levels is a ParseError (see the module
    docstring for what counts as a level).
    """
    return _Parser(text, alphabet).parse()


# ==========================================================================
# Validation
# ==========================================================================

# First-order node kinds, and what a propositional alphabet says of each.
_FIRST_ORDER_ONLY = {
    Var: "terms require a first-order alphabet",
    FuncApp: "terms require a first-order alphabet",
    PredApp: "predicate application in a propositional language",
    Equality: "equality in a propositional language",
    Quantified: "quantifier in a propositional language",
}


def validate_formula(formula, alphabet: Alphabet):
    """Check that every symbol of a formula or a term is declared and every
    node is well formed.

    The walk keeps one explicit stack of formulas and terms, so any depth
    can be checked; it goes in pre-order, left to right, and reports the
    first bad node it meets.
    """
    first_order = alphabet.kind == FIRST_ORDER
    stack = [formula]
    # Terms have only terms below them, so the term arguments pushed and not
    # yet checked are always the top ``terms`` entries of the stack.
    terms = 1 if isinstance(formula, Term) else 0
    while stack:
        node = stack.pop()
        kind = type(node)
        if terms:
            terms -= 1
            if kind is not Var and kind is not FuncApp:
                raise TypeError(f"not a term: {node!r}")
        elif kind is Var or kind is FuncApp:
            raise TypeError(f"not a formula: {node!r}")
        if kind is Binary:
            if node.op not in alphabet.connectives:
                raise AlphabetError(f"connective {node.op!r} is not declared in this alphabet")
            stack.append(node.right)
            stack.append(node.left)
        elif kind is Negation:
            if NOT not in alphabet.connectives:
                raise AlphabetError("negation is not declared in this alphabet")
            stack.append(node.operand)
        elif kind is Atom:
            if node.name not in alphabet.variables and node.name not in alphabet.constants:
                raise AlphabetError(f"undeclared atom: {node.name!r}")
        elif kind not in _FIRST_ORDER_ONLY:
            raise TypeError(f"not a formula or term: {node!r}")
        elif not first_order:
            raise AlphabetError(_FIRST_ORDER_ONLY[kind])
        elif kind is Var:
            if not alphabet.is_individual_variable(node.name):
                raise AlphabetError(f"undeclared individual variable: {node.name!r}")
        elif kind is FuncApp or kind is PredApp:
            symbol, arities = (("function", alphabet._function_arity) if kind is FuncApp
                               else ("predicate", alphabet._predicate_arity))
            arity = arities.get(node.name)
            if arity is None:
                raise AlphabetError(f"undeclared {symbol} symbol: {node.name!r}")
            if len(node.args) != arity:
                raise AlphabetError(
                    f"{symbol} {node.name!r} expects {arity} argument(s), got {len(node.args)}"
                )
            stack.extend(reversed(node.args))
            terms += len(node.args)
        elif kind is Equality:
            stack.append(node.right)
            stack.append(node.left)
            terms += 2
        else:  # Quantified
            if node.quant not in alphabet.quantifiers:
                raise AlphabetError(f"quantifier {node.quant!r} is not declared in this alphabet")
            if not alphabet.is_individual_variable(node.variable):
                raise AlphabetError(f"undeclared individual variable: {node.variable!r}")
            if node.variable not in free_variables(node.body):
                raise AlphabetError(
                    f"bound variable {node.variable!r} does not occur free in the quantifier body"
                )
            stack.append(node.body)


# ==========================================================================
# Enumeration
# ==========================================================================

def size_vectors(weights: Sequence[int], sizes: Sequence[int], budget: int,
                 exact: bool = True) -> Iterator[tuple]:
    """All tuples (s_1..s_k) over the ascending ``sizes`` with
    sum(w_i * (s_i - 1)) == budget, or <= budget when not ``exact``, in
    lexicographic order; each weight is positive. No weights give the empty
    tuple when the budget is 0, or any budget >= 0 when not exact."""
    if not weights:
        if budget == 0 or budget > 0 and not exact:
            yield ()
        return
    head, rest = weights[0], weights[1:]
    if not rest and exact:
        # the last size is fixed by what is left of the budget
        spent, left = divmod(budget, head)
        if not left and spent + 1 in sizes:
            yield (spent + 1,)
        return
    for s in sizes:
        spent = head * (s - 1)
        if spent > budget:
            break
        for tail in size_vectors(rest, sizes, budget - spent, exact):
            yield (s,) + tail


def enumerate_wffs(alphabet: Alphabet, max_size: int, limit: Optional[int] = None) -> list:
    """All well-formed formulas of size at most ``max_size``.

    Returned in the canonical order (size, printed form). One loop goes up
    the sizes. At size s it builds the terms of size s - 1 (first-order
    only), then the atoms, negations, quantified and binary formulas of size
    s, each from the tables of smaller sizes, which grow by one size per
    step. ``limit`` is a ceiling on the count: the loop raises
    BudgetExceededError as it builds the first formula over it. The loop
    also stops once the sizes built so far are too small to be parts of any
    larger term or formula. So the ceiling or the language, not
    ``max_size``, bounds the work.
    """
    check_count(max_size, 0, "max_size")
    first_order = alphabet.kind == FIRST_ORDER
    has_not = NOT in alphabet.connectives
    binary_ops = [op for op in BINARY_CONNECTIVES if op in alphabet.connectives]
    by_size = [[]]  # by_size[s]: the formulas of size s
    terms = []  # terms[s]: the terms of size s
    term_sizes = []  # the sizes that have a term, ascending
    emitted = 0
    # no term or formula has more parts than this
    widest = max([2] + [arity for _, arity in alphabet.functions + alphabet.predicates])
    largest = 0  # the last size at which a term or formula was built

    def emit(formula):
        nonlocal emitted
        if limit is not None and emitted >= limit:
            raise BudgetExceededError(f"enumeration outgrew its ceiling of {limit}")
        emitted += 1
        by_size[-1].append(formula)

    def applications(symbols, size, build):
        """Each symbol applied to terms whose sizes sum to size - 1."""
        for name, arity in symbols:
            for vector in size_vectors((1,) * arity, term_sizes, size - 1 - arity):
                for args in itertools.product(*[terms[s] for s in vector]):
                    yield build(name, args)

    for size in range(1, max_size + 1):
        if size - 2 > widest * largest:
            break  # the language is finite: no later term or formula fits parts this small
        by_size.append([])
        if first_order:
            new_terms = list(applications(alphabet.functions, size - 1, FuncApp))
            if size == 2:
                new_terms += map(Var, alphabet.individual_variables)
            terms.append(new_terms)
            if new_terms:
                term_sizes.append(size - 1)
            for atom in applications(alphabet.predicates, size, PredApp):
                emit(atom)
            for left, right in size_vectors((1, 1), term_sizes, size - 3):
                for pair in itertools.product(terms[left], terms[right]):
                    emit(Equality(*pair))
        if size == 1:
            for name in alphabet.variables + alphabet.constants:
                emit(Atom(name))
        if has_not:
            for operand in by_size[size - 1]:
                emit(Negation(operand))
        frees = list(map(free_variables, by_size[size - 1])) if alphabet.quantifiers else []
        for q in alphabet.quantifiers:
            for body, free in zip(by_size[size - 1], frees):
                for v in alphabet.individual_variables:
                    if v in free:
                        emit(Quantified(q, v, body))
        pairs = size_vectors((1, 1), range(1, size), size - 3) if binary_ops else ()
        for left_size, right_size in pairs:
            for op in binary_ops:
                for left in by_size[left_size]:
                    for right in by_size[right_size]:
                        emit(Binary(op, left, right))
        if by_size[-1] or first_order and terms[-1]:
            largest = size

    return canonical_sorted(itertools.chain.from_iterable(by_size))


# ==========================================================================
# Schemata
# ==========================================================================

@dataclass(frozen=True)
class Schema:
    """A formula pattern whose listed atoms stand for arbitrary formulas.

    ``build`` is the pattern compiled once: ``build(formulas)`` is the
    instance under a tuple of formulas, one per metavariable in declared
    order. Subtrees of the pattern with no metavariable are shared with it.
    Each node above a metavariable is one builder closure, and a metavariable
    leaf is ``operator.itemgetter`` of its slot: a ``(phi -> (chi -> phi))``
    instance is two closure calls. ``engine.schema_instances`` streams the
    instances over a pool in a fixed order, walking size vectors once.
    """

    schema_id: str
    pattern: Formula
    metavariables: tuple
    build: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.schema_id, str):
            raise SchemaError(f"schema id must be a string, got {self.schema_id!r}")
        object.__setattr__(self, "metavariables", tuple(self.metavariables))
        if len(set(self.metavariables)) != len(self.metavariables):
            raise SchemaError(f"duplicate metavariable in schema {self.schema_id!r}")
        present = formula_atoms(self.pattern)
        for m in self.metavariables:
            if m not in present:
                raise SchemaError(
                    f"metavariable {m!r} does not occur in the pattern of schema {self.schema_id!r}"
                )
        object.__setattr__(self, "build", _compile_pattern(self.pattern, self.metavariables))

    def __reduce__(self):
        # the builder's closures cannot be pickled; unpickling compiles anew
        return Schema, (self.schema_id, self.pattern, self.metavariables)


# the metavariables of a schema pattern read from text, in canonical order
METAVARIABLES = ("phi", "chi", "psi")


def schema_alphabet(alphabet: Alphabet, metavariables: tuple) -> Alphabet:
    """The alphabet a schema pattern is written in: ``alphabet`` with the
    metavariables added as propositional variables. A metavariable may not
    name an object symbol."""
    for meta in metavariables:
        if alphabet.declares(meta):
            raise SchemaError(f"metavariable {meta!r} collides with an object symbol")
    return replace(alphabet, variables=alphabet.variables + tuple(metavariables))


def parse_schema(schema_id: str, text: str, alphabet: Alphabet) -> Schema:
    """Parse a schema pattern over the metavariables phi, chi, psi. One that
    the alphabet declares as an object symbol reads as that symbol."""
    metas = tuple(m for m in METAVARIABLES if not alphabet.declares(m))
    pattern = parse_formula(text, schema_alphabet(alphabet, metas))
    used = formula_atoms(pattern)
    return Schema(schema_id, pattern, tuple(m for m in metas if m in used))


def _node_builder(node, parts: list, slots: dict):
    """The builder of one pattern node from its children's: None with no
    metavariable below it, ``itemgetter`` of the slot of a metavariable
    leaf, or else one closure per node shape."""
    kind = type(node)
    if kind is Atom:
        slot = slots.get(node.name)
        return None if slot is None else itemgetter(slot)
    if all(part is None for part in parts):
        return None
    if kind is Negation:
        (operand,) = parts
        return lambda formulas: Negation(operand(formulas))
    if kind is Quantified:
        quant, variable, (body,) = node.quant, node.variable, parts
        return lambda formulas: Quantified(quant, variable, body(formulas))
    op, (left, right) = node.op, parts
    if left is None:
        fixed = node.left
        return lambda formulas: Binary(op, fixed, right(formulas))
    if right is None:
        fixed = node.right
        return lambda formulas: Binary(op, left(formulas), fixed)
    return lambda formulas: Binary(op, left(formulas), right(formulas))


def _compile_pattern(pattern: Formula, metavariables: tuple) -> Callable:
    """Compile a schema pattern into its builder (see ``Schema``).

    The compiling walk keeps an explicit stack, so a schema of any depth can
    be constructed; building an instance recurses once per pattern level.
    """
    slots = {m: i for i, m in enumerate(metavariables)}
    compiled = {}  # id(node) -> builder of that node, or None
    stack = [pattern]
    while stack:
        node = stack[-1]
        children = _formula_children(node)
        pending = [c for c in children if id(c) not in compiled]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        compiled[id(node)] = _node_builder(node, [compiled[id(c)] for c in children], slots)
    root = compiled[id(pattern)]
    return (lambda formulas: pattern) if root is None else root


def match_schema(schema: Schema, formula: Formula,
                 binding: Optional[dict] = None) -> Optional[dict]:
    """First-match structural binding of metavariables, or None.

    Matching is deterministic: a metavariable atom binds the subformula at
    its position, and repeated metavariables must bind equal subformulas.
    A ``binding`` given is extended in place, and a metavariable it already
    binds must match its value; after a failed match it may hold a part.
    """
    metas = schema.metavariables
    if binding is None:
        binding = {}
    stack = [(schema.pattern, formula)]  # an explicit stack: no recursion, no closure
    while stack:
        pat, f = stack.pop()
        pkind = type(pat)
        if pkind is Atom and pat.name in metas:
            if binding.setdefault(pat.name, f) != f:
                return None
            continue
        if pkind is not type(f):
            return None
        if pkind is Negation:
            stack.append((pat.operand, f.operand))
        elif pkind is Binary:
            if pat.op != f.op:
                return None
            stack.append((pat.right, f.right))
            stack.append((pat.left, f.left))
        elif pkind is Quantified:
            if pat.quant != f.quant or pat.variable != f.variable:
                return None
            stack.append((pat.body, f.body))
        elif pat != f:  # a leaf holds no metavariable: it must match exactly
            return None
    return binding


def instantiate_schema(schema: Schema, assignment: Mapping) -> Formula:
    """Replace every metavariable atom by its assigned formula."""
    missing = [m for m in schema.metavariables if m not in assignment]
    if missing:
        raise SchemaError(f"schema {schema.schema_id!r} is missing assignments for {missing}")
    return schema.build(tuple(assignment[m] for m in schema.metavariables))
