"""Ready-made calculi, minor-premise validators, and translation maps.

Built-in calculi (see ``builtin_calculus``):

    kleene                ten implication/conjunction/disjunction/negation
                          schemata with modus ponens, on-demand instantiation
    church_p1             pure implication with the constant f; three schemata
                          realized as concrete axioms, modus ponens plus
                          substitution
    church_p2             implication and negation; shares the first two
                          schemata with church_p1, third schema contraposes
    shoenfield_fragment   excluded middle, equality axioms, and the
                          disjunction/cut/quantifier rule set
    lv                    a base calculus with modus ponens replaced by its
                          validated variant
    free                  every formula of the language up to a size cap is
                          an axiom

The two Church systems come with translation maps: p2_to_p1 rewrites every
negation ~x as an implication into f, and p1_to_p2 inverts that on the
image fragment (a residual bare f becomes the canonical contradiction
~(p -> p), so the round trip is not the identity on all of P1).

Each kind of built-in is one table, read by its lookup function:
``_CALCULI``, ``_VALIDATORS`` and ``_TRANSLATIONS``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Optional

from .engine import Calculus, ON_DEMAND_MODE, SUBSTITUTION_RULE_MODE
from .errors import AlphabetError, RuleParameterError, UnknownCalculusError, check_count
from .rules import (
    RuleSystem,
    Validator,
    make_rule,
    rule_system,
    validated_mp,
)
from .semantics import is_tautology
from .syntax import (
    AND,
    Alphabet,
    Atom,
    Binary,
    EXISTS,
    Formula,
    IMPLIES,
    NOT,
    Negation,
    OR,
    enumerate_wffs,
    first_order_alphabet,
    match_schema,
    parse_formula,
    parse_schema,
    print_formula,
    propositional_alphabet,
)

# ==========================================================================
# The built-in calculi
# ==========================================================================

def _schematic(name: str, alphabet: Alphabet, texts, rule_names, mode,
               axioms=()) -> Calculus:
    """A calculus given by (schema id, pattern text) pairs, rule names and
    concrete axiom texts."""
    return Calculus(
        alphabet=alphabet,
        axioms=tuple(parse_formula(text, alphabet) for text in axioms),
        schemata=tuple(parse_schema(sid, text, alphabet) for sid, text in texts),
        rules=rule_system(*map(make_rule, rule_names)),
        schema_mode=mode,
        name=name,
    )


@cache
def kleene_calculus() -> Calculus:
    return _schematic("kleene", propositional_alphabet(
        ("P", "Q", "R"), connectives=(NOT, AND, OR, IMPLIES)
    ), (
        ("k1", "phi -> (chi -> phi)"),
        ("k2", "(phi -> (chi -> psi)) -> ((phi -> chi) -> (phi -> psi))"),
        ("k3", "phi -> (chi -> (phi & chi))"),
        ("k4", "phi -> (phi | chi)"),
        ("k5", "chi -> (phi | chi)"),
        ("k6", "(phi & chi) -> phi"),
        ("k7", "(phi & chi) -> chi"),
        ("k8", "(phi -> psi) -> ((chi -> psi) -> ((phi | chi) -> psi))"),
        ("k9", "(phi -> chi) -> ((phi -> ~chi) -> ~phi)"),
        ("k10", "~~phi -> phi"),
    ), ("modus_ponens",), ON_DEMAND_MODE)


@cache
def church_p1_calculus() -> Calculus:
    return _schematic("church_p1", propositional_alphabet(
        ("p", "q", "s"), connectives=(IMPLIES,), constants=("f",)
    ), (
        ("p1-1", "phi -> (chi -> phi)"),
        ("p1-2", "(psi -> (phi -> chi)) -> ((psi -> phi) -> (psi -> chi))"),
        ("p1-3", "((phi -> f) -> f) -> phi"),
    ), ("modus_ponens", "substitution"), SUBSTITUTION_RULE_MODE)


@cache
def church_p2_calculus() -> Calculus:
    return _schematic("church_p2", propositional_alphabet(
        ("p", "q", "s"), connectives=(IMPLIES, NOT)
    ), (
        ("p2-1", "phi -> (chi -> phi)"),
        ("p2-2", "(psi -> (phi -> chi)) -> ((psi -> phi) -> (psi -> chi))"),
        ("p2-3", "(~phi -> ~chi) -> (chi -> phi)"),
    ), ("modus_ponens", "substitution"), SUBSTITUTION_RULE_MODE)


@cache
def shoenfield_fragment_calculus() -> Calculus:
    return _schematic("shoenfield_fragment", first_order_alphabet(
        ("x", "y", "z"),
        connectives=(NOT, AND, OR, IMPLIES),
        functions=(("g", 1),),
        predicates=(("P", 1),),
        quantifiers=(EXISTS,),
    ), (
        ("excluded-middle", "phi | ~phi"),
    ), (
        "extension", "cancellation", "associativity_left",
        "associativity_right", "cut", "exists_introduction",
    ), ON_DEMAND_MODE, axioms=(
        "x = x",
        "x = y -> g(x) = g(y)",
        "x = y -> (P(x) -> P(y))",
    ))


_FREE_ALPHABET = propositional_alphabet(("P",), connectives=(NOT,))


def free_calculus(size_cap: Optional[int] = None) -> Calculus:
    """A calculus whose axiom set is the whole language over P and ``~`` up
    to the size cap, with the identity rule."""
    check_count(size_cap, 1, "the free calculus size cap")
    return Calculus(
        alphabet=_FREE_ALPHABET,
        axioms=tuple(enumerate_wffs(_FREE_ALPHABET, size_cap)),
        rules=rule_system(make_rule("identity")),
        name=f"free({size_cap})",
    )


# ==========================================================================
# Validators and the LV construction
# ==========================================================================

def _tautology_validator(base: Calculus) -> Validator:
    constants = frozenset(base.alphabet.constants)
    return Validator("tautology", lambda f: is_tautology(f, constants=constants))


def _axiom_membership_validator(base: Calculus) -> Validator:
    """Accept the base's declared axioms and every instance of its schemata,
    whatever the bounds or schema mode (so more than the realized axioms)."""
    concrete = frozenset(base.axioms)

    def accepts(formula: Formula) -> bool:
        if formula in concrete:
            return True
        return any(
            match_schema(schema, formula) is not None
            for schema in base.schemata
        )

    return Validator("axiom-membership", accepts)


# name -> factory of the validator over a base calculus
_VALIDATORS = {
    "tautology": _tautology_validator,
    "axiom-membership": _axiom_membership_validator,
    "always-true": lambda base: Validator("always-true", lambda formula: True),
}


def make_validator(name: str, base: Calculus) -> Validator:
    if name not in _VALIDATORS:
        raise RuleParameterError(
            f"unknown validator {name!r}; known: {', '.join(_VALIDATORS)}"
        )
    return _VALIDATORS[name](base)


def lv_calculus(base="kleene", validator="tautology") -> Calculus:
    """The base calculus with modus ponens gated by a minor-premise validator."""
    base_calculus = builtin_calculus(base) if isinstance(base, str) else base
    validator_obj = (make_validator(validator, base_calculus)
                     if isinstance(validator, str) else validator)
    kept = tuple(r for r in base_calculus.rules if r.identifier != "modus_ponens")
    if len(kept) == len(base_calculus.rules.rules):
        raise RuleParameterError(
            f"the base calculus {base_calculus.name or '(anonymous)'} has no "
            f"modus ponens rule to validate"
        )
    new_rules = RuleSystem(kept + (validated_mp(validator_obj),))
    return replace(
        base_calculus,
        rules=new_rules,
        name=f"lv({base_calculus.name}, {validator_obj.name})",
    )


# ==========================================================================
# Registry
# ==========================================================================

# name -> (factory, {every keyword it takes: the type its text converts
# to}, in the order a builtin:<name>,<arg>,... path gives them)
_CALCULI = {
    "kleene": (kleene_calculus, {}),
    "church_p1": (church_p1_calculus, {}),
    "church_p2": (church_p2_calculus, {}),
    "shoenfield_fragment": (shoenfield_fragment_calculus, {}),
    "lv": (lv_calculus, {"base": str, "validator": str}),
    "free": (free_calculus, {"size_cap": int}),
}


def _calculus_entry(name: str) -> tuple:
    if name not in _CALCULI:
        raise UnknownCalculusError(
            f"unknown calculus {name!r}; known: {', '.join(_CALCULI)}"
        )
    return _CALCULI[name]


def builtin_calculus(name: str, **params) -> Calculus:
    """Look up a built-in calculus by name.

    ``lv`` takes ``base`` and ``validator``; ``free`` takes ``size_cap``.
    The other names take no parameters, and each is built once per process:
    calculi are immutable. A keyword the calculus does not take raises
    RuleParameterError.
    """
    factory, declared = _calculus_entry(name)
    unknown = sorted(params.keys() - declared.keys())
    if unknown:
        raise RuleParameterError(
            f"calculus {name!r} takes {' and '.join(declared) or 'no parameters'}, "
            f"got {unknown}"
        )
    return factory(**params)


def builtin_spec_params(name: str, args) -> dict:
    """``builtin_calculus`` keywords from the ``<arg>``s of ``builtin:<name>,<arg>,...``.

    An empty argument keeps its parameter's default.
    """
    declared = _calculus_entry(name)[1]
    if len(args) > len(declared):
        names = " and ".join(declared)
        raise RuleParameterError(
            f"builtin:{name} takes " + (f"at most {names}" if names else "no parameters"))
    params = {}
    for (param, kind), text in zip(declared.items(), args):
        if not text:
            continue
        try:
            params[param] = kind(text)
        except ValueError:  # only int() can reject its text
            raise RuleParameterError(
                f"builtin:{name} {param} must be an integer, got {text!r}"
            ) from None
    return params


# ==========================================================================
# Translation maps
# ==========================================================================

@dataclass(frozen=True)
class TranslationMap:
    """A computable formula-to-formula mapping between two alphabets."""

    identifier: str
    source_alphabet: Alphabet
    target_alphabet: Alphabet
    fn: Callable[[Formula], Formula]


_F = Atom("f")


def _p2_to_p1_fn(formula: Formula):
    kind = type(formula)
    if kind is Atom:
        return formula
    if kind is Negation:
        return Binary(IMPLIES, _p2_to_p1_fn(formula.operand), _F)
    if kind is Binary and formula.op == IMPLIES:
        return Binary(IMPLIES, _p2_to_p1_fn(formula.left),
                      _p2_to_p1_fn(formula.right))
    raise AlphabetError(
        f"not a P2 formula: {print_formula(formula)}"
    )


_CANONICAL_CONTRADICTION = Negation(Binary(IMPLIES, Atom("p"), Atom("p")))


def _p1_to_p2_fn(formula: Formula):
    kind = type(formula)
    if kind is Atom:
        if formula == _F:
            return _CANONICAL_CONTRADICTION
        return formula
    if kind is Binary and formula.op == IMPLIES:
        if formula.right == _F:
            return Negation(_p1_to_p2_fn(formula.left))
        return Binary(IMPLIES, _p1_to_p2_fn(formula.left),
                      _p1_to_p2_fn(formula.right))
    raise AlphabetError(
        f"not a P1 formula: {print_formula(formula)}"
    )


# name -> (source calculus, target calculus, formula map)
_TRANSLATIONS = {
    "p2_to_p1": (church_p2_calculus, church_p1_calculus, _p2_to_p1_fn),
    "p1_to_p2": (church_p1_calculus, church_p2_calculus, _p1_to_p2_fn),
}


def translation_map(name: str) -> TranslationMap:
    if name not in _TRANSLATIONS:
        raise UnknownCalculusError(
            f"unknown translation map {name!r}; known: {', '.join(_TRANSLATIONS)}"
        )
    source, target, fn = _TRANSLATIONS[name]
    return TranslationMap(name, source().alphabet, target().alphabet, fn)


def translation_map_names() -> tuple:
    return tuple(_TRANSLATIONS)
