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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from .engine import Calculus, ON_DEMAND_MODE, SUBSTITUTION_RULE_MODE
from .errors import AlphabetError, RuleParameterError, UnknownCalculusError
from .rules import (
    RuleSystem,
    Validator,
    always_true_validator,
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
    Equality,
    Formula,
    FuncApp,
    IMPLIES,
    NOT,
    Negation,
    OR,
    PredApp,
    Schema,
    Var,
    enumerate_wffs,
    first_order_alphabet,
    formula_atoms,
    match_schema,
    parse_formula,
    print_formula,
    propositional_alphabet,
    validate_formula,
)

_METAVARIABLES = ("phi", "chi", "psi")


def _schema(schema_id: str, text: str, alphabet: Alphabet) -> Schema:
    """Parse a schema pattern over the metavariables phi, chi, psi."""
    meta_alphabet = replace(
        alphabet, variables=tuple(alphabet.variables) + _METAVARIABLES
    )
    pattern = parse_formula(text, meta_alphabet)
    used = formula_atoms(pattern)
    metas = tuple(m for m in _METAVARIABLES if m in used)
    return Schema(schema_id, pattern, metas)


# ==========================================================================
# The built-in calculi
# ==========================================================================

def kleene_calculus() -> Calculus:
    alphabet = propositional_alphabet(
        ("P", "Q", "R"), connectives=(NOT, AND, OR, IMPLIES)
    )
    texts = (
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
    )
    return Calculus(
        alphabet=alphabet,
        schemata=tuple(_schema(sid, text, alphabet) for sid, text in texts),
        rules=rule_system(make_rule("modus_ponens")),
        schema_mode=ON_DEMAND_MODE,
        name="kleene",
    )


def church_p1_calculus() -> Calculus:
    alphabet = propositional_alphabet(
        ("p", "q", "s"), connectives=(IMPLIES,), constants=("f",),
        punctuation="brackets",
    )
    texts = (
        ("p1-1", "phi -> (chi -> phi)"),
        ("p1-2", "(psi -> (phi -> chi)) -> ((psi -> phi) -> (psi -> chi))"),
        ("p1-3", "((phi -> f) -> f) -> phi"),
    )
    return Calculus(
        alphabet=alphabet,
        schemata=tuple(_schema(sid, text, alphabet) for sid, text in texts),
        rules=rule_system(make_rule("modus_ponens"), make_rule("substitution")),
        schema_mode=SUBSTITUTION_RULE_MODE,
        name="church_p1",
    )


def church_p2_calculus() -> Calculus:
    alphabet = propositional_alphabet(
        ("p", "q", "s"), connectives=(IMPLIES, NOT), punctuation="brackets"
    )
    texts = (
        ("p2-1", "phi -> (chi -> phi)"),
        ("p2-2", "(psi -> (phi -> chi)) -> ((psi -> phi) -> (psi -> chi))"),
        ("p2-3", "(~phi -> ~chi) -> (chi -> phi)"),
    )
    return Calculus(
        alphabet=alphabet,
        schemata=tuple(_schema(sid, text, alphabet) for sid, text in texts),
        rules=rule_system(make_rule("modus_ponens"), make_rule("substitution")),
        schema_mode=SUBSTITUTION_RULE_MODE,
        name="church_p2",
    )


def shoenfield_fragment_calculus() -> Calculus:
    alphabet = first_order_alphabet(
        ("x", "y", "z"),
        connectives=(NOT, AND, OR, IMPLIES),
        functions=(("g", 1),),
        predicates=(("P", 1),),
        quantifiers=(EXISTS,),
    )
    x, y = Var("x"), Var("y")
    axioms = (
        Equality(x, x),
        Binary(IMPLIES, Equality(x, y),
               Equality(FuncApp("g", (x,)), FuncApp("g", (y,)))),
        Binary(IMPLIES, Equality(x, y),
               Binary(IMPLIES, PredApp("P", (x,)), PredApp("P", (y,)))),
    )
    return Calculus(
        alphabet=alphabet,
        axioms=axioms,
        schemata=(_schema("excluded-middle", "phi | ~phi", alphabet),),
        rules=rule_system(
            make_rule("extension"),
            make_rule("cancellation"),
            make_rule("associativity_left"),
            make_rule("associativity_right"),
            make_rule("cut"),
            make_rule("exists_introduction"),
        ),
        schema_mode=ON_DEMAND_MODE,
        name="shoenfield_fragment",
    )


_FREE_DEFAULT_ALPHABET = propositional_alphabet(("P",), connectives=(NOT,))


def free_calculus(size_cap: Optional[int] = None,
                  alphabet: Optional[Alphabet] = None,
                  rules: Optional[RuleSystem] = None) -> Calculus:
    """A calculus whose axiom set is the whole language up to the size cap."""
    if size_cap is None:
        raise RuleParameterError(
            "the free calculus needs a size_cap parameter (its axiom set is "
            "the whole language up to that size)"
        )
    if not isinstance(size_cap, int) or size_cap < 1:
        raise RuleParameterError(
            f"the free calculus needs a size cap >= 1, got {size_cap!r}"
        )
    if alphabet is None:
        alphabet = _FREE_DEFAULT_ALPHABET
    if rules is None:
        rules = rule_system(make_rule("identity"))
    return Calculus(
        alphabet=alphabet,
        axioms=tuple(enumerate_wffs(alphabet, size_cap)),
        rules=rules,
        name=f"free({size_cap})",
    )


# ==========================================================================
# Validators and the LV construction
# ==========================================================================

def tautology_validator(constants=frozenset()) -> Validator:
    constants = frozenset(constants)
    return Validator("tautology", lambda f: is_tautology(f, constants=constants))


def axiom_membership_validator(calculus: Calculus) -> Validator:
    """Accept exactly the realized axioms: declared formulas and schema instances."""
    concrete = frozenset(calculus.axioms)

    def accepts(formula: Formula) -> bool:
        if formula in concrete:
            return True
        return any(
            match_schema(schema, formula) is not None
            for schema in calculus.schemata
        )

    return Validator("axiom-membership", accepts)


_VALIDATOR_NAMES = ("tautology", "axiom-membership", "always-true")


def make_validator(name: str, base: Optional[Calculus] = None) -> Validator:
    if name == "tautology":
        constants = base.alphabet.constants if base is not None else ()
        return tautology_validator(constants)
    if name == "axiom-membership":
        if base is None:
            raise RuleParameterError(
                "the axiom-membership validator needs a base calculus"
            )
        return axiom_membership_validator(base)
    if name == "always-true":
        return always_true_validator()
    raise RuleParameterError(
        f"unknown validator {name!r}; known: {', '.join(_VALIDATOR_NAMES)}"
    )


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

_BUILTIN_NAMES = ("kleene", "church_p1", "church_p2", "shoenfield_fragment",
                  "lv", "free")


def builtin_calculus(name: str, **params) -> Calculus:
    """Look up a built-in calculus by name.

    ``lv`` takes ``base`` and ``validator``; ``free`` takes ``size_cap`` and
    optional ``alphabet`` and ``rules``. The other names take no parameters.
    """
    if name == "kleene":
        factory = kleene_calculus
    elif name == "church_p1":
        factory = church_p1_calculus
    elif name == "church_p2":
        factory = church_p2_calculus
    elif name == "shoenfield_fragment":
        factory = shoenfield_fragment_calculus
    elif name == "lv":
        return lv_calculus(**params)
    elif name == "free":
        return free_calculus(**params)
    else:
        raise UnknownCalculusError(
            f"unknown calculus {name!r}; known: {', '.join(_BUILTIN_NAMES)}"
        )
    if params:
        raise RuleParameterError(
            f"calculus {name!r} takes no parameters, got {sorted(params)}"
        )
    return factory()


def builtin_calculus_names() -> tuple:
    return _BUILTIN_NAMES


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

    def __call__(self, formula: Formula) -> Formula:
        return self.fn(formula)


def translate(formula: Formula, translation: TranslationMap) -> Formula:
    """Apply a translation map, checking both alphabet memberships."""
    validate_formula(formula, translation.source_alphabet)
    image = translation.fn(formula)
    validate_formula(image, translation.target_alphabet)
    return image


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


def identity_map(alphabet: Alphabet) -> TranslationMap:
    return TranslationMap("identity", alphabet, alphabet, lambda f: f)


def translation_map(name: str) -> TranslationMap:
    if name == "p2_to_p1":
        return TranslationMap(
            "p2_to_p1",
            church_p2_calculus().alphabet,
            church_p1_calculus().alphabet,
            _p2_to_p1_fn,
        )
    if name == "p1_to_p2":
        return TranslationMap(
            "p1_to_p2",
            church_p1_calculus().alphabet,
            church_p2_calculus().alphabet,
            _p1_to_p2_fn,
        )
    raise UnknownCalculusError(
        f"unknown translation map {name!r}; known: p2_to_p1, p1_to_p2"
    )
