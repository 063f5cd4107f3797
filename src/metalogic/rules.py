"""Inference rules as algorithms on formula tuples.

A rule maps a fixed-arity tuple of premise formulas (plus, for parametric
rules, a parameter context) to a finite set of conclusions. The empty set
means the rule is inapplicable to that tuple; applicability is always
decided, never an error. A rule may also carry a strategy that lists the
premise tuples worth trying against a universe/frontier split, so that an
application layer need not scan every tuple.

Built-in rules:

    modus_ponens            (minor, major) with major = minor -> psi, gives psi
    substitution            phi with parameters x (a variable) and q (a
                            formula), gives phi with every x replaced by q
    extension               phi with parameter psi, gives (phi | psi)
    cancellation            (phi | phi) gives phi
    associativity_left      (phi | (psi | chi)) gives ((phi | psi) | chi)
    associativity_right     ((phi | psi) | chi) gives (phi | (psi | chi))
    cut                     ((phi | psi), (~phi | chi)) gives (psi | chi)
    exists_introduction     (phi -> psi) gives (exists x phi -> psi) for each
                            x free in phi but not in psi
    identity                phi gives phi

Combinators: compose(first, second) pipes every conclusion of first through
second; length_filtered(rule, cap) keeps only conclusions of size strictly
below cap; validated_mp(validator) is modus ponens gated on the validator
accepting the minor premise.

``make_rule``, ``rule_parameters`` and ``builtin_rule_names`` read two
tables: ``_RULES`` holds the shared record of each rule built without
parameters, and ``_PARAMETRIC_RULES`` a factory and parameter kinds per
parametric rule.

Rule identity (for rule-system comparison) is the identifier string, which
encodes bound parameters and combinator structure.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional

from .errors import ArityError, RuleParameterError, UnknownRuleError, check_count
from .syntax import (
    Atom,
    Binary,
    EXISTS,
    Formula,
    IMPLIES,
    NOT,
    Negation,
    OR,
    Quantified,
    atom_occurrences,
    free_variables,
    print_formula,
    substitute_prop,
)

PARAM_FORMULA = "formula"
PARAM_VARIABLE = "variable"
PARAM_RULE = "rule"
PARAM_INT = "int"
PARAM_VALIDATOR = "validator"


@dataclass(frozen=True)
class Validator:
    """A named decidable predicate on formulas, used by validated_mp."""

    name: str
    fn: Callable[[Formula], bool]

    def __call__(self, formula: Formula) -> bool:
        return bool(self.fn(formula))

    def __repr__(self):
        return f"Validator({self.name!r})"


@dataclass(frozen=True, eq=False, repr=False)
class InferenceRule:
    """A deterministic partial mapping from premise tuples to conclusion sets.

    ``identifier`` is the rule's identity: equality and hash read it alone.
    ``arity`` is the number of premises. ``conclude(premises, context)``
    returns an iterable of conclusions, empty when the rule is inapplicable.
    ``parameter_kinds`` lists (name, kind) slots the context must fill, with
    kind one of "formula" (drawn from the instantiation pool) or "variable"
    (drawn from the alphabet's propositional variables).
    ``requires_connectives`` are the connectives a calculus using the rule
    must declare. Rules are frozen, because they are shared, for instance
    by every copy of a built-in calculus.

    ``strategy``, when present, is called as ``strategy(universe, frontier,
    contexts, size_cap)`` and enumerates candidate (premises, context) pairs
    against a universe/frontier split, so application layers avoid the
    all-tuples scan. ``universe`` is an insertion-ordered mapping whose keys
    are every formula known so far; strategies iterate it and test
    membership in it. It must cover every tuple
    that contains at least one frontier formula and has a conclusion that
    fits under ``size_cap`` and differs from its premises. It may skip a
    tuple whose conclusions are all larger than ``size_cap`` or equal to a
    premise, since saturation drops those anyway; ``size_cap=None`` means
    no cap and no skipping. A composite never inherits a strategy's size
    pruning: ``compose`` runs its first rule's strategy with
    ``size_cap=None``, because its second rule can shrink an oversized
    conclusion or turn one equal to the premise into something new.
    """

    identifier: str
    arity: int
    conclude: Callable
    parameter_kinds: tuple = ()
    requires_connectives: frozenset = frozenset()
    strategy: Optional[Callable] = None

    def __post_init__(self):
        check_count(self.arity, 0, "rule arity")
        object.__setattr__(self, "parameter_kinds", tuple(self.parameter_kinds))
        for _, kind in self.parameter_kinds:
            if kind not in (PARAM_FORMULA, PARAM_VARIABLE):
                raise RuleParameterError(
                    f"rule {self.identifier!r} declares unknown parameter kind {kind!r}")
        object.__setattr__(self, "requires_connectives", frozenset(self.requires_connectives))

    def conclusions(self, premises: tuple, context: Optional[dict] = None) -> frozenset:
        """All conclusions of this rule on the premise tuple; empty if inapplicable."""
        if len(premises) != self.arity:
            raise ArityError(
                f"rule {self.identifier!r} takes {self.arity} premise(s), "
                f"got {len(premises)}"
            )
        if self.parameter_kinds:
            if context is None:
                raise RuleParameterError(
                    f"rule {self.identifier!r} needs parameters "
                    f"{[name for name, _ in self.parameter_kinds]}"
                )
            missing = [name for name, _ in self.parameter_kinds if name not in context]
            if missing:
                raise RuleParameterError(
                    f"rule {self.identifier!r} is missing parameters {missing}"
                )
        return frozenset(self.conclude(premises, context))

    def candidate_applications(self, universe: Mapping, frontier: list, contexts,
                               size_cap: Optional[int] = None) -> Iterator[tuple]:
        """Yield (premises, context) pairs worth trying this pass.

        ``universe`` is keyed by every formula known so far (frontier
        included, in first-seen order); ``frontier`` holds the formulas new
        since the last pass. Completeness contract: together with earlier
        passes over the same growing universe, every premise tuple over the
        final universe whose conclusions fit under ``size_cap`` is
        eventually yielded (see the class docstring for what may be
        skipped). The generic fallback scans all tuples touching the
        frontier and ignores the cap; modus ponens and cut install indexed
        strategies, and substitution prunes its parameters by the
        conclusion's size.
        """
        if self.strategy is not None:
            yield from self.strategy(universe, frontier, contexts, size_cap)
            return
        if self.arity == 0:
            for ctx in contexts:
                yield ((), ctx)
            return
        if self.arity == 1:
            yield from _every_pair(frontier, contexts)
            return
        frontier_set = set(frontier)
        for combo in itertools.product(universe, repeat=self.arity):
            if any(member in frontier_set for member in combo):
                for ctx in contexts:
                    yield (combo, ctx)

    def __eq__(self, other):
        return isinstance(other, InferenceRule) and other.identifier == self.identifier

    def __hash__(self):
        return hash(self.identifier)

    def __repr__(self):
        return f"InferenceRule({self.identifier!r})"


@dataclass(frozen=True)
class RuleSystem:
    """An ordered collection of rules with unique identifiers."""

    rules: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        seen = set()
        for rule in self.rules:
            if rule.identifier in seen:
                raise RuleParameterError(f"duplicate rule identifier: {rule.identifier!r}")
            seen.add(rule.identifier)

    def identifiers(self) -> frozenset:
        return frozenset(rule.identifier for rule in self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)


def rule_system(*rules) -> RuleSystem:
    return RuleSystem(tuple(rules))


def apply_rule(rule: InferenceRule, premises, context: Optional[dict] = None) -> frozenset:
    """Apply one rule to one premise tuple. Empty set means inapplicable."""
    return rule.conclusions(tuple(premises), context)


# --------------------------------------------------------------------------
# Application strategies. The binary ones index the universe and honor the
# frontier contract: every (old, new), (new, old), (new, new) pair that the
# rule could fire on is yielded; (old, old) pairs were yielded when their
# younger member was itself new. They ignore the size cap. The substitution
# strategy knows the size of a conclusion before building it and skips the
# parameters that would take it over the cap.
# --------------------------------------------------------------------------

def _mp_strategy(universe, frontier, contexts, size_cap):
    by_antecedent = {}
    for f in universe:
        if type(f) is Binary and f.op == IMPLIES:
            by_antecedent.setdefault(f.left, []).append(f)
    for ctx in contexts:
        for f in frontier:
            for major in by_antecedent.get(f, ()):
                yield ((f, major), ctx)
            if type(f) is Binary and f.op == IMPLIES and f.left in universe:
                yield ((f.left, f), ctx)


def _cut_strategy(universe, frontier, contexts, size_cap):
    or_by_left = {}
    or_by_negated_left = {}
    for f in universe:
        if type(f) is Binary and f.op == OR:
            or_by_left.setdefault(f.left, []).append(f)
            if type(f.left) is Negation:
                or_by_negated_left.setdefault(f.left.operand, []).append(f)
    for ctx in contexts:
        for f in frontier:
            if type(f) is Binary and f.op == OR:
                for second in or_by_negated_left.get(f.left, ()):
                    yield ((f, second), ctx)
                if type(f.left) is Negation:
                    for first in or_by_left.get(f.left.operand, ()):
                        yield ((first, f), ctx)


def _every_pair(frontier, contexts):
    for f in frontier:
        for ctx in contexts:
            yield ((f,), ctx)


def _substitution_strategy(universe, frontier, contexts, size_cap):
    # Replacing the k occurrences of x in phi by q gives a formula of size
    # |phi| + k * (|q| - 1), so the usable q are a prefix of the size order.
    # With k = 0, or with q the atom x itself, the conclusion is phi again.
    if size_cap is None:
        yield from _every_pair(frontier, contexts)
        return
    by_variable = {}
    for ctx in contexts:
        by_variable.setdefault(ctx["variable"], []).append(ctx)
    groups = []
    for x, group in by_variable.items():
        group.sort(key=lambda ctx: ctx["formula"].size)
        groups.append((x, Atom(x), group, [ctx["formula"].size for ctx in group]))
    for f in frontier:
        occurrences = atom_occurrences(f)
        room = size_cap - f.size
        for x, identity, ordered, sizes in groups:
            k = occurrences.get(x, 0)
            if k == 0:
                continue
            for ctx in ordered[:bisect_right(sizes, room // k + 1)]:
                if ctx["formula"] != identity:
                    yield ((f,), ctx)


# --------------------------------------------------------------------------
# Built-in conclusions
# --------------------------------------------------------------------------

def _mp_conclude(premises, context):
    minor, major = premises
    if type(major) is Binary and major.op == IMPLIES and major.left == minor:
        return (major.right,)
    return ()


def _substitution_conclude(premises, context):
    (formula,) = premises
    return (substitute_prop(formula, context["variable"], context["formula"]),)


def _extension_conclude(premises, context):
    (formula,) = premises
    return (Binary(OR, formula, context["psi"]),)


def _cancellation_conclude(premises, context):
    (formula,) = premises
    if type(formula) is Binary and formula.op == OR and formula.left == formula.right:
        return (formula.left,)
    return ()


def _assoc_left_conclude(premises, context):
    (formula,) = premises
    if (type(formula) is Binary and formula.op == OR
            and type(formula.right) is Binary and formula.right.op == OR):
        inner = formula.right
        return (Binary(OR, Binary(OR, formula.left, inner.left), inner.right),)
    return ()


def _assoc_right_conclude(premises, context):
    (formula,) = premises
    if (type(formula) is Binary and formula.op == OR
            and type(formula.left) is Binary and formula.left.op == OR):
        inner = formula.left
        return (Binary(OR, inner.left, Binary(OR, inner.right, formula.right)),)
    return ()


def _cut_conclude(premises, context):
    first, second = premises
    if not (type(first) is Binary and first.op == OR):
        return ()
    if not (type(second) is Binary and second.op == OR):
        return ()
    if type(second.left) is Negation and second.left.operand == first.left:
        return (Binary(OR, first.right, second.right),)
    return ()


def _exists_intro_conclude(premises, context):
    (formula,) = premises
    if not (type(formula) is Binary and formula.op == IMPLIES):
        return ()
    body, target = formula.left, formula.right
    eligible = free_variables(body) - free_variables(target)
    return tuple(
        Binary(IMPLIES, Quantified(EXISTS, x, body), target)
        for x in sorted(eligible)
    )


def _identity_conclude(premises, context):
    return (premises[0],)


# --------------------------------------------------------------------------
# The registry
# --------------------------------------------------------------------------

# The rules make_rule builds without parameters, one shared record each.
# Unbound extension draws psi from the pool.
_RULES = {rule.identifier: rule for rule in (
    InferenceRule("modus_ponens", 2, _mp_conclude, (), (IMPLIES,), _mp_strategy),
    InferenceRule("substitution", 1, _substitution_conclude,
                  (("variable", PARAM_VARIABLE), ("formula", PARAM_FORMULA)),
                  strategy=_substitution_strategy),
    InferenceRule("extension", 1, _extension_conclude, (("psi", PARAM_FORMULA),), (OR,)),
    InferenceRule("cancellation", 1, _cancellation_conclude, (), (OR,)),
    InferenceRule("associativity_left", 1, _assoc_left_conclude, (), (OR,)),
    InferenceRule("associativity_right", 1, _assoc_right_conclude, (), (OR,)),
    InferenceRule("cut", 2, _cut_conclude, (), (OR, NOT), _cut_strategy),
    InferenceRule("exists_introduction", 1, _exists_intro_conclude, (), (IMPLIES,)),
    InferenceRule("identity", 1, _identity_conclude),
)}


def _bound_extension(psi):
    check_parameter(PARAM_FORMULA, psi, "extension psi")
    bound = {"psi": psi}
    return InferenceRule(f"extension(psi={print_formula(psi)})", 1,
                         lambda premises, context: _extension_conclude(premises, bound),
                         requires_connectives=(OR,))


# What a rule factory's parameter of each kind must be: kind -> (type, description).
# An integer parameter is checked by check_count.
_PARAMETER_KINDS = {
    PARAM_FORMULA: (Formula, "a formula"),
    PARAM_RULE: (InferenceRule, "a rule"),
    PARAM_VALIDATOR: (Validator, "a validator"),
}


def check_parameter(kind: str, value, where: str):
    """Raise RuleParameterError unless ``value`` is a parameter of ``kind``."""
    expected, description = _PARAMETER_KINDS[kind]
    if not isinstance(value, expected):
        raise RuleParameterError(f"{where}: expected {description}, got {value!r}")


def make_rule(name: str, **params) -> InferenceRule:
    """Build a rule from its specification name plus keyword parameters,
    whose values the rule's factory checks."""
    declared = rule_parameters(name)
    for key in params:
        if key not in declared:
            raise RuleParameterError(f"rule {name!r} takes no parameter {key!r}")
    if name in _RULES and not params:
        return _RULES[name]
    missing = sorted(declared.keys() - params.keys())
    if missing:
        raise RuleParameterError(f"rule {name!r} needs parameters {missing}")
    return _PARAMETRIC_RULES[name][0](**params)


def rule_parameters(name: str) -> dict:
    """The parameters ``make_rule(name, ...)`` takes: name -> kind."""
    if name in _PARAMETRIC_RULES:
        return dict(_PARAMETRIC_RULES[name][1])
    if name in _RULES:
        return {}
    raise UnknownRuleError(
        f"unknown rule {name!r}; known rules: {', '.join(builtin_rule_names())}"
    )


def builtin_rule_names() -> tuple:
    return tuple(sorted(_RULES.keys() | _PARAMETRIC_RULES.keys()))


# --------------------------------------------------------------------------
# Combinators
# --------------------------------------------------------------------------

def _with_cap(strategy, inner_cap):
    """``strategy`` with the size cap passed through ``inner_cap``."""
    if strategy is None:
        return None

    def wrapped(universe, frontier, contexts, size_cap):
        return strategy(universe, frontier, contexts, inner_cap(size_cap))

    return wrapped


def compose(first: InferenceRule, second: InferenceRule) -> InferenceRule:
    """Pipe every conclusion of ``first`` through ``second``.

    The second rule must take exactly one premise and carry no unbound
    parameters, otherwise the composite's conclusions would not be a
    deterministic function of the first rule's inputs. The first rule's
    strategy runs without a size cap: the second rule can shrink an
    oversized conclusion, or turn one equal to its premise into a new one.
    """
    check_parameter(PARAM_RULE, first, "compose first")
    check_parameter(PARAM_RULE, second, "compose second")
    if second.arity != 1:
        raise RuleParameterError(
            f"compose: second rule {second.identifier!r} must take one premise"
        )
    if second.parameter_kinds:
        raise RuleParameterError(
            f"compose: second rule {second.identifier!r} has unbound parameters"
        )

    def conclude(premises, context):
        out = []
        for mid in first.conclusions(premises, context):
            out.extend(second.conclusions((mid,), None))
        return out

    return InferenceRule(
        f"compose({first.identifier}, {second.identifier})",
        first.arity,
        conclude,
        parameter_kinds=first.parameter_kinds,
        requires_connectives=first.requires_connectives | second.requires_connectives,
        strategy=_with_cap(first.strategy, lambda size_cap: None),
    )


def length_filtered(rule: InferenceRule, cap: int) -> InferenceRule:
    """Keep only conclusions whose size is strictly below ``cap``."""
    check_parameter(PARAM_RULE, rule, "length_filtered rule")
    check_count(cap, 1, "length_filtered cap")

    def conclude(premises, context):
        return [c for c in rule.conclusions(premises, context) if c.size < cap]

    return InferenceRule(
        f"length_filtered({rule.identifier}, {cap})",
        rule.arity,
        conclude,
        parameter_kinds=rule.parameter_kinds,
        requires_connectives=rule.requires_connectives,
        strategy=_with_cap(rule.strategy, lambda size_cap: (
            None if size_cap is None else min(size_cap, cap - 1))),
    )


def validated_mp(validator: Validator) -> InferenceRule:
    """Modus ponens that fires only when the validator accepts the minor premise."""
    check_parameter(PARAM_VALIDATOR, validator, "validated_mp validator")

    def conclude(premises, context):
        conclusion = _mp_conclude(premises, context)
        if conclusion and validator(premises[0]):
            return conclusion
        return ()

    return InferenceRule(
        f"validated_mp({validator.name})",
        2,
        conclude,
        requires_connectives=(IMPLIES,),
        strategy=_mp_strategy,
    )


# Rules built from parameters: name -> (factory, {parameter: kind}). Every
# parameter is required, except that extension without psi is a row above.
_PARAMETRIC_RULES = {
    "extension": (_bound_extension, {"psi": PARAM_FORMULA}),
    "compose": (compose, {"first": PARAM_RULE, "second": PARAM_RULE}),
    "length_filtered": (length_filtered, {"rule": PARAM_RULE, "cap": PARAM_INT}),
    "validated_mp": (validated_mp, {"validator": PARAM_VALIDATOR}),
}

