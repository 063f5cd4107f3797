"""Inference rules: built-ins, parameters, combinators, frontier strategies."""

import copy
import itertools
import pickle
import re

import pytest

from metalogic import (
    ArityError,
    Atom,
    Binary,
    EXISTS,
    IMPLIES,
    InferenceRule,
    NOT,
    Negation,
    OR,
    RuleParameterError,
    UnknownRuleError,
    Validator,
    apply_rule,
    builtin_calculus,
    builtin_rule_names,
    compose,
    enumerate_wffs,
    first_order_alphabet,
    is_tautology,
    length_filtered,
    make_rule,
    make_validator,
    parse_formula,
    print_formula,
    propositional_alphabet,
    rule_system,
    validated_mp,
)

ALPHABET = propositional_alphabet(("P", "Q", "R"))


def wff(text):
    return parse_formula(text, ALPHABET)


def conclusions(rule, *premises, **context):
    return {print_formula(f)
            for f in apply_rule(rule, premises, context or None)}


class TestModusPonens:
    def setup_method(self):
        self.mp = make_rule("modus_ponens")

    def test_fires_on_matching_pair(self):
        assert conclusions(self.mp, wff("P"), wff("(P -> Q)")) == {"Q"}

    def test_premise_order_matters(self):
        assert conclusions(self.mp, wff("(P -> Q)"), wff("P")) == set()

    def test_antecedent_must_match_exactly(self):
        assert conclusions(self.mp, wff("Q"), wff("(P -> Q)")) == set()

    def test_arity_enforced(self):
        with pytest.raises(ArityError):
            apply_rule(self.mp, (wff("P"),))

    def test_takes_no_parameters(self):
        with pytest.raises(RuleParameterError):
            make_rule("modus_ponens", psi=wff("P"))


class TestSubstitution:
    def test_substitutes_everywhere(self):
        rule = make_rule("substitution")
        out = conclusions(rule, wff("(P -> (Q -> P))"),
                          variable="P", formula=wff("~Q"))
        assert out == {"(~Q -> (Q -> ~Q))"}

    def test_missing_context_rejected(self):
        rule = make_rule("substitution")
        with pytest.raises(RuleParameterError):
            apply_rule(rule, (wff("P"),))


class TestDisjunctionRules:
    def test_extension_appends_parameter(self):
        rule = make_rule("extension")
        assert conclusions(rule, wff("P"), psi=wff("Q")) == {"(P | Q)"}

    def test_extension_with_fixed_psi(self):
        rule = make_rule("extension", psi=wff("~R"))
        assert rule.parameter_kinds == ()
        assert conclusions(rule, wff("P")) == {"(P | ~R)"}

    def test_cancellation_collapses_duplicate(self):
        rule = make_rule("cancellation")
        assert conclusions(rule, wff("(P | P)")) == {"P"}
        assert conclusions(rule, wff("(P | Q)")) == set()

    def test_associativity_pair_inverts(self):
        left = make_rule("associativity_left")
        right = make_rule("associativity_right")
        formula = wff("(P | (Q | R))")
        (regrouped,) = apply_rule(left, (formula,))
        assert print_formula(regrouped) == "((P | Q) | R)"
        assert apply_rule(right, (regrouped,)) == frozenset({formula})

    def test_cut_resolves_on_negated_left(self):
        rule = make_rule("cut")
        out = conclusions(rule, wff("(P | Q)"), wff("(~P | R)"))
        assert out == {"(Q | R)"}
        assert conclusions(rule, wff("(P | Q)"), wff("(P | R)")) == set()


class TestExistsIntroduction:
    def test_generalizes_each_eligible_variable(self):
        alphabet = first_order_alphabet(
            ("x", "y"), predicates=(("P", 1), ("Q", 1))
        )
        rule = make_rule("exists_introduction")
        premise = parse_formula("(P(x) -> Q(y))", alphabet)
        out = {print_formula(f) for f in apply_rule(rule, (premise,))}
        assert out == {"(exists x P(x) -> Q(y))"}


class TestCombinators:
    def test_compose_pipes_conclusions(self):
        piped = compose(make_rule("modus_ponens"), make_rule("cancellation"))
        out = conclusions(piped, wff("P"), wff("(P -> (Q | Q))"))
        assert out == {"Q"}

    def test_compose_requires_unary_second(self):
        with pytest.raises(RuleParameterError):
            compose(make_rule("cancellation"), make_rule("modus_ponens"))

    def test_length_filtered_drops_oversized(self):
        capped = length_filtered(make_rule("modus_ponens"), 3)
        assert conclusions(capped, wff("P"), wff("(P -> (Q & R))")) == set()
        assert conclusions(capped, wff("P"), wff("(P -> Q)")) == {"Q"}

    def test_validated_mp_checks_minor_premise(self):
        taut_only = Validator("tautology", is_tautology)
        rule = validated_mp(taut_only)
        # P is not a tautology, so detaching from P is refused
        assert conclusions(rule, wff("P"), wff("(P -> Q)")) == set()
        # (P -> P) is one, so its major detaches
        assert conclusions(rule, wff("(P -> P)"),
                           wff("((P -> P) -> Q)")) == {"Q"}

    def test_validated_mp_needs_a_validator(self):
        with pytest.raises(RuleParameterError,
                           match="validated_mp validator: expected a validator"):
            validated_mp("tautology")

    def test_validated_mp_validates_only_matching_pairs(self):
        seen = []
        rule = validated_mp(Validator("recording",
                                      lambda f: seen.append(f) or True))
        assert conclusions(rule, wff("Q"), wff("(P -> Q)")) == set()
        assert conclusions(rule, wff("P"), wff("(P & Q)")) == set()
        assert seen == []
        assert conclusions(rule, wff("P"), wff("(P -> Q)")) == {"Q"}
        assert seen == [wff("P")]

    def test_always_true_validator_recovers_plain_mp(self):
        rule = validated_mp(make_validator("always-true", builtin_calculus("kleene")))
        assert conclusions(rule, wff("P"), wff("(P -> Q)")) == {"Q"}

    @pytest.mark.parametrize("params", [
        {"rule": "identity", "cap": True},
        {"rule": "identity", "cap": 0},
        {"rule": "modus_ponens", "cap": 2.0},
    ], ids=["bool", "zero", "float"])
    def test_length_filtered_cap_is_an_integer(self, params):
        with pytest.raises(RuleParameterError, match="must be an integer >= 1"):
            make_rule("length_filtered", rule=make_rule(params["rule"]), cap=params["cap"])

    @pytest.mark.parametrize("cap", [True, 0, 2.0], ids=["bool", "zero", "float"])
    def test_length_filtered_checks_its_cap_when_called_directly(self, cap):
        with pytest.raises(RuleParameterError, match="must be an integer >= 1"):
            length_filtered(make_rule("modus_ponens"), cap)

    def test_combinators_check_their_rules_when_called_directly(self):
        with pytest.raises(RuleParameterError, match="expected a rule"):
            length_filtered("modus_ponens", 3)
        with pytest.raises(RuleParameterError, match="expected a rule"):
            compose("modus_ponens", make_rule("identity"))
        with pytest.raises(RuleParameterError, match="expected a rule"):
            compose(make_rule("identity"), None)

    def test_parametric_rules_need_every_parameter(self):
        with pytest.raises(RuleParameterError, match=r"needs parameters \['second'\]"):
            make_rule("compose", first=make_rule("identity"))
        with pytest.raises(RuleParameterError, match=r"needs parameters \['validator'\]"):
            make_rule("validated_mp")

    @pytest.mark.parametrize("reject, message", [
        (lambda: InferenceRule("backwards", -1, lambda premises, context: ()),
         "rule arity must be an integer >= 0, got -1"),
        (lambda: InferenceRule("r", "1", lambda premises, context: ()),
         "rule arity must be an integer >= 0, got '1'"),
        (lambda: InferenceRule("r", 1, lambda premises, context: (),
                               parameter_kinds=(("n", "int"),)),
         "rule 'r' declares unknown parameter kind 'int'"),
        (lambda: make_rule("extension").conclusions((wff("P"),), {"phi": wff("Q")}),
         "rule 'extension' is missing parameters ['psi']"),
        (lambda: compose(make_rule("cancellation"), make_rule("extension")),
         "compose: second rule 'extension' has unbound parameters"),
    ], ids=["negative-arity", "string-arity", "parameter-kind", "missing-parameter",
            "unbound-second"])
    def test_rejections(self, reject, message):
        with pytest.raises(RuleParameterError, match=re.escape(message)):
            reject()


# The conclusions of the schematic built-ins written out by hand.

def _mp_conclude(premises, context):
    minor, major = premises
    if type(major) is Binary and major.op == IMPLIES and major.left == minor:
        return (major.right,)
    return ()


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


def _identity_conclude(premises, context):
    return (premises[0],)


REFERENCES = {
    "modus_ponens": _mp_conclude,
    "extension": _extension_conclude,
    "cancellation": _cancellation_conclude,
    "associativity_left": _assoc_left_conclude,
    "associativity_right": _assoc_right_conclude,
    "cut": _cut_conclude,
    "identity": _identity_conclude,
}

# every formula up to size 5 over P and Q with all five connectives
UP_TO_FIVE = enumerate_wffs(propositional_alphabet(("P", "Q")), 5)


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_a_schematic_rule_concludes_what_its_reference_does(name):
    rule, reference = make_rule(name), REFERENCES[name]
    if rule.parameter_kinds:  # extension: psi over every formula up to size 3
        contexts = [{"psi": f} for f in UP_TO_FIVE if f.size <= 3]
    else:
        contexts = [None]
    for premises in itertools.product(UP_TO_FIVE, repeat=rule.arity):
        for context in contexts:
            assert rule.conclusions(premises, context) == frozenset(
                reference(premises, context)), (name, premises, context)


def _builds_without_parameters(name):
    try:
        make_rule(name)
    except RuleParameterError:
        return False
    return True


BARE_RULES = [name for name in builtin_rule_names() if _builds_without_parameters(name)]

# name: (arity, parameter_kinds, requires_connectives) of make_rule(name)
SHAPES = {
    "modus_ponens": (2, (), {IMPLIES}),
    "substitution": (1, (("variable", "variable"), ("formula", "formula")), set()),
    "extension": (1, (("psi", "formula"),), {OR}),
    "cancellation": (1, (), {OR}),
    "associativity_left": (1, (), {OR}),
    "associativity_right": (1, (), {OR}),
    "cut": (2, (), {OR, NOT}),
    "exists_introduction": (1, (), {IMPLIES, EXISTS}),
    "identity": (1, (), set()),
}


def test_each_builtin_declares_its_shape():
    assert sorted(SHAPES) == BARE_RULES
    for name, (arity, kinds, required) in SHAPES.items():
        rule = make_rule(name)
        assert (rule.arity, rule.parameter_kinds, rule.requires_connectives) == (
            arity, kinds, required), name


class TestImmutability:
    def test_a_rule_refuses_assignment(self):
        rule = make_rule("modus_ponens")
        with pytest.raises(AttributeError):
            rule.identifier = "changed"
        with pytest.raises(AttributeError):
            rule._strategy = None
        with pytest.raises(AttributeError):
            del rule.arity
        assert rule.identifier == "modus_ponens" and rule.arity == 2

    @pytest.mark.parametrize("name", BARE_RULES)
    def test_copies_and_pickles_of_a_rule_work(self, name):
        rule = make_rule(name)
        samples = [wff(t) for t in ("P", "(P -> Q)", "(P | P)", "((P | Q) | R)",
                                    "(P | (Q | R))", "(~P | R)")]
        values = {"formula": wff("~Q"), "variable": "P"}
        context = {slot: values[kind] for slot, kind in rule.parameter_kinds} or None
        for twin in (copy.copy(rule), copy.deepcopy(rule), pickle.loads(pickle.dumps(rule))):
            assert twin == rule
            for premises in itertools.product(samples, repeat=rule.arity):
                assert twin.conclusions(premises, context) == rule.conclusions(
                    premises, context)
            with pytest.raises(AttributeError):
                twin.arity = 1

    def test_the_shared_builtin_calculus_is_unaffected(self):
        rule = builtin_calculus("kleene").rules.rules[0]
        with pytest.raises(AttributeError):
            rule.identifier = "changed"
        assert builtin_calculus("kleene").rules.identifiers() == {"modus_ponens"}


class TestSharedRecords:
    def test_make_rule_returns_one_shared_record_per_builtin(self):
        assert make_rule("cut") is make_rule("cut")
        assert make_rule("extension") is not make_rule("extension", psi=wff("P"))

    def test_a_validator_refuses_assignment(self):
        validator = make_validator("always-true", builtin_calculus("kleene"))
        with pytest.raises(AttributeError):
            validator.name = "changed"
        assert validator.name == "always-true" and validator(wff("P")) is True


class TestRuleSystem:
    def test_duplicate_identifiers_rejected(self):
        with pytest.raises(RuleParameterError):
            rule_system(make_rule("modus_ponens"), make_rule("modus_ponens"))

    def test_identifiers(self):
        system = rule_system(make_rule("modus_ponens"), make_rule("cut"))
        assert system.identifiers() == frozenset({"modus_ponens", "cut"})

    def test_unknown_rule_name(self):
        with pytest.raises(UnknownRuleError):
            make_rule("abduction")

    def test_roster_is_sorted(self):
        names = builtin_rule_names()
        assert list(names) == sorted(names)
        assert "modus_ponens" in names and "substitution" in names


class TestFrontierStrategies:
    """candidate_applications must cover every tuple touching the frontier."""

    @pytest.mark.parametrize("name", ["modus_ponens", "cut"])
    def test_indexed_strategy_matches_exhaustive_scan(self, name):
        rule = make_rule(name)
        universe = [wff(t) for t in (
            "P", "Q", "(P -> Q)", "(P | Q)", "(~P | R)", "(Q -> R)", "(Q | P)",
        )]
        frontier = universe[4:]
        old = universe[:4]
        fired = set()
        for premises, _ in rule.candidate_applications(
                universe, frontier, (None,)):
            fired.update(apply_rule(rule, premises))
        expected = set()
        for minor in universe:
            for major in universe:
                if minor in old and major in old:
                    continue
                expected.update(apply_rule(rule, (minor, major)))
        assert fired == expected

    @staticmethod
    def _candidates(name, cap):
        """(yielded, all, fitting) candidate keys of a unary parametric rule."""
        rule = make_rule(name)
        universe = [wff(t) for t in (
            "(P | P)", "P", "~P", "Q", "((P & Q) -> ~P)", "(P -> Q)", "(R | (Q -> R))",
        )]
        frontier = universe[2:]
        slots = [[(slot, value) for value in (universe if kind == "formula" else "PQR")]
                 for slot, kind in rule.parameter_kinds]
        contexts = [dict(combo) for combo in itertools.product(*slots)]

        def key(premises, context):
            return premises, tuple(sorted(context.items()))

        yielded = [key(premises, context) for premises, context in
                   rule.candidate_applications(universe, frontier,
                                               contexts, cap)]
        every = {key((f,), context) for f in frontier for context in contexts}
        fitting = {
            key((f,), context) for f in frontier for context in contexts
            if any((cap is None or c.size <= cap) and c != f
                   for c in apply_rule(rule, (f,), context))
        }
        return yielded, every, fitting

    @pytest.mark.parametrize("cap", [None, 2, 4, 7])
    @pytest.mark.parametrize("name", ["substitution", "extension"])
    def test_parametric_strategy_covers_every_fitting_conclusion(self, name, cap):
        yielded, every, fitting = self._candidates(name, cap)
        assert len(yielded) == len(set(yielded))
        assert fitting <= set(yielded)
        if cap is None:
            assert set(yielded) == every

    @pytest.mark.parametrize("cap", [2, 4, 7])
    def test_substitution_strategy_skips_what_saturation_drops(self, cap):
        # Over the cap, an absent variable and the identity binding q = x
        # all lead to conclusions that saturation would throw away.
        yielded, every, fitting = self._candidates("substitution", cap)
        assert set(yielded) == fitting < every
