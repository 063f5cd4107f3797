"""Built-in calculi, validators, and translation maps."""

import re
from dataclasses import FrozenInstanceError

import pytest

import metalogic
from metalogic import (
    AND,
    AlphabetError,
    Atom,
    Binary,
    Bounds,
    IMPLIES,
    Negation,
    ON_DEMAND_MODE,
    RuleParameterError,
    SATURATED,
    SUBSTITUTION_RULE_MODE,
    UnknownCalculusError,
    builtin_calculus,
    derive,
    enumerate_body,
    enumerate_wffs,
    free_calculus,
    lv_calculus,
    make_validator,
    parse_formula,
    print_formula,
    realized_axioms,
    shoenfield_fragment_calculus,
    translation_map,
)
from conftest import small_bounds


class TestRosters:
    def test_kleene_shape(self, kleene):
        assert kleene.name == "kleene"
        assert [s.schema_id for s in kleene.schemata] == [
            f"k{i}" for i in range(1, 11)
        ]
        assert kleene.rules.identifiers() == frozenset({"modus_ponens"})
        assert kleene.schema_mode == ON_DEMAND_MODE
        assert kleene.alphabet.variables == ("P", "Q", "R")

    def test_church_p1_shape(self, church_p1):
        assert [s.schema_id for s in church_p1.schemata] == ["p1-1", "p1-2", "p1-3"]
        assert church_p1.schema_mode == SUBSTITUTION_RULE_MODE
        assert church_p1.rules.identifiers() == frozenset(
            {"modus_ponens", "substitution"}
        )
        assert church_p1.alphabet.constants == ("f",)

    def test_church_p2_negation_axiom(self, church_p2):
        pattern = church_p2.schema_by_id("p2-3").pattern
        assert print_formula(pattern) == "((~phi -> ~chi) -> (chi -> phi))"

    def test_shoenfield_fragment_shape(self):
        calculus = shoenfield_fragment_calculus()
        assert calculus.rules.identifiers() == {
            "extension", "cancellation", "associativity_left",
            "associativity_right", "cut", "exists_introduction",
        }
        axioms = {print_formula(f) for f in calculus.axioms}
        assert "(x = x)" in axioms
        assert len(calculus.schemata) == 1  # excluded middle

    def test_registry_names(self):
        names = metalogic.library._CALCULI
        for name in ("kleene", "church_p1", "church_p2", "shoenfield_fragment",
                     "lv", "free"):
            assert name in names

    def test_unknown_name(self):
        with pytest.raises(UnknownCalculusError):
            builtin_calculus("post")

    @pytest.mark.parametrize("args, params", [
        (["", "tautology"], {"validator": "tautology"}),
        (["kleene", ""], {"base": "kleene"}),
        (["", ""], {}),
    ], ids=["empty-base", "empty-validator", "both-empty"])
    def test_an_empty_spec_argument_keeps_its_default(self, args, params):
        assert metalogic.library.builtin_spec_params("lv", args) == params

    def test_parameter_passthrough(self):
        calculus = builtin_calculus("lv", base="kleene", validator="always-true")
        assert calculus.name == "lv(kleene, always-true)"
        with pytest.raises(RuleParameterError):
            builtin_calculus("kleene", size_cap=3)

    @pytest.mark.parametrize("name, params, message", [
        ("kleene", {"size_cap": 3}, "calculus 'kleene' takes no parameters, got ['size_cap']"),
        ("free", {"size": 3}, "calculus 'free' takes size_cap, got ['size']"),
        ("lv", {"base": "kleene", "foo": 1},
         "calculus 'lv' takes base and validator, got ['foo']"),
    ], ids=["kleene", "free", "lv"])
    def test_a_keyword_the_calculus_does_not_take_is_rejected(self, name, params, message):
        with pytest.raises(RuleParameterError, match=re.escape(message)):
            builtin_calculus(name, **params)


NULLARY = {"kleene": "P -> P", "church_p1": "p -> p", "church_p2": "p -> p",
           "shoenfield_fragment": "x = x"}


@pytest.mark.parametrize("name", sorted(NULLARY))
class TestBuiltOncePerProcess:
    def test_two_calls_return_one_object(self, name):
        assert builtin_calculus(name) is builtin_calculus(name)

    def test_runs_leave_it_equal_to_a_fresh_build(self, name):
        shared = builtin_calculus(name)
        bounds = small_bounds(max_stage=2, max_formula_size=7)
        enumerate_body(shared, bounds)
        derive(shared, parse_formula(NULLARY[name], shared.alphabet), bounds)
        fresh = getattr(metalogic, f"{name}_calculus").__wrapped__()
        assert fresh is not shared
        assert shared == fresh

    def test_setting_an_attribute_raises(self, name):
        with pytest.raises(FrozenInstanceError):
            builtin_calculus(name).name = "changed"


class TestFreeCalculus:
    def test_axioms_are_the_whole_bounded_language(self):
        calculus = free_calculus(size_cap=3)
        body = enumerate_body(calculus, small_bounds(max_formula_size=3))
        language = enumerate_wffs(calculus.alphabet, 3)
        assert set(body.as_set()) == set(language)
        assert body.status == SATURATED

    def test_cap_is_mandatory(self):
        with pytest.raises(RuleParameterError):
            free_calculus()

    def test_boolean_cap_is_rejected(self):
        with pytest.raises(RuleParameterError, match="must be an integer"):
            free_calculus(size_cap=True)

    def test_alphabet_is_p_and_negation(self):
        calculus = free_calculus(size_cap=2)
        texts = {print_formula(f) for f in calculus.axioms}
        assert texts == {"P", "~P"}


class TestValidators:
    def test_tautology_validator_uses_base_constants(self, church_p1):
        validator = make_validator("tautology", church_p1)
        accepted = parse_formula("(((p -> f) -> f) -> p)", church_p1.alphabet)
        assert validator(accepted)
        assert not validator(parse_formula("(p -> f)", church_p1.alphabet))

    def test_axiom_membership_validator(self, kleene):
        validator = make_validator("axiom-membership", kleene)
        instance = parse_formula("((P & Q) -> (R -> (P & Q)))", kleene.alphabet)
        assert validator(instance)  # a k1 instance
        assert not validator(parse_formula("(P -> Q)", kleene.alphabet))

    def test_axiom_membership_accepts_every_schema_instance(self, church_p1):
        # not a realized axiom: church_p1 realizes p1-1 only positionally
        instance = parse_formula("((q -> q) -> (s -> (q -> q)))", church_p1.alphabet)
        assert church_p1.schema_mode == SUBSTITUTION_RULE_MODE
        assert instance not in realized_axioms(church_p1, Bounds())
        assert make_validator("axiom-membership", church_p1)(instance)

    def test_unknown_validator(self, kleene):
        with pytest.raises(RuleParameterError):
            make_validator("oracle", kleene)


class TestLvCalculi:
    def test_modus_ponens_is_replaced(self):
        calculus = lv_calculus("kleene", "tautology")
        identifiers = calculus.rules.identifiers()
        assert "modus_ponens" not in identifiers
        assert "validated_mp(tautology)" in identifiers

    def test_base_without_mp_rejected(self):
        base = shoenfield_fragment_calculus()
        with pytest.raises(RuleParameterError):
            lv_calculus(base, "always-true")


def church_translation_fixture():
    p2 = builtin_calculus("church_p2")
    p1 = builtin_calculus("church_p1")
    return p1, p2


class TestTranslations:
    def test_p2_to_p1_rewrites_negation(self):
        p1, p2 = church_translation_fixture()
        to_p1 = translation_map("p2_to_p1")
        source = parse_formula("((~p -> ~q) -> (q -> p))", p2.alphabet)
        image = to_p1.fn(source)
        assert print_formula(image) == "(((p -> f) -> (q -> f)) -> (q -> p))"

    def test_p1_to_p2_rewrites_f_consequent_and_bare_f(self):
        p1, p2 = church_translation_fixture()
        to_p2 = translation_map("p1_to_p2")
        negated = to_p2.fn(parse_formula("(q -> f)", p1.alphabet))
        assert print_formula(negated) == "~q"
        canonical = to_p2.fn(Atom("f"))
        assert print_formula(canonical) == "~(p -> p)"

    def test_p2_to_p1_rejects_a_connective_p2_lacks(self):
        to_p1 = translation_map("p2_to_p1")
        with pytest.raises(AlphabetError, match=r"not a P2 formula: \(p & q\)"):
            to_p1.fn(Negation(Binary(AND, Atom("p"), Atom("q"))))

    def test_p1_to_p2_rejects_a_negation(self):
        to_p2 = translation_map("p1_to_p2")
        with pytest.raises(AlphabetError, match=r"not a P1 formula: ~q"):
            to_p2.fn(Binary(IMPLIES, Atom("p"), Negation(Atom("q"))))

    def test_unknown_map(self):
        with pytest.raises(Exception):
            translation_map("p3_to_p1")

    def test_round_trip_through_p1_fixes_negations(self):
        # p2 -> p1 -> p2 is not literal identity (negations return as
        # implication-to-f images), but translating twice is stable
        p1, p2 = church_translation_fixture()
        there = translation_map("p2_to_p1")
        back = translation_map("p1_to_p2")
        source = parse_formula("(~p -> (q -> ~p))", p2.alphabet)
        once = back.fn(there.fn(source))
        twice = back.fn(there.fn(once))
        assert once == twice == source


def test_acceptance_pool_sweep_is_wired(kleene):
    """The enumeration used by the soundness sweep produces nonempty bodies."""
    from dataclasses import replace
    pooled = replace(kleene, pool_variables=("P", "Q"))
    bounds = Bounds(max_stage=1, max_formula_size=9,
                    node_budget=5000, instantiation_pool_size=2)
    body = enumerate_body(pooled, bounds)
    assert len(body) > 0
    assert all(f.size <= 9 for f in body.theorems)
