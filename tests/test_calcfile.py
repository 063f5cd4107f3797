"""Definition-file parsing, builtin: shorthands, and loud failure on typos."""

import contextlib
import io
import json
import re

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from metalogic import (
    Bounds,
    CalculusFileError,
    RuleParameterError,
    apply_rule,
    builtin_rule_names,
    make_rule,
    make_validator,
    parse_calculus_data,
    parse_formula,
    read_calculus_file,
)
from metalogic.cli import main
from metalogic.rules import (
    PARAM_FORMULA,
    PARAM_INT,
    PARAM_RULE,
    PARAM_VALIDATOR,
    rule_parameters,
)


def full_data():
    """A definition exercising every top-level section."""
    return {
        "name": "chain",
        "language": {
            "kind": "propositional",
            "variables": ["P", "Q"],
            "connectives": ["not", "or", "implies"],
        },
        "axioms": ["P", "(P -> Q)"],
        "schemata": [
            {"id": "s1", "pattern": "(phi -> (chi -> phi))",
             "metavariables": ["phi", "chi"]},
        ],
        "rules": [{"name": "modus_ponens"}],
        "schema_mode": "on-demand",
        "pool_variables": ["P", "Q"],
        "bounds": {"max_stage": 3, "max_formula_size": 9,
                   "node_budget": 400, "instantiation_pool_size": 2},
        "stages": [
            {"axioms": ["Q"], "schemata": [], "rules": None},
            {"axioms": [], "rules": [{"name": "identity"}]},
        ],
    }


def load(data):
    return parse_calculus_data(data)


class TestTopLevel:
    def test_full_definition_loads(self):
        loaded = load(full_data())
        calculus = loaded.calculus
        assert calculus.name == "chain"
        assert len(calculus.axioms) == 2
        assert [s.schema_id for s in calculus.schemata] == ["s1"]
        assert calculus.rules.identifiers() == frozenset({"modus_ponens"})
        assert calculus.pool_variables == ("P", "Q")
        assert loaded.bounds == Bounds(3, 9, 400, 2)
        assert loaded.staged is not None
        assert len(loaded.staged) == 2

    def test_unknown_top_level_key_is_rejected(self):
        data = full_data()
        data["axiom"] = ["P"]
        with pytest.raises(CalculusFileError, match="unknown keys.*axiom"):
            load(data)

    def test_language_is_required(self):
        data = full_data()
        del data["language"]
        with pytest.raises(CalculusFileError, match="missing required key"):
            load(data)

    def test_non_object_data_is_rejected(self):
        with pytest.raises(CalculusFileError, match="JSON object"):
            load(["not", "an", "object"])

    def test_sections_other_than_language_are_optional(self):
        loaded = load({"language": {"variables": ["P"]}})
        assert loaded.calculus.axioms == ()
        assert loaded.bounds is None
        assert loaded.staged is None


class TestLanguage:
    def test_kind_defaults_to_propositional(self):
        calculus = load({"language": {"variables": ["P"]}}).calculus
        assert calculus.alphabet.kind == "propositional"
        assert calculus.alphabet.connectives == ("not", "and", "or", "implies")

    def test_constants_are_accepted(self):
        data = {"language": {"variables": ["p"], "constants": ["f"],
                             "connectives": ["implies"]}}
        calculus = load(data).calculus
        assert calculus.alphabet.constants == ("f",)

    def test_first_order_language(self):
        data = {"language": {
            "kind": "first-order",
            "individual_variables": ["x", "y"],
            "predicates": [["R", 2]],
            "functions": [["s", 1]],
            "quantifiers": ["exists"],
        }}
        alphabet = load(data).calculus.alphabet
        assert alphabet.kind == "first-order"
        assert ("R", 2) in alphabet.predicates
        assert ("s", 1) in alphabet.functions

    def test_propositional_rejects_first_order_keys(self):
        data = {"language": {"variables": ["P"],
                             "individual_variables": ["x"]}}
        with pytest.raises(CalculusFileError, match="language: propositional "
                           "alphabets declare no first-order symbols"):
            load(data)

    def test_first_order_rejects_constants(self):
        data = {"language": {"kind": "first-order",
                             "individual_variables": ["x"],
                             "constants": ["c"]}}
        with pytest.raises(CalculusFileError, match="language: first-order "
                           "alphabets declare no propositional constants"):
            load(data)

    def test_arity_pairs_are_validated(self):
        data = {"language": {"kind": "first-order",
                             "individual_variables": ["x"],
                             "predicates": [["R", "two"]]}}
        with pytest.raises(CalculusFileError, match="name, arity"):
            load(data)

    def test_unknown_language_kind(self):
        with pytest.raises(CalculusFileError, match="language: unknown language kind: 'modal'"):
            load({"language": {"kind": "modal", "variables": ["P"]}})

    @pytest.mark.parametrize("language, message", [
        ({"kind": "first-order", "individual_variables": ["x"], "functions": 5},
         "'functions' must be a list, got 5"),
        ({"kind": "first-order", "individual_variables": ["x"],
          "functions": [["g", True]]},
         "bad symbol declaration: expected a [name, arity] pair with an integer "
         "arity >= 0, got ['g', True]"),
        ({"variables": ["P", "(P -> P)"]}, "bad symbol name: '(P -> P)'"),
        ({"variables": ["P", "P P"]}, "bad symbol name: 'P P'"),
    ], ids=["functions-not-a-list", "boolean-arity", "formula-as-name", "spaced-name"])
    def test_bad_declarations_exit_3(self, tmp_path, capsys, language, message):
        path = tmp_path / "language.json"
        path.write_text(json.dumps({"language": language}), encoding="utf-8")
        for command in (["enum-body"], ["enum-lang", "--size", "3"]):
            assert main(command + ["--calc", str(path)]) == 3
            assert capsys.readouterr().err == f"metalogic: error: language: {message}\n"

    @pytest.mark.parametrize("language, axioms, message", [
        ({"kind": "first-order", "individual_variables": ["x'"], "predicates": [["R", 1]]},
         ["R(x')"], "individual variable declared with a prime: \"x'\""),
        ({"kind": "first-order", "variables": ["x'"], "individual_variables": ["x"]},
         [], "symbol name \"x'\" is a primed form of an individual variable"),
    ], ids=["primed-individual-variable", "variable-named-a-primed-form"])
    def test_primed_declarations_exit_3(self, tmp_path, capsys, language, axioms, message):
        path = tmp_path / "language.json"
        path.write_text(json.dumps({"language": language, "axioms": axioms}),
                        encoding="utf-8")
        assert main(["enum-body", "--calc", str(path)]) == 3
        assert capsys.readouterr().err == f"metalogic: error: language: {message}\n"

    def test_unknown_language_key(self):
        with pytest.raises(CalculusFileError, match="language: unknown keys"):
            load({"language": {"variables": ["P"], "vars": ["Q"]}})

    def test_language_must_be_an_object(self):
        with pytest.raises(CalculusFileError, match="expected an object"):
            load({"language": "kleene"})

    @pytest.mark.parametrize("key,value", [
        ("variables", "PQ"),
        ("variables", ["P", 1]),
        ("connectives", "implies"),
        ("constants", "c"),
    ])
    def test_propositional_name_lists_must_be_lists_of_strings(self, key, value):
        language = {"variables": ["P", "Q"], key: value}
        with pytest.raises(CalculusFileError, match=f"{key!r} must be a list of strings"):
            load({"language": language})

    @pytest.mark.parametrize("key,value", [
        ("individual_variables", "xy"),
        ("variables", "P"),
        ("quantifiers", "exists"),
        ("quantifiers", [None]),
    ])
    def test_first_order_name_lists_must_be_lists_of_strings(self, key, value):
        language = {"kind": "first-order", "individual_variables": ["x"], key: value}
        with pytest.raises(CalculusFileError, match=f"{key!r} must be a list of strings"):
            load({"language": language})

    @pytest.mark.parametrize("value", ["PQ", ["P", ["Q"]], {"P": 1}])
    def test_pool_variables_must_be_a_list_of_strings(self, value):
        data = full_data()
        data["pool_variables"] = value
        with pytest.raises(CalculusFileError, match="'pool_variables' must be a list"):
            load(data)

    def test_repeated_pool_variable_is_named(self, tmp_path, capsys):
        data = full_data()
        data["pool_variables"] = ["P", "P"]
        message = "pool variable 'P' is listed twice"
        with pytest.raises(CalculusFileError, match=re.escape(message)):
            load(data)
        path = tmp_path / "repeated-pool-variable.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["enum-body", "--calc", str(path)]) == 3
        assert capsys.readouterr().err == f"metalogic: error: {message}\n"

    @pytest.mark.parametrize("key, value, where", [
        ("schemata", ["(phi -> phi)"], "schemata[0]"),
        ("rules", ["modus_ponens"], "rules[0]"),
        ("bounds", [3, 9, 400, 2], "bounds"),
    ], ids=["schema", "rule", "bounds"])
    def test_entries_must_be_objects(self, key, value, where):
        data = full_data()
        data[key] = value
        with pytest.raises(CalculusFileError,
                           match=re.escape(f"{where}: expected an object")):
            load(data)


class TestFormulasAndSchemata:
    def test_axiom_parse_errors_carry_their_index(self):
        data = full_data()
        data["axioms"] = ["P", "(P ->"]
        with pytest.raises(CalculusFileError, match=r"axioms\[1\]"):
            load(data)

    def test_axioms_must_be_strings(self):
        data = full_data()
        data["axioms"] = [42]
        with pytest.raises(CalculusFileError, match="formula string"):
            load(data)

    def test_schema_pattern_errors_carry_their_location(self):
        data = full_data()
        data["schemata"] = [{"id": "s1", "pattern": "(phi ->",
                             "metavariables": ["phi"]}]
        with pytest.raises(CalculusFileError, match=r"schemata\[0\].pattern"):
            load(data)

    def test_schema_requires_all_three_fields(self):
        data = full_data()
        data["schemata"] = [{"id": "s1", "pattern": "phi"}]
        with pytest.raises(CalculusFileError, match="metavariables"):
            load(data)

    def test_metavariables_must_be_a_list_of_strings(self):
        data = full_data()
        data["schemata"] = [{"id": "s1", "pattern": "(p -> (h -> i))",
                             "metavariables": "phi"}]
        with pytest.raises(CalculusFileError, match="'metavariables' must be a list"):
            load(data)

    def test_schema_id_must_be_a_string(self):
        data = full_data()
        data["schemata"][0]["id"] = 7
        with pytest.raises(CalculusFileError, match=r"schemata\[0\]: schema id must be a string, got 7"):
            load(data)

    def test_non_string_schema_id_exits_3(self, tmp_path, capsys):
        data = full_data()
        data["schemata"][0]["id"] = 7
        path = tmp_path / "numeric-id.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["enum-body", "--json", "--calc", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "schemata[0]: schema id must be a string, got 7" in captured.err

    def test_metavariable_naming_a_variable_is_rejected(self, tmp_path, capsys):
        data = full_data()
        data["schemata"] = [{"id": "s1", "pattern": "(P -> Q)",
                             "metavariables": ["P"]}]
        message = "schemata[0]: metavariable 'P' collides with an object symbol"
        with pytest.raises(CalculusFileError, match=re.escape(message)):
            load(data)
        path = tmp_path / "clash.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["enum-body", "--calc", str(path)]) == 3
        assert message in capsys.readouterr().err

    def test_repeated_metavariable_is_reported_by_the_schema(self):
        data = full_data()
        data["schemata"] = [{"id": "s1", "pattern": "(phi -> phi)",
                             "metavariables": ["phi", "phi"]}]
        message = "schemata[0]: duplicate metavariable in schema 's1'"
        with pytest.raises(CalculusFileError, match=re.escape(message)):
            load(data)

    def test_substitution_mode_schemata_need_enough_variables(self, tmp_path, capsys):
        # the positional realization of a two-metavariable schema needs two variables
        data = {"language": {"variables": ["P"], "connectives": ["implies"]},
                "schemata": [{"id": "k", "pattern": "(phi -> (chi -> phi))",
                              "metavariables": ["phi", "chi"]}],
                "rules": [{"name": "modus_ponens"}, {"name": "substitution"}],
                "schema_mode": "substitution-rule"}
        message = ("schema 'k' has 2 metavariables but the alphabet declares "
                   "only 1 variables")
        with pytest.raises(CalculusFileError, match=re.escape(message)):
            load(data)
        path = tmp_path / "short-alphabet.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["parse", "--calc", str(path), "(P -> P)"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_unknown_schema_key(self):
        data = full_data()
        data["schemata"] = [{"id": "s1", "pattern": "phi",
                             "metavariables": ["phi"], "note": "hm"}]
        with pytest.raises(CalculusFileError, match=r"schemata\[0\]: unknown"):
            load(data)


class TestRules:
    def alphabet(self):
        return load(full_data()).calculus.alphabet

    def loaded_rule(self, spec):
        data = full_data()
        data["rules"] = [spec]
        rules = load(data).calculus.rules.rules
        assert len(rules) == 1
        return rules[0]

    def test_extension_takes_a_formula_parameter(self):
        rule = self.loaded_rule(
            {"name": "extension", "params": {"psi": "Q"}})
        assert rule.identifier == "extension(psi=Q)"
        p = parse_formula("P", self.alphabet())
        q = parse_formula("Q", self.alphabet())
        conclusions = apply_rule(rule, (p,))
        assert parse_formula("(P | Q)", self.alphabet()) in conclusions

    def test_length_filtered_wraps_a_nested_rule(self):
        rule = self.loaded_rule({
            "name": "length_filtered",
            "params": {"cap": 2, "rule": {"name": "modus_ponens"}},
        })
        alphabet = self.alphabet()
        p = parse_formula("P", alphabet)
        small = parse_formula("(P -> Q)", alphabet)
        big = parse_formula("(P -> (Q | Q))", alphabet)
        assert apply_rule(rule, (p, small))      # |Q| = 1 < 2
        assert not apply_rule(rule, (p, big))    # |(Q | Q)| = 3

    def test_compose_pipes_through_a_unary_second_rule(self):
        rule = self.loaded_rule({
            "name": "compose",
            "params": {"first": {"name": "modus_ponens"},
                       "second": {"name": "identity"}},
        })
        alphabet = self.alphabet()
        p = parse_formula("P", alphabet)
        pq = parse_formula("(P -> Q)", alphabet)
        assert apply_rule(rule, (p, pq)) == frozenset(
            {parse_formula("Q", alphabet)})

    def test_validated_mp_closes_over_the_file_axioms(self):
        rule = self.loaded_rule({
            "name": "validated_mp",
            "params": {"validator": "axiom-membership"},
        })
        alphabet = self.alphabet()
        p = parse_formula("P", alphabet)          # an axiom of full_data
        q = parse_formula("Q", alphabet)          # not an axiom
        p_to_q = parse_formula("(P -> Q)", alphabet)
        q_to_p = parse_formula("(Q -> P)", alphabet)
        assert apply_rule(rule, (p, p_to_q)) == frozenset({q})
        assert apply_rule(rule, (q, q_to_p)) == frozenset()

    def test_unknown_validator_name(self):
        with pytest.raises(CalculusFileError, match="unknown validator"):
            self.loaded_rule({"name": "validated_mp",
                              "params": {"validator": "oracle"}})

    def test_validator_must_be_a_name(self):
        with pytest.raises(CalculusFileError, match="validator name"):
            self.loaded_rule({"name": "validated_mp",
                              "params": {"validator": 7}})

    def test_unknown_rule_parameter(self):
        with pytest.raises(CalculusFileError, match="takes no parameter"):
            self.loaded_rule({"name": "modus_ponens",
                              "params": {"mood": "indicative"}})

    def test_cap_must_be_an_integer(self):
        with pytest.raises(CalculusFileError, match="must be an integer"):
            self.loaded_rule({
                "name": "length_filtered",
                "params": {"cap": "five", "rule": {"name": "identity"}},
            })

    def test_unknown_rule_name_carries_its_index(self):
        with pytest.raises(CalculusFileError, match=r"rules\[0\]"):
            self.loaded_rule({"name": "modus_tollens"})

    def test_params_must_be_an_object(self):
        with pytest.raises(CalculusFileError, match="params: expected"):
            self.loaded_rule({"name": "modus_ponens", "params": ["Q"]})


class TestBounds:
    def test_partial_bounds_fall_back_to_defaults(self):
        data = full_data()
        data["bounds"] = {"max_stage": 2}
        bounds = load(data).bounds
        defaults = Bounds()
        assert bounds.max_stage == 2
        assert bounds.max_formula_size == defaults.max_formula_size
        assert bounds.node_budget == defaults.node_budget
        assert bounds.instantiation_pool_size == defaults.instantiation_pool_size

    def test_invalid_bound_values_are_wrapped(self):
        data = full_data()
        data["bounds"] = {"max_stage": 0}
        with pytest.raises(CalculusFileError, match="bounds"):
            load(data)

    @pytest.mark.parametrize("key", ["max_stage", "max_formula_size",
                                     "node_budget", "instantiation_pool_size"])
    def test_boolean_bounds_are_rejected(self, key):
        data = full_data()
        data["bounds"] = {key: True}
        with pytest.raises(CalculusFileError, match=f"bound {key} must be an integer"):
            load(data)

    def test_boolean_bound_exits_3(self, tmp_path, capsys):
        data = full_data()
        data["bounds"] = {"max_stage": True}
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["enum-body", "--json", "--calc", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_stage must be an integer" in captured.err

    def test_unknown_bounds_key(self):
        data = full_data()
        data["bounds"] = {"max_depth": 4}
        with pytest.raises(CalculusFileError, match="bounds: unknown keys"):
            load(data)


class TestStages:
    def test_stage_rule_overrides(self):
        first, second = load(full_data()).staged
        assert first.rules is None
        assert second.rules.identifiers() == frozenset({"identity"})

    def test_stage_axioms_are_parsed(self):
        staged = load(full_data()).staged
        assert len(staged[0].axioms) == 1

    def test_stage_formula_errors_carry_their_location(self):
        data = full_data()
        data["stages"] = [{"axioms": ["(Q"]}]
        with pytest.raises(CalculusFileError, match=r"stages\[0\].axioms\[0\]"):
            load(data)

    def test_unknown_stage_key(self):
        data = full_data()
        data["stages"] = [{"axioms": [], "when": "later"}]
        with pytest.raises(CalculusFileError, match=r"stages\[0\]: unknown"):
            load(data)

    def test_stages_must_be_objects(self):
        data = full_data()
        data["stages"] = ["P"]
        with pytest.raises(CalculusFileError, match=r"stages\[0\]"):
            load(data)

    def test_an_empty_stage_list_is_a_located_usage_error(self, tmp_path, capsys):
        path = tmp_path / "no-stages.json"
        path.write_text(json.dumps(dict(full_data(), stages=[])), encoding="utf-8")
        assert main(["stages", "--calc", str(path)]) == 3
        assert capsys.readouterr().err == (
            "metalogic: error: stages: a staged axiom system needs at least one stage\n")


class TestBuiltinShorthands:
    def test_bare_builtin(self):
        loaded = read_calculus_file("builtin:kleene")
        assert loaded.calculus.name == "kleene"
        assert loaded.bounds is None
        assert loaded.staged is None

    def test_lv_with_base_and_validator(self):
        calculus = read_calculus_file("builtin:lv,kleene,always-true").calculus
        assert calculus.name == "lv(kleene, always-true)"

    def test_lv_default_validator(self):
        calculus = read_calculus_file("builtin:lv,kleene").calculus
        assert calculus.name == "lv(kleene, tautology)"

    def test_lv_rejects_extra_arguments(self):
        with pytest.raises(CalculusFileError, match="at most base and validator"):
            read_calculus_file("builtin:lv,kleene,tautology,more")

    def test_free_takes_a_size_cap(self):
        calculus = read_calculus_file("builtin:free,3").calculus
        assert len(calculus.axioms) == 3

    def test_free_requires_its_cap(self):
        with pytest.raises(CalculusFileError, match="size cap must be an integer >= 1"):
            read_calculus_file("builtin:free")

    def test_free_cap_must_be_an_integer(self):
        with pytest.raises(CalculusFileError, match="must be an integer"):
            read_calculus_file("builtin:free,huge")

    def test_plain_builtins_take_no_arguments(self):
        with pytest.raises(CalculusFileError, match="takes no parameters"):
            read_calculus_file("builtin:kleene,extra")

    def test_unknown_builtin_name(self):
        with pytest.raises(CalculusFileError):
            read_calculus_file("builtin:hilbert")


class TestFiles:
    def test_round_trip_through_a_real_file(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(full_data()), encoding="utf-8")
        loaded = read_calculus_file(str(path))
        assert loaded.calculus.name == "chain"
        assert loaded.bounds == Bounds(3, 9, 400, 2)
        assert len(loaded.staged) == 2

    def test_read_calculus_file_returns_the_calculus_alone(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(full_data()), encoding="utf-8")
        calculus = read_calculus_file(str(path)).calculus
        assert calculus.name == "chain"

    def test_invalid_json_is_reported_with_the_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CalculusFileError, match="not valid JSON"):
            read_calculus_file(str(path))

    def test_missing_file_is_reported(self, tmp_path):
        with pytest.raises(CalculusFileError, match="cannot read"):
            read_calculus_file(str(tmp_path / "absent.json"))


# church_p2 restated in a file, without its old "punctuation": "brackets".
P2_RESTATED = {
    "name": "p2-restated",
    "language": {"variables": ["p", "q", "s"], "connectives": ["implies", "not"]},
    "schemata": [
        {"id": "p2-1", "pattern": "phi -> (chi -> phi)",
         "metavariables": ["phi", "chi"]},
        {"id": "p2-2",
         "pattern": "(psi -> (phi -> chi)) -> ((psi -> phi) -> (psi -> chi))",
         "metavariables": ["psi", "phi", "chi"]},
        {"id": "p2-3", "pattern": "(~phi -> ~chi) -> (chi -> phi)",
         "metavariables": ["phi", "chi"]},
    ],
    "rules": [{"name": "modus_ponens"}, {"name": "substitution"}],
    "schema_mode": "substitution-rule",
}


class TestPunctuation:
    @pytest.mark.parametrize("argv", [
        ["--kind", "axiomatic", "--calc-b", "builtin:church_p2"],
        ["--kind", "logical", "--calc-b", "builtin:church_p1", "--map", "p2_to_p1"],
    ], ids=["axiomatic", "p2_to_p1"])
    def test_restated_church_p2_compares_with_the_builtins(self, tmp_path, capsys, argv):
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(P2_RESTATED), encoding="utf-8")
        code = main(["compare", "--calc-a", str(path), *argv, "--max-stage", "2",
                     "--max-size", "9", "--pool-vars", "p,q"])
        captured = capsys.readouterr()
        assert code == 2, captured.err
        assert "verdict: inconclusive" in captured.out

    @pytest.mark.parametrize("style", ["parens", "brackets"])
    def test_accepted_styles_are_ignored(self, style):
        data = full_data()
        data["language"]["punctuation"] = style
        assert load(data).calculus == load(full_data()).calculus

    def test_unknown_style_exits_3(self, tmp_path, capsys):
        data = full_data()
        data["language"]["punctuation"] = "braces"
        path = tmp_path / "braces.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["enum-body", "--calc", str(path)]) == 3
        assert "punctuation" in capsys.readouterr().err


class TestFieldTypes:
    @pytest.mark.parametrize("path", [
        ("axioms",), ("schemata",), ("rules",), ("stages",),
        ("stages", 0, "axioms"), ("stages", 0, "schemata"), ("stages", 0, "rules"),
    ], ids=lambda path: ".".join(map(str, path)))
    def test_list_fields_reject_other_values(self, path):
        data = full_data()
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 5
        with pytest.raises(CalculusFileError, match=f"'{path[-1]}' must be a list"):
            load(data)

    def test_a_non_list_exits_3(self, tmp_path, capsys):
        data = full_data()
        data["stages"][1]["rules"] = 5
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["enum-body", "--calc", str(path)]) == 3
        assert "'rules' must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [5, None, ["chain"]])
    def test_name_must_be_a_string(self, name):
        data = full_data()
        data["name"] = name
        with pytest.raises(CalculusFileError, match="'name' must be a string"):
            load(data)

    def test_rule_name_must_be_a_string(self):
        data = full_data()
        data["rules"] = [{"name": ["modus_ponens"]}]
        with pytest.raises(CalculusFileError, match=r"rules\[0\]\.name: expected a string"):
            load(data)

    def test_stage_schema_errors_carry_the_stage(self):
        data = full_data()
        data["stages"] = [{"schemata": [{"id": "s", "pattern": "(phi"}]}]
        with pytest.raises(CalculusFileError, match=r"stages\[0\]\.schemata\[0\]"):
            load(data)

    def test_boolean_cap_is_rejected(self):
        data = full_data()
        data["rules"] = [{"name": "length_filtered",
                          "params": {"cap": True, "rule": {"name": "modus_ponens"}}}]
        with pytest.raises(CalculusFileError, match="must be an integer"):
            load(data)


# One value of each parameter kind, as a file gives it and as Python does.
FILE_VALUES = {PARAM_FORMULA: "Q", PARAM_RULE: {"name": "identity"},
               PARAM_INT: 2, PARAM_VALIDATOR: "always-true"}


def python_value(kind):
    calculus = load(full_data()).calculus
    return {PARAM_FORMULA: parse_formula("Q", calculus.alphabet), PARAM_RULE: make_rule("identity"),
            PARAM_INT: 2, PARAM_VALIDATOR: make_validator("always-true", calculus)}[kind]


@pytest.mark.parametrize("name", builtin_rule_names())
class TestRuleRegistry:
    def test_loads_with_its_declared_parameters(self, name):
        kinds = rule_parameters(name)
        data = full_data()
        data["rules"] = [{"name": name, "params": {
            key: FILE_VALUES[kind] for key, kind in kinds.items()}}]
        (loaded,) = load(data).calculus.rules.rules
        built = make_rule(name, **{key: python_value(kind) for key, kind in kinds.items()})
        assert loaded.identifier == built.identifier

    def test_rejects_an_undeclared_parameter(self, name):
        data = full_data()
        data["rules"] = [{"name": name, "params": {"mood": "indicative"}}]
        with pytest.raises(CalculusFileError, match="takes no parameter 'mood'"):
            load(data)
        with pytest.raises(RuleParameterError, match="takes no parameter 'mood'"):
            make_rule(name, mood="indicative")


def first_order_data():
    """A valid first-order definition declaring every first-order key."""
    return {
        "language": {
            "kind": "first-order",
            "variables": ["P"],
            "individual_variables": ["x", "y"],
            "functions": [["c", 0], ["g", 1]],
            "predicates": [["R", 2]],
            "connectives": ["not", "or", "implies"],
            "quantifiers": ["exists"],
            "punctuation": "parens",
        },
        "axioms": ["R(x, g(c))"],
        "schemata": [{"id": "s1", "pattern": "(phi -> phi)",
                      "metavariables": ["phi"]}],
        "rules": [{"name": "modus_ponens"},
                  {"name": "extension", "params": {"psi": "P"}}],
        "bounds": {"max_stage": 3, "max_formula_size": 9,
                   "node_budget": 400, "instantiation_pool_size": 2},
        "stages": [{"axioms": ["P"]}],
    }


def propositional_data():
    """``full_data`` with a parametric rule after modus ponens."""
    data = full_data()
    data["rules"].append({"name": "extension", "params": {"psi": "Q"}})
    return data


BASES = {"propositional": propositional_data, "first-order": first_order_data}
LANGUAGE_KEYS = ("kind", "variables", "connectives", "constants", "punctuation",
                 "individual_variables", "functions", "predicates", "quantifiers")
KEY_PATHS = (
    [("language", key) for key in LANGUAGE_KEYS]
    + [("schemata", 0, key) for key in ("id", "pattern", "metavariables")]
    + [("rules", 0, "name"), ("rules", 1, "name"), ("rules", 1, "params")]
    + [("bounds", key) for key in ("max_stage", "max_formula_size", "node_budget",
                                   "instantiation_pool_size")]
    + [("stages", 0)]
)
# values near the valid ones, then any JSON value
NEAR_MISSES = (5, True, None, [], {}, "", "P P", "(P -> P)", "first-order",
               ["P", "(P -> P)"], ["x'"], [["g", True]], [["g"]], [["g", -1]],
               [["P", 1]], ["forall"], {"psi": 5}, {"rule": {"name": "identity"}})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


class TestExitContract:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(base=st.sampled_from(sorted(BASES)), key_path=st.sampled_from(KEY_PATHS),
           value=st.sampled_from(NEAR_MISSES) | JSON_VALUES)
    @example(base="first-order", key_path=("language", "functions"), value=5)
    @example(base="first-order", key_path=("language", "functions"), value=[["g", True]])
    @example(base="propositional", key_path=("language", "variables"),
             value=["P", "(P -> P)"])
    def test_any_one_replaced_value_ends_in_an_exit_code(self, tmp_path, base,
                                                          key_path, value):
        """One value of a valid file replaced by any JSON value: the CLI
        raises nothing and exits with a documented code."""
        data = BASES[base]()
        target = data
        for key in key_path[:-1]:
            target = target[key]
        target[key_path[-1]] = value
        path = tmp_path / "fuzzed.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["enum-body", "--calc", str(path), "--max-stage", "2",
                         "--max-size", "5"])
        assert code in range(5)
