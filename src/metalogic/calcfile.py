"""Loading calculi from JSON definition files and builtin: shorthands.

A calculus file is a single JSON object:

    {
      "name": "my-calculus",
      "language": {
        "kind": "propositional",
        "variables": ["P", "Q", "R"],
        "connectives": ["not", "and", "or", "implies"],
        "constants": [],
        "punctuation": "parens"
      },
      "axioms": ["(P -> P)"],
      "schemata": [
        {"id": "k1", "pattern": "phi -> (chi -> phi)",
         "metavariables": ["phi", "chi"]}
      ],
      "rules": [
        {"name": "modus_ponens"},
        {"name": "extension", "params": {"psi": "Q"}}
      ],
      "schema_mode": "on-demand",
      "pool_variables": ["P", "Q"],
      "bounds": {"max_stage": 4, "max_formula_size": 25,
                 "node_budget": 200000, "instantiation_pool_size": 7},
      "stages": [
        {"axioms": ["P"], "schemata": [], "rules": null}
      ]
    }

First-order languages add "individual_variables", "functions" and
"predicates" (as [name, arity] pairs), and "quantifiers". Formula strings
use the surface syntax of the declared language; "punctuation" is
accepted and ignored. Unknown keys anywhere are rejected, so typos fail
loudly instead of being ignored. Each rule parameter is read by the kind
``rules.rule_parameters`` declares for it.

The path ``builtin:<name>`` bypasses files: ``builtin:kleene``,
``builtin:lv,kleene,tautology`` (base and validator), ``builtin:free,3``
(size cap); ``library.builtin_spec_params`` reads the arguments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Optional

from .engine import (
    AxiomStage,
    Bounds,
    Calculus,
    ON_DEMAND_MODE,
)
from .errors import CalculusFileError, MetalogicError, located
from .library import builtin_calculus, builtin_spec_params, make_validator
from .rules import (
    PARAM_FORMULA,
    PARAM_RULE,
    PARAM_VALIDATOR,
    InferenceRule,
    make_rule,
    rule_parameters,
    rule_system,
)
from .syntax import (
    FIRST_ORDER,
    PROPOSITIONAL,
    Alphabet,
    Schema,
    parse_formula,
    schema_alphabet,
)


@dataclass(frozen=True)
class CalculusFile:
    """Everything a definition file can carry."""

    calculus: Calculus
    bounds: Optional[Bounds] = None
    staged: Optional[tuple] = None  # AxiomStage, ...


def _reject_unknown(mapping: dict, allowed: tuple, where: str):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise CalculusFileError(
            f"{where}: unknown keys {unknown}; allowed: {sorted(allowed)}"
        )


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise CalculusFileError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _names(mapping: dict, key: str, where: str, default=None) -> tuple:
    """``mapping[key]`` as a tuple; it must be a JSON list of strings.

    A missing key gives ``default``, or is an error when ``default`` is None.
    """
    value = _require(mapping, key, where) if default is None else mapping.get(key, default)
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise CalculusFileError(
            f"{where}: {key!r} must be a list of strings, got {value!r}"
        )
    return tuple(value)


def _list(mapping: dict, key: str, where: str) -> list:
    """``mapping[key]``, or an empty list when absent; it must be a JSON list."""
    value = mapping.get(key, [])
    if not isinstance(value, list):
        raise CalculusFileError(f"{where}: {key!r} must be a list, got {value!r}")
    return value


_CONNECTIVES = ("not", "and", "or", "implies")


def _parse_language(raw: dict) -> Alphabet:
    where = "language"
    if not isinstance(raw, dict):
        raise CalculusFileError(f"{where}: expected an object")
    _reject_unknown(raw, (
        "kind", "variables", "connectives", "constants", "punctuation",
        "individual_variables", "functions", "predicates", "quantifiers",
    ), where)
    if raw.get("punctuation", "parens") not in ("parens", "brackets"):
        raise CalculusFileError(
            f"{where}: unknown punctuation style: {raw['punctuation']!r}"
        )
    # a propositional language needs variables, a first-order one individual variables
    first_order = raw.get("kind") == FIRST_ORDER
    with located(CalculusFileError, where):
        return Alphabet(
            kind=raw.get("kind", PROPOSITIONAL),
            variables=_names(raw, "variables", where, () if first_order else None),
            connectives=_names(raw, "connectives", where, _CONNECTIVES),
            constants=_names(raw, "constants", where, ()),
            functions=_list(raw, "functions", where),
            predicates=_list(raw, "predicates", where),
            individual_variables=_names(raw, "individual_variables", where,
                                        None if first_order else ()),
            quantifiers=_names(raw, "quantifiers", where, ("exists",) if first_order else ()),
        )


def _parse_formula_field(text, alphabet: Alphabet, where: str):
    if not isinstance(text, str):
        raise CalculusFileError(f"{where}: expected a formula string, got {text!r}")
    with located(CalculusFileError, where):
        return parse_formula(text, alphabet)


def _parse_schema(raw, alphabet: Alphabet, where: str) -> Schema:
    if not isinstance(raw, dict):
        raise CalculusFileError(f"{where}: expected an object")
    _reject_unknown(raw, ("id", "pattern", "metavariables"), where)
    schema_id = _require(raw, "id", where)
    metavariables = _names(raw, "metavariables", where)
    with located(CalculusFileError, where):
        meta_alphabet = schema_alphabet(alphabet, tuple(dict.fromkeys(metavariables)))
    pattern = _parse_formula_field(
        _require(raw, "pattern", where), meta_alphabet, f"{where}.pattern"
    )
    with located(CalculusFileError, where):
        return Schema(schema_id, pattern, metavariables)


def _parse_rule(raw, alphabet: Alphabet, stub: Calculus, index_path: str) -> InferenceRule:
    if not isinstance(raw, dict):
        raise CalculusFileError(f"{index_path}: expected an object")
    _reject_unknown(raw, ("name", "params"), index_path)
    name = _require(raw, "name", index_path)
    if not isinstance(name, str):
        raise CalculusFileError(f"{index_path}.name: expected a string, got {name!r}")
    raw_params = raw.get("params", {})
    if not isinstance(raw_params, dict):
        raise CalculusFileError(f"{index_path}.params: expected an object")
    with located(CalculusFileError, index_path):
        declared = rule_parameters(name)
    params = {}
    for key, value in raw_params.items():
        where = f"{index_path}.params.{key}"
        kind = declared.get(key)
        if kind == PARAM_FORMULA:
            value = _parse_formula_field(value, alphabet, where)
        elif kind == PARAM_RULE:
            value = _parse_rule(value, alphabet, stub, where)
        elif kind == PARAM_VALIDATOR:
            if not isinstance(value, str):
                raise CalculusFileError(f"{where}: expected a validator name, got {value!r}")
            with located(CalculusFileError, where):
                value = make_validator(value, stub)
        params[key] = value
    with located(CalculusFileError, index_path):
        return make_rule(name, **params)


def _parse_bounds(raw) -> Bounds:
    where = "bounds"
    if not isinstance(raw, dict):
        raise CalculusFileError(f"{where}: expected an object")
    _reject_unknown(raw, tuple(bound.name for bound in fields(Bounds)), where)
    with located(CalculusFileError, where):
        return Bounds(**raw)


def _parse_axioms(raw: dict, alphabet: Alphabet, where: str, prefix: str) -> tuple:
    """The axioms and schemata of the top level or of one stage."""
    axioms = tuple(
        _parse_formula_field(text, alphabet, f"{prefix}axioms[{i}]")
        for i, text in enumerate(_list(raw, "axioms", where))
    )
    schemata = tuple(
        _parse_schema(s, alphabet, f"{prefix}schemata[{i}]")
        for i, s in enumerate(_list(raw, "schemata", where))
    )
    return axioms, schemata


def _parse_rules(raw: dict, alphabet: Alphabet, stub: Calculus, where: str,
                 prefix: str) -> tuple:
    return tuple(
        _parse_rule(r, alphabet, stub, f"{prefix}rules[{i}]")
        for i, r in enumerate(_list(raw, "rules", where))
    )


_TOP_KEYS = ("name", "language", "axioms", "schemata", "rules", "schema_mode",
             "pool_variables", "bounds", "stages")


def parse_calculus_data(data: dict) -> CalculusFile:
    """Build a CalculusFile from already-decoded JSON data."""
    if not isinstance(data, dict):
        raise CalculusFileError("the calculus file must hold a JSON object")
    _reject_unknown(data, _TOP_KEYS, "top level")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise CalculusFileError(f"top level: 'name' must be a string, got {name!r}")
    alphabet = _parse_language(_require(data, "language", "top level"))
    axioms, schemata = _parse_axioms(data, alphabet, "top level", "")
    stub = Calculus(alphabet=alphabet, axioms=axioms, schemata=schemata,
                    name=name)
    rules = _parse_rules(data, alphabet, stub, "top level", "")
    try:
        calculus = Calculus(
            alphabet=alphabet,
            axioms=axioms,
            schemata=schemata,
            rules=rule_system(*rules),
            schema_mode=data.get("schema_mode", ON_DEMAND_MODE),
            pool_variables=_names(data, "pool_variables", "top level", ()),
            name=name,
        )
    except MetalogicError as exc:
        raise CalculusFileError(str(exc)) from exc
    bounds = _parse_bounds(data["bounds"]) if "bounds" in data else None
    staged = None
    if "stages" in data:
        stages = []
        raw_stages = _list(data, "stages", "top level")
        if not raw_stages:
            raise CalculusFileError(
                "stages: a staged axiom system needs at least one stage")
        for i, raw in enumerate(raw_stages):
            where = f"stages[{i}]"
            if not isinstance(raw, dict):
                raise CalculusFileError(f"{where}: expected an object")
            _reject_unknown(raw, ("axioms", "schemata", "rules"), where)
            stage_axioms, stage_schemata = _parse_axioms(raw, alphabet, where,
                                                         f"{where}.")
            stage_rules = None
            if raw.get("rules") is not None:
                stage_rules = rule_system(
                    *_parse_rules(raw, alphabet, stub, where, f"{where}."))
            stages.append(AxiomStage(stage_axioms, stage_schemata, stage_rules))
        staged = tuple(stages)
    return CalculusFile(calculus, bounds, staged)


def _builtin_from_spec(spec: str) -> Calculus:
    name, *args = [p.strip() for p in spec.split(",")]
    try:
        return builtin_calculus(name, **builtin_spec_params(name, args))
    except MetalogicError as exc:
        raise CalculusFileError(str(exc)) from exc


def read_calculus_file(path: str) -> CalculusFile:
    """Load a calculus plus its optional bounds and stages.

    A path of the form ``builtin:<name>`` returns the built-in calculus
    with no file-level bounds or stages.
    """
    if path.startswith("builtin:"):
        return CalculusFile(_builtin_from_spec(path[len("builtin:"):]))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CalculusFileError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; deep nesting
        raise CalculusFileError(f"{path} is not valid JSON: {exc}") from exc
    return parse_calculus_data(data)
