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
use the surface syntax of the declared language. Unknown keys anywhere are
rejected, so typos fail loudly instead of being ignored.

The path ``builtin:<name>`` bypasses files: ``builtin:kleene``,
``builtin:lv,kleene,tautology`` (base and validator), ``builtin:free,3``
(size cap).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Optional

from .engine import (
    AxiomStage,
    Bounds,
    Calculus,
    ON_DEMAND_MODE,
    StagedAxioms,
)
from .errors import CalculusFileError, MetalogicError
from .library import builtin_calculus, make_validator
from .rules import InferenceRule, make_rule, rule_system
from .syntax import (
    Alphabet,
    Schema,
    first_order_alphabet,
    parse_formula,
    propositional_alphabet,
)


@dataclass(frozen=True)
class CalculusFile:
    """Everything a definition file can carry."""

    calculus: Calculus
    bounds: Optional[Bounds] = None
    staged: Optional[StagedAxioms] = None


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


def _arity_pairs(raw, where: str) -> tuple:
    out = []
    for item in raw:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not isinstance(item[0], str) or not isinstance(item[1], int)):
            raise CalculusFileError(
                f"{where}: expected [name, arity] pairs, got {item!r}"
            )
        out.append((item[0], item[1]))
    return tuple(out)


_CONNECTIVES = ("not", "and", "or", "implies")


def _parse_language(raw: dict) -> Alphabet:
    where = "language"
    if not isinstance(raw, dict):
        raise CalculusFileError(f"{where}: expected an object")
    _reject_unknown(raw, (
        "kind", "variables", "connectives", "constants", "punctuation",
        "individual_variables", "functions", "predicates", "quantifiers",
    ), where)
    kind = raw.get("kind", "propositional")
    punctuation = raw.get("punctuation", "parens")
    if kind == "propositional":
        for key in ("individual_variables", "functions", "predicates",
                    "quantifiers"):
            if raw.get(key):
                raise CalculusFileError(
                    f"{where}: {key!r} needs kind 'first-order'"
                )
        return propositional_alphabet(
            _names(raw, "variables", where),
            connectives=_names(raw, "connectives", where, _CONNECTIVES),
            constants=_names(raw, "constants", where, ()),
            punctuation=punctuation,
        )
    if kind == "first-order":
        if raw.get("constants"):
            raise CalculusFileError(
                f"{where}: first-order languages here take no constant "
                f"symbols (propositional or individual)"
            )
        return first_order_alphabet(
            _names(raw, "individual_variables", where),
            variables=_names(raw, "variables", where, ()),
            connectives=_names(raw, "connectives", where, _CONNECTIVES),
            functions=_arity_pairs(raw.get("functions", ()), where),
            predicates=_arity_pairs(raw.get("predicates", ()), where),
            quantifiers=_names(raw, "quantifiers", where, ("exists",)),
            punctuation=punctuation,
        )
    raise CalculusFileError(
        f"{where}: kind must be 'propositional' or 'first-order', got {kind!r}"
    )


def _parse_formula_field(text, alphabet: Alphabet, where: str):
    if not isinstance(text, str):
        raise CalculusFileError(f"{where}: expected a formula string, got {text!r}")
    try:
        return parse_formula(text, alphabet)
    except MetalogicError as exc:
        raise CalculusFileError(f"{where}: {exc}") from exc


def _parse_schema(raw, alphabet: Alphabet, index: int) -> Schema:
    where = f"schemata[{index}]"
    if not isinstance(raw, dict):
        raise CalculusFileError(f"{where}: expected an object")
    _reject_unknown(raw, ("id", "pattern", "metavariables"), where)
    schema_id = _require(raw, "id", where)
    if not isinstance(schema_id, str):
        raise CalculusFileError(f"{where}.id: expected a string, got {schema_id!r}")
    metavariables = _names(raw, "metavariables", where)
    try:
        meta_alphabet = replace(
            alphabet, variables=tuple(alphabet.variables) + metavariables
        )
    except MetalogicError as exc:
        raise CalculusFileError(f"{where}: {exc}") from exc
    pattern = _parse_formula_field(
        _require(raw, "pattern", where), meta_alphabet, f"{where}.pattern"
    )
    try:
        return Schema(schema_id, pattern, metavariables)
    except MetalogicError as exc:
        raise CalculusFileError(f"{where}: {exc}") from exc


def _parse_rule(raw, alphabet: Alphabet, stub: Calculus, index_path: str) -> InferenceRule:
    if not isinstance(raw, dict):
        raise CalculusFileError(f"{index_path}: expected an object")
    _reject_unknown(raw, ("name", "params"), index_path)
    name = _require(raw, "name", index_path)
    raw_params = raw.get("params", {})
    if not isinstance(raw_params, dict):
        raise CalculusFileError(f"{index_path}.params: expected an object")
    params = {}
    for key, value in raw_params.items():
        where = f"{index_path}.params.{key}"
        if name == "extension" and key == "psi":
            params[key] = _parse_formula_field(value, alphabet, where)
        elif name == "length_filtered" and key == "cap":
            if not isinstance(value, int):
                raise CalculusFileError(f"{where}: expected an integer")
            params[key] = value
        elif name == "length_filtered" and key == "rule":
            params[key] = _parse_rule(value, alphabet, stub, where)
        elif name == "compose" and key in ("first", "second"):
            params[key] = _parse_rule(value, alphabet, stub, where)
        elif name == "validated_mp" and key == "validator":
            if not isinstance(value, str):
                raise CalculusFileError(f"{where}: expected a validator name")
            try:
                params[key] = make_validator(value, stub)
            except MetalogicError as exc:
                raise CalculusFileError(f"{where}: {exc}") from exc
        else:
            raise CalculusFileError(
                f"{where}: rule {name!r} takes no parameter {key!r}"
            )
    try:
        return make_rule(name, **params)
    except MetalogicError as exc:
        raise CalculusFileError(f"{index_path}: {exc}") from exc


def _parse_bounds(raw) -> Bounds:
    where = "bounds"
    if not isinstance(raw, dict):
        raise CalculusFileError(f"{where}: expected an object")
    _reject_unknown(raw, tuple(bound.name for bound in fields(Bounds)), where)
    try:
        return Bounds(**raw)
    except MetalogicError as exc:
        raise CalculusFileError(f"{where}: {exc}") from exc


_TOP_KEYS = ("name", "language", "axioms", "schemata", "rules", "schema_mode",
             "pool_variables", "bounds", "stages")


def parse_calculus_data(data: dict) -> CalculusFile:
    """Build a CalculusFile from already-decoded JSON data."""
    if not isinstance(data, dict):
        raise CalculusFileError("the calculus file must hold a JSON object")
    _reject_unknown(data, _TOP_KEYS, "top level")
    alphabet = _parse_language(_require(data, "language", "top level"))
    axioms = tuple(
        _parse_formula_field(text, alphabet, f"axioms[{i}]")
        for i, text in enumerate(data.get("axioms", ()))
    )
    schemata = tuple(
        _parse_schema(raw, alphabet, i)
        for i, raw in enumerate(data.get("schemata", ()))
    )
    stub = Calculus(alphabet=alphabet, axioms=axioms, schemata=schemata,
                    name=str(data.get("name", "")))
    rules = tuple(
        _parse_rule(raw, alphabet, stub, f"rules[{i}]")
        for i, raw in enumerate(data.get("rules", ()))
    )
    try:
        calculus = Calculus(
            alphabet=alphabet,
            axioms=axioms,
            schemata=schemata,
            rules=rule_system(*rules),
            schema_mode=data.get("schema_mode", ON_DEMAND_MODE),
            pool_variables=_names(data, "pool_variables", "top level", ()),
            name=str(data.get("name", "")),
        )
    except MetalogicError as exc:
        raise CalculusFileError(str(exc)) from exc
    bounds = _parse_bounds(data["bounds"]) if "bounds" in data else None
    staged = None
    if "stages" in data:
        stages = []
        for i, raw in enumerate(data["stages"]):
            where = f"stages[{i}]"
            if not isinstance(raw, dict):
                raise CalculusFileError(f"{where}: expected an object")
            _reject_unknown(raw, ("axioms", "schemata", "rules"), where)
            stage_axioms = tuple(
                _parse_formula_field(text, alphabet, f"{where}.axioms[{j}]")
                for j, text in enumerate(raw.get("axioms", ()))
            )
            stage_schemata = tuple(
                _parse_schema(s, alphabet, j)
                for j, s in enumerate(raw.get("schemata", ()))
            )
            stage_rules = None
            if raw.get("rules") is not None:
                stage_rules = rule_system(*(
                    _parse_rule(r, alphabet, stub, f"{where}.rules[{j}]")
                    for j, r in enumerate(raw["rules"])
                ))
            stages.append(AxiomStage(stage_axioms, stage_schemata, stage_rules))
        staged = StagedAxioms(tuple(stages))
    return CalculusFile(calculus, bounds, staged)


def _builtin_from_spec(spec: str) -> Calculus:
    parts = [p.strip() for p in spec.split(",")]
    name, args = parts[0], parts[1:]
    try:
        if name == "lv":
            params = {}
            if len(args) >= 1 and args[0]:
                params["base"] = args[0]
            if len(args) >= 2 and args[1]:
                params["validator"] = args[1]
            if len(args) > 2:
                raise CalculusFileError(
                    "builtin:lv takes at most base and validator, "
                    "e.g. builtin:lv,kleene,tautology"
                )
            return builtin_calculus("lv", **params)
        if name == "free":
            if len(args) != 1:
                raise CalculusFileError(
                    "builtin:free needs a size cap, e.g. builtin:free,3"
                )
            try:
                cap = int(args[0])
            except ValueError:
                raise CalculusFileError(
                    f"builtin:free size cap must be an integer, got {args[0]!r}"
                ) from None
            return builtin_calculus("free", size_cap=cap)
        if args:
            raise CalculusFileError(
                f"builtin:{name} takes no parameters"
            )
        return builtin_calculus(name)
    except CalculusFileError:
        raise
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
    except json.JSONDecodeError as exc:
        raise CalculusFileError(f"{path} is not valid JSON: {exc}") from exc
    return parse_calculus_data(data)


def load_calculus_file(path: str) -> Calculus:
    """The calculus alone; see read_calculus_file for bounds and stages."""
    return read_calculus_file(path).calculus
