"""Parser differential: every recorded text parses as it was recorded.

``tests/golden/parse_cases.json`` holds texts made by the grammar sampler
below (Unicode synonyms, both bracket kinds, unbracketed connective chains
that only precedence can read, bad tokens and cut-off input) plus inputs
nested near the 100-level bound. Each is stored with what the parser gave
for it: the canonical printed formula, or the ParseError message and
position. A change to the parser must reproduce every one. Re-record with

    PYTHONPATH=src python tests/test_parser_differential.py

only when a change is meant to alter what the parser accepts, and review
the diff of the cases file before committing it.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from metalogic import (
    IMPLIES,
    NOT,
    ParseError,
    first_order_alphabet,
    parse_formula,
    print_formula,
    propositional_alphabet,
)

CASES_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden", "parse_cases.json")

ALPHABETS = {
    "first-order": first_order_alphabet(
        ("x", "y"), variables=("P", "Q"),
        functions={"f": 1, "g": 2, "c": 0}, predicates={"R": 1, "S": 2, "T": 0}),
    "propositional": propositional_alphabet(("P", "Q"), constants=("k",)),
    "implicational": propositional_alphabet(("P", "Q"), connectives=(NOT, IMPLIES)),
}

_NOT = ("~", "¬", "∼")
_BINARY = (("&", "∧"), ("|", "∨"), ("->", "→", "⊃"), ("<->", "↔"))
_QUANTIFIERS = ("forall", "∀", "exists", "∃")
_BRACKETS = (("(", ")"), ("[", "]"))
_VARIABLES = ("x", "y", "x'", "y′", "x''")
_BAD = ("-", "<", "#", "(", ")", "[", "]", ",", "=", "~", "->", "&", "x", "P", "@", "<-", "forall")
_SPACES = ("", " ", " ", " ", "  ", "\t")


def _term(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        return [rng.choice(_VARIABLES + ("c",))]
    opened, closed = rng.choice(_BRACKETS)
    if roll < 0.75:
        return ["f", opened, *_term(rng, depth - 1), closed]
    return ["g", opened, *_term(rng, depth - 1), ",", *_term(rng, depth - 1), closed]


def _formula(rng, depth, first_order):
    """Tokens of a formula; a propositional text strays into first-order
    syntax once in twenty draws."""
    roll = rng.random()
    strays = first_order or rng.random() < 0.05
    if depth <= 0 or roll < 0.25:
        pick = rng.random() if strays else 0.0
        if pick < 0.45:
            atoms = ("P", "Q", "T") if first_order else ("P", "Q", "k")
            return [rng.choice(atoms if rng.random() < 0.95 else ("k", "T", "x", "z"))]
        if pick < 0.65:
            opened, closed = rng.choice(_BRACKETS)
            return ["R", opened, *_term(rng, 2), closed]
        if pick < 0.8:
            return ["S", "(", *_term(rng, 1), ",", *_term(rng, 1), ")"]
        return [*_term(rng, 1), "=", *_term(rng, 1)]
    if roll < 0.4 or (roll < 0.5 and not strays):
        return [rng.choice(_NOT), *_formula(rng, depth - 1, first_order)]
    if roll < 0.5:
        return [rng.choice(_QUANTIFIERS), rng.choice(_VARIABLES),
                *_formula(rng, depth - 1, first_order)]
    if roll < 0.8:
        tokens = _formula(rng, depth - 1, first_order)
        for _ in range(rng.randint(1, 2)):
            tokens += [rng.choice(rng.choice(_BINARY)), *_formula(rng, depth - 1, first_order)]
        return tokens
    opened, closed = rng.choice(_BRACKETS)
    return [opened, *_formula(rng, depth - 1, first_order), closed]


def _mutate(rng, tokens):
    """One bad token inserted, one token dropped, the input cut short, or a
    closing bracket of the other kind."""
    tokens = list(tokens)
    roll = rng.random()
    at = rng.randrange(len(tokens) + 1)
    if roll < 0.4:
        tokens.insert(at, rng.choice(_BAD))
    elif roll < 0.6 and len(tokens) > 1:
        del tokens[min(at, len(tokens) - 1)]
    elif roll < 0.8:
        tokens = tokens[:max(at, 1)]
    else:
        tokens = [{")": "]", "]": ")"}.get(t, t) for t in tokens]
    return tokens


def _join(rng, tokens):
    text = tokens[0]
    for token in tokens[1:]:
        space = rng.choice(_SPACES)
        # a word glued to the next word is one identifier, not two tokens
        if not space and text[-1:].isalnum() and token[:1].isalnum() and rng.random() < 0.7:
            space = " "
        text += space + token
    return text


def sampled_texts(seed=20071, count=1500):
    rng = random.Random(seed)
    for _ in range(count):
        name = rng.choice(sorted(ALPHABETS))
        tokens = _formula(rng, rng.randint(1, 4), name == "first-order")
        if rng.random() < 0.35:
            tokens = _mutate(rng, tokens)
        yield name, _join(rng, tokens)


def deep_texts():
    """Inputs nested 98 to 101 levels deep, and 150, in each way the module
    docstring counts a level."""
    for depth in (98, 99, 100, 101, 150):
        yield "propositional", "(" * depth + "P" + ")" * depth
        yield "propositional", "[" * depth + "P" + "]" * depth
        yield "propositional", "~" * depth + "P"
        yield "propositional", "¬∼" * (depth // 2) + "~" * (depth % 2) + "Q"
        yield "propositional", "P -> " * depth + "P"
        yield "propositional", "P <-> " * depth + "Q"
        yield "propositional", " & ".join(["P"] * (depth + 1))
        yield "propositional", " | ".join(["Q"] * (depth + 1))
        yield "propositional", "(~" * (depth // 2) + "P" + ")" * (depth // 2)
        yield "propositional", "(P -> " * (depth // 2) + "Q" + ")" * (depth // 2)
        yield "first-order", "∀x " * (depth - 1) + "R(x)"
        yield "first-order", "R(" + "f(" * (depth - 1) + "x" + ")" * depth


def outcome(alphabet_name, text):
    try:
        formula = parse_formula(text, ALPHABETS[alphabet_name])
    except ParseError as exc:
        return {"error": str(exc), "position": exc.position}
    return {"formula": print_formula(formula)}


def _load_cases():
    with open(CASES_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_recorded_text_parses_as_recorded():
    cases = _load_cases()
    assert len(cases) > 1500
    mismatches = [case for case in cases
                  if outcome(case["alphabet"], case["text"]) != case["expected"]]
    assert mismatches == []


def test_the_cases_cover_both_outcomes_and_every_alphabet():
    cases = _load_cases()
    parsed = [case for case in cases if "formula" in case["expected"]]
    assert 0.3 < len(parsed) / len(cases) < 0.8
    assert {case["alphabet"] for case in parsed} == set(ALPHABETS)
    messages = {case["expected"]["error"].split(" (at position")[0].split("'")[0]
                for case in cases if "error" in case["expected"]}
    assert len(messages) >= 12


def test_the_deepest_accepted_input_parses_under_a_low_recursion_limit():
    """100 nested brackets, the deepest input the bound accepts, fit in 650
    frames."""
    code = (
        "import sys\n"
        "from metalogic import parse_formula, propositional_alphabet\n"
        "alphabet = propositional_alphabet(('P',))\n"
        "text = '(' * 100 + 'P' + ')' * 100\n"
        "sys.setrecursionlimit(650)\n"
        "print(parse_formula(text, alphabet).size)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1\n"


if __name__ == "__main__":
    records = [{"alphabet": name, "text": text, "expected": outcome(name, text)}
               for name, text in [*sampled_texts(), *deep_texts()]]
    with open(CASES_FILE, "w", encoding="utf-8") as handle:
        handle.write("[\n")
        handle.write(",\n".join(json.dumps(r, ensure_ascii=False, sort_keys=True)
                                for r in records))
        handle.write("\n]\n")
    parsed = sum("formula" in r["expected"] for r in records)
    print(f"{len(records)} cases, {parsed} parse")
