"""Bounded decision procedures over calculi and finitely based relations.

Everything here answers questions that are undecidable (or at least
unbounded) in general, so every answer is a three-way Verdict:

    holds          with evidence
    fails          with a concrete counterexample the caller can re-check
    inconclusive   with a report of which bound got in the way

The settling rule: a present formula settles a question always (bodies
only grow), but an absence settles it only once the body saturated, so
that nothing more will appear under the size cap. ``_settled`` states that
rule once, and every property check whose verdict rests on an absence
returns through it; ``compare_calculi`` applies it to each side. Where a
check is inherently scoped to the cap, the verdict text says so.
transitively-closed is the run status, since a saturated run is one whose
further pass adds nothing under the size cap.
Strict consistency leaves the atom cap to ``is_tautology``, skipping what
it refuses.
"""

from __future__ import annotations

import inspect
import itertools
import json
import operator
from dataclasses import dataclass
from typing import Iterable, Optional

from .engine import (
    BUDGET_EXCEEDED,
    Bounds,
    Calculus,
    DEFAULT_BOUNDS,
    SATURATED,
    consequence_step,
    enumerate_body,
    extension_runs,
    fixed_axioms,
    pool_for,
    value_key,
)
from .errors import BudgetExceededError, MetalogicError, RuleParameterError, check_count
from .library import TranslationMap
from .semantics import is_tautology
from .syntax import (
    Binary,
    AND,
    Formula,
    Negation,
    Schema,
    canonical_key,
    canonical_sorted,
    enumerate_wffs,
    match_schema,
    print_formula,
)

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    outcome: str
    evidence: object = None
    detail: str = ""

    @property
    def is_holds(self) -> bool:
        return self.outcome == HOLDS

    @property
    def is_fails(self) -> bool:
        return self.outcome == FAILS

    @property
    def is_inconclusive(self) -> bool:
        return self.outcome == INCONCLUSIVE

    def __bool__(self):
        raise TypeError(
            "a Verdict is three-valued; test .is_holds / .is_fails / "
            ".is_inconclusive explicitly"
        )


def holds(evidence=None, detail: str = "") -> Verdict:
    return Verdict(HOLDS, evidence, detail)


def fails(counterexample, detail: str = "") -> Verdict:
    return Verdict(FAILS, counterexample, detail)


def inconclusive(report=None, detail: str = "") -> Verdict:
    return Verdict(INCONCLUSIVE, report, detail)


def _settled(body, verdict: Verdict, detail: str, **evidence) -> Verdict:
    """``verdict`` once the body saturated; otherwise inconclusive, with the
    run status and ``evidence`` as its report and ``detail`` as its text."""
    if body.status == SATURATED:
        return verdict
    return inconclusive({"status": body.status, **evidence}, detail)


# ==========================================================================
# Calculus equivalences
# ==========================================================================

COMPARISON_KINDS = ("logical", "algorithmic", "axiomatic")


def _image(formulas: Iterable[Formula], translation: Optional[TranslationMap],
           size_cap: int) -> frozenset:
    if translation is None:  # the identity: the formulas are within the cap
        return frozenset(formulas)
    return frozenset(
        w for w in (translation.fn(f) for f in formulas)
        if w.size <= size_cap
    )


def _stage_one_cut(body) -> bool:
    """Whether the node budget cut the realized axiom stream (stage 1)."""
    return body.status == BUDGET_EXCEEDED and body.stage_count == 1


def compare_calculi(kind: str, c: Calculus, d: Calculus,
                    bounds: Bounds = DEFAULT_BOUNDS,
                    translation: Optional[TranslationMap] = None) -> Verdict:
    """Bounded equivalence test.

    logical      f(body of C) versus body of D within the shared size cap
    algorithmic  logical, plus f(realized axioms of C) = realized axioms of D
    axiomatic    same alphabet; bodies equal and rule identifier sets equal

    No ``translation`` (None) means the identity, over one shared alphabet;
    any map given is a translation, whatever its identifier.

    A difference witness is definitive (fails) only when the side it is
    missing from saturated; for a non-identity translation only the forward
    direction can be witnessed, because a formula absent from the translated
    image may still be the image of a theorem beyond the size cap. holds
    requires both enumerations saturated and an empty difference.
    """
    if kind not in COMPARISON_KINDS:
        raise RuleParameterError(
            f"unknown comparison kind {kind!r}; known: {', '.join(COMPARISON_KINDS)}"
        )
    if kind == "axiomatic" and c.alphabet != d.alphabet:
        raise MetalogicError(
            "axiomatic comparison requires both calculi to share one alphabet"
        )
    is_identity = translation is None
    if is_identity and c.alphabet != d.alphabet:
        raise MetalogicError(
            "the calculi use different alphabets; a translation map is required"
        )
    if not is_identity and (translation.source_alphabet != c.alphabet
                            or translation.target_alphabet != d.alphabet):
        raise MetalogicError(
            f"translation {translation.identifier!r} does not map the first "
            f"calculus's language into the second's"
        )

    if kind == "axiomatic":
        ids_c = frozenset(c.rules.identifiers())
        ids_d = frozenset(d.rules.identifiers())
        if ids_c != ids_d:
            witness = sorted(ids_c ^ ids_d)
            return fails(
                tuple(witness),
                f"rule systems differ: {', '.join(witness)}",
            )

    body_c = enumerate_body(c, bounds)
    body_d = enumerate_body(d, bounds)
    if kind == "algorithmic":
        realized_c = body_c.new_at_stage(1)
        realized_d = body_d.new_at_stage(1)
        truncated = _stage_one_cut(body_c) or _stage_one_cut(body_d)
        image_axioms = _image(realized_c, translation, bounds.max_formula_size)
        axiom_diff = image_axioms ^ frozenset(realized_d)
        if axiom_diff:
            witness = min(axiom_diff, key=canonical_key)
            if truncated:
                return inconclusive(
                    {"undecided": sorted(map(print_formula, axiom_diff))[:10]},
                    "realized axiom streams were budget-truncated; the "
                    "difference is not definitive",
                )
            return fails(
                witness,
                f"realized axiom sets differ at {print_formula(witness)}",
            )
        if truncated:
            return inconclusive(
                {"axioms_compared": len(realized_c)},
                "realized axiom streams were budget-truncated",
            )

    image_c = _image(body_c.theorems, translation, bounds.max_formula_size)
    set_d = body_d.as_set()
    forward = canonical_sorted(image_c - set_d)
    backward = canonical_sorted(set_d - image_c)

    if forward and body_d.status == SATURATED:
        return fails(
            forward[0],
            f"{print_formula(forward[0])} is a translated theorem of the "
            f"first calculus but provably not of the second within the size cap",
        )
    if backward and is_identity and body_c.status == SATURATED:
        return fails(
            backward[0],
            f"{print_formula(backward[0])} is a theorem of the second "
            f"calculus but provably not of the first within the size cap",
        )
    if not forward and not backward:
        if body_c.status == SATURATED and body_d.status == SATURATED:
            return holds(
                {"theorems_compared": len(image_c),
                 "statuses": (body_c.status, body_d.status)},
                "bodies coincide within the size cap and both enumerations saturated",
            )
        return inconclusive(
            {"statuses": (body_c.status, body_d.status),
             "undecided": []},
            "no difference found, but at least one enumeration did not saturate",
        )
    undecided = [print_formula(w) for w in itertools.islice(
        itertools.chain(forward, backward), 10)]
    return inconclusive(
        {"statuses": (body_c.status, body_d.status), "undecided": undecided},
        f"{len(forward) + len(backward)} difference candidates survive, "
        f"none definitive under the run statuses",
    )


# ==========================================================================
# The property battery
# ==========================================================================

def _within_budget(body, what: str, compute):
    """``compute()``, or an inconclusive verdict saying that ``what``
    outgrew the node budget when it raises BudgetExceededError."""
    try:
        return compute()
    except BudgetExceededError:
        return inconclusive(
            {"status": body.status},
            f"{what} exceeds the node budget at this size cap",
        )


def _language_or_verdict(calculus: Calculus, body):
    return _within_budget(body, "the language itself", lambda: enumerate_wffs(
        calculus.alphabet, body.bounds.max_formula_size, limit=body.bounds.node_budget))


def _check_admissible(calculus, body) -> Verdict:
    language = _language_or_verdict(calculus, body)
    if isinstance(language, Verdict):
        return language
    missing = [w for w in language if w not in body]
    if not missing:
        return fails(
            {"language_size": len(language), "cap": body.bounds.max_formula_size},
            "not admissible within the size cap: the body covers every "
            "well-formed formula up to the cap",
        )
    found = holds(missing[0],
                  f"{print_formula(missing[0])} is outside the saturated body")
    return _settled(body, found,
                    "formulas are missing but the enumeration did not saturate",
                    candidates=[print_formula(w) for w in missing[:5]])


def _is_structural_contradiction(formula: Formula) -> bool:
    return (type(formula) is Binary and formula.op == AND
            and type(formula.right) is Negation
            and formula.left == formula.right.operand)


def _check_consistent(calculus, body, strict=False) -> Verdict:
    constants = frozenset(calculus.alphabet.constants)
    for theorem in body.theorems:
        if _is_structural_contradiction(theorem):
            return fails(
                theorem,
                f"contradiction member {print_formula(theorem)}",
            )
        if strict:
            try:
                unsatisfiable = is_tautology(Negation(theorem), constants=constants)
            except MetalogicError:
                continue
            if unsatisfiable:
                return fails(
                    theorem,
                    f"semantically unsatisfiable member {print_formula(theorem)}",
                )
    found = holds({"theorems_scanned": len(body)},
                  "no contradiction pattern among the theorems within the size cap")
    return _settled(body, found,
                    "no contradiction found, but the enumeration did not saturate",
                    theorems_scanned=len(body))


def _check_consistent_with(calculus, body, members=None, pattern=None) -> Verdict:
    if (members is None) == (pattern is None):
        raise RuleParameterError(
            "consistent-with needs exactly one of: members (a formula "
            "collection) or pattern (a schema)"
        )
    if pattern is not None:
        if not isinstance(pattern, Schema):
            raise RuleParameterError("pattern must be a schema")
        hits = [t for t in body.theorems
                if match_schema(pattern, t) is not None]
    else:
        target = frozenset(members)
        hits = canonical_sorted(target & body.as_set())
    if hits:
        return fails(
            hits[0],
            f"the body meets the forbidden set at {print_formula(hits[0])}",
        )
    found = holds({"theorems_scanned": len(body)},
                  "the saturated body avoids the forbidden set")
    return _settled(body, found,
                    "no overlap found, but the enumeration did not saturate")


def _check_complete_wrt_map(calculus, body, mapping=Negation) -> Verdict:
    language = _language_or_verdict(calculus, body)
    if isinstance(language, Verdict):
        return language
    failing = [a for a in language if a not in body and mapping(a) not in body]
    if not failing:
        return holds(
            {"formulas_checked": len(language)},
            "every formula up to the cap is a theorem or has its image as one",
        )
    candidates = [print_formula(a) for a in failing[:5]]
    # a gap whose image is beyond the cap may be closed beyond it
    witness = next((a for a in failing
                    if mapping(a).size <= body.bounds.max_formula_size), None)
    if witness is None:
        found = inconclusive({"status": body.status, "candidates": candidates},
                             "all gap candidates have images beyond the size cap")
    else:
        found = fails(witness, f"neither {print_formula(witness)} nor its "
                               f"image is a theorem within the size cap")
    return _settled(body, found,
                    "cap-sized gaps exist but the enumeration did not saturate",
                    candidates=candidates)


def _check_complete_wrt_rules(calculus, body, targets=None, rules=None) -> Verdict:
    if targets is None:
        raise RuleParameterError(
            "complete-wrt-rules needs targets (a formula collection)"
        )
    targets = canonical_sorted(set(targets))
    rules = calculus.rules if rules is None else rules
    layer = _within_budget(body, "the one-step layer", lambda: consequence_step(
        rules, body.theorems,
        parameter_pool=pool_for(calculus, rules, body.bounds),
        variables=calculus.alphabet.variables,
        node_budget=body.bounds.node_budget,
    ))
    if isinstance(layer, Verdict):
        return layer
    missing = [q for q in targets if q not in layer]
    if not missing:
        return holds(
            {"targets_checked": len(targets)},
            "every target is one rule application away from the body",
        )
    found = fails(missing[0], f"{print_formula(missing[0])} is not derivable "
                              f"in one step from the saturated body")
    return _settled(body, found,
                    "targets are missing but the enumeration did not saturate",
                    candidates=[print_formula(q) for q in missing[:5]])


def _check_transitively_closed(calculus, body) -> Verdict:
    found = holds({"theorems": len(body)},
                  "one extra full pass adds nothing within the size cap")
    return _settled(body, found, "transitive closure is only decidable here "
                                 "once the enumeration saturates")


def _check_closed_wrt_axioms(calculus, body) -> Verdict:
    oversize = [a for a, _ in fixed_axioms(calculus)
                if a.size > body.bounds.max_formula_size]
    if oversize:
        return inconclusive(
            {"oversized_axioms": [print_formula(a) for a in oversize[:5]]},
            "some declared axioms exceed the size cap, so their membership "
            "cannot be witnessed within it",
        )
    # Stage 1 is the realized axiom stream, deduplicated and cut at the
    # budget, so every realized axiom the budget admits is in the body.
    realized = body.new_at_stage(1)
    if _stage_one_cut(body):
        return inconclusive(
            {"realized": len(realized)},
            "the realized axiom stream was budget-truncated",
        )
    return holds(
        {"axioms_present": len(realized)},
        "every realized axiom is in the body",
    )


def _check_closed_wrt_rules(calculus, body) -> Verdict:
    # Only theorems past stage 1 cite a rule; stage-1 records are not built.
    used = {body.justification_of(theorem).rule_id for theorem in body.theorems
            if body.stage_of(theorem) > 1}
    unused = sorted(frozenset(calculus.rules.identifiers()) - used)
    if not unused:
        return holds(
            {"rules_used": sorted(used)},
            "every rule is cited by some first derivation",
        )
    found = fails(unused[0], f"rule {unused[0]!r} is never cited by a first "
                             f"derivation of the saturated body")
    return _settled(body, found,
                    "unused rules remain, but the enumeration did not saturate",
                    unused=unused)


def _check_completely_closed(calculus, body) -> Verdict:
    parts = {name: _PROPERTY_CHECKS[name](calculus, body)
             for name in ("closed-wrt-axioms", "closed-wrt-rules",
                          "transitively-closed")}
    for name, part in parts.items():
        if part.is_fails:
            return fails(part.evidence, f"{name}: {part.detail}")
    for name, part in parts.items():
        if part.is_inconclusive:
            return inconclusive(part.evidence, f"{name}: {part.detail}")
    return holds(
        {name: part.detail for name, part in parts.items()},
        "closed with respect to axioms and rules, and transitively closed",
    )


_PROPERTY_CHECKS = {
    "admissible": _check_admissible,
    "consistent": _check_consistent,
    "consistent-with": _check_consistent_with,
    "complete-wrt-map": _check_complete_wrt_map,
    "complete-wrt-rules": _check_complete_wrt_rules,
    "transitively-closed": _check_transitively_closed,
    "closed-wrt-axioms": _check_closed_wrt_axioms,
    "closed-wrt-rules": _check_closed_wrt_rules,
    "completely-closed": _check_completely_closed,
}

PROPERTY_NAMES = tuple(_PROPERTY_CHECKS)

# property name -> the keywords its check takes after (calculus, body)
_CHECK_PARAMETERS = {
    name: frozenset(tuple(inspect.signature(check).parameters)[2:])
    for name, check in _PROPERTY_CHECKS.items()
}


def check_property(calculus: Calculus, property_name: str,
                   bounds: Bounds = DEFAULT_BOUNDS, **params) -> Verdict:
    """Decide one Definition-style property of the calculus's bounded body.

    The body is built here, from the calculus and the bounds, so a check
    sees the body those two give and no other. A keyword the property does
    not take is rejected before the body is built.

    Parametric properties take keyword arguments: consistent-with needs
    ``members`` or ``pattern``; complete-wrt-map takes ``mapping`` (defaults
    to negation); complete-wrt-rules needs ``targets`` and takes ``rules``
    (defaults to the calculus's own rules); consistent accepts ``strict``
    for the semantic unsatisfiability mode.
    """
    check = _PROPERTY_CHECKS.get(property_name)
    if check is None:
        raise RuleParameterError(
            f"unknown property {property_name!r}; known: "
            f"{', '.join(PROPERTY_NAMES)}"
        )
    unknown = params.keys() - _CHECK_PARAMETERS[property_name]
    if unknown:
        raise RuleParameterError(
            f"property {property_name!r} got unknown parameters: "
            f"{sorted(unknown)}"
        )
    return check(calculus, enumerate_body(calculus, bounds), **params)


# ==========================================================================
# Finitely based relations
# ==========================================================================

def _pair_key(pair) -> tuple:
    premises, conclusion = pair
    return (len(premises), tuple(sorted(map(value_key, premises))),
            value_key(conclusion))


@dataclass(frozen=True)
class FiniteRelation:
    """A finite relation between finite premise sets and conclusions.

    Pairs are (frozenset of premises, conclusion); tokens are any hashable
    values (formulas or opaque strings).
    """

    carrier: frozenset
    pairs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "carrier", frozenset(self.carrier))
        normalized = frozenset(
            (frozenset(premises), conclusion)
            for premises, conclusion in self.pairs
        )
        object.__setattr__(self, "pairs", normalized)
        for premises, conclusion in normalized:
            stray = premises - self.carrier
            if stray or conclusion not in self.carrier:
                raise RuleParameterError(
                    "relation pair mentions tokens outside the carrier"
                )

    def range_tokens(self) -> frozenset:
        """Rg(R): every conclusion of some pair."""
        return frozenset(conclusion for _, conclusion in self.pairs)

    def sorted_pairs(self) -> list:
        return sorted(self.pairs, key=_pair_key)

    def __len__(self):
        return len(self.pairs)


# kind: (failure detail, holds detail)
_BOUNDEDNESS_DETAILS = {
    "bounded": ("a pair has {n} premises, more than {m}",
                "every pair has at most {m} premises"),
    "strict": ("a pair has {n} premises, not exactly {m}",
               "every pair has exactly {m} premises"),
    "functionally_bounded": (
        "conclusion {conclusion} needs more than {m} premises in every pair",
        "every conclusion is reachable with at most {m} premises"),
    "functionally_strict": (
        "conclusion {conclusion} has no pair with exactly {m} premises",
        "the range coincides with the exactly-{m}-premise component's range"),
}

BOUNDEDNESS_KINDS = tuple(_BOUNDEDNESS_DETAILS)


def check_boundedness(relation: FiniteRelation, m: int, kind: str) -> Verdict:
    """Decide an m-boundedness property; always definitive (finite data).
    A failure's witness is the first offending pair in ``sorted_pairs`` order.

    bounded                every pair has at most m premises
    strict                 every pair has exactly m premises
    functionally_bounded   every derivable conclusion has some pair with
                           at most m premises
    functionally_strict    the range coincides with the range of the
                           exactly-m-premise component
    """
    if kind not in BOUNDEDNESS_KINDS:
        raise RuleParameterError(
            f"unknown boundedness kind {kind!r}; known: "
            f"{', '.join(BOUNDEDNESS_KINDS)}"
        )
    check_count(m, 1, "the bound m")
    failure, success = _BOUNDEDNESS_DETAILS[kind]
    fits = operator.le if kind.endswith("bounded") else operator.eq
    pairs = relation.sorted_pairs()
    if kind.startswith("functionally_"):
        reachable = {c for premises, c in pairs if fits(len(premises), m)}
        offending = (pair for pair in pairs if pair[1] not in reachable)
        evidence = {"conclusions": len(relation.range_tokens())}
    else:
        offending = (pair for pair in pairs if not fits(len(pair[0]), m))
        evidence = {"pairs": len(pairs)}
    witness = next(offending, None)
    if witness is None:
        return holds(evidence, success.format(m=m))
    premises, conclusion = witness
    return fails(witness, failure.format(
        n=len(premises), m=m, conclusion=value_key(conclusion)))


@dataclass(frozen=True)
class RelationSample:
    """A sampled inference relation plus the run status of each premise set."""

    relation: FiniteRelation
    statuses: tuple  # ((frozenset premises, status), ...) in canonical order


def relation_from_calculus(calculus: Calculus, premise_pool: Iterable[Formula],
                           max_premises: int,
                           bounds: Bounds = DEFAULT_BOUNDS) -> RelationSample:
    """Sample the inference relation over subsets of a finite premise pool.

    For every subset S of the pool with at most max_premises elements, the
    pairs (S, z) collect every theorem z of the calculus extended with S as
    extra axioms. Premises seed their own closure, so (S, s) holds for every
    s in S. One ``extension_runs`` call saturates every subset, so the
    calculus, its pool and each premise are checked or built once.
    """
    check_count(max_premises, 0, "max_premises")
    pool = canonical_sorted(set(premise_pool))
    # no subset is larger than the pool
    subsets = [subset for count in range(min(max_premises, len(pool)) + 1)
               for subset in itertools.combinations(pool, count)]
    runs = extension_runs(calculus, subsets, bounds)
    statuses = tuple((frozenset(subset), status) for subset, (status, _) in zip(subsets, runs))
    pairs = frozenset((premises, theorem) for (premises, _), (_, members) in zip(statuses, runs)
                      for theorem in members)
    tokens = frozenset(pool).union(*(members for _, members in runs))
    return RelationSample(FiniteRelation(tokens, pairs), statuses)


# ==========================================================================
# Relation interchange: one record per line
# ==========================================================================

def relation_to_lines(relation: FiniteRelation) -> str:
    """Serialize as line-delimited records with sorted premise token lists.

    Tokens are serialized as text (formulas print canonically); parsing the
    text back yields a relation over string tokens.
    """
    lines = []
    for premises, conclusion in relation.sorted_pairs():
        lines.append(json.dumps(
            {"premises": sorted(map(value_key, premises)),
             "conclusion": value_key(conclusion)},
            sort_keys=True,
        ))
    return "\n".join(lines) + ("\n" if lines else "")


def relation_from_lines(text: str) -> FiniteRelation:
    pairs = set()
    tokens = set()
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise TypeError("expected a JSON object")
            premises = record["premises"]
            conclusion = record["conclusion"]
        except (ValueError, RecursionError, KeyError, TypeError) as exc:
            raise MetalogicError(
                f"bad relation record on line {line_number}: {exc}"
            ) from exc
        if (not isinstance(premises, list)
                or not all(isinstance(p, str) for p in premises)
                or not isinstance(conclusion, str)):
            raise MetalogicError(
                f"bad relation record on line {line_number}: premises must "
                f"be a list of strings and conclusion a string"
            )
        tokens.update(premises)
        tokens.add(conclusion)
        pairs.add((frozenset(premises), conclusion))
    return FiniteRelation(frozenset(tokens), frozenset(pairs))
