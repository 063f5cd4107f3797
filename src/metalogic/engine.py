"""Calculi as axiom-rule-body triads, and bounded body construction.

The body of a calculus is built in cumulative stages: stage 1 holds the
realized axioms, and every later stage adds one full pass of rule
applications over what is already present. Runs end in one of three states:

    saturated-within-size-cap   a further pass adds nothing under the size cap
    stage-cap-hit               the stage limit ended the run first
    budget-exceeded             the distinct-theorem budget ended the run first

The last allowed stage's layer is never admitted, so it is scanned only up
to its first conclusion outside the body: that one conclusion tells the
stage cap from saturation, exactly as the whole layer would.

Budget exhaustion is an explicit outcome, never a silent truncation: a body
whose status is budget-exceeded makes no completeness promise, and callers
that need monotonicity or saturation arguments must check the status.

Schemata are realized into stage 1 in one of two modes. In
substitution-rule mode each schema pattern is realized once as a concrete
axiom over the first object variables (the substitution rule then generates
instances during staging). In on-demand mode schemata are instantiated
against a finite pool of formulas: every well-formed formula over the
calculus's pool variables (plus declared constants) up to the pool size
bound, merged with any extra formulas the caller supplies (derivation
search adds the goal's subformulas). Instances are emitted in ascending
instance-size order interleaved across schemata, so a budget cut keeps the
small instances of every schema rather than all instances of the first.

A body maps each member to its entry, a ``(stage, justification)`` pair.
Stage-1 members that share a justification object share one entry: every
on-demand instance of a schema, and in substitution-rule mode its positional
realization, holds the ``(1, schema)`` entry of the ``Schema`` it came from,
and the concrete axioms share one entry too. The ``SchemaJustification``
record of a schema member is built only when it is asked for
(``BoundedBody.justification_of``, ``derivation_of``): its assignment is read
back from the formula by ``match_schema``. That is exact, since every
metavariable occurs in its pattern, so an instance binds each one way, and
the stream's first schema for a formula is the one its entry holds. Members
of later stages each hold their own ``RuleJustification``.

Every body is built with CPython's cyclic garbage collector paused
(``_collector_paused`` on ``enumerate_body``, ``inference_closure`` and
``derive``): the pool, stage 1, every application layer, the canonical sort
and the derivation. The built-in layers make no reference cycles: formula
nodes are immutable and built from existing children, and the members dict,
its justifications and the comparison keys hold only formulas, strings and
tuples of them. So reference counting frees all that a build discards, and
the collector would only traverse the growing body again and again and find
no garbage. As the outermost build starts, the young generations are
collected, so cyclic garbage the caller made before the build is freed then,
unless it had already aged into the oldest generation. As it exits,
everything the collector tracks is promoted to its oldest generation
(``gc.freeze()`` then ``gc.unfreeze()``, two list splices), so the first
young collection after a build does not walk the whole body the build kept.
A cycle that a caller's own rule or validator makes during the build is
collected at the next full collection. A collector the caller turned off
stays off, so a nested build (a validator that builds a body) leaves it as
it was, collects nothing and promotes nothing.
"""

from __future__ import annotations

import functools
import gc
import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (
    AlphabetError,
    BudgetExceededError,
    DerivationError,
    RuleParameterError,
    SchemaError,
    check_count,
    located,
)
from .rules import PARAM_FORMULA, InferenceRule, RuleSystem
from .syntax import (
    METAVARIABLES,
    Alphabet,
    Atom,
    Formula,
    Schema,
    atom_occurrences,
    canonical_sorted,
    enumerate_wffs,
    instantiate_schema,
    match_schema,
    print_formula,
    schema_alphabet,
    size_vectors,
    subformulas,
    validate_formula,
)

SATURATED = "saturated-within-size-cap"
STAGE_CAP_HIT = "stage-cap-hit"
BUDGET_EXCEEDED = "budget-exceeded"

SUBSTITUTION_RULE_MODE = "substitution-rule"
ON_DEMAND_MODE = "on-demand"


@dataclass(frozen=True)
class Bounds:
    """Hard resource limits for body construction and search."""

    max_stage: int = 4
    max_formula_size: int = 25
    node_budget: int = 200000
    instantiation_pool_size: int = 7

    def __post_init__(self):
        for bound in fields(self):
            check_count(getattr(self, bound.name), 1, f"bound {bound.name}")


DEFAULT_BOUNDS = Bounds()


# ==========================================================================
# Justifications
# ==========================================================================

@dataclass(frozen=True)
class AxiomJustification:
    """The formula is a declared concrete axiom."""


@dataclass(frozen=True)
class PremiseJustification:
    """The formula was seeded as a premise of an inference-closure run."""


@dataclass(frozen=True, slots=True)
class SchemaJustification:
    """The formula is an instance of an axiom schema.

    ``assignment`` is a name-sorted tuple of (metavariable, formula) pairs.
    A body does not store this record: its entry holds the ``Schema``, and
    the record is built from the formula each time it is asked for.
    """

    schema_id: str
    assignment: tuple

    def assignment_dict(self) -> dict:
        return dict(self.assignment)


@dataclass(frozen=True, slots=True)
class RuleJustification:
    """The formula is the conclusion of a rule application.

    ``premises`` holds the premise formulas in rule order; ``context`` is a
    name-sorted tuple of (parameter, value) pairs, empty for parameter-free
    rules.
    """

    rule_id: str
    premises: tuple
    context: tuple = ()

    def context_dict(self) -> Optional[dict]:
        return dict(self.context) if self.context else None


def _context_items(context: Optional[Mapping]) -> tuple:
    if not context:
        return ()
    return tuple(sorted(context.items(), key=lambda item: item[0]))


def value_key(value) -> str:
    """The text of a relation token or rule parameter: a formula prints."""
    return print_formula(value) if isinstance(value, Formula) else str(value)


def _tie_key(premises: tuple, context: tuple) -> tuple:
    """Order on the justifications of one conclusion that cite the same rule.

    The canonical first derivation cites the least rule id, and among
    applications of that rule the least key; ``context`` is name-sorted."""
    return (tuple(print_formula(p) for p in premises),
            tuple((name, value_key(v)) for name, v in context))


def justification_premises(justification) -> tuple:
    return justification.premises if isinstance(justification, RuleJustification) else ()


# ==========================================================================
# Calculus
# ==========================================================================

def _validate_pattern(schema: Schema, alphabet: Alphabet):
    """Patterns must be wffs of the alphabet once metavariables count as atoms."""
    augmented = schema_alphabet(alphabet, schema.metavariables)
    try:
        validate_formula(schema.pattern, augmented)
    except AlphabetError as exc:
        raise SchemaError(f"schema {schema.schema_id!r}: {exc}") from exc


@dataclass(frozen=True)
class Calculus:
    """An axiom system, a rule system, and (computed on demand) a body.

    ``pool_variables`` names the propositional variables the instantiation
    pool ranges over; leave it empty to make enumeration pools empty and
    derivation pools goal-directed (the goal's subformulas).
    """

    alphabet: Alphabet
    axioms: tuple = ()
    schemata: tuple = ()
    rules: RuleSystem = field(default_factory=RuleSystem)
    schema_mode: str = ON_DEMAND_MODE
    pool_variables: tuple = ()
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "axioms", tuple(self.axioms))
        object.__setattr__(self, "schemata", tuple(self.schemata))
        object.__setattr__(self, "pool_variables", tuple(self.pool_variables))
        if self.schema_mode not in (SUBSTITUTION_RULE_MODE, ON_DEMAND_MODE):
            raise SchemaError(f"unknown schema mode: {self.schema_mode!r}")
        for axiom in self.axioms:
            validate_formula(axiom, self.alphabet)
        seen_schema_ids = set()
        for schema in self.schemata:
            if schema.schema_id in seen_schema_ids:
                raise SchemaError(f"duplicate schema id: {schema.schema_id!r}")
            seen_schema_ids.add(schema.schema_id)
            _validate_pattern(schema, self.alphabet)
        if self.schema_mode == SUBSTITUTION_RULE_MODE and self.schemata:
            if "substitution" not in self.rules.identifiers():
                raise SchemaError(
                    "substitution-rule schema mode requires the substitution rule"
                )
            for schema in self.schemata:  # each must have its positional realization
                _positional_metas(schema, self.alphabet)
        for i, v in enumerate(self.pool_variables):
            if v not in self.alphabet.variables:
                raise AlphabetError(f"pool variable {v!r} is not declared")
            if v in self.pool_variables[:i]:
                raise AlphabetError(f"pool variable {v!r} is listed twice")
        missing = frozenset()
        for rule in self.rules:
            missing |= rule.requires_connectives - frozenset(self.alphabet.connectives)
        if missing:
            raise AlphabetError(
                f"rules need undeclared connectives: {sorted(missing)}"
            )

    def schema_by_id(self, schema_id: str) -> Schema:
        for schema in self.schemata:
            if schema.schema_id == schema_id:
                return schema
        raise SchemaError(f"no schema with id {schema_id!r}")

    def rule_by_id(self, rule_id: str) -> InferenceRule:
        for rule in self.rules:
            if rule.identifier == rule_id:
                return rule
        raise RuleParameterError(f"no rule with identifier {rule_id!r}")


@dataclass(frozen=True)
class AxiomStage:
    """One stage of a changing axiom system, with an optional rule override."""

    axioms: tuple = ()
    schemata: tuple = ()
    rules: Optional[RuleSystem] = None

    def __post_init__(self):
        object.__setattr__(self, "axioms", tuple(self.axioms))
        object.__setattr__(self, "schemata", tuple(self.schemata))


# ==========================================================================
# Instantiation pools and realized axioms
# ==========================================================================

def instantiation_pool(calculus: Calculus, bounds: Bounds,
                       extra: Iterable[Formula] = ()) -> list:
    """The finite formula universe that schema metavariables and rule
    parameters range over, in canonical order."""
    restricted = replace(calculus.alphabet, variables=calculus.pool_variables)
    pool = set(enumerate_wffs(restricted, bounds.instantiation_pool_size,
                              limit=bounds.node_budget))
    # Goal subformulas stay usable even when larger than the pool size bound.
    pool.update(extra)
    return canonical_sorted(pool)


_META_PRIORITY = {meta: rank for rank, meta in enumerate(METAVARIABLES)}


def _positional_metas(schema: Schema, alphabet: Alphabet) -> list:
    """The schema's metavariables in positional order, one per leading
    alphabet variable; SchemaError if the alphabet has too few."""
    metas = sorted(schema.metavariables,
                   key=lambda m: (_META_PRIORITY.get(m, len(_META_PRIORITY)), m))
    if len(metas) > len(alphabet.variables):
        raise SchemaError(
            f"schema {schema.schema_id!r} has {len(metas)} metavariables but the "
            f"alphabet declares only {len(alphabet.variables)} variables"
        )
    return metas


def positional_realization(schema: Schema, alphabet: Alphabet) -> tuple:
    """Realize a schema as one concrete axiom over the first object variables.

    Metavariables are mapped in canonical order (phi, chi, psi, then others
    alphabetically) onto the alphabet's variables in declared order, so the
    realized formulas reproduce the classical concrete axiom lists.
    """
    metas = _positional_metas(schema, alphabet)
    assignment = {m: Atom(alphabet.variables[i]) for i, m in enumerate(metas)}
    return instantiate_schema(schema, assignment), _context_items(assignment)


def schema_instances(schemata: Sequence[Schema], pool: Sequence[Formula],
                     max_size: int) -> Iterator[tuple]:
    """Stream (formula, schema) in ascending instance size.

    Instances of all schemata are interleaved so that truncating the stream
    after N items keeps the N smallest instances overall (ties broken by
    schema position, then metavariable size vector, then pool order).
    An item names only the ``Schema`` it instantiates: a body stores that,
    and builds the instance's ``SchemaJustification`` when asked for it.
    """
    pool_by_size = {}
    for f in pool:
        pool_by_size.setdefault(f.size, []).append(f)
    available_sizes = sorted(pool_by_size)
    prepared = []
    for schema in schemata:
        occurrences = atom_occurrences(schema.pattern)
        prepared.append((schema, [occurrences[m] for m in schema.metavariables]))
    # a schema's largest instance sets every metavariable to a largest pool
    # formula; a schema with metavariables has no instance on an empty pool
    largest = max(available_sizes, default=1)
    reach = [schema.pattern.size + sum(weights) * (largest - 1)
             for schema, weights in prepared if available_sizes or not weights]
    if not reach:
        return
    base_min = min(schema.pattern.size for schema, _ in prepared)
    for target in range(base_min, min(max_size, max(reach)) + 1):
        for schema, weights in prepared:
            build = schema.build
            for vector in size_vectors(weights, available_sizes, target - schema.pattern.size):
                buckets = [pool_by_size[s] for s in vector]
                for combo in itertools.product(*buckets):
                    yield build(combo), schema


def fixed_axioms(calculus: Calculus) -> Iterator[tuple]:
    """The stage-1 axioms that need no instantiation pool, at any size: each
    concrete axiom with one shared ``AxiomJustification``, then in
    substitution-rule mode each schema's positional realization with its
    ``Schema``, as ``schema_instances`` gives it."""
    justification = AxiomJustification()
    for axiom in calculus.axioms:
        yield axiom, justification
    if calculus.schema_mode == SUBSTITUTION_RULE_MODE:
        for schema in calculus.schemata:
            yield positional_realization(schema, calculus.alphabet)[0], schema


def realized_axiom_stream(calculus: Calculus, bounds: Bounds,
                          pool: Sequence[Formula]) -> Iterator[tuple]:
    """Stage-1 content: the fixed axioms, then on-demand schema instances.

    Axioms larger than the size cap are dropped here; the bounded body can
    only ever contain formulas within the cap.
    """
    for formula, justification in fixed_axioms(calculus):
        if formula.size <= bounds.max_formula_size:
            yield formula, justification
    if calculus.schemata and calculus.schema_mode != SUBSTITUTION_RULE_MODE:
        yield from schema_instances(calculus.schemata, pool, bounds.max_formula_size)


def realized_axioms(calculus: Calculus, bounds: Bounds) -> list:
    """The realized axiom formulas, deduplicated, in emission order."""
    pool = instantiation_pool(calculus, bounds)
    out = []
    seen = set()
    for formula, _ in realized_axiom_stream(calculus, bounds, pool):
        if formula not in seen:
            seen.add(formula)
            out.append(formula)
            if len(out) >= bounds.node_budget:
                break
    return out


# ==========================================================================
# Bounded bodies
# ==========================================================================

def _record(formula: Formula, justification):
    """The justification record of a member entry's justification: a
    ``Schema`` becomes the formula's ``SchemaJustification``, its
    name-sorted assignment read back by ``match_schema``."""
    if type(justification) is not Schema:
        return justification
    binding = match_schema(justification, formula)
    return SchemaJustification(justification.schema_id, tuple(sorted(binding.items())))


class BoundedBody:
    """The staged theorem set of one bounded run.

    ``theorems`` is canonically ordered; per-theorem first stages and
    justifications are queryable, and ``derivation_of`` reconstructs a full
    proof DAG. ``stage_sets[n-1]`` is the cumulative stage T_n; it is
    rebuilt from the first stages on each access rather than stored.

    Each member maps to a ``(stage, justification)`` entry. A stage-1
    schema member's entry holds its ``Schema``, shared by all its instances;
    ``justification_of`` and ``derivation_of`` build the
    ``SchemaJustification`` from the formula on each call.
    """

    __slots__ = ("status", "bounds", "_members", "theorems", "stage_count")

    def __init__(self, members: dict, stage_count: int, status: str,
                 bounds: Bounds):
        self._members = members
        self.stage_count = stage_count
        self.status = status
        self.bounds = bounds
        self.theorems = tuple(canonical_sorted(members))

    @property
    def stage_sets(self) -> tuple:
        return tuple(
            frozenset(f for f, (stage, _) in self._members.items() if stage <= n)
            for n in range(1, self.stage_count + 1)
        )

    def __contains__(self, formula) -> bool:
        return formula in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self.theorems)

    def as_set(self) -> frozenset:
        return frozenset(self._members)

    def stage_of(self, formula: Formula) -> int:
        return self._entry(formula)[0]

    def justification_of(self, formula: Formula):
        return _record(formula, self._entry(formula)[1])

    def _entry(self, formula: Formula) -> tuple:
        try:
            return self._members[formula]
        except KeyError:
            raise DerivationError(
                f"not in this body: {print_formula(formula)}"
            ) from None

    def new_at_stage(self, stage: int) -> tuple:
        """Formulas first derived at the given 1-based stage, canonical order."""
        return tuple(f for f in self.theorems if self._members[f][0] == stage)

    def derivation_of(self, formula: Formula) -> "Derivation":
        self._entry(formula)  # a formula outside the body raises here
        return _build_derivation(self._members, formula)

    def __repr__(self):
        return (f"BoundedBody({len(self._members)} theorems, "
                f"{self.stage_count} stages, {self.status})")


# ==========================================================================
# Derivations
# ==========================================================================

@dataclass(frozen=True)
class DerivationNode:
    formula: Formula
    justification: object
    premise_indices: tuple
    stage: int


@dataclass(frozen=True)
class Derivation:
    """A proof DAG in topological order; the last node is the conclusion."""

    nodes: tuple

    @property
    def conclusion(self) -> Formula:
        return self.nodes[-1].formula

    def __len__(self):
        return len(self.nodes)


def _build_derivation(members: dict, goal: Formula) -> Derivation:
    index_of = {}
    nodes = []
    stack = [(goal, False)]
    while stack:
        formula, expanded = stack.pop()
        if formula in index_of:
            continue
        stage, justification = members[formula]
        premises = justification_premises(justification)
        if expanded or not premises:
            indices = tuple(index_of[p] for p in premises)
            index_of[formula] = len(nodes)
            nodes.append(DerivationNode(
                formula, _record(formula, justification), indices, stage
            ))
        else:
            stack.append((formula, True))
            for p in reversed(premises):
                stack.append((p, False))
    return Derivation(tuple(nodes))


def validate_derivation(derivation: Derivation, calculus: Calculus) -> None:
    """Re-check every node against the calculus; raise DerivationError if any fails.

    Any other package error a node's check raises, such as an unknown schema
    or rule or a wrong premise count, is reported as a DerivationError that
    names the node.

    In substitution-rule mode a schema leaf must be the schema's positional
    realization, the one instance stage 1 holds; in on-demand mode any
    instance is a leaf. A premise is no leaf: a calculus derivation has no
    premises, only an ``inference_closure`` body does.
    """
    axioms = set(calculus.axioms)
    positional = calculus.schema_mode == SUBSTITUTION_RULE_MODE
    for index, node in enumerate(derivation.nodes):
        with located(DerivationError, f"node {index + 1}"):
            j = node.justification
            for p in node.premise_indices:
                if not (0 <= p < index):
                    raise DerivationError(
                        f"node {index + 1} references node {p + 1}, which does not precede it"
                    )
            if isinstance(j, AxiomJustification) and node.formula not in axioms:
                raise DerivationError(
                    f"node {index + 1} claims to be an axiom but is not declared: "
                    f"{print_formula(node.formula)}"
                )
            if isinstance(j, SchemaJustification):
                schema = calculus.schema_by_id(j.schema_id)
                if instantiate_schema(schema, j.assignment_dict()) != node.formula:
                    raise DerivationError(
                        f"node {index + 1} does not match schema {j.schema_id!r} "
                        f"under its recorded assignment"
                    )
                if (positional and node.formula
                        != positional_realization(schema, calculus.alphabet)[0]):
                    raise DerivationError(
                        f"node {index + 1} is not the positional realization of "
                        f"schema {j.schema_id!r}: {print_formula(node.formula)}"
                    )
            if isinstance(j, (AxiomJustification, SchemaJustification)):
                if node.premise_indices:
                    raise DerivationError(f"node {index + 1} is a leaf but lists premises")
                if node.stage != 1:
                    raise DerivationError(f"node {index + 1} is a leaf but has stage {node.stage}")
            elif isinstance(j, RuleJustification):
                rule = calculus.rule_by_id(j.rule_id)
                premise_formulas = tuple(derivation.nodes[p].formula for p in node.premise_indices)
                if premise_formulas != j.premises:
                    raise DerivationError(
                        f"node {index + 1} premise references disagree with its justification"
                    )
                if node.formula not in rule.conclusions(premise_formulas, j.context_dict()):
                    raise DerivationError(
                        f"node {index + 1} is not a conclusion of {j.rule_id!r} "
                        f"on its stated premises"
                    )
                # a conclusion of no premises enters at the first pass, stage 2
                expected = 1 + max((derivation.nodes[p].stage for p in node.premise_indices),
                                   default=1)
                if node.stage != expected:
                    raise DerivationError(
                        f"node {index + 1} has stage {node.stage}, expected {expected}"
                    )
            else:
                raise DerivationError(f"node {index + 1} is not an axiom, a schema instance "
                                      f"or a rule conclusion: {print_formula(node.formula)}")


def render_justification(justification, premise_indices: tuple = ()) -> str:
    if isinstance(justification, AxiomJustification):
        return "axiom"
    if isinstance(justification, PremiseJustification):
        return "premise"
    if isinstance(justification, SchemaJustification):
        bindings = ", ".join(f"{name}={print_formula(f)}"
                             for name, f in justification.assignment)
        return f"schema {justification.schema_id}" + (f": {bindings}" if bindings else "")
    if premise_indices:
        refs = ", ".join(str(p + 1) for p in premise_indices)
    else:
        refs = ", ".join(print_formula(p) for p in justification.premises)
    text = f"{justification.rule_id}: {refs}" if refs else justification.rule_id
    if justification.context:
        params = ", ".join(f"{name}={value_key(v)}" for name, v in justification.context)
        text += f" with {params}"
    return text


# ==========================================================================
# Saturation driver
# ==========================================================================

def _rule_contexts(rules: RuleSystem, pool: Sequence[Formula],
                   variables: Sequence[str]) -> tuple:
    """(rule, contexts) for each rule: every parameter context the rule can
    draw, in order, where a formula slot ranges over the pool and a variable
    slot over ``variables``. A rule without parameters draws ``(None,)``."""
    out = []
    for rule in rules:
        slots = [[(name, value) for value in (pool if kind == PARAM_FORMULA else variables)]
                 for name, kind in rule.parameter_kinds]
        out.append((rule, tuple(dict(combo) for combo in itertools.product(*slots))
                    if slots else (None,)))
    return tuple(out)


def _layer(rules_with_contexts, universe: Mapping, frontier: Sequence[Formula],
           size_cap: Optional[int]) -> Iterator[tuple]:
    """One application layer: yield (rule, premises, context, conclusion).

    Every rule runs through its candidate strategy against the universe and
    frontier (see ``InferenceRule.candidate_applications``); conclusions
    larger than ``size_cap`` are dropped, and ``None`` drops nothing and
    lets no strategy skip a tuple by size.
    """
    for rule, contexts in rules_with_contexts:
        if not contexts:
            continue
        for premises, context in rule.candidate_applications(
                universe, frontier, contexts, size_cap):
            for conclusion in rule.conclusions(premises, context):
                if size_cap is None or conclusion.size <= size_cap:
                    yield rule, premises, context, conclusion


class _Run:
    __slots__ = ("members", "stages", "status", "found")

    def __init__(self):
        self.members = {}
        self.stages = 1
        self.status = None
        self.found = False


def _saturate(seed_stream, rules: RuleSystem, pool: Sequence[Formula],
              variables: Sequence[str], bounds: Bounds,
              stop_goal: Optional[Formula] = None) -> _Run:
    """Admit the seed stream as stage 1, then each later stage's conclusions
    with their least justifications, in canonical order. One loop admits
    both: it skips members, and stops at the node budget or the goal."""
    run = _Run()
    members = run.members
    contexts_by_rule = _rule_contexts(rules, pool, variables)
    admissions = _stage_one(seed_stream)
    while True:
        first_new = len(members)
        for formula, entry in admissions:
            if formula in members:
                continue
            if len(members) >= bounds.node_budget:
                run.status = BUDGET_EXCEEDED
                return run
            members[formula] = entry
            if stop_goal is not None and formula == stop_goal:
                run.found = True
                return run
        frontier = list(itertools.islice(members, first_new, None))
        layer = _layer(contexts_by_rule, members, frontier, bounds.max_formula_size)
        if run.stages >= bounds.max_stage:
            # The last layer is never admitted: it only tells saturation
            # apart from the stage cap, and its first new conclusion decides.
            new = any(conclusion not in members for *_, conclusion in layer)
            run.status = STAGE_CAP_HIT if new else SATURATED
            return run
        # conclusion -> (rule id, premises, context items, tie key) of its
        # least justification so far. Rule ids decide most comparisons; the
        # printed tie key is built only when two candidates cite one rule.
        best = {}
        for rule, premises, context, conclusion in layer:
            if conclusion in members:
                continue
            rule_id = rule.identifier
            held = best.get(conclusion)
            if held is None or rule_id < held[0]:
                best[conclusion] = (rule_id, premises, _context_items(context), None)
            elif rule_id == held[0]:
                items = _context_items(context)
                key = _tie_key(premises, items)
                held_key = held[3] or _tie_key(held[1], held[2])
                best[conclusion] = ((rule_id, premises, items, key) if key < held_key
                                    else (*held[:3], held_key))
        if not best:
            run.status = SATURATED
            return run
        run.stages += 1
        admissions = _least_justified(best, run.stages)


def _stage_one(seeds) -> Iterator[tuple]:
    """(formula, entry) for each seed: seeds with one justification object,
    such as the instances of one schema, share one ``(1, justification)``
    entry."""
    entries = {}  # id of a justification -> its entry, which keeps it alive
    for formula, justification in seeds:
        entry = entries.get(id(justification))
        if entry is None:
            entry = entries[id(justification)] = (1, justification)
        yield formula, entry


def _least_justified(best: Mapping, stage: int) -> Iterator[tuple]:
    """(conclusion, (stage, RuleJustification)) for a gathered layer, in
    canonical order."""
    for conclusion in canonical_sorted(best):
        rule_id, premises, items, _ = best[conclusion]
        yield conclusion, (stage, RuleJustification(rule_id, premises, items))


# ==========================================================================
# The operations
# ==========================================================================

def _collector_paused(build):
    """Run ``build`` with the cyclic garbage collector off, and turn it back
    on however ``build`` exits, unless it was off already. The switch is
    per process: while one thread builds, no thread's garbage is collected.

    Just before the collector is turned off, the young generations are
    collected, so cyclic garbage made before the build is freed (unless it
    had already aged into the oldest generation) and the promotion below
    carries only what the build itself kept. Before the collector is turned
    back on, every object it tracks is promoted to the oldest generation, so
    the young collections after the build do not walk what it kept. Cyclic
    garbage that a custom rule or validator makes during the build is
    promoted with it and waits for the next full collection.
    ``gc.unfreeze()`` also moves any objects frozen before the build to the
    oldest generation: CPython has no narrower way to promote."""

    @functools.wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.collect(1)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.freeze()
            gc.unfreeze()
            gc.enable()

    return paused


@_collector_paused
def enumerate_body(calculus: Calculus, bounds: Bounds = DEFAULT_BOUNDS, *,
                   pool: Optional[Sequence[Formula]] = None) -> BoundedBody:
    """Build the bounded body of the calculus; ``pool`` reuses its
    ``instantiation_pool`` across calculi that differ only in axioms."""
    if pool is None:
        pool = instantiation_pool(calculus, bounds)
    run = _saturate(
        realized_axiom_stream(calculus, bounds, pool),
        calculus.rules, pool, calculus.alphabet.variables, bounds,
    )
    return BoundedBody(run.members, run.stages, run.status, bounds)


def consequence_step(rules: RuleSystem, premises: Iterable[Formula], *,
                     parameter_pool: Optional[Iterable[Formula]] = None,
                     variables: Sequence[str] = (),
                     size_cap: Optional[int] = None,
                     node_budget: Optional[int] = None) -> frozenset:
    """One application layer: every rule on every premise tuple.

    Returns exactly the conclusions (the layer H(premises)); the premises
    themselves appear only if some rule re-derives them. Parametric rules
    draw formula parameters from ``parameter_pool``, which defaults to the
    premises themselves.
    """
    premise_list = canonical_sorted(set(premises))
    pool = (canonical_sorted(set(parameter_pool))
            if parameter_pool is not None else premise_list)
    rules_with_contexts = _rule_contexts(rules, pool, variables)
    # The whole premise set is the frontier. No cap goes into the layer,
    # so no strategy skips a tuple whose conclusion equals a premise.
    out = set()
    for _, _, _, conclusion in _layer(rules_with_contexts,
                                      dict.fromkeys(premise_list),
                                      premise_list, None):
        if size_cap is not None and conclusion.size > size_cap:
            continue
        out.add(conclusion)
        if node_budget is not None and len(out) > node_budget:
            raise BudgetExceededError(
                f"consequence step produced more than {node_budget} formulas"
            )
    return frozenset(out)


@_collector_paused
def inference_closure(rules: RuleSystem, premises: Iterable[Formula],
                      bounds: Bounds = DEFAULT_BOUNDS, *,
                      variables: Sequence[str] = ()) -> BoundedBody:
    """Iterated consequence to fixpoint or bounds, with premises seeded.

    The premises are members of the result (the closure relation contains
    its arguments) even when no rule would re-derive them. Parametric rules
    draw formula parameters from the premises.
    """
    premise_list = canonical_sorted(set(premises))
    justification = PremiseJustification()
    seeds = (
        (f, justification)
        for f in premise_list if f.size <= bounds.max_formula_size
    )
    run = _saturate(seeds, rules, premise_list, variables, bounds)
    return BoundedBody(run.members, run.stages, run.status, bounds)


@dataclass(frozen=True)
class DeriveOutcome:
    """Result of a goal search: a derivation, or the status that ended the run.

    When ``derivation`` is None the goal was not reached; ``status`` then
    says how definitive that is. A saturated run proves the goal underivable
    within the size cap; a stage-cap or budget stop is inconclusive.
    """

    derivation: Optional[Derivation]
    status: str
    theorems_seen: int
    stages_run: int

    @property
    def found(self) -> bool:
        return self.derivation is not None


GOAL_FOUND = "goal-found"


@_collector_paused
def derive(calculus: Calculus, goal: Formula,
           bounds: Bounds = DEFAULT_BOUNDS) -> DeriveOutcome:
    """Search for a derivation of the goal by bounded forward saturation.

    The instantiation pool is extended with the goal's subformulas, so
    schema instantiation and rule parameters stay goal-directed even when
    the calculus declares no pool variables.
    """
    validate_formula(goal, calculus.alphabet)
    pool = instantiation_pool(calculus, bounds, subformulas(goal))
    run = _saturate(
        realized_axiom_stream(calculus, bounds, pool),
        calculus.rules, pool, calculus.alphabet.variables, bounds,
        stop_goal=goal,
    )
    if run.found:
        return DeriveOutcome(
            _build_derivation(run.members, goal), GOAL_FOUND,
            len(run.members), run.stages,
        )
    return DeriveOutcome(None, run.status, len(run.members), run.stages)


def staged_run(calculus: Calculus, stages: tuple,
               bounds: Bounds = DEFAULT_BOUNDS) -> tuple:
    """Independent bodies for a changing axiom system, one per ``AxiomStage``.

    Each element is enumerate_body of the calculus with that stage's axioms
    (and rule override, if any); nothing carries over between stages, so a
    formula derivable at stage n may be absent at stage n + 1.
    """
    bodies = []
    for stage in stages:
        stage_calculus = replace(
            calculus,
            axioms=stage.axioms,
            schemata=stage.schemata,
            rules=stage.rules if stage.rules is not None else calculus.rules,
        )
        bodies.append(enumerate_body(stage_calculus, bounds))
    return tuple(bodies)
