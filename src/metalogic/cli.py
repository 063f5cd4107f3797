"""Command-line interface.

Subcommands:

    parse           parse one formula and print its canonical form
    enum-lang       enumerate well-formed formulas up to a size
    enum-body       build and print the bounded body of a calculus
    derive          search for a derivation of a goal formula
    stages          run a changing axiom system, one body per stage
    compare         bounded equivalence of two calculi
    check           decide a property of a calculus's body
    relation        sample the inference relation over premise subsets
    relation-check  boundedness properties of a relation file
    automaton       body acceptor construction and simulation

Exit codes: 0 holds/success, 1 fails/counterexample (including a goal
proven underivable and a rejected --accept word), 2 inconclusive or not
found within bounds, 3 usage or parse errors, 4 node budget exceeded.

Reports go to standard output; ``--json`` switches to a machine-readable
form with schema id "metalogic-report/1". Machine reports are byte-stable:
identical invocations produce identical bytes (the timing field is always
null for that reason). Diagnostics go to standard error.

Bounds precedence: command-line flags override calculus-file defaults,
which override the built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from functools import cache

from .analysis import (
    BOUNDEDNESS_KINDS,
    COMPARISON_KINDS,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    PROPERTY_NAMES,
    Verdict,
    check_boundedness,
    check_property,
    compare_calculi,
    relation_from_calculus,
    relation_from_lines,
    relation_to_lines,
)
from .automaton import (
    automaton_to_text,
    build_body_automaton,
    build_deterministic_body_automaton,
    nfa_accepts,
    nfa_language_upto,
)
from .calcfile import read_calculus_file
from .engine import (
    BUDGET_EXCEEDED,
    DEFAULT_BOUNDS,
    BoundedBody,
    Bounds,
    SATURATED,
    STAGE_CAP_HIT,
    derive,
    enumerate_body,
    render_justification,
    staged_run,
)
from .errors import BudgetExceededError, CalculusFileError, MetalogicError
from .library import translation_map, translation_map_names
from .syntax import (
    Formula,
    enumerate_wffs,
    parse_formula,
    parse_schema,
    print_formula,
)

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_BUDGET = 4

REPORT_SCHEMA = "metalogic-report/1"

_STATUS_EXIT = {
    SATURATED: EXIT_HOLDS,
    STAGE_CAP_HIT: EXIT_INCONCLUSIVE,
    BUDGET_EXCEEDED: EXIT_BUDGET,
}

_VERDICT_EXIT = {
    HOLDS: EXIT_HOLDS,
    FAILS: EXIT_FAILS,
    INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the documented code is 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _jsonable(value):
    """Verdict evidence as JSON values: formulas printed, sets sorted."""
    if isinstance(value, Formula):
        return print_formula(value)
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (frozenset, set)):
        return sorted((_jsonable(item) for item in value), key=str)
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _emit(args, report: dict, text_lines: list):
    """Print a subcommand's report once, as built: ``--json`` adds what
    every machine report carries, otherwise the text lines are printed."""
    if args.json:
        report.update(command=args.subcommand, schema=REPORT_SCHEMA, timing_ms=None)
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# Each bounds flag sets the Bounds field named by its dest.
_BOUNDS_FLAGS = (
    ("--max-stage", "max_stage", "stage cap"),
    ("--max-size", "max_formula_size", "formula size cap"),
    ("--budget", "node_budget", "distinct-theorem budget"),
    ("--pool-size", "instantiation_pool_size", "instantiation pool size cap"),
)


def _load_calculus(args, path_attr: str = "calc"):
    """Read a calculus spec; apply --pool-vars and the bounds flags.

    Returns (loaded file, calculus, bounds). A bounds flag that was given
    overrides the file's value, which overrides the built-in default.
    """
    loaded = read_calculus_file(getattr(args, path_attr))
    calculus = loaded.calculus
    pool_vars = getattr(args, "pool_vars", None)
    if pool_vars is not None:
        # Calculus rejects an undeclared name, the empty one included
        calculus = replace(calculus, pool_variables=tuple(
            name.strip() for name in pool_vars.split(",")))
    given = {bound.name: getattr(args, bound.name) for bound in fields(Bounds)
             if getattr(args, bound.name, None) is not None}
    return loaded, calculus, replace(loaded.bounds or DEFAULT_BOUNDS, **given)


def _body_payload(body: BoundedBody) -> dict:
    return {
        "status": body.status,
        "stage_count": body.stage_count,
        "theorem_count": len(body),
        "theorems": [
            {
                "formula": print_formula(theorem),
                "stage": body.stage_of(theorem),
                "justification": render_justification(
                    body.justification_of(theorem)),
            }
            for theorem in body.theorems
        ],
    }


def _body_text(payload: dict) -> list:
    """The text lines of a ``_body_payload``."""
    lines = [
        f"status: {payload['status']}",
        f"stages: {payload['stage_count']}",
        f"theorems: {payload['theorem_count']}",
    ]
    for theorem in payload["theorems"]:
        lines.append(
            f"  {theorem['formula']}  [stage {theorem['stage']}]"
            f"  [{theorem['justification']}]"
        )
    return lines


def _derivation_payload(derivation) -> list:
    return [
        {
            "index": index + 1,
            "formula": print_formula(node.formula),
            "stage": node.stage,
            "premises": [p + 1 for p in node.premise_indices],
            "justification": render_justification(
                node.justification, node.premise_indices),
        }
        for index, node in enumerate(derivation.nodes)
    ]


def _verdict_report(report: dict, verdict: Verdict) -> tuple:
    """A verdict command's (report, text lines, exit code): ``report`` with
    the verdict, its evidence and its detail added."""
    evidence = _jsonable(verdict.evidence)
    report.update(verdict=verdict.outcome, evidence=evidence, detail=verdict.detail)
    lines = [f"verdict: {verdict.outcome}"]
    if verdict.detail:
        lines.append(f"detail: {verdict.detail}")
    if evidence is not None:
        lines.append(f"evidence: {json.dumps(evidence, sort_keys=True)}")
    return report, lines, _VERDICT_EXIT[verdict.outcome]


# ==========================================================================
# Subcommand implementations: each returns (report, text lines, exit code)
# and prints nothing; ``main`` prints the report.
# ==========================================================================

def _cmd_parse(args) -> tuple:
    _, calculus, _ = _load_calculus(args)
    formula = parse_formula(args.formula, calculus.alphabet)
    printed = print_formula(formula)
    report = {"formula": printed, "size": formula.size}
    return report, [printed, f"size: {formula.size}"], EXIT_HOLDS


def _cmd_enum_lang(args) -> tuple:
    _, calculus, bounds = _load_calculus(args)
    formulas = enumerate_wffs(calculus.alphabet, args.size,
                              limit=bounds.node_budget)
    printed = [print_formula(f) for f in formulas]
    report = {
        "max_size": args.size,
        "count": len(printed),
        "formulas": printed,
    }
    return report, [f"count: {len(printed)}"] + printed, EXIT_HOLDS


def _cmd_enum_body(args) -> tuple:
    _, calculus, bounds = _load_calculus(args)
    body = enumerate_body(calculus, bounds)
    report = {
        "calculus": calculus.name,
        "bounds": asdict(bounds),
        "body": _body_payload(body),
    }
    return report, _body_text(report["body"]), _STATUS_EXIT[body.status]


def _cmd_derive(args) -> tuple:
    _, calculus, bounds = _load_calculus(args)
    goal = parse_formula(args.goal, calculus.alphabet)
    outcome = derive(calculus, goal, bounds)
    report = {
        "calculus": calculus.name,
        "goal": print_formula(goal),
        "bounds": asdict(bounds),
        "status": outcome.status,
        "theorems_seen": outcome.theorems_seen,
        "stages_run": outcome.stages_run,
        "derivation": (_derivation_payload(outcome.derivation)
                       if outcome.found else None),
    }
    if outcome.found:
        lines = [f"{node['index']}. {node['formula']}  [{node['justification']}]"
                 for node in report["derivation"]]
        code = EXIT_HOLDS
    elif outcome.status == SATURATED:
        lines = ["the goal is not derivable within the size cap"]
        code = EXIT_FAILS
    else:
        lines = ["the goal was not found within the bounds"]
        code = _STATUS_EXIT[outcome.status]
    return report, [f"status: {outcome.status}"] + lines, code


def _cmd_stages(args) -> tuple:
    loaded, calculus, bounds = _load_calculus(args)
    if loaded.staged is None:
        raise CalculusFileError(
            f"{args.calc} declares no stages; the stages command needs a "
            f"calculus file with a \"stages\" list"
        )
    bodies = staged_run(calculus, loaded.staged, bounds)
    report = {
        "calculus": calculus.name,
        "bounds": asdict(bounds),
        "stages": [_body_payload(body) for body in bodies],
    }
    text = []
    for index, payload in enumerate(report["stages"], start=1):
        text.append(f"stage {index}:")
        text.extend("  " + line for line in _body_text(payload))
    budget_hit = any(body.status == BUDGET_EXCEEDED for body in bodies)
    return report, text, EXIT_BUDGET if budget_hit else EXIT_HOLDS


def _cmd_compare(args) -> tuple:
    loaded_a, calculus_a, bounds = _load_calculus(args, "calc_a")
    _, calculus_b, bounds_b = _load_calculus(args, "calc_b")
    if loaded_a.bounds is None:
        bounds = bounds_b
    translation = translation_map(args.map) if args.map else None
    verdict = compare_calculi(args.kind, calculus_a, calculus_b,
                              bounds, translation)
    return _verdict_report({
        "kind": args.kind,
        "calculus_a": calculus_a.name,
        "calculus_b": calculus_b.name,
        "map": args.map,
        "bounds": asdict(bounds),
    }, verdict)


def _cmd_check(args) -> tuple:
    _, calculus, bounds = _load_calculus(args)
    params = {}
    if args.member:
        params["members"] = [parse_formula(text, calculus.alphabet)
                             for text in args.member]
    if args.pattern:
        params["pattern"] = parse_schema("pattern", args.pattern, calculus.alphabet)
    if args.strict:
        params["strict"] = True
    if args.target:
        params["targets"] = [parse_formula(text, calculus.alphabet)
                             for text in args.target]
    if args.rules_from:
        params["rules"] = read_calculus_file(args.rules_from).calculus.rules
    verdict = check_property(calculus, args.property, bounds, **params)
    return _verdict_report({
        "calculus": calculus.name,
        "property": args.property,
        "bounds": asdict(bounds),
    }, verdict)


def _cmd_relation(args) -> tuple:
    _, calculus, bounds = _load_calculus(args)
    pool = [parse_formula(text, calculus.alphabet)
            for text in args.premise]
    sample = relation_from_calculus(calculus, pool,
                                    args.max_premises, bounds)
    serialized = relation_to_lines(sample.relation)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(serialized)
    statuses = [
        {"premises": sorted(print_formula(p) for p in premises),
         "status": status}
        for premises, status in sample.statuses
    ]
    report = {
        "calculus": calculus.name,
        "bounds": asdict(bounds),
        "pair_count": len(sample.relation),
        "statuses": statuses,
        "relation": None if args.out else serialized,
        "out": args.out,
    }
    text = [f"pairs: {len(sample.relation)}"]
    if args.out:
        text.append(f"written to {args.out}")
    else:
        text.append(serialized.rstrip("\n"))
    budget_hit = any(s["status"] == BUDGET_EXCEEDED for s in statuses)
    return report, text, EXIT_BUDGET if budget_hit else EXIT_HOLDS


def _cmd_relation_check(args) -> tuple:
    try:
        with open(args.relation, "r", encoding="utf-8") as handle:
            relation = relation_from_lines(handle.read())
    except (ValueError, MetalogicError) as exc:  # not UTF-8, or a bad record
        raise MetalogicError(f"{args.relation}: {exc}") from exc
    verdict = check_boundedness(relation, args.m, args.kind)
    return _verdict_report({
        "relation": args.relation,
        "m": args.m,
        "kind": args.kind,
        "pair_count": len(relation),
    }, verdict)


def _cmd_automaton(args) -> tuple:
    _, calculus, bounds = _load_calculus(args)
    body = enumerate_body(calculus, bounds)
    build = (build_deterministic_body_automaton if args.deterministic
             else build_body_automaton)
    nfa = build(body.theorems)
    report = {
        "calculus": calculus.name,
        "bounds": asdict(bounds),
        "body_status": body.status,
        "deterministic": bool(args.deterministic),
        "state_count": nfa.state_count,
    }
    if args.accept is not None:
        accepted = nfa_accepts(nfa, args.accept)
        report["word"] = args.accept
        report["accepted"] = accepted
        return (report, [f"word: {args.accept}", f"accepted: {accepted}"],
                EXIT_HOLDS if accepted else EXIT_FAILS)
    if args.language_upto is not None:
        words = sorted(nfa_language_upto(nfa, args.language_upto))
        report["language"] = words
        return report, [f"words: {len(words)}"] + words, EXIT_HOLDS
    serialized = automaton_to_text(nfa)
    report["automaton"] = serialized
    return report, [serialized.rstrip("\n")], EXIT_HOLDS


# ==========================================================================
# Parser assembly
# ==========================================================================

@cache
def _build_parser() -> _ArgumentParser:
    """The one parser of the process, built on the first call, not at import."""
    parser = _ArgumentParser(
        prog="metalogic",
        description="bounded enumeration, derivation, and analysis of "
                    "syntactic logical calculi",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help_text, *, bounds=True,
            calc="calculus file or builtin:<name>"):
        """A subcommand with --json, --calc unless calc is None, and the
        bounds flags and --pool-vars unless bounds is False."""
        sub = subparsers.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        sub.add_argument("--json", action="store_true",
                         help="machine-readable report")
        if calc is not None:
            sub.add_argument("--calc", required=True, help=calc)
        if bounds:
            for flag, dest, text in _BOUNDS_FLAGS:
                sub.add_argument(flag, dest=dest, type=int, metavar="N",
                                 help=f"{text} (default "
                                      f"{getattr(DEFAULT_BOUNDS, dest)})")
            sub.add_argument("--pool-vars", default=None,
                             help="comma-separated variables spanning the "
                                  "instantiation pool, replacing the "
                                  "calculus's own pool list for this run")
        return sub

    sub = add("parse", _cmd_parse, "parse one formula", bounds=False)
    sub.add_argument("formula", help="formula text in the surface syntax")

    sub = add("enum-lang", _cmd_enum_lang, "enumerate the language")
    sub.add_argument("--size", type=int, required=True,
                     help="maximum formula size")

    add("enum-body", _cmd_enum_body, "enumerate the bounded body")

    sub = add("derive", _cmd_derive, "search for a derivation")
    sub.add_argument("--goal", required=True, help="goal formula text")

    add("stages", _cmd_stages, "run a changing axiom system",
        calc="calculus file with a stages list")

    sub = add("compare", _cmd_compare, "bounded calculus equivalence",
              calc=None)
    sub.add_argument("--kind", required=True, choices=COMPARISON_KINDS)
    sub.add_argument("--calc-a", required=True)
    sub.add_argument("--calc-b", required=True)
    sub.add_argument("--map", default=None,
                     choices=translation_map_names(),
                     help="translation map for differing alphabets")

    sub = add("check", _cmd_check, "check a body property")
    sub.add_argument("--property", required=True, choices=PROPERTY_NAMES)
    sub.add_argument("--member", action="append", default=[],
                     help="forbidden-set member for consistent-with "
                          "(repeatable)")
    sub.add_argument("--pattern", default=None,
                     help="forbidden-set pattern over phi/chi/psi for "
                          "consistent-with")
    sub.add_argument("--strict", action="store_true",
                     help="semantic unsatisfiability mode for consistent")
    sub.add_argument("--target", action="append", default=[],
                     help="target formula for complete-wrt-rules (repeatable)")
    sub.add_argument("--rules-from", default=None,
                     help="calculus whose rules serve as the mapping system "
                          "for complete-wrt-rules (defaults to --calc's rules)")

    sub = add("relation", _cmd_relation, "sample the inference relation")
    sub.add_argument("--premise", action="append", default=[], required=True,
                     help="premise-pool formula (repeatable)")
    sub.add_argument("--max-premises", type=int, required=True)
    sub.add_argument("--out", default=None,
                     help="write the relation records to a file")

    sub = add("relation-check", _cmd_relation_check,
              "boundedness of a relation file", bounds=False, calc=None)
    sub.add_argument("--relation", required=True,
                     help="relation records file")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--kind", required=True, choices=BOUNDEDNESS_KINDS)

    sub = add("automaton", _cmd_automaton, "body acceptor")
    sub.add_argument("--deterministic", action="store_true",
                     help="build the shared-prefix deterministic acceptor")
    action = sub.add_mutually_exclusive_group()
    action.add_argument("--accept", default=None,
                        help="test one word for acceptance")
    action.add_argument("--language-upto", type=int, default=None,
                        help="list accepted words up to this length")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        report, text_lines, code = args.handler(args)
        _emit(args, report, text_lines)
        return code
    except BudgetExceededError as exc:
        print(f"metalogic: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (MetalogicError, OSError) as exc:
        print(f"metalogic: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
