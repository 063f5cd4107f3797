"""The benchmark's three workloads: seeded inputs, jobs and correctness gates.

A workload's ``setup`` turns a seed into inputs and builds the calculi; its
``jobs`` list is the fixed job list one pass runs, in order. A job's ``run``
makes the calls into the package that are timed; its ``check`` runs
afterwards, untimed, and returns ``Checked(answer, errors, fingerprint)``:

    answer       found / underivable / holds / fails / inconclusive / built /
                 accepted / rejected, or "error"; everything but
                 "inconclusive" and "error" is a definitive outcome
    errors       failed correctness gates, empty when the output is right
    fingerprint  text that must not change between passes or commits; the
                 digest of a pass's fingerprints is compared with
                 ``digests.json`` where one is recorded

Each check computes the expected answer another way than the package does
(truth tables, run statuses, brute force, set membership), so a wrong answer
counts against ``failed`` instead of passing silently.
"""

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, replace


@dataclass
class Checked:
    answer: str
    errors: list
    fingerprint: str


@dataclass
class Job:
    name: str
    run: object
    check: object


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def sized_formula(ml, rng, atoms, binary_ops, with_not, size):
    """A random formula of exactly ``size`` nodes.

    Without negation only odd sizes exist; callers ask for those.
    """
    if size == 1:
        return ml.Atom(rng.choice(atoms))
    if with_not and (size == 2 or not binary_ops or rng.random() < 0.3):
        return ml.Negation(sized_formula(ml, rng, atoms, binary_ops, with_not, size - 1))
    splits = range(1, size - 1) if with_not else range(1, size - 1, 2)
    left = rng.choice(splits)
    return ml.Binary(
        rng.choice(binary_ops),
        sized_formula(ml, rng, atoms, binary_ops, with_not, left),
        sized_formula(ml, rng, atoms, binary_ops, with_not, size - 1 - left),
    )


def _pick_pair(rng, names):
    """Two distinct names in declared order, so every choice is isomorphic."""
    first, second = sorted(rng.sample(range(len(names)), 2))
    return (names[first], names[second])


# ==========================================================================
# sweep
# ==========================================================================

SWEEP_SCALES = {
    # Kleene at the acceptance bounds; Church with the size cap lowered
    # from 21 to 13 so each Church half costs about as much as Kleene's
    # enumeration, and the two halves together match the Kleene job.
    "full": {"kleene": (3, 21, 200000, 5), "church": (3, 13, 200000, 5)},
    "tiny": {"kleene": (3, 13, 1000, 3), "church": (3, 9, 20000, 3)},
}


def sweep_errors(violations, status, expected_status):
    """The soundness gates: no non-tautology, and the expected run status."""
    errors = []
    if violations:
        errors.append(f"{len(violations)} theorems are not tautologies, "
                      f"first {violations[0]}")
    if status != expected_status:
        errors.append(f"status {status}, expected {expected_status}")
    return errors


def sweep_theorem_check(ml, theorems, constants):
    """Every theorem through is_tautology; returns the printed violations."""
    return [ml.print_formula(t) for t in theorems
            if not ml.is_tautology(t, constants=constants)]


def body_digest(ml, body) -> str:
    """Digest of (printed theorem, stage, canonical justification) lines."""
    return digest(
        f"{ml.print_formula(t)}\t{body.stage_of(t)}\t"
        f"{ml.render_justification(body.justification_of(t))}"
        for t in body.theorems
    )


class Sweep:
    name = "sweep"

    def setup(self, ml, seed, scale):
        rng = random.Random(seed)
        # Only the Kleene pair varies: Kleene's rules never read the
        # alphabet's variables, so every pair does the same work. Church's
        # substitution rule ranges over all of p, q, s, and other pool pairs
        # change its work by up to 30%, so Church keeps the acceptance pair.
        kleene_pool = _pick_pair(rng, ("P", "Q", "R"))
        sizes = SWEEP_SCALES[scale]
        plan = (
            ("kleene", kleene_pool, sizes["kleene"], (), ml.BUDGET_EXCEEDED),
            ("church_p1", ("p", "q"), sizes["church"], ("f",), ml.STAGE_CAP_HIT),
            ("church_p2", ("p", "q"), sizes["church"], (), ml.STAGE_CAP_HIT),
        )
        return {"ml": ml, "plan": plan, "key": f"{scale}:kleene={','.join(kleene_pool)}"}

    def digest_key(self, state):
        return state["key"]

    def jobs(self, state):
        ml = state["ml"]
        return [self._job(ml, *entry) for entry in state["plan"]]

    def _job(self, ml, name, pool, bounds, constants, expected_status):
        bounds = ml.Bounds(*bounds)
        constants = frozenset(constants)

        def run():
            calculus = replace(ml.builtin_calculus(name), pool_variables=pool)
            body = ml.enumerate_body(calculus, bounds)
            return body, sweep_theorem_check(ml, body.theorems, constants)

        def check(result):
            body, violations = result
            errors = sweep_errors(violations, body.status, expected_status)
            answer = "fails" if violations else "holds"
            return Checked(answer, errors, f"{name}\t{body_digest(ml, body)}")

        return Job(f"{name}:{','.join(pool)}", run, check)


# ==========================================================================
# derive-goals
# ==========================================================================

DERIVE_SCALES = {"full": 140, "tiny": 6}

# The documented exit codes of `derive`.
DERIVE_EXIT = {"goal-found": 0, "saturated-within-size-cap": 1,
               "stage-cap-hit": 2, "budget-exceeded": 4}
DERIVE_ANSWER = {"goal-found": "found", "saturated-within-size-cap": "underivable",
                 "stage-cap-hit": "inconclusive", "budget-exceeded": "inconclusive"}


def _parse_justification(text):
    """Split a rendered justification into (kind, id, refs, bindings)."""
    if text in ("axiom", "premise"):
        return text, None, [], {}
    if text.startswith("schema "):
        head, _, bindings = text[len("schema "):].partition(": ")
        pairs = dict(item.split("=", 1) for item in bindings.split(", ")) if bindings else {}
        return "schema", head, [], pairs
    head, _, params = text.partition(" with ")
    rule_id, _, refs = head.partition(": ")
    pairs = dict(item.split("=", 1) for item in params.split(", ")) if params else {}
    return "rule", rule_id, [int(r) for r in refs.split(", ")] if refs else [], pairs


def revalidate_derivation(ml, calculus, nodes):
    """Re-check a JSON derivation node by node through the public API.

    Schema nodes must match their schema under the stated binding, rule nodes
    must be a conclusion of the cited rule on the cited earlier nodes, and
    every stage must be one more than its latest premise's.
    """
    alphabet = calculus.alphabet
    formulas, stages, errors = [], [], []
    for position, node in enumerate(nodes, start=1):
        formula = ml.parse_formula(node["formula"], alphabet)
        kind, ident, refs, bindings = _parse_justification(node["justification"])
        where = f"node {position}"
        if node["index"] != position:
            errors.append(f"{where}: index {node['index']}")
        if kind == "axiom":
            ok = formula in calculus.axioms
        elif kind == "schema":
            schema = calculus.schema_by_id(ident)
            match = ml.match_schema(schema, formula)
            metas = replace(alphabet, variables=tuple(alphabet.variables)
                            + tuple(schema.metavariables))
            stated = {name: ml.parse_formula(value, metas)
                      for name, value in bindings.items()}
            ok = match is not None and match == stated
        elif kind == "rule":
            rule = calculus.rule_by_id(ident)
            if refs != node["premises"] or any(not 1 <= r < position for r in refs):
                errors.append(f"{where}: bad premise references {refs}")
                ok = False
            else:
                kinds = dict(rule.parameter_kinds)
                context = {name: (ml.parse_formula(value, alphabet)
                                  if kinds.get(name) == "formula" else value)
                           for name, value in bindings.items()} or None
                premises = tuple(formulas[r - 1] for r in refs)
                ok = formula in ml.apply_rule(rule, premises, context)
        else:
            ok = False
        if not ok:
            errors.append(f"{where}: {node['justification']} does not yield "
                          f"{node['formula']}")
        expected_stage = 1 + max((stages[r - 1] for r in refs), default=0)
        if node["stage"] != expected_stage:
            errors.append(f"{where}: stage {node['stage']}, expected {expected_stage}")
        formulas.append(formula)
        stages.append(node["stage"])
    return errors, (formulas[-1] if formulas else None)


def derive_report_errors(ml, calculus, constants, goal_text, code, stdout):
    """The gates of one `derive --json` query; returns (answer, errors)."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return "error", [f"exit {code}, report is not JSON: {exc}"]
    status = report.get("status")
    if status not in DERIVE_EXIT:
        return "error", [f"unknown status {status!r}"]
    errors = []
    if code != DERIVE_EXIT[status]:
        errors.append(f"exit code {code} does not match status {status} "
                      f"(expected {DERIVE_EXIT[status]})")
    if report.get("goal") != goal_text:
        errors.append(f"report goal {report.get('goal')!r} is not {goal_text!r}")
    derivation = report.get("derivation")
    if status == "goal-found":
        goal = ml.parse_formula(goal_text, calculus.alphabet)
        if not ml.is_tautology(goal, constants=constants):
            errors.append(f"found goal {goal_text} is not a tautology")
        if not derivation:
            errors.append("goal found but no derivation reported")
        else:
            node_errors, conclusion = revalidate_derivation(ml, calculus, derivation)
            errors.extend(node_errors)
            if conclusion != goal:
                errors.append("the derivation does not end in the goal")
    elif derivation is not None:
        errors.append(f"status {status} but a derivation was reported")
    return DERIVE_ANSWER[status], errors


class DeriveGoals:
    name = "derive-goals"

    def setup(self, ml, seed, scale):
        rng = random.Random(seed)
        per_kind = DERIVE_SCALES[scale]
        kleene_ops = (ml.AND, ml.OR, ml.IMPLIES)
        queries = []
        # Fixed size schedules, so seeds differ in formulas, not in cost mix.
        for i in range(per_kind):
            phi = sized_formula(ml, rng, ("P", "Q", "R"), kleene_ops, True, 1 + i % 4)
            goal = ml.Binary(ml.IMPLIES, phi, phi)
            queries.append(("kleene", goal, (5, 9 * phi.size + 8, 200000, 2)))
            goal = sized_formula(ml, rng, ("P", "Q", "R"), kleene_ops, True, 3 + i % 7)
            queries.append(("kleene", goal, (4, 13, 20000, 2)))
            goal = sized_formula(ml, rng, ("p", "q", "s", "f"), (ml.IMPLIES,), False,
                                 3 + 2 * (i % 4))
            queries.append(("church_p1", goal, (3, 11, 20000, 2)))
        calculi = {name: ml.builtin_calculus(name) for name in ("kleene", "church_p1")}
        importlib.import_module("metalogic.cli")
        return {"ml": ml, "scale": scale, "seed": seed, "queries": queries,
                "calculi": calculi}

    def digest_key(self, state):
        return f"{state['scale']}:seed={state['seed']}"

    def jobs(self, state):
        ml = state["ml"]
        jobs = []
        for index, (name, goal, bounds) in enumerate(state["queries"]):
            text = ml.print_formula(goal)
            argv = ["derive", "--calc", f"builtin:{name}", "--goal", text, "--json",
                    "--max-stage", str(bounds[0]), "--max-size", str(bounds[1]),
                    "--budget", str(bounds[2]), "--pool-size", str(bounds[3])]
            calculus = state["calculi"][name]
            constants = frozenset(calculus.alphabet.constants)
            jobs.append(self._job(ml, f"q{index:04d}", argv, calculus, constants, text))
        return jobs

    def _job(self, ml, name, argv, calculus, constants, goal_text):
        cli = ml.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def check(result):
            code, stdout, stderr = result
            answer, errors = derive_report_errors(ml, calculus, constants,
                                                  goal_text, code, stdout)
            if stderr:
                errors.append(f"diagnostics on stderr: {stderr.strip()[:200]}")
            return Checked(answer, errors, f"{' '.join(argv)}\n{code}\n{stdout}")

        return Job(name, run, check)


# ==========================================================================
# metatheory
# ==========================================================================

METATHEORY_SCALES = {
    "full": {"kleene": ((1, 9), (1, 11), (2, 7), (2, 9)), "random": 32,
             "pairs": 16, "relations": 3, "automata": (1, 2, 3), "words": 4},
    "tiny": {"kleene": ((1, 7),), "random": 3, "pairs": 2, "relations": 1,
             "automata": (0,), "words": 2},
}
PROPERTIES = ("transitively-closed", "completely-closed", "closed-wrt-rules")
RULE_POOL = ("modus_ponens", "cut", "identity", "cancellation")
SMALL_BOUNDS = (6, 9, 50000, 3)
RELATION_BOUNDS = (3, 9, 20000, 3)


def brute_force_bounded(pairs, m, kind):
    """Criterion 7's reference decision for the four boundedness kinds."""
    if kind == "bounded":
        return all(len(p) <= m for p, _ in pairs)
    if kind == "strict":
        return all(len(p) == m for p, _ in pairs)
    conclusions = {c for _, c in pairs}
    if kind == "functionally_bounded":
        return all(any(len(p) <= m for p, c2 in pairs if c2 == c)
                   for c in conclusions)
    return all(any(len(p) == m for p, c2 in pairs if c2 == c)
               for c in conclusions)


def expected_property(ml, calculus, body, bounds, prop):
    """A property's verdict computed from the body's status and contents."""
    saturated = body.status == ml.SATURATED
    if prop == "transitively-closed":
        return "holds" if saturated else "inconclusive"
    used = {body.justification_of(t).rule_id for t in body.theorems
            if isinstance(body.justification_of(t), ml.RuleJustification)}
    unused = calculus.rules.identifiers() - used
    rules_part = "holds" if not unused else ("fails" if saturated else "inconclusive")
    if prop == "closed-wrt-rules":
        return rules_part
    realized = ml.realized_axioms(calculus, bounds)
    axioms_ok = (all(a.size <= bounds.max_formula_size for a in calculus.axioms)
                 and all(a in body for a in realized)
                 and len(realized) < bounds.node_budget)
    parts = ("holds" if axioms_ok else "inconclusive", rules_part,
             "holds" if saturated else "inconclusive")
    if "fails" in parts:
        return "fails"
    return "inconclusive" if "inconclusive" in parts else "holds"


def expected_comparison(ml, kind, c, d, body_c, body_d):
    """Identity-translation comparison from the two bodies and statuses."""
    both = body_c.status == ml.SATURATED and body_d.status == ml.SATURATED
    if kind == "axiomatic" and c.rules.identifiers() != d.rules.identifiers():
        return "fails"
    set_c, set_d = body_c.as_set(), body_d.as_set()
    bounds = body_c.bounds
    if kind == "algorithmic":
        real_c = ml.realized_axioms(c, bounds)
        real_d = ml.realized_axioms(d, bounds)
        if frozenset(real_c) != frozenset(real_d):
            return "fails"
    if set_c == set_d:
        return "holds" if both else "inconclusive"
    if (set_c - set_d and body_d.status == ml.SATURATED) or \
            (set_d - set_c and body_c.status == ml.SATURATED):
        return "fails"
    return "inconclusive"


def acceptance_errors(words, members, answers):
    """An acceptor must accept exactly the members among the sampled words."""
    return [f"{'accepted non-member' if answer else 'rejected member'} {word}"
            for word, answer in zip(words, answers)
            if answer != (word in members)]


def relation_errors(ml, sample, pool, max_premises, cap):
    """Structural checks on a sampled relation that need no re-enumeration."""
    errors = []
    expected_sets = sum(math.comb(len(pool), k) for k in range(max_premises + 1))
    if len(sample.statuses) != expected_sets:
        errors.append(f"{len(sample.statuses)} premise sets, expected {expected_sets}")
    by_set = {}
    for premises, conclusion in sample.relation.pairs:
        by_set.setdefault(premises, set()).add(conclusion)
    status = dict(sample.statuses)
    for premises in status:
        got = by_set.get(premises, set())
        missing = [p for p in premises if p.size <= cap and p not in got]
        if missing:
            errors.append(f"premise {ml.print_formula(missing[0])} is not its own consequence")
    for small, big in itertools.permutations(status, 2):
        if small < big and status[small] == status[big] == ml.SATURATED:
            if not by_set.get(small, set()) <= by_set.get(big, set()):
                errors.append("consequences shrink when a premise is added")
                break
    return errors


def _verdict_text(ml, verdict):
    witness = ""
    if verdict.is_fails and isinstance(verdict.evidence, ml.Formula):
        witness = ml.print_formula(verdict.evidence)
    return f"{verdict.outcome}\t{witness}\t{verdict.detail}"


class Metatheory:
    name = "metatheory"

    def setup(self, ml, seed, scale):
        rng = random.Random(seed)
        sizes = METATHEORY_SCALES[scale]
        ops = (ml.AND, ml.OR, ml.IMPLIES)
        one = rng.choice(("P", "Q", "R"))
        two = _pick_pair(rng, ("P", "Q", "R"))
        kleene = ml.builtin_calculus("kleene")
        # (label, pool variables, bounds): the property queries build their
        # Kleene calculus inside the query, as a script or the CLI would.
        variants = []
        for count, cap in sizes["kleene"]:
            pool = (one,) if count == 1 else two
            variants.append((f"kleene:{','.join(pool)}:{cap}", pool,
                             ml.Bounds(6, cap, 200000, 3)))
        alphabet = ml.propositional_alphabet(("P", "Q"))
        small = ml.Bounds(*SMALL_BOUNDS)
        randoms = []
        for i in range(sizes["random"]):
            names = tuple(sorted(rng.sample(RULE_POOL, rng.randint(1, 3))))
            axioms = tuple(dict.fromkeys(
                sized_formula(ml, rng, ("P", "Q"), ops, True, 1 + (i + k) % 5)
                for k in range(rng.randint(1, 4))))
            randoms.append((f"random{i}", ml.Calculus(
                alphabet=alphabet, axioms=axioms,
                rules=ml.rule_system(*(ml.make_rule(n) for n in names)),
                name=f"random{i}"), small))
        pairs = []
        for i in range(sizes["pairs"]):
            kind = ml.COMPARISON_KINDS[i % 3]
            a = rng.randrange(len(randoms))
            if i % 4 == 3:
                # the same presentation with its axioms reordered
                _, calc, _ = randoms[a]
                twin = replace(calc, axioms=tuple(reversed(calc.axioms)))
                pairs.append((kind, randoms[a][1], twin))
            else:
                b = rng.randrange(len(randoms))
                pairs.append((kind, randoms[a][1], randoms[b][1]))
        relations = []
        mp = ml.rule_system(ml.make_rule("modus_ponens"))
        imp_alphabet = ml.propositional_alphabet(("P", "Q"), connectives=(ml.NOT, ml.IMPLIES))
        for i in range(sizes["relations"]):
            pool = tuple(dict.fromkeys(
                sized_formula(ml, rng, ("P", "Q"), (ml.IMPLIES,), True, 1 + k % 4)
                for k in range(3 + i % 2)))
            relations.append((ml.Calculus(alphabet=imp_alphabet, rules=mp,
                                          name=f"relation{i}"),
                              pool, 2 + i % 2))

        automata = []
        for index in sizes["automata"]:
            label, pool, bounds = variants[index]
            calculus = replace(kleene, pool_variables=pool)
            members = [ml.print_formula(t) for t in ml.enumerate_body(calculus, bounds)]
            words = _sample_words(rng, members, sizes["words"])
            automata.append((label, calculus, bounds, words, frozenset(members)))
        return {"ml": ml, "scale": scale, "seed": seed, "variants": variants,
                "randoms": randoms, "pairs": pairs,
                "relations": relations, "automata": automata}

    def digest_key(self, state):
        return f"{state['scale']}:seed={state['seed']}"

    def jobs(self, state):
        ml = state["ml"]
        shared = {}
        jobs = []
        for label, pool, bounds in state["variants"]:
            for prop in PROPERTIES:
                jobs.append(self._property_job(ml, label, pool, bounds, prop))
        for label, calculus, bounds in state["randoms"]:
            for prop in PROPERTIES:
                jobs.append(self._property_job(ml, label, calculus, bounds, prop))
        for index, (kind, c, d) in enumerate(state["pairs"]):
            jobs.append(self._compare_job(ml, f"compare{index}:{kind}", kind, c, d,
                                          ml.Bounds(*SMALL_BOUNDS)))
        jobs.append(self._church_job(ml))
        for index, (calculus, pool, max_premises) in enumerate(state["relations"]):
            jobs.extend(self._relation_jobs(ml, f"relation{index}", calculus, pool,
                                            max_premises, shared))
        for label, calculus, bounds, words, member_set in state["automata"]:
            for deterministic in (True, False):
                jobs.extend(self._automaton_jobs(ml, label, calculus, bounds,
                                                 deterministic, words, member_set, shared))
        return jobs

    def _property_job(self, ml, label, calculus, bounds, prop):
        """``calculus`` is a Calculus, or a Kleene pool to build one from."""
        def build():
            if isinstance(calculus, tuple):
                return replace(ml.builtin_calculus("kleene"), pool_variables=calculus)
            return calculus

        def run():
            return ml.check_property(build(), prop, bounds)

        def check(verdict):
            body = ml.enumerate_body(build(), bounds)
            expected = expected_property(ml, build(), body, bounds, prop)
            errors = [] if verdict.outcome == expected else [
                f"{prop} on {label}: {verdict.outcome}, expected {expected}"]
            return Checked(verdict.outcome, errors, f"{label}\t{prop}\t{_verdict_text(ml, verdict)}")

        return Job(f"{label}:{prop}", run, check)

    def _compare_job(self, ml, name, kind, c, d, bounds):
        def run():
            return ml.compare_calculi(kind, c, d, bounds)

        def check(verdict):
            expected = expected_comparison(ml, kind, c, d, ml.enumerate_body(c, bounds),
                                           ml.enumerate_body(d, bounds))
            errors = [] if verdict.outcome == expected else [
                f"{name}: {verdict.outcome}, expected {expected}"]
            return Checked(verdict.outcome, errors, f"{name}\t{_verdict_text(ml, verdict)}")

        return Job(name, run, check)

    def _church_job(self, ml):
        def run():
            return ml.compare_calculi(
                "logical", ml.builtin_calculus("church_p2"), ml.builtin_calculus("church_p1"),
                ml.DEFAULT_BOUNDS, ml.translation_map("p2_to_p1"))

        def check(verdict):
            errors = [] if verdict.is_inconclusive else [
                f"the Church pair comparison is {verdict.outcome}, not inconclusive"]
            return Checked(verdict.outcome, errors, f"church\t{_verdict_text(ml, verdict)}")

        return Job("compare:church", run, check)

    def _relation_jobs(self, ml, label, calculus, pool, max_premises, shared):
        bounds = ml.Bounds(*RELATION_BOUNDS)

        def run():
            sample = ml.relation_from_calculus(calculus, pool, max_premises, bounds)
            shared[label] = sample
            return sample

        def check(sample):
            errors = relation_errors(ml, sample, pool, max_premises, bounds.max_formula_size)
            statuses = "\n".join(f"{sorted(map(ml.print_formula, p))}\t{s}"
                                 for p, s in sample.statuses)
            text = f"{label}\n{ml.relation_to_lines(sample.relation)}{statuses}"
            return Checked("built", errors, text)

        jobs = [Job(label, run, check)]
        for kind in ml.BOUNDEDNESS_KINDS:
            for m in (1, 2):
                jobs.append(self._bounded_job(ml, f"{label}:{kind}:{m}", label, m, kind, shared))
        return jobs

    def _bounded_job(self, ml, name, label, m, kind, shared):
        def run():
            return ml.check_boundedness(shared[label].relation, m, kind)

        def check(verdict):
            expected = "holds" if brute_force_bounded(shared[label].relation.pairs, m, kind) else "fails"
            errors = [] if verdict.outcome == expected else [
                f"{name}: {verdict.outcome}, brute force says {expected}"]
            return Checked(verdict.outcome, errors, f"{name}\t{verdict.outcome}")

        return Job(name, run, check)

    def _automaton_jobs(self, ml, label, calculus, bounds, deterministic, words,
                        members, shared):
        kind = "trie" if deterministic else "chain"
        key = f"{label}:{kind}"
        build = ("build_deterministic_body_automaton" if deterministic
                 else "build_body_automaton")

        def run_build():
            body = ml.enumerate_body(calculus, bounds)
            nfa = getattr(ml, build)(body.theorems)
            shared[key] = nfa
            return nfa

        def check_build(nfa):
            errors = []
            if deterministic and not nfa.is_deterministic():
                errors.append(f"{key}: the trie is not deterministic")
            if not deterministic and len(nfa.states) != 1 + sum(len(w) + 1 for w in members):
                errors.append(f"{key}: {len(nfa.states)} states, not one chain per theorem")
            if len(nfa.accepting) != len(members):
                errors.append(f"{key}: {len(nfa.accepting)} accepting states for "
                              f"{len(members)} theorems")
            return Checked("built", errors, f"{key}\n{ml.automaton_to_text(nfa)}")

        jobs = [Job(f"{key}:build", run_build, check_build)]
        for index, word in enumerate(words):
            jobs.append(self._accept_job(ml, f"{key}:word{index}", key, word, members, shared))
        return jobs

    def _accept_job(self, ml, name, key, word, members, shared):
        def run():
            return ml.nfa_accepts(shared[key], word)

        def check(accepted):
            errors = acceptance_errors([word], members, [accepted])
            return Checked("accepted" if accepted else "rejected", errors,
                           f"{name}\t{word}\t{accepted}")

        return Job(name, run, check)


def _sample_words(rng, members, count):
    """``count`` members spread over the length range, then as many non-members.

    Simulation cost grows with the number of characters read. The k-th
    member has the length found at the middle of the k-th slice of the
    length-sorted body, which is the same for every seed because the bodies
    of different pool pairs are isomorphic; the seed picks which word of
    that length. Each non-member is a member with its last character
    changed, so it is read to the end before it is rejected.
    """
    by_length = sorted(members, key=len)
    member_set = frozenset(members)
    words = []
    for k in range(count):
        length = len(by_length[(2 * k + 1) * len(by_length) // (2 * count)])
        words.append(rng.choice([w for w in members if len(w) == length]))
    for word in words[:count]:
        changed = [word[:-1] + c for c in "PQR~&|()->" if word[:-1] + c not in member_set]
        words.append(rng.choice(changed or [word + ")"]))
    return words


WORKLOADS = {w.name: w for w in (Sweep(), DeriveGoals(), Metatheory())}
