"""Per-layer tracing from outside the package.

The tracer replaces module attributes that the package looks up at call
time (``metalogic.rules.substitute_prop``, ``metalogic.engine._saturate``,
``InferenceRule.conclusions`` and so on) with timing wrappers, and puts the
originals back on ``uninstall``. Nothing inside ``src/`` changes.

Every wrapper keeps one frame on a stack. A frame's self time is its
duration minus the duration of the wrapped calls made inside it, so the
self times of all layers plus the unassigned time of the jobs add up to the
traced pass's time. Functions called per formula ("hot" layers) only add to
counters; the rest also record one span each (name, start, end, parent
span, job id), kept in memory and written out when the run ends.

Generators (``schema_instances``, ``candidate_applications``) are timed one
resumption at a time, so the consumer's work between two items stays with
the consumer.
"""

import importlib
import time
from collections import defaultdict

# Process CPU time: on a shared host the wall clock also counts the time
# other tenants hold the CPU, which swamps the differences we measure.
clock = time.process_time

# (layer name, module holding the function, attribute, kind, hot)
#   kind: "fn" function, "gen" generator timed per item, "count" generator
#   whose items are only counted. "Class.method" attributes are rebound on
#   the class; a function is rebound in every metalogic module that imported
#   it, except where a module calls itself recursively through its name.
LAYERS = (
    ("cli.main", "cli", "main", "fn", False),
    ("library.builtin_calculus", "library", "builtin_calculus", "fn", True),
    ("syntax.parse_formula", "syntax", "parse_formula", "fn", True),
    ("engine.derive", "engine", "derive", "fn", False),
    ("engine.enumerate_body", "engine", "enumerate_body", "fn", False),
    ("engine.saturate", "engine", "_saturate", "fn", False),
    ("engine.instantiation_pool", "engine", "instantiation_pool", "fn", True),
    ("engine.realized_axiom_stream", "engine", "realized_axiom_stream", "count", True),
    ("engine.schema_instances", "engine", "schema_instances", "gen", True),
    ("syntax.instantiate_schema", "syntax", "instantiate_schema", "fn", True),
    ("syntax.canonical_key", "syntax", "canonical_key", "fn", True),
    ("syntax.substitute_prop", "syntax", "substitute_prop", "fn", True),
    ("rules.candidate_applications", "rules", "InferenceRule.candidate_applications", "gen", True),
    ("rules.conclusions", "rules", "InferenceRule.conclusions", "fn", True),
    ("semantics.is_tautology", "semantics", "is_tautology", "fn", True),
    ("analysis.check_property", "analysis", "check_property", "fn", False),
    ("analysis.compare_calculi", "analysis", "compare_calculi", "fn", False),
    ("analysis.relation_from_calculus", "analysis", "relation_from_calculus", "fn", False),
    ("analysis.check_boundedness", "analysis", "check_boundedness", "fn", True),
    ("analysis.consequence_step", "engine", "consequence_step", "fn", False),
    ("automaton.build", "automaton", "build_body_automaton", "fn", False),
    ("automaton.build", "automaton", "build_deterministic_body_automaton", "fn", False),
    ("automaton.accepts", "automaton", "nfa_accepts", "fn", True),
)

# Rebinding these in their home module would route every recursive step
# through the wrapper; only the calls from other modules are layer calls.
_RECURSIVE_HOME = {"substitute_prop": "syntax"}

STATUSES = ("goal-found", "saturated-within-size-cap", "stage-cap-hit",
            "budget-exceeded")


class _Frame:
    __slots__ = ("name", "child", "span", "cap")

    def __init__(self, name, span=None, cap=None):
        self.name = name
        self.child = 0.0
        self.span = span
        self.cap = cap


class Tracer:
    """Wraps the package's layers; collects counts, self times and spans."""

    def __init__(self, ml):
        self.ml = ml
        self.self_s = defaultdict(float)
        self.job_self = {}
        self.counts = defaultdict(int)
        self.spans = []
        self.stack = [_Frame("<root>")]
        self.job = None
        self.paused = 0
        self._saved = []
        self._post = {
            "syntax.substitute_prop": self._post_substitute,
            "rules.conclusions": self._post_conclusions,
            "engine.instantiation_pool": self._post_pool,
            "engine.saturate": self._post_saturate,
            "engine.enumerate_body": self._post_enumerate,
            "automaton.build": self._post_build,
        }

    # ---- spans and frames ---------------------------------------------

    def _enter(self, name, hot):
        parent = self.stack[-1]
        span = None
        if not hot:
            span = len(self.spans)
            self.spans.append([name, clock(), None, parent.span, self.job])
        frame = _Frame(name, span, parent.cap)
        self.stack.append(frame)
        return frame

    def _leave(self, frame, start):
        end = clock()
        self.stack.pop()
        duration = end - start
        self.self_s[frame.name] += duration - frame.child
        self.stack[-1].child += duration
        if frame.span is not None:
            self.spans[frame.span][2] = end
        return end

    def _charge(self, entered, start, end):
        """Book the wrapper's own time around a call to "trace.wrappers".

        Without this the wrapper code outside [start, end] would land in the
        caller's self time and inflate whichever layer calls a hot one.
        """
        overhead = (start - entered) + (clock() - end)
        self.self_s["trace.wrappers"] += overhead
        self.stack[-1].child += overhead

    def begin_job(self, job_id):
        self.job = job_id
        self.self_s = self.job_self.setdefault(job_id, defaultdict(float))
        return self._enter("job", hot=False), clock()

    def end_job(self, token):
        frame, start = token
        self._leave(frame, start)
        self.job = None

    # ---- wrappers -------------------------------------------------------

    def _wrap_fn(self, name, fn, hot):
        tracer = self
        post = self._post.get(name)

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            entered = clock()
            frame = tracer._enter(name, hot)
            tracer._pre(name, frame, args)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer._leave(frame, start)
            tracer.counts[name + ".calls"] += 1
            if post is not None:
                post(args, result)
            tracer._charge(entered, start, end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_gen(self, name, fn, per_rule):
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if tracer.paused:
                yield from gen
                return
            tracer.counts[name + ".calls"] += 1
            key = (f"rules.{args[0].identifier}.candidates" if per_rule
                   else name + ".yielded")
            while True:
                entered = clock()
                frame = tracer._enter(name, hot=True)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._charge(entered, start, tracer._leave(frame, start))
                    return
                except BaseException:
                    tracer._leave(frame, start)
                    raise
                end = tracer._leave(frame, start)
                tracer.counts[key] += 1
                tracer._charge(entered, start, end)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_count(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                # only the stream that stage 1 of a saturation run consumes
                if tracer.stack[-1].name == "engine.saturate":
                    tracer.counts[name + ".yielded"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- per-layer measures ---------------------------------------------

    def _pre(self, name, frame, args):
        if name == "engine.saturate":
            frame.cap = args[4].max_formula_size
        elif name == "analysis.consequence_step":
            frame.cap = None

    def _post_substitute(self, args, result):
        if result is args[0]:
            self.counts["syntax.substitute_prop.noop"] += 1

    def _post_conclusions(self, args, result):
        counts = self.counts
        counts["rules.conclusions.built"] += len(result)
        parent = self.stack[-1]
        if parent.name == "analysis.consequence_step":
            counts["analysis.consequence_step.tuples"] += 1
        cap = parent.cap
        if cap is not None:
            counts["rules.conclusions.built_in_saturate"] += len(result)
            for conclusion in result:
                if conclusion.size > cap:
                    counts["rules.conclusions.oversize"] += 1

    def _post_pool(self, args, result):
        self.counts["engine.instantiation_pool.size"] += len(result)

    def _post_saturate(self, args, run):
        counts = self.counts
        first = sum(1 for stage, _ in run.members.values() if stage == 1)
        counts["engine.theorems"] += len(run.members)
        counts["engine.stage1.admitted"] += first
        counts["engine.admitted"] += len(run.members) - first
        status = "goal-found" if run.found else run.status
        counts["engine.status." + status] += 1

    def _post_enumerate(self, args, body):
        if self.stack[-1].name == "analysis.relation_from_calculus":
            self.counts["analysis.relation_from_calculus.bodies"] += 1

    def _post_build(self, args, nfa):
        self.counts["automaton.build.states"] += len(nfa.states)
        self.counts["automaton.build.transitions"] += len(nfa.transitions)

    # ---- install / uninstall -------------------------------------------

    def install(self):
        modules = [self.ml] + [importlib.import_module(f"metalogic.{m}") for m in
                               ("syntax", "semantics", "rules", "engine", "library",
                                "calcfile", "analysis", "automaton", "cli")]
        for name, home, attr, kind, hot in LAYERS:
            module = importlib.import_module(f"metalogic.{home}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                wrapper = (self._wrap_gen(name, original, per_rule=True) if kind == "gen"
                           else self._wrap_fn(name, original, hot))
                self._saved.append((cls, method, original))
                setattr(cls, method, wrapper)
                continue
            original = getattr(module, attr)
            if kind == "gen":
                wrapper = self._wrap_gen(name, original, per_rule=False)
            elif kind == "count":
                wrapper = self._wrap_count(name, original)
            else:
                wrapper = self._wrap_fn(name, original, hot)
            for target in modules:
                if _RECURSIVE_HOME.get(attr) == target.__name__.rsplit(".", 1)[-1]:
                    continue
                if target.__dict__.get(attr) is original:
                    self._saved.append((target, attr, original))
                    setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    # ---- results ----------------------------------------------------------

    def layer_metrics(self):
        """Counts, ratios and self times named <module>.<function>.<measure>."""
        c = self.counts

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        counts = {key: value for key, value in c.items()}
        for status in STATUSES:
            counts.setdefault("engine.status." + status, 0)
        ratios = {
            "syntax.substitute_prop.noop_ratio":
                ratio("syntax.substitute_prop.noop", "syntax.substitute_prop.calls"),
            "rules.conclusions.oversize_ratio":
                ratio("rules.conclusions.oversize", "rules.conclusions.built_in_saturate"),
            "engine.admitted_ratio":
                ratio("engine.admitted", "rules.conclusions.built_in_saturate"),
            "engine.stage1.admitted_ratio":
                ratio("engine.stage1.admitted", "engine.realized_axiom_stream.yielded"),
        }
        totals = defaultdict(float)
        for layers in self.job_self.values():
            for name, value in layers.items():
                if name != "job":
                    totals[f"{name}.self_s"] += value
        return counts, ratios, dict(totals)

    def unassigned_s(self):
        """Job time that no wrapped layer claimed."""
        return sum(layers.get("job", 0.0) for layers in self.job_self.values())

    def job_layers(self):
        """Self time per job and layer; "job" is the time no layer claimed."""
        return {job: dict(sorted(layers.items(), key=lambda item: -item[1]))
                for job, layers in self.job_self.items()}

    def span_records(self):
        return [
            {"id": index, "name": name, "start": start, "end": end,
             "parent": parent, "job": job}
            for index, (name, start, end, parent, job) in enumerate(self.spans)
        ]
