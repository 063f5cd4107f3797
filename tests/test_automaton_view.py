"""Body acceptors as views of their printed words.

A ``BodyAcceptor`` answers acceptance, the language up to a length and its
state count from the body's words, and derives its named edges only for
the dump and for reads of states, transitions and accepting states. Every
answer must agree with the explicit ``EpsilonNFA`` of
``reference_automaton`` built from the same words, for the chains and the
trie; the ``automaton`` command must derive no edge for ``--accept`` or
``--language-upto``.
"""

import contextlib
import copy
import io
import json
import pickle
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from metalogic import (
    AND,
    IMPLIES,
    NOT,
    OR,
    Atom,
    Binary,
    BodyAcceptor,
    Negation,
    automaton_to_text,
    build_body_automaton,
    build_deterministic_body_automaton,
    nfa_accepts,
    nfa_language_upto,
    parse_formula,
    print_formula,
    propositional_alphabet,
)
from metalogic import automaton
from metalogic.cli import main

import reference_automaton as reference

BUILDERS = {"chain": build_body_automaton,
            "trie": build_deterministic_body_automaton}

PQ = propositional_alphabet(("P", "Q"), connectives=(NOT, AND, OR, IMPLIES))

FORMULAS = st.recursive(
    st.sampled_from(("P", "Q")).map(Atom),
    lambda inner: st.one_of(
        inner.map(Negation),
        st.tuples(st.sampled_from((AND, OR, IMPLIES)), inner, inner).map(
            lambda t: Binary(*t))),
    max_leaves=5)

# the printed symbols of PQ, and one character no formula prints
SYMBOLS = "PQ~()-> &|Z"

SETTINGS = settings(max_examples=120, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def changed(word, position):
    """``word`` with the character at ``position`` replaced by another."""
    others = SYMBOLS.replace(word[position], "")
    return word[:position] + others[position % len(others)] + word[position + 1:]


@pytest.fixture
def derivations(monkeypatch):
    """A list that gets one entry per derivation of named edges from now on."""
    derived = []
    edges = automaton._edges

    def counting(*args, **kwargs):
        derived.append(None)
        return edges(*args, **kwargs)

    monkeypatch.setattr(automaton, "_edges", counting)
    return derived


def materialized(view):
    """The reference ``EpsilonNFA`` of ``view``'s shape over its words."""
    build = reference._trie_nfa if view.deterministic else reference._chain_nfa
    return build(view.words)


# words over few symbols, so that prefixes, repeats and shared prefixes
# are common; eleven words or more order ``w1.*`` before ``w10.*`` and
# ``t10`` before ``t2``
WORD_LISTS = st.lists(st.text("PQ~(", min_size=1, max_size=6), max_size=16)
ELEVEN = ("P", "Q", "~P", "~Q", "(P", "(Q", "PP", "PQ", "QP", "QQ", "~~P",
          "~(P", "P~Q")


class TestAgreesWithTheMaterializedAutomaton:
    @pytest.mark.parametrize("kind", BUILDERS)
    @SETTINGS
    @given(body=st.lists(FORMULAS, max_size=8))
    def test_acceptance_language_and_state_count(self, kind, body):
        view = BUILDERS[kind](body)
        nfa = materialized(view)
        words = {print_formula(f) for f in body}
        probes = set(words)
        for word in words:
            probes.update(word[:end] for end in range(len(word)))
            probes.update(changed(word, i) for i in range(len(word)))
        for word in probes:
            assert nfa_accepts(view, word) == reference.nfa_accepts(nfa, word), word
        longest = max(map(len, words), default=0)
        for n in range(longest + 2):
            assert nfa_language_upto(view, n) == \
                reference.nfa_language_upto(nfa, n), n
        assert view.state_count == len(nfa.states)
        assert len(nfa.accepting) == len(words)

    @pytest.mark.parametrize("deterministic", [False, True],
                             ids=["chain", "trie"])
    @SETTINGS
    @given(words=WORD_LISTS)
    @example(words=[])
    @example(words=["PQ", "P", "PQ"])
    @example(words=["(P", "(", "(PQ"])
    @example(words=list(ELEVEN))
    def test_dump_and_named_views(self, deterministic, words):
        view = BodyAcceptor(words, deterministic)
        nfa = materialized(view)
        assert automaton_to_text(view) == reference.automaton_to_text(nfa)
        assert view.states == nfa.states
        assert view.transitions == nfa.transitions
        assert view.accepting == nfa.accepting
        assert view.is_deterministic() == nfa.is_deterministic()


class TestBuildsOnlyWhenAsked:
    BODY = tuple(parse_formula(t, PQ) for t in
                 ("P", "~P", "(P -> Q)", "(P -> P)", "((P -> Q) -> P)"))

    @pytest.mark.parametrize("kind", BUILDERS)
    def test_words_answer_without_a_state(self, kind, derivations):
        view = BUILDERS[kind](self.BODY)
        assert nfa_accepts(view, "(P -> Q)")
        assert not nfa_accepts(view, "(P -> ")
        assert nfa_language_upto(view, 2) == frozenset({"P", "~P"})
        assert view.state_count > 1
        assert view.is_deterministic() == (kind == "trie")
        assert derivations == []

    @pytest.mark.parametrize("kind", BUILDERS)
    def test_each_read_derives_the_edges_anew(self, kind, derivations):
        view = BUILDERS[kind](self.BODY)
        automaton_to_text(view)
        assert len(derivations) == 1
        for _ in range(2):
            view.states, view.transitions, view.accepting
        assert len(derivations) == 7
        assert vars(view).keys() == {"words", "deterministic", "_members"}

    @pytest.mark.parametrize("kind", BUILDERS)
    def test_copies_and_pickles_are_equal_and_frozen(self, kind):
        original = BUILDERS[kind](self.BODY)
        for clone in (copy.copy(original), copy.deepcopy(original),
                      pickle.loads(pickle.dumps(original))):
            assert clone == original
            assert hash(clone) == hash(original)
            assert clone.words == original.words
        assert original != BUILDERS[kind](self.BODY[:-1])
        assert build_body_automaton(self.BODY) != \
            build_deterministic_body_automaton(self.BODY)
        with pytest.raises(AttributeError):
            original.words = ()

    def test_words_are_in_canonical_order(self):
        view = build_body_automaton(reversed(self.BODY))
        assert view == BodyAcceptor(
            ("P", "~P", "(P -> P)", "(P -> Q)", "((P -> Q) -> P)"))


class TestTrie:
    def test_names_follow_length_then_text_order(self):
        # a word that is a prefix of another, a repeated word, and words
        # given out of text order
        view = BodyAcceptor(("Q", "P", "PQ", "PQ", "(P)"), True)
        assert automaton_to_text(view) == (
            "states\t7\n"
            "start\tq0\n"
            "accept\tt2\tt3\tt5\tt6\n"
            "trans\tq0\t(\tt1\n"
            "trans\tq0\tP\tt2\n"
            "trans\tq0\tQ\tt3\n"
            "trans\tt1\tP\tt4\n"
            "trans\tt2\tQ\tt5\n"
            "trans\tt4\t)\tt6\n"
        )

    def test_memory_is_linear_in_the_characters(self):
        # keeping each prefix as a string costs the sum of the squared
        # word lengths: 8.8 times the chains' peak on these words (CPython 3.11)
        words = tuple(chr(65 + k) + "~" * 3000 for k in range(10))
        peaks = {}
        for deterministic in (True, False):
            acceptor = BodyAcceptor(words, deterministic)
            tracemalloc.start()
            try:
                automaton_to_text(acceptor)
                peaks[deterministic] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[True] <= 3 * peaks[False], peaks


KLEENE = ["--calc", "builtin:kleene", "--max-stage", "2", "--max-size", "9",
          "--pool-size", "3", "--pool-vars", "P"]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestCommandBuildsNoStates:
    @pytest.mark.parametrize("flag", [[], ["--deterministic"]],
                             ids=["chain", "trie"])
    @pytest.mark.parametrize("action", [["--accept", "(P -> (P -> P))"],
                                        ["--language-upto", "20"]],
                             ids=["accept", "language-upto"])
    def test_queries_derive_no_edges(self, flag, action, derivations):
        code, _ = run(["automaton", *KLEENE, *flag, *action])
        assert code == 0
        assert derivations == []

    @pytest.mark.parametrize("kind", BUILDERS)
    def test_reported_state_count_is_the_acceptors(self, kind):
        _, listed = run(["automaton", *KLEENE, "--language-upto", "99", "--json"])
        body = [parse_formula(w, PQ) for w in json.loads(listed)["language"]]
        flag = ["--deterministic"] if kind == "trie" else []
        code, out = run(["automaton", *KLEENE, *flag, "--json"])
        assert code == 0
        report = json.loads(out)
        dumped = report["automaton"].split("\n", 1)[0]
        assert dumped == f"states\t{report['state_count']}"
        assert report["state_count"] == len(BUILDERS[kind](body).states)
