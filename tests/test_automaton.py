"""Finite-body acceptors: construction, simulation, interchange."""

import copy
import itertools
import pickle
import random

import pytest

from metalogic import (
    EPSILON,
    IMPLIES,
    NOT,
    EpsilonNFA,
    MetalogicError,
    RuleParameterError,
    automaton_from_text,
    automaton_to_text,
    build_body_automaton,
    build_deterministic_body_automaton,
    nfa_accepts,
    nfa_language_upto,
    parse_formula,
    print_formula,
    propositional_alphabet,
)

from conftest import random_formula

PQ = propositional_alphabet(("P", "Q"), connectives=(NOT, IMPLIES))


def wff(text):
    return parse_formula(text, PQ)


def body(*texts):
    return tuple(wff(t) for t in texts)


class TestConstruction:
    def test_start_state_must_be_declared(self):
        with pytest.raises(MetalogicError):
            EpsilonNFA(frozenset({"a"}), frozenset(), frozenset(), "b",
                       frozenset())

    def test_accepting_states_must_be_declared(self):
        with pytest.raises(MetalogicError):
            EpsilonNFA(frozenset({"a"}), frozenset(), frozenset(), "a",
                       frozenset({"ghost"}))

    def test_transitions_must_reference_declared_states(self):
        with pytest.raises(MetalogicError):
            EpsilonNFA(
                frozenset({"a"}), frozenset({"x"}),
                frozenset({("a", "x", "nowhere")}), "a", frozenset(),
            )

    def test_transition_symbols_must_be_in_the_alphabet(self):
        with pytest.raises(MetalogicError):
            EpsilonNFA(
                frozenset({"a", "b"}), frozenset({"x"}),
                frozenset({("a", "y", "b")}), "a", frozenset(),
            )

    def test_epsilon_edges_need_no_alphabet_entry(self):
        nfa = EpsilonNFA(
            frozenset({"a", "b"}), frozenset(),
            frozenset({("a", EPSILON, "b")}), "a", frozenset({"b"}),
        )
        assert nfa_accepts(nfa, "")

    def test_determinism_check(self):
        base = dict(states=frozenset({"a", "b", "c"}),
                    symbols=frozenset({"x"}), start="a",
                    accepting=frozenset({"c"}))
        det = EpsilonNFA(transitions=frozenset(
            {("a", "x", "b"), ("b", "x", "c")}), **base)
        fan = EpsilonNFA(transitions=frozenset(
            {("a", "x", "b"), ("a", "x", "c")}), **base)
        eps = EpsilonNFA(transitions=frozenset(
            {("a", EPSILON, "b")}), **base)
        assert det.is_deterministic()
        assert not fan.is_deterministic()
        assert not eps.is_deterministic()


class TestBodyAutomaton:
    def test_state_count_is_one_plus_chain_lengths(self):
        theorems = body("P", "~P", "(P -> Q)")
        nfa = build_body_automaton(theorems)
        words = [print_formula(f) for f in theorems]
        assert len(nfa.states) == 1 + sum(len(w) + 1 for w in words)

    def test_one_epsilon_edge_per_formula(self):
        nfa = build_body_automaton(body("P", "~P", "(P -> Q)"))
        eps_edges = [t for t in nfa.transitions if t[1] is EPSILON]
        assert len(eps_edges) == 3
        assert all(src == "q0" for src, _, _ in eps_edges)

    def test_chains_are_named_by_sorted_word_order(self):
        # canonical order is (size, printed text), so P before ~P before
        # the conditional
        nfa = build_body_automaton(body("(P -> Q)", "~P", "P"))
        assert ("w0.0", "P", "w0.1") in nfa.transitions
        assert ("w1.0", "~", "w1.1") in nfa.transitions
        assert ("w2.0", "(", "w2.1") in nfa.transitions

    def test_accepts_exactly_the_printed_body(self):
        theorems = body("P", "~P", "(P -> Q)", "~~Q")
        nfa = build_body_automaton(theorems)
        for f in theorems:
            assert nfa_accepts(nfa, print_formula(f))
        assert not nfa_accepts(nfa, "Q")
        assert not nfa_accepts(nfa, "~")          # proper prefix
        assert not nfa_accepts(nfa, "~PP")        # proper extension
        assert not nfa_accepts(nfa, "")

    def test_duplicate_formulas_collapse_to_one_chain(self):
        once = build_body_automaton(body("~P"))
        twice = build_body_automaton(body("~P", "~P"))
        assert len(twice.states) == len(once.states)

    def test_empty_body_accepts_nothing(self):
        nfa = build_body_automaton(())
        assert nfa.states == frozenset({"q0"})
        assert not nfa_accepts(nfa, "")
        assert nfa_language_upto(nfa, 6) == frozenset()

    def test_unknown_symbols_are_rejected_not_fatal(self):
        nfa = build_body_automaton(body("P"))
        assert not nfa_accepts(nfa, "Z")


class TestTrieAutomaton:
    def test_is_deterministic(self):
        nfa = build_deterministic_body_automaton(
            body("P", "~P", "(P -> Q)", "(P -> P)"))
        assert nfa.is_deterministic()

    def test_shared_prefixes_share_states(self):
        pair = body("(P -> P)", "(P -> Q)")
        trie = build_deterministic_body_automaton(pair)
        chains = build_body_automaton(pair)
        # both words have length 8 and share "(P -> " as a prefix
        assert len(trie.states) == 1 + 6 + 2 + 2
        assert len(trie.states) < len(chains.states)

    def test_root_is_q0_and_branch_states_count_from_one(self):
        nfa = build_deterministic_body_automaton(body("P"))
        assert nfa.states == frozenset({"q0", "t1"})
        assert nfa.transitions == frozenset({("q0", "P", "t1")})
        assert nfa.accepting == frozenset({"t1"})

    def test_agrees_with_the_chain_construction(self):
        rng = random.Random(2026)
        for _ in range(10):
            theorems = [random_formula(rng, ("P", "Q"), (NOT, IMPLIES), 3)
                        for _ in range(rng.randint(0, 8))]
            words = {print_formula(f) for f in theorems}
            longest = max((len(w) for w in words), default=0)
            chains = build_body_automaton(theorems)
            trie = build_deterministic_body_automaton(theorems)
            assert nfa_language_upto(chains, longest) == words
            assert nfa_language_upto(trie, longest) == words


def _hand_built(transitions, accepting, symbols="xy"):
    states = {"a"} | set(accepting)
    for source, _, target in transitions:
        states.update((source, target))
    return EpsilonNFA(frozenset(states), frozenset(symbols),
                      frozenset(transitions), "a", frozenset(accepting))


# a -x-> b, then an epsilon chain b => c => d; d accepts
EPSILON_TAIL = _hand_built(
    {("a", "x", "b"), ("b", EPSILON, "c"), ("c", EPSILON, "d")}, {"d"})

# epsilon cycles before and after the symbol: a <=> b -x-> c <=> d, d -y-> a
EPSILON_CYCLES = _hand_built(
    {("a", EPSILON, "b"), ("b", EPSILON, "a"), ("b", "x", "c"),
     ("c", EPSILON, "d"), ("d", EPSILON, "c"), ("d", "y", "a")}, {"d"})

# nondeterministic branches that rejoin, plus an epsilon edge to a dead end
BRANCHING = _hand_built(
    {("a", "x", "b"), ("a", "x", "c"), ("b", "y", "d"), ("c", "y", "d"),
     ("c", EPSILON, "e"), ("d", EPSILON, "a")}, {"d", "e"})


class TestSimulation:
    def test_epsilon_chain_after_a_symbol_is_followed(self):
        assert nfa_accepts(EPSILON_TAIL, "x")
        assert not nfa_accepts(EPSILON_TAIL, "")
        assert not nfa_accepts(EPSILON_TAIL, "xx")

    def test_epsilon_cycles_terminate(self):
        assert nfa_accepts(EPSILON_CYCLES, "x")
        assert nfa_accepts(EPSILON_CYCLES, "xyx")
        assert not nfa_accepts(EPSILON_CYCLES, "")
        assert not nfa_accepts(EPSILON_CYCLES, "xy")
        assert nfa_language_upto(EPSILON_CYCLES, 3) == frozenset({"x", "xyx"})

    @pytest.mark.parametrize("nfa", [
        build_body_automaton(body("P", "~Q", "~~P", "(P -> Q)")),
        build_deterministic_body_automaton(body("P", "~P", "~~P", "~Q")),
        EPSILON_TAIL, EPSILON_CYCLES, BRANCHING,
    ], ids=["chain", "trie", "epsilon-tail", "epsilon-cycles", "branching"])
    def test_language_agrees_with_acceptance_on_every_short_word(self, nfa):
        n = 5
        symbols = sorted(nfa.symbols)
        language = nfa_language_upto(nfa, n)
        for length in range(n + 1):
            for letters in itertools.product(symbols, repeat=length):
                word = "".join(letters)
                assert (word in language) == nfa_accepts(nfa, word), word


class TestLanguageEnumeration:
    def test_enumerates_exactly_the_body(self):
        theorems = body("P", "~Q", "(P -> (Q -> P))")
        nfa = build_body_automaton(theorems)
        expected = frozenset(print_formula(f) for f in theorems)
        longest = max(len(w) for w in expected)
        assert nfa_language_upto(nfa, longest) == expected

    def test_length_bound_is_inclusive(self):
        nfa = build_body_automaton(body("~P"))
        assert nfa_language_upto(nfa, 1) == frozenset()
        assert nfa_language_upto(nfa, 2) == frozenset({"~P"})

    def test_empty_word_needs_an_accepting_start(self):
        nfa = EpsilonNFA(
            frozenset({"a"}), frozenset(), frozenset(), "a",
            frozenset({"a"}),
        )
        assert nfa_language_upto(nfa, 0) == frozenset({""})

    @pytest.mark.parametrize("bound", [-1, True, 1.5, "2"])
    def test_bound_must_be_a_non_negative_integer(self, bound):
        nfa = build_body_automaton(body("P"))
        with pytest.raises(RuleParameterError, match="max_length"):
            nfa_language_upto(nfa, bound)


class TestInterchange:
    def test_serialization_is_exact(self):
        nfa = EpsilonNFA(
            frozenset({"q0", "a1"}), frozenset({"x"}),
            frozenset({("q0", "x", "a1"), ("q0", EPSILON, "a1")}),
            "q0", frozenset({"a1"}),
        )
        assert automaton_to_text(nfa) == (
            "states\t2\n"
            "start\tq0\n"
            "accept\ta1\n"
            "trans\tq0\teps\ta1\n"
            "trans\tq0\tx\ta1\n"
        )

    def test_round_trip(self):
        original = build_body_automaton(body("P", "~P", "(P -> Q)"))
        restored = automaton_from_text(automaton_to_text(original))
        assert restored.states == original.states
        assert restored.symbols == original.symbols
        assert restored.transitions == original.transitions
        assert restored.start == original.start
        assert restored.accepting == original.accepting

    def test_copies_and_pickles_are_equal_and_frozen(self):
        original = BRANCHING
        for clone in (copy.copy(original), copy.deepcopy(original),
                      pickle.loads(pickle.dumps(original))):
            assert clone == original
            assert clone.transitions == original.transitions
        with pytest.raises(AttributeError):
            original.start = "b"

    def test_round_trip_preserves_the_language(self):
        original = build_deterministic_body_automaton(
            body("~~P", "(Q -> Q)"))
        restored = automaton_from_text(automaton_to_text(original))
        assert nfa_language_upto(restored, 8) == nfa_language_upto(original, 8)

    def test_blank_lines_are_skipped(self):
        nfa = automaton_from_text("\nstart\tq0\n\n")
        assert nfa.start == "q0"
        assert nfa.states == frozenset({"q0"})

    def test_bad_state_count_reports_its_line(self):
        with pytest.raises(MetalogicError, match="line 1.*not an integer"):
            automaton_from_text("states\tmany\nstart\tq0\n")

    def test_unknown_declaration_reports_its_line(self):
        with pytest.raises(MetalogicError, match="line 2.*'loop'"):
            automaton_from_text("start\tq0\nloop\tq0\n")

    def test_malformed_trans_line_is_unrecognized(self):
        with pytest.raises(MetalogicError, match="line 2"):
            automaton_from_text("start\tq0\ntrans\tq0\tq1\n")

    def test_multicharacter_symbols_are_rejected(self):
        with pytest.raises(MetalogicError, match="one character"):
            automaton_from_text("start\tq0\ntrans\tq0\tab\tq0\n")

    def test_missing_start_is_an_error(self):
        with pytest.raises(MetalogicError, match="no start state"):
            automaton_from_text("states\t0\n")

    def test_declared_count_must_match(self):
        with pytest.raises(MetalogicError, match="disagrees"):
            automaton_from_text("states\t5\nstart\tq0\n")
