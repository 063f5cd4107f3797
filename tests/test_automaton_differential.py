"""Differential simulation: the per-symbol rows of an ``EpsilonNFA`` against
a naive reference that scans the triple set, on small hand-made automata
drawn by hypothesis."""

import itertools

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from metalogic import (
    EPSILON,
    EpsilonNFA,
    automaton_to_text,
    nfa_accepts,
    nfa_language_upto,
)

ALPHABET = ("x", "y", "z")
LONGEST = 4
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def automata(draw):
    """(states, symbols, triples, start, accepting) with at most 8 states.

    Random edges already give multi-target edges, self-loops and states
    nothing reaches; an epsilon cycle, a self-loop, a fan-out and a state
    with outgoing edges only are each added on purpose as well, so every
    shape turns up often.
    """
    states = [f"s{i}" for i in range(draw(st.integers(1, 7)))]
    state = st.sampled_from(states)
    symbol = st.sampled_from(ALPHABET + (EPSILON,))
    triples = draw(st.lists(st.tuples(state, symbol, state), max_size=16))
    if draw(st.booleans()):
        cycle = draw(st.lists(state, min_size=1, max_size=len(states),
                              unique=True))
        triples += [(a, EPSILON, b)
                    for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    if draw(st.booleans()):
        loop = draw(state)
        triples.append((loop, draw(symbol), loop))
    if draw(st.booleans()):
        source, label = draw(state), draw(symbol)
        triples += [(source, label, target)
                    for target in draw(st.lists(state, min_size=2,
                                                max_size=4))]
    if draw(st.booleans()):
        states.append("unreached")
        triples += [("unreached", draw(symbol), draw(state))
                    for _ in range(draw(st.integers(1, 3)))]
    used = {label for _, label, _ in triples if label is not EPSILON}
    symbols = used | draw(st.frozensets(st.sampled_from(ALPHABET)))
    start = draw(st.sampled_from(states))
    accepting = draw(st.frozensets(st.sampled_from(states)))
    return states, symbols, triples, start, accepting


def reference_closure(triples, states):
    closure = set(states)
    grew = True
    while grew:
        grew = False
        for source, symbol, target in triples:
            if symbol is EPSILON and source in closure and target not in closure:
                closure.add(target)
                grew = True
    return closure


def reference_accepts(triples, start, accepting, word):
    current = reference_closure(triples, {start})
    for char in word:
        current = reference_closure(
            triples,
            {target for source, symbol, target in triples
             if symbol == char and source in current},
        )
    return bool(current & accepting)


def words_upto(symbols, longest):
    for length in range(longest + 1):
        for letters in itertools.product(sorted(symbols), repeat=length):
            yield "".join(letters)


class TestAgainstTheTripleScan:
    @SETTINGS
    @given(automata())
    def test_acceptance_agrees(self, drawn):
        states, symbols, triples, start, accepting = drawn
        nfa = EpsilonNFA(states, symbols, triples, start, accepting)
        relation = set(triples)
        # "q" is outside every alphabet: such words are simply rejected
        for word in itertools.chain(words_upto(symbols, LONGEST),
                                    ("q", "xq", "qx")):
            assert nfa_accepts(nfa, word) == reference_accepts(
                relation, start, accepting, word), word

    @SETTINGS
    @given(automata())
    def test_language_agrees(self, drawn):
        states, symbols, triples, start, accepting = drawn
        nfa = EpsilonNFA(states, symbols, triples, start, accepting)
        relation = set(triples)
        expected = {word for word in words_upto(symbols, LONGEST)
                    if reference_accepts(relation, start, accepting, word)}
        assert nfa_language_upto(nfa, LONGEST) == expected

    @SETTINGS
    @given(automata())
    def test_transitions_are_the_given_triples(self, drawn):
        states, symbols, triples, start, accepting = drawn
        nfa = EpsilonNFA(states, symbols, triples, start, accepting)
        assert nfa.transitions == frozenset(triples)


class TestIdentity:
    @SETTINGS
    @given(automata())
    def test_text_dump_states_the_automaton(self, drawn):
        states, symbols, triples, start, accepting = drawn
        nfa = EpsilonNFA(states, symbols, triples, start, accepting)
        lines = automaton_to_text(nfa).splitlines()
        assert lines[:3] == [f"states\t{len(nfa.states)}", f"start\t{start}",
                             "\t".join(["accept", *sorted(nfa.accepting)])]
        fields = [line.split("\t") for line in lines[3:]]
        assert all(len(f) == 4 and f[0] == "trans" for f in fields)
        dumped = [(source, EPSILON if label == "eps" else label, target)
                  for _, source, label, target in fields]
        assert len(dumped) == len(nfa.transitions)
        assert set(dumped) == nfa.transitions

    @SETTINGS
    @given(automata(), st.randoms(use_true_random=False))
    def test_hash_agrees_with_equality(self, drawn, rng):
        states, symbols, triples, start, accepting = drawn
        nfa = EpsilonNFA(states, symbols, triples, start, accepting)
        # the same relation in another order, every triple given twice
        shuffled = triples * 2
        rng.shuffle(shuffled)
        same = EpsilonNFA(states, symbols, shuffled, start, accepting)
        assert same == nfa
        assert hash(same) == hash(nfa)
        assert len({nfa, same}) == 1
        if triples:
            fewer = EpsilonNFA(states, symbols, set(triples) - {triples[0]},
                               start, accepting)
            assert fewer != nfa
