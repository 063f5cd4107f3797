"""Finite automata that accept exactly a finite theorem body.

A finite body T is accepted by a machine whose language is
{print(w) : w in T}. Two shapes are defined: one linear chain of states
per formula, a fresh start state, and an epsilon edge from the start to
each chain (the machine chooses a formula nondeterministically and then
verifies it character by character); or, deterministic, a trie that
shares common prefixes and uses no epsilon edges at all.

The printed canonical form makes the body language well-defined: two equal
formulas print identically, so the automaton's language has exactly one
word per theorem.

A body acceptor (``BodyAcceptor``) is its word list: the printed theorems
in canonical order, which fixes every state name of both shapes (Daciuk,
Mihov, Watson & Watson, "Incremental construction of minimal acyclic
finite-state automata", Computational Linguistics 26(1), 2000). Acceptance
is word membership, the language up to a length is a filter of the words,
and the state count has a closed form; none of them builds a state. The
explicit ``EpsilonNFA`` is built once, on the first read of its states,
transitions, start, accepting states, symbols or ``is_deterministic()``,
or by ``automaton_to_text``, and then kept. The trie keeps no prefix as a
string, so its memory is linear in the characters.

An ``EpsilonNFA`` stores its transition relation once, as one row per
symbol: ``row[source] -> targets``, with the epsilon edges in the row of
``EPSILON``. Simulation reads the rows directly, so a step costs one
dictionary lookup per current state, not a pass over every transition.
The ``transitions`` attribute is a view derived from the rows: a frozenset
of (source, symbol, target) triples, built anew on every access. The rows
take less memory than that set, and the collector untracks them.

Interchange format (tab-separated, one declaration per line):

    states <count>
    start <name>
    accept <name> <name> ...
    trans <src> <symbol> <dst>

with the epsilon symbol written as the literal token ``eps``. Symbols are
single characters of printed formulas, so the three-character token never
collides with a real symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from os.path import commonprefix
from typing import Iterable

from .errors import MetalogicError, check_count
from .syntax import Formula, canonical_sorted, print_formula

EPSILON = None


class EpsilonNFA:
    """A nondeterministic finite automaton with epsilon transitions.

    It is built from (source, symbol, target) triples, where the symbol is
    a single character or None for epsilon, and keeps them as per-symbol
    rows ``_rows[symbol][source] -> targets`` (a tuple of distinct states).
    Each triple is checked as it is stored, so the first faulty one is
    reported. Two automata are equal when their states, symbols, start,
    accepting states and transition sets are equal. Instances are immutable.

    The rows stay rather than a frozenset of triples: the collector untracks
    their dicts and tuples but never a set, which the next build's
    ``gc.collect(1)`` walks (0.202 ms against 0.004 ms after a 4,903-state
    chain).
    """

    __slots__ = ("states", "symbols", "start", "accepting", "_rows")

    def __init__(self, states, symbols, transitions, start, accepting):
        states = frozenset(states)
        symbols = frozenset(symbols)
        accepting = frozenset(accepting)
        if start not in states:
            raise MetalogicError("the start state is not a declared state")
        if not accepting <= states:
            raise MetalogicError("an accepting state is not a declared state")
        rows = {}
        fanned = []
        for source, symbol, target in transitions:
            if source not in states or target not in states:
                raise MetalogicError(
                    f"transition ({source!r}, {symbol!r}, {target!r}) "
                    f"references an undeclared state"
                )
            row = rows.get(symbol)
            if row is None:
                if symbol is not EPSILON and symbol not in symbols:
                    raise MetalogicError(
                        f"transition symbol {symbol!r} is not in the input alphabet"
                    )
                row = rows[symbol] = {}
            targets = row.get(source)
            if targets is None:
                row[source] = (target,)
            elif target not in targets:
                # a second target: collect the fan-out in a set, not by
                # growing a tuple, then store it as a tuple below
                if isinstance(targets, tuple):
                    row[source] = {*targets, target}
                    fanned.append((row, source))
                else:
                    targets.add(target)
        for row, source in fanned:
            row[source] = tuple(row[source])
        for name, value in (("states", states), ("symbols", symbols),
                            ("start", start), ("accepting", accepting),
                            ("_rows", rows)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _triples(self):
        for symbol, row in self._rows.items():
            for source, targets in row.items():
                for target in targets:
                    yield source, symbol, target

    @property
    def transitions(self) -> frozenset:
        """The relation as (source, symbol, target) triples, derived from
        the rows on every access and never kept."""
        return frozenset(self._triples())

    def __eq__(self, other):
        if not isinstance(other, EpsilonNFA):
            return NotImplemented
        return (self.start == other.start and self.states == other.states
                and self.symbols == other.symbols
                and self.accepting == other.accepting
                and self.transitions == other.transitions)

    def __hash__(self):
        return hash((self.states, self.symbols, self.start, self.accepting))

    def __reduce__(self):
        return (EpsilonNFA, (self.states, self.symbols, self.transitions,
                             self.start, self.accepting))

    def __repr__(self):
        return (f"EpsilonNFA(states={self.states!r}, symbols={self.symbols!r}, "
                f"transitions={self.transitions!r}, start={self.start!r}, "
                f"accepting={self.accepting!r})")

    def is_deterministic(self) -> bool:
        """True when no epsilon edges exist and no (state, symbol) repeats."""
        return EPSILON not in self._rows and all(
            len(targets) == 1
            for row in self._rows.values() for targets in row.values())


def _chain_nfa(words) -> EpsilonNFA:
    """One chain per word, ``w<index>.<position>``, and an epsilon edge to
    each from the start ``q0``."""
    chains = [[f"w{index}.{position}" for position in range(len(word) + 1)]
              for index, word in enumerate(words)]

    def edges():
        for word, states in zip(words, chains):
            yield "q0", EPSILON, states[0]
            yield from zip(states, word, states[1:])

    return EpsilonNFA(
        chain(["q0"], *chains), set().union(*words), edges(),
        "q0", [states[-1] for states in chains],
    )


def _text_order(words):
    """(index, word, length shared with the word before) over the words in
    text order."""
    previous = ""
    for index, word in enumerate(sorted(words)):
        yield index, word, len(commonprefix((word, previous)))
        previous = word


def _trie_nfa(words) -> EpsilonNFA:
    """A trie over the words: the root ``q0``, then ``t<i>`` for the i-th
    prefix in (length, text) order. A prefix is keyed by (its length, the
    index of the first word in text order that has it): the keys sort in
    that same order, and no prefix is kept as a string."""
    path, edges, accepting = [(0, 0)], [], []
    for index, word, shared in _text_order(words):
        del path[shared + 1:]  # now the keys of this word's prefixes, by length
        for length in range(shared + 1, len(word) + 1):
            path.append((length, index))
            edges.append((path[-2], word[length - 1], path[-1]))
        accepting.append(path[-1])
    keys = [(0, 0), *sorted(target for _, _, target in edges)]
    name_of = {key: f"t{rank}" if rank else "q0" for rank, key in enumerate(keys)}
    return EpsilonNFA(
        name_of.values(), set().union(*words),
        ((name_of[source], symbol, name_of[target])
         for source, symbol, target in edges),
        "q0", [name_of[key] for key in accepting],
    )


def _from_nfa(name: str) -> property:
    return property(lambda self: getattr(self.nfa(), name),
                    doc=f"The explicit automaton's ``{name}``; builds it.")


@dataclass(frozen=True)
class BodyAcceptor:
    """The acceptor of a finite body, held as its printed words.

    ``words`` are the printed theorems in canonical order, which names the
    states; ``deterministic`` chooses the trie over the chains. Acceptance,
    the language up to a length and ``state_count`` are read from the
    words. ``nfa()`` builds the explicit ``EpsilonNFA`` on its first call
    and keeps it; ``states``, ``transitions``, ``start``, ``accepting``,
    ``symbols`` and ``is_deterministic()`` read that automaton. Two body
    acceptors are equal when their words and shape are. Instances are
    immutable.
    """

    words: tuple
    deterministic: bool = False
    # built with the acceptor, so a first lookup costs no more than a later one
    _members: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        words = tuple(self.words)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "deterministic", bool(self.deterministic))
        object.__setattr__(self, "_members", frozenset(words))

    @property
    def state_count(self) -> int:
        """``len(self.states)`` without building them: 1 + the sum of
        (length + 1) over the chains; for the trie, 1 + the sum over the
        words in lexicographic order of the length past the common prefix
        with the word before."""
        if not self.deterministic:
            return 1 + sum(map(len, self.words)) + len(self.words)
        return 1 + sum(len(word) - shared
                       for _, word, shared in _text_order(self.words))

    @cached_property
    def _nfa(self) -> EpsilonNFA:
        return (_trie_nfa if self.deterministic else _chain_nfa)(self.words)

    def nfa(self) -> EpsilonNFA:
        """The explicit automaton, built on the first call and kept."""
        return self._nfa

    states = _from_nfa("states")
    symbols = _from_nfa("symbols")
    start = _from_nfa("start")
    accepting = _from_nfa("accepting")
    transitions = _from_nfa("transitions")
    is_deterministic = _from_nfa("is_deterministic")


def _sorted_words(body: Iterable[Formula]) -> list:
    return [print_formula(f) for f in canonical_sorted(set(body))]


def build_body_automaton(body: Iterable[Formula]) -> BodyAcceptor:
    """One chain per formula, epsilon edges from a fresh start.

    The state count is 1 + the sum of (word length + 1) over the printed
    formulas. An empty body yields a one-state automaton accepting nothing.
    """
    return BodyAcceptor(_sorted_words(body))


def build_deterministic_body_automaton(body: Iterable[Formula]) -> BodyAcceptor:
    """A trie over the printed formulas: shared prefixes, no epsilon edges."""
    return BodyAcceptor(_sorted_words(body), deterministic=True)


# ==========================================================================
# Simulation
# ==========================================================================

def _epsilon_closure(epsilon_row: dict, states: set) -> set:
    """``states`` with every state reachable over epsilon edges added, in
    place; an empty row leaves the set as it is."""
    if epsilon_row:
        stack = list(states)
        while stack:
            for target in epsilon_row.get(stack.pop(), ()):
                if target not in states:
                    states.add(target)
                    stack.append(target)
    return states


def _step(row: dict, states) -> set:
    """The successors of ``states`` in one symbol's row, not yet closed."""
    moved = set()
    for state in states:
        targets = row.get(state)
        if targets is not None:
            moved.update(targets)
    return moved


def nfa_accepts(nfa: EpsilonNFA | BodyAcceptor, word: str) -> bool:
    """Whether the acceptor accepts ``word``; unknown symbols simply fail.

    An ``EpsilonNFA`` runs the standard epsilon-closure simulation; a
    ``BodyAcceptor`` looks the word up.
    """
    if isinstance(nfa, BodyAcceptor):
        return word in nfa._members
    rows = nfa._rows
    epsilon_row = rows.get(EPSILON)
    current = _epsilon_closure(epsilon_row, {nfa.start})
    for char in word:
        row = rows.get(char)
        if row is None:
            return False
        current = _epsilon_closure(epsilon_row, _step(row, current))
        if not current:
            return False
    return not current.isdisjoint(nfa.accepting)


def nfa_language_upto(nfa: EpsilonNFA | BodyAcceptor,
                      max_length: int) -> frozenset:
    """Every accepted word of length at most max_length.

    An ``EpsilonNFA`` is explored breadth-first over epsilon-closed state
    sets, so finite body languages enumerate quickly; a ``BodyAcceptor``
    keeps its words that are short enough.
    """
    check_count(max_length, 0, "max_length")
    if isinstance(nfa, BodyAcceptor):
        return frozenset(word for word in nfa.words if len(word) <= max_length)
    # breadth-first over epsilon-closed state sets; a branch whose set goes
    # empty is pruned
    rows = nfa._rows
    epsilon_row = rows.get(EPSILON)
    symbol_rows = [(symbol, rows[symbol])
                   for symbol in sorted(nfa.symbols) if symbol in rows]
    accepted = set()
    start = _epsilon_closure(epsilon_row, {nfa.start})
    frontier = {"": start}
    if not start.isdisjoint(nfa.accepting):
        accepted.add("")
    for _ in range(max_length):
        next_frontier = {}
        for word, states in frontier.items():
            for symbol, row in symbol_rows:
                closed = _epsilon_closure(epsilon_row, _step(row, states))
                if not closed:
                    continue
                extended = word + symbol
                next_frontier[extended] = closed
                if not closed.isdisjoint(nfa.accepting):
                    accepted.add(extended)
        if not next_frontier:
            break
        frontier = next_frontier
    return frozenset(accepted)


# ==========================================================================
# Interchange
# ==========================================================================

_EPSILON_TOKEN = "eps"


def automaton_to_text(nfa: EpsilonNFA | BodyAcceptor) -> str:
    """Serialize deterministically: counts, start, accepting, sorted triples."""
    if isinstance(nfa, BodyAcceptor):
        nfa = nfa.nfa()
    lines = [
        f"states\t{len(nfa.states)}",
        f"start\t{nfa.start}",
        "\t".join(["accept"] + sorted(nfa.accepting)),
    ]
    def triple_key(t):
        source, symbol, target = t
        return (source, "" if symbol is EPSILON else symbol, target)
    for source, symbol, target in sorted(nfa._triples(), key=triple_key):
        token = _EPSILON_TOKEN if symbol is EPSILON else symbol
        lines.append(f"trans\t{source}\t{token}\t{target}")
    return "\n".join(lines) + "\n"
