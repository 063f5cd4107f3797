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
and the state count has a closed form; none of them names a state. The
named edges are derived from the words only for the interchange dump and
for reads of ``states``, ``transitions`` and ``accepting``, anew on every
call, and never kept. The trie keeps no prefix as a string, so its memory
is linear in the characters.

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
from os.path import commonprefix
from typing import Iterable

from .errors import check_count
from .syntax import Formula, canonical_sorted, print_formula


def _text_order(words):
    """(index, word, length shared with the word before) over the words in
    text order."""
    previous = ""
    for index, word in enumerate(sorted(words)):
        yield index, word, len(commonprefix((word, previous)))
        previous = word


def _edges(words, deterministic: bool) -> tuple:
    """(edges, accepting): the named (source, symbol, target) edges of one
    shape, with None as the symbol of an epsilon edge, and the accepting
    names, one per word.

    The chains are ``w<index>.<position>``, with an epsilon edge to each
    from the start ``q0``. The trie is the root ``q0``, then ``t<i>`` for
    the i-th prefix in (length, text) order. A prefix is keyed by (its
    length, the index of the first word in text order that has it): the
    keys sort in that same order, and no prefix is kept as a string.
    """
    edges, accepting = [], []
    if not deterministic:
        for index, word in enumerate(words):
            states = [f"w{index}.{position}" for position in range(len(word) + 1)]
            edges.append(("q0", None, states[0]))
            edges.extend(zip(states, word, states[1:]))
            accepting.append(states[-1])
        return edges, accepting
    path = [(0, 0)]
    for index, word, shared in _text_order(words):
        del path[shared + 1:]  # now the keys of this word's prefixes, by length
        for length in range(shared + 1, len(word) + 1):
            path.append((length, index))
            edges.append((path[-2], word[length - 1], path[-1]))
        accepting.append(path[-1])
    keys = [(0, 0), *sorted(target for _, _, target in edges)]
    name_of = {key: f"t{rank}" if rank else "q0" for rank, key in enumerate(keys)}
    return ([(name_of[source], symbol, name_of[target])
             for source, symbol, target in edges],
            [name_of[key] for key in accepting])


@dataclass(frozen=True)
class BodyAcceptor:
    """The acceptor of a finite body, held as its printed words.

    ``words`` are the printed theorems in canonical order, which names the
    states; ``deterministic`` chooses the trie over the chains. Acceptance,
    the language up to a length, ``state_count`` and
    ``is_deterministic()`` are read from the words. ``states``,
    ``transitions`` and ``accepting`` derive the named edges on every read
    and keep nothing. Two body acceptors are equal when their words and
    shape are. Instances are immutable.
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
        """``len(self.states)`` without naming them: 1 + the sum of
        (length + 1) over the chains; for the trie, 1 + the sum over the
        words in lexicographic order of the length past the common prefix
        with the word before."""
        if not self.deterministic:
            return 1 + sum(map(len, self.words)) + len(self.words)
        return 1 + sum(len(word) - shared
                       for _, word, shared in _text_order(self.words))

    @property
    def states(self) -> frozenset:
        """Every state name: the start and each edge's target."""
        edges, _ = _edges(self.words, self.deterministic)
        return frozenset(["q0", *(target for _, _, target in edges)])

    @property
    def transitions(self) -> frozenset:
        """The edges as (source, symbol, target), None for epsilon."""
        return frozenset(_edges(self.words, self.deterministic)[0])

    @property
    def accepting(self) -> frozenset:
        """The names of the accepting states."""
        return frozenset(_edges(self.words, self.deterministic)[1])

    def is_deterministic(self) -> bool:
        """True for the trie, and for chains over no word, which have no
        epsilon edge."""
        return self.deterministic or not self.words


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


def nfa_accepts(acceptor: BodyAcceptor, word: str) -> bool:
    """Whether the acceptor accepts ``word``: whether it is one of the
    words."""
    return word in acceptor._members


def nfa_language_upto(acceptor: BodyAcceptor, max_length: int) -> frozenset:
    """Every accepted word of length at most max_length."""
    check_count(max_length, 0, "max_length")
    return frozenset(word for word in acceptor.words if len(word) <= max_length)


def automaton_to_text(acceptor: BodyAcceptor) -> str:
    """Serialize deterministically: counts, start, accepting, sorted edges."""
    edges, accepting = _edges(acceptor.words, acceptor.deterministic)
    edges.sort(key=lambda edge: (edge[0], edge[1] or "", edge[2]))
    lines = [
        f"states\t{acceptor.state_count}",
        "start\tq0",
        "\t".join(["accept", *sorted(set(accepting))]),
    ]
    lines.extend(f"trans\t{source}\t{symbol or 'eps'}\t{target}"
                 for source, symbol, target in edges)
    return "\n".join(lines) + "\n"
