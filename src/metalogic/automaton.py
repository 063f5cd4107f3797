"""Finite automata that accept exactly a finite theorem body.

A finite body T becomes an acceptor of the set {print(w) : w in T}: one
linear chain of states per formula, a fresh start state, and an epsilon
edge from the start to each chain (so the machine chooses a formula
nondeterministically and then verifies it character by character). The
deterministic variant shares common prefixes in a trie and uses no epsilon
edges at all.

The printed canonical form makes the body language well-defined: two equal
formulas print identically, so the automaton's language has exactly one
word per theorem.

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

from dataclasses import dataclass
from typing import Iterable

from .errors import MetalogicError, RuleParameterError
from .syntax import Formula, canonical_key, print_formula

EPSILON = None


@dataclass(frozen=True)
class EpsilonNFA:
    """A nondeterministic finite automaton with epsilon transitions.

    Transitions are (source, symbol, target) triples; the symbol is a
    single character or None for epsilon.
    """

    states: frozenset
    symbols: frozenset
    transitions: frozenset
    start: str
    accepting: frozenset

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "symbols", frozenset(self.symbols))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        if self.start not in self.states:
            raise MetalogicError("the start state is not a declared state")
        if not self.accepting <= self.states:
            raise MetalogicError("an accepting state is not a declared state")
        for source, symbol, target in self.transitions:
            if source not in self.states or target not in self.states:
                raise MetalogicError(
                    f"transition ({source!r}, {symbol!r}, {target!r}) "
                    f"references an undeclared state"
                )
            if symbol is not EPSILON and symbol not in self.symbols:
                raise MetalogicError(
                    f"transition symbol {symbol!r} is not in the input alphabet"
                )

    def is_deterministic(self) -> bool:
        """True when no epsilon edges exist and no (state, symbol) repeats."""
        seen = set()
        for source, symbol, _ in self.transitions:
            if symbol is EPSILON or (source, symbol) in seen:
                return False
            seen.add((source, symbol))
        return True


def _sorted_words(body: Iterable[Formula]) -> list:
    return [print_formula(f) for f in sorted(set(body), key=canonical_key)]


def build_body_automaton(body: Iterable[Formula]) -> EpsilonNFA:
    """One chain per formula, epsilon edges from a fresh start.

    The state count is 1 + the sum of (word length + 1) over the printed
    formulas. An empty body yields a one-state automaton accepting nothing.
    """
    words = _sorted_words(body)
    states = {"q0"}
    symbols = set()
    transitions = set()
    accepting = set()
    for index, word in enumerate(words):
        chain = [f"w{index}.{position}" for position in range(len(word) + 1)]
        states.update(chain)
        transitions.add(("q0", EPSILON, chain[0]))
        for position, char in enumerate(word):
            symbols.add(char)
            transitions.add((chain[position], char, chain[position + 1]))
        accepting.add(chain[-1])
    return EpsilonNFA(
        frozenset(states), frozenset(symbols), frozenset(transitions),
        "q0", frozenset(accepting),
    )


def build_deterministic_body_automaton(body: Iterable[Formula]) -> EpsilonNFA:
    """A trie over the printed formulas: shared prefixes, no epsilon edges."""
    words = _sorted_words(body)
    prefixes = {""}
    accepting_prefixes = set()
    for word in words:
        for end in range(1, len(word) + 1):
            prefixes.add(word[:end])
        accepting_prefixes.add(word)
    ordered = sorted(prefixes, key=lambda p: (len(p), p))
    name_of = {prefix: ("q0" if prefix == "" else f"t{i}")
               for i, prefix in enumerate(ordered)}
    symbols = set()
    transitions = set()
    for prefix in ordered:
        if prefix == "":
            continue
        symbols.add(prefix[-1])
        transitions.add((name_of[prefix[:-1]], prefix[-1], name_of[prefix]))
    return EpsilonNFA(
        frozenset(name_of.values()), frozenset(symbols),
        frozenset(transitions), "q0",
        frozenset(name_of[w] for w in accepting_prefixes),
    )


# ==========================================================================
# Simulation
# ==========================================================================

def _moves(nfa: EpsilonNFA) -> dict:
    """(state, symbol) -> targets; epsilon edges sit under EPSILON.

    Built once per simulation call and not kept on the automaton, which
    would then hold every transition twice for as long as it lives."""
    moves = {}
    for source, symbol, target in nfa.transitions:
        moves.setdefault((source, symbol), []).append(target)
    return moves


def _epsilon_closure(moves: dict, states) -> frozenset:
    closure = set(states)
    stack = list(closure)
    while stack:
        for target in moves.get((stack.pop(), EPSILON), ()):
            if target not in closure:
                closure.add(target)
                stack.append(target)
    return frozenset(closure)


def _step(moves: dict, states, symbol: str) -> frozenset:
    """The epsilon-closed successors of ``states`` on ``symbol``."""
    moved = set()
    for state in states:
        moved.update(moves.get((state, symbol), ()))
    return _epsilon_closure(moves, moved)


def nfa_accepts(nfa: EpsilonNFA, word: str) -> bool:
    """Standard epsilon-closure simulation; unknown symbols simply fail."""
    moves = _moves(nfa)
    current = _epsilon_closure(moves, {nfa.start})
    for char in word:
        current = _step(moves, current, char)
        if not current:
            return False
    return bool(current & nfa.accepting)


def nfa_language_upto(nfa: EpsilonNFA, max_length: int) -> frozenset:
    """Every accepted word of length at most max_length.

    Breadth-first over epsilon-closed state sets; branches whose state set
    goes empty are pruned, so finite body languages enumerate quickly.
    """
    if max_length < 0:
        raise RuleParameterError("max_length must be >= 0")
    moves = _moves(nfa)
    ordered_symbols = sorted(nfa.symbols)
    accepted = set()
    start = _epsilon_closure(moves, {nfa.start})
    frontier = {"": start}
    if start & nfa.accepting:
        accepted.add("")
    for _ in range(max_length):
        next_frontier = {}
        for word, states in frontier.items():
            for symbol in ordered_symbols:
                closed = _step(moves, states, symbol)
                if not closed:
                    continue
                extended = word + symbol
                next_frontier[extended] = closed
                if closed & nfa.accepting:
                    accepted.add(extended)
        if not next_frontier:
            break
        frontier = next_frontier
    return frozenset(accepted)


# ==========================================================================
# Interchange
# ==========================================================================

_EPSILON_TOKEN = "eps"


def automaton_to_text(nfa: EpsilonNFA) -> str:
    """Serialize deterministically: counts, start, accepting, sorted triples."""
    lines = [
        f"states\t{len(nfa.states)}",
        f"start\t{nfa.start}",
        "\t".join(["accept"] + sorted(nfa.accepting)),
    ]
    def triple_key(t):
        source, symbol, target = t
        return (source, "" if symbol is EPSILON else symbol, target)
    for source, symbol, target in sorted(nfa.transitions, key=triple_key):
        token = _EPSILON_TOKEN if symbol is EPSILON else symbol
        lines.append(f"trans\t{source}\t{token}\t{target}")
    return "\n".join(lines) + "\n"


def automaton_from_text(text: str) -> EpsilonNFA:
    declared_count = None
    start = None
    accepting = []
    transitions = set()
    states = set()
    symbols = set()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        tag = fields[0]
        if tag == "states" and len(fields) == 2:
            try:
                declared_count = int(fields[1])
            except ValueError:
                raise MetalogicError(
                    f"line {line_number}: state count is not an integer"
                ) from None
        elif tag == "start" and len(fields) == 2:
            start = fields[1]
            states.add(start)
        elif tag == "accept":
            accepting = [name for name in fields[1:] if name]
            states.update(accepting)
        elif tag == "trans" and len(fields) == 4:
            _, source, token, target = fields
            symbol = EPSILON if token == _EPSILON_TOKEN else token
            if symbol is not EPSILON and len(symbol) != 1:
                raise MetalogicError(
                    f"line {line_number}: symbol must be one character or "
                    f"{_EPSILON_TOKEN!r}, got {token!r}"
                )
            states.update((source, target))
            if symbol is not EPSILON:
                symbols.add(symbol)
            transitions.add((source, symbol, target))
        else:
            raise MetalogicError(
                f"line {line_number}: unrecognized declaration {tag!r}"
            )
    if start is None:
        raise MetalogicError("the automaton text declares no start state")
    if declared_count is not None and declared_count != len(states):
        raise MetalogicError(
            f"declared state count {declared_count} disagrees with the "
            f"{len(states)} states mentioned"
        )
    return EpsilonNFA(
        frozenset(states), frozenset(symbols), frozenset(transitions),
        start, frozenset(accepting),
    )
