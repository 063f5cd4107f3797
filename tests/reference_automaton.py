"""The explicit epsilon-NFA that body acceptors were once built as, kept as
the reference the package's ``BodyAcceptor`` is checked against.

``EpsilonNFA`` stores its transition relation once, as one row per symbol:
``row[source] -> targets``, with the epsilon edges in the row of
``EPSILON``. Simulation reads the rows directly. ``_chain_nfa`` and
``_trie_nfa`` build the two shapes from a word list and name their states
as ``BodyAcceptor`` does; ``automaton_to_text`` is the interchange dump.
"""

from itertools import chain
from os.path import commonprefix

from metalogic import MetalogicError
from metalogic.errors import check_count

EPSILON = None


class EpsilonNFA:
    """A nondeterministic finite automaton with epsilon transitions.

    It is built from (source, symbol, target) triples, where the symbol is
    a single character or None for epsilon, and keeps them as per-symbol
    rows ``_rows[symbol][source] -> targets`` (a tuple of distinct states).
    Each triple is checked as it is stored, so the first faulty one is
    reported. Two automata are equal when their states, symbols, start,
    accepting states and transition sets are equal. Instances are immutable.
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


def nfa_accepts(nfa: EpsilonNFA, word: str) -> bool:
    """Whether the automaton accepts ``word``, by the standard
    epsilon-closure simulation; unknown symbols simply fail."""
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


def nfa_language_upto(nfa: EpsilonNFA, max_length: int) -> frozenset:
    """Every accepted word of length at most max_length, explored
    breadth-first over epsilon-closed state sets."""
    check_count(max_length, 0, "max_length")
    # a branch whose set goes empty is pruned
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
    for source, symbol, target in sorted(nfa._triples(), key=triple_key):
        token = _EPSILON_TOKEN if symbol is EPSILON else symbol
        lines.append(f"trans\t{source}\t{token}\t{target}")
    return "\n".join(lines) + "\n"
