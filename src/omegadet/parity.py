"""Transition-based deterministic parity automata and lasso evaluation.

Acceptance is min-even over edge priorities: a run is accepting when the
smallest priority occurring infinitely often along its edges is even.
A :class:`ParityAutomaton` keeps its edges as one row of targets and one of
priorities per symbol, indexed by state, and ``edges`` is a read-only view of
them.  :func:`determinize` fills lists, and :func:`parse_dpa` and the
constructor fill dicts keyed by state; the two functions hand their rows over
without a copy.
:func:`_walk_cycle` is the one loop that iterates a lasso's cycle over a DPA;
:func:`run_lasso`, ``omegadet trace`` and ``omegadet check`` all run it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from collections.abc import Callable, Container, Hashable, Iterable, Iterator, Mapping
from typing import Any

from .nba import Lasso, UnknownSymbolError, _check_alphabet, _check_tokens, _header_lines, _LineError, _read_header
from .nba import _read_int, _read_lines, _take


class DpaFormatError(_LineError):
    """Malformed .dpa text.  Carries the offending 1-based line number."""


class MissingEdgeError(LookupError):
    """A reachable (state, symbol) pair has no outgoing edge."""


# A row of targets or priorities, indexed by state, and the rows of each symbol.
Row = list[int] | dict[int, int]
Rows = dict[str, tuple[Row, Row]]


class _Edges(Mapping):
    """Read-only view of per-symbol edge rows as a mapping ``(state, symbol) -> (target, priority)``.

    ``rows`` maps each symbol, in alphabet order, to a row of targets and a row
    of priorities indexed by state.  The rows are lists in an automaton
    :func:`determinize` builds, where every state has an edge on every symbol,
    and dicts keyed by state in one that :func:`parse_dpa` or the constructor
    fills, so an automaton that declares many states and has few edges stays
    small.  Iteration is by state and then alphabet position, the order of
    :func:`serialize_dpa`.
    """

    __slots__ = ("_num_states", "_rows")

    def __init__(self, num_states: int, rows: Rows):
        self._num_states = num_states
        self._rows = rows

    def _walk(self) -> tuple[Iterable[int], list[tuple[str, Row, Row]]]:
        """The states with an edge, ascending, and each symbol's rows, in alphabet order.

        ``(src, symbol)`` is an edge when the symbol's rows are lists or hold ``src``.
        """
        columns = [(symbol, targets, priorities) for symbol, (targets, priorities) in self._rows.items()]
        if any(type(targets) is list for _, targets, _ in columns):
            # A list row has one edge per state, so walking the states costs no more than the edges.
            return range(self._num_states), columns
        return sorted(set().union(*[targets for _, targets, _ in columns])), columns

    def __getitem__(self, key: tuple[int, str]) -> tuple[int, int]:
        try:
            state, symbol = key
            targets, priorities = self._rows[symbol]
            # A list row must not read a negative state from its end.
            if state >= 0:
                return targets[state], priorities[state]
        except (LookupError, TypeError, ValueError):
            pass
        raise KeyError(key)

    def __iter__(self) -> Iterator[tuple[int, str]]:
        states, columns = self._walk()
        for src in states:
            for symbol, targets, _ in columns:
                if type(targets) is list or src in targets:
                    yield src, symbol

    def __len__(self) -> int:
        return sum(len(targets) for targets, _ in self._rows.values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


@dataclass(frozen=True)
class ParityAutomaton:
    """Deterministic automaton with per-edge priorities and one initial state.

    ``edges`` maps ``(state, symbol)`` to ``(target, priority)``.  ``labels``
    optionally annotate states with their canonical slice string.  The edges
    are stored as one dict row of targets and one of priorities per symbol,
    keyed by state, behind a read-only ``Mapping`` view (see :class:`_Edges`);
    the labels as a read-only copy of the mapping passed in, and the alphabet
    as a tuple.  Alphabet tokens are pairwise distinct, and they and the
    labels are non-empty UTF-8 and hold no whitespace, ``#`` or ``|``.  State
    ids, the state count and priorities must be ``int`` (``bool`` is not
    one).  So :func:`parse_dpa` reads the serialized text back.
    """

    num_states: int
    alphabet: tuple[str, ...]
    initial: int
    # The hash skips the mappings, which cannot be hashed; equality compares them.
    edges: Mapping[tuple[int, str], tuple[int, int]] = field(hash=False)
    labels: Mapping[int, str] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))
        n = self.num_states
        if type(n) is not int:
            raise DpaFormatError(f"num_states {n!r} is not an int")
        if type(self.initial) is not int or not 0 <= self.initial < n:
            raise DpaFormatError(f"initial state {self.initial!r} out of range")
        _check_alphabet(self.alphabet, DpaFormatError)
        _check_tokens(self.labels.values(), "label", DpaFormatError)
        rows: Rows = {symbol: ({}, {}) for symbol in self.alphabet}
        for (src, sym), (dst, priority) in self.edges.items():
            if not (type(src) is int and type(dst) is int and 0 <= src < n and 0 <= dst < n):
                raise DpaFormatError(f"edge ({src!r},{sym}) -> {dst!r} references an invalid state")
            row = rows.get(sym)
            if row is None:
                raise DpaFormatError(f"edge ({src},{sym}) uses an unknown symbol")
            if type(priority) is not int or priority < 1:
                raise DpaFormatError(f"priority {priority!r} on ({src},{sym}) is not an int >= 1")
            row[0][src] = dst
            row[1][src] = priority
        for state in self.labels:
            if type(state) is not int or not 0 <= state < n:
                raise DpaFormatError(f"label for invalid state {state!r}")
        object.__setattr__(self, "edges", _Edges(n, rows))

    def follow(self, state: int, symbol: str) -> tuple[int, int]:
        """Target state and priority of the unique outgoing edge."""
        # The lookup of ``edges[state, symbol]``, inlined on this hot path.
        try:
            targets, priorities = self.edges._rows[symbol]  # type: ignore[attr-defined]
            if state >= 0:
                return targets[state], priorities[state]
        except (LookupError, TypeError):
            pass
        # No edge uses a foreign symbol, so only a miss reads the alphabet.
        if symbol not in self.alphabet:
            raise UnknownSymbolError(f"symbol {symbol!r} not in alphabet")
        raise MissingEdgeError(f"no edge from state {state} on {symbol!r}")


def _built(
    num_states: int, alphabet: tuple[str, ...], initial: int, rows: Rows, labels: dict[int, str]
) -> ParityAutomaton:
    """A :class:`ParityAutomaton` over ``rows`` and ``labels`` that hold every invariant by construction.

    Keeps both without a copy and checks nothing, for :func:`parse_dpa` and
    :func:`determinize`, which have checked or built every value.  A row
    that is a list must hold every state.
    """
    dpa = object.__new__(ParityAutomaton)
    object.__setattr__(dpa, "num_states", num_states)
    object.__setattr__(dpa, "alphabet", alphabet)
    object.__setattr__(dpa, "initial", initial)
    object.__setattr__(dpa, "edges", _Edges(num_states, rows))
    object.__setattr__(dpa, "labels", MappingProxyType(labels))
    return dpa


@dataclass(frozen=True)
class LassoRun:
    """Verdict of a lasso evaluation plus the recurring evidence.

    ``loop_states`` are the states observed at cycle boundaries of the
    repeating segment; ``min_priority`` is the smallest edge priority seen
    along that segment, and decides acceptance by parity.
    """

    accepted: bool
    loop_states: tuple[int, ...]
    min_priority: int


def run_lasso(dpa: ParityAutomaton, lasso: Lasso) -> LassoRun:
    """Evaluate an ultimately periodic word.

    Follows the stem, then iterates the cycle until the state at a cycle
    boundary repeats; the minimum priority over the repeating segment decides
    acceptance.  Terminates within ``num_states + 1`` cycle iterations.
    """
    return _run_lasso(dpa.initial, dpa.follow, lasso)


def _run_lasso(state: Hashable, follow: Callable[[Any, str], tuple[Any, int]], lasso: Lasso) -> LassoRun:
    """The loop of :func:`run_lasso` from ``state`` through any ``follow(state, symbol) -> (state, priority)``."""
    for symbol in lasso.stem:
        state, _ = follow(state, symbol)
    trail, minimums, state = _walk_cycle(state, follow, lasso.cycle, {})
    start = trail[state]
    min_priority = min(minimums[start:])
    return LassoRun(min_priority % 2 == 0, tuple(trail)[start:], min_priority)


def _walk_cycle(
    state: Hashable, follow: Callable[[Any, str], tuple[Any, int]], cycle: tuple[str, ...], known: Container
) -> tuple[dict, list[int], Any]:
    """Iterate ``cycle`` from ``state`` until a boundary state is in ``known`` or repeats.

    Returns the boundary states passed, each mapped to the index of the
    iteration it starts, the minimum priority of each iteration, and the
    boundary state the walk stopped at.  When that state is not in ``known``,
    it is in the trail, and the iterations from its index on repeat forever.
    """
    trail: dict = {}
    minimums: list[int] = []
    while state not in known and state not in trail:
        trail[state] = len(minimums)
        lowest = None
        for symbol in cycle:
            state, priority = follow(state, symbol)
            if lowest is None or priority < lowest:
                lowest = priority
        minimums.append(lowest)
    return trail, minimums, state


def serialize_dpa(dpa: ParityAutomaton) -> bytes:
    """Canonical .dpa text: optional label lines, then edges by source state and then alphabet position."""
    lines = [*_header_lines("dpa", dpa.num_states, dpa.alphabet), f"init {dpa.initial}"]
    lines += [f"label {state} {dpa.labels[state]}" for state in sorted(dpa.labels)]
    states, columns = dpa.edges._walk()  # type: ignore[attr-defined]
    lines += [
        f"{src} {sym} {targets[src]} {priorities[src]}"
        for src in states
        for sym, targets, priorities in columns
        if type(targets) is list or src in targets
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_dpa(data: bytes | str) -> ParityAutomaton:
    """Parse the .dpa text format (see :func:`serialize_dpa` for the layout)."""
    items = _read_lines(data, "dpa", DpaFormatError)
    num_states, lineno, alphabet = _read_header(items, DpaFormatError)
    if num_states < 1:
        raise DpaFormatError("a parity automaton needs at least one state", lineno)
    lineno, args = _take(items, "init", 1, DpaFormatError)
    if len(args) != 1:
        raise DpaFormatError("'init' takes one state", lineno)
    initial = _read_int(args[0], lineno, DpaFormatError, num_states)

    labels: dict[int, str] = {}
    rows: Rows = {symbol: ({}, {}) for symbol in alphabet}
    # One int object per state id, shared by every row that holds it.
    interned: dict[int, int] = {}
    # A ``label`` line is a label until the first edge line, and an edge line after it.
    edges_begun = False
    for lineno, tokens in items:
        if not edges_begun and tokens[0] == "label":
            if len(tokens) != 3:
                raise DpaFormatError("label line must be 'label <id> <slice>'", lineno)
            state = _read_int(tokens[1], lineno, DpaFormatError, num_states)
            if state in labels:
                raise DpaFormatError(f"duplicate label for state {state}", lineno)
            _check_tokens((tokens[2],), "label", DpaFormatError, lineno)
            labels[state] = tokens[2]
            continue
        edges_begun = True
        if len(tokens) != 4:
            raise DpaFormatError("edge line must be '<src> <symbol> <dst> <priority>'", lineno)
        src = _read_int(tokens[0], lineno, DpaFormatError, num_states)
        src = interned.setdefault(src, src)
        row = rows.get(tokens[1])
        if row is None:
            raise DpaFormatError(f"unknown symbol {tokens[1]!r}", lineno)
        dst = _read_int(tokens[2], lineno, DpaFormatError, num_states)
        priority = _read_int(tokens[3], lineno, DpaFormatError)
        if priority < 1:
            raise DpaFormatError(f"priority must be >= 1, found {priority}", lineno)
        targets, priorities = row
        if src in targets:
            raise DpaFormatError(f"duplicate edge from {src} on {tokens[1]!r}", lineno)
        targets[src] = interned.setdefault(dst, dst)
        priorities[src] = priority
    # Every value was checked above, as the constructor would check it.
    return _built(num_states, alphabet, initial, rows, labels)
