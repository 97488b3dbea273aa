"""Transition-based deterministic parity automata and lasso evaluation.

Acceptance is min-even over edge priorities: a run is accepting when the
smallest priority occurring infinitely often along its edges is even.
:func:`_walk_cycle` is the one loop that iterates a lasso's cycle over a DPA;
:func:`run_lasso`, ``omegadet trace`` and ``omegadet check`` all run it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Container, Hashable, Mapping

from .nba import Lasso, UnknownSymbolError, _check_alphabet, _check_tokens, _header_lines, _LineError, _read_header
from .nba import _read_int, _read_lines, _take


class DpaFormatError(_LineError):
    """Malformed .dpa text.  Carries the offending 1-based line number."""


class MissingEdgeError(LookupError):
    """A reachable (state, symbol) pair has no outgoing edge."""


@dataclass(frozen=True)
class ParityAutomaton:
    """Deterministic automaton with per-edge priorities and one initial state.

    ``edges`` maps ``(state, symbol)`` to ``(target, priority)``.  ``labels``
    optionally annotate states with their canonical slice string.  Both are
    stored as read-only copies of the mappings passed in, and the alphabet as
    a tuple.  Alphabet tokens are pairwise distinct, and they and the labels
    are non-empty UTF-8 and hold no whitespace, ``#`` or ``|``.  State ids,
    the state count and priorities must be ``int`` (``bool`` is not one).  So
    :func:`parse_dpa` reads the serialized text back.
    """

    num_states: int
    alphabet: tuple[str, ...]
    initial: int
    # The hash skips the mappings, which cannot be hashed; equality compares them.
    edges: Mapping[tuple[int, str], tuple[int, int]] = field(hash=False)
    labels: Mapping[int, str] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))
        object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))
        n = self.num_states
        if type(n) is not int:
            raise DpaFormatError(f"num_states {n!r} is not an int")
        if type(self.initial) is not int or not 0 <= self.initial < n:
            raise DpaFormatError(f"initial state {self.initial!r} out of range")
        _check_alphabet(self.alphabet, DpaFormatError)
        symbols = set(self.alphabet)
        _check_tokens(self.labels.values(), "label", DpaFormatError)
        for (src, sym), (dst, priority) in self.edges.items():
            if not (type(src) is int and type(dst) is int and 0 <= src < n and 0 <= dst < n):
                raise DpaFormatError(f"edge ({src!r},{sym}) -> {dst!r} references an invalid state")
            if sym not in symbols:
                raise DpaFormatError(f"edge ({src},{sym}) uses an unknown symbol")
            if type(priority) is not int or priority < 1:
                raise DpaFormatError(f"priority {priority!r} on ({src},{sym}) is not an int >= 1")
        for state in self.labels:
            if type(state) is not int or not 0 <= state < n:
                raise DpaFormatError(f"label for invalid state {state!r}")

    def follow(self, state: int, symbol: str) -> tuple[int, int]:
        """Target state and priority of the unique outgoing edge."""
        try:
            return self.edges[(state, symbol)]
        except KeyError:
            # No edge uses a foreign symbol, so only a miss reads the alphabet.
            if symbol not in self.alphabet:
                raise UnknownSymbolError(f"symbol {symbol!r} not in alphabet") from None
            raise MissingEdgeError(f"no edge from state {state} on {symbol!r}") from None


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
    """Canonical .dpa text: optional label lines, then edges sorted by ``src * len(alphabet) + symbol index``."""
    width = len(dpa.alphabet)
    index = {sym: i for i, sym in enumerate(dpa.alphabet)}
    edges = sorted(dpa.edges.items(), key=lambda e: e[0][0] * width + index[e[0][1]])
    lines = [*_header_lines("dpa", dpa.num_states, dpa.alphabet), f"init {dpa.initial}"]
    lines += [f"label {state} {dpa.labels[state]}" for state in sorted(dpa.labels)]
    lines += [f"{src} {sym} {dst} {priority}" for (src, sym), (dst, priority) in edges]
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
    while items and items[0][1][0] == "label":
        lineno, tokens = items.popleft()
        if len(tokens) != 3:
            raise DpaFormatError("label line must be 'label <id> <slice>'", lineno)
        state = _read_int(tokens[1], lineno, DpaFormatError, num_states)
        if state in labels:
            raise DpaFormatError(f"duplicate label for state {state}", lineno)
        _check_tokens((tokens[2],), "label", DpaFormatError, lineno)
        labels[state] = tokens[2]

    symbols = set(alphabet)
    edges: dict[tuple[int, str], tuple[int, int]] = {}
    for lineno, tokens in items:
        if len(tokens) != 4:
            raise DpaFormatError("edge line must be '<src> <symbol> <dst> <priority>'", lineno)
        src = _read_int(tokens[0], lineno, DpaFormatError, num_states)
        if tokens[1] not in symbols:
            raise DpaFormatError(f"unknown symbol {tokens[1]!r}", lineno)
        dst = _read_int(tokens[2], lineno, DpaFormatError, num_states)
        priority = _read_int(tokens[3], lineno, DpaFormatError)
        if priority < 1:
            raise DpaFormatError(f"priority must be >= 1, found {priority}", lineno)
        if (src, tokens[1]) in edges:
            raise DpaFormatError(f"duplicate edge from {src} on {tokens[1]!r}", lineno)
        edges[(src, tokens[1])] = (dst, priority)

    return ParityAutomaton(
        num_states=num_states,
        alphabet=alphabet,
        initial=initial,
        edges=edges,
        labels=labels,
    )

