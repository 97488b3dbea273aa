"""Nondeterministic Büchi automata: representation, successor sets, text format.

States are dense integer ids ``0 .. num_states-1``; alphabet symbols are
non-empty UTF-8 tokens without whitespace, ``#`` or ``|``, so the text
formats can carry them.  All values are immutable after construction and
every operation is a pure function, so automata are safe to share across
threads.

A state set is an ``int`` bitmask with bit ``q`` standing for state ``q``.
This module owns that encoding: ``to_mask``, ``from_mask`` and ``mask_states``
convert.  An automaton keeps one transition table, the successor mask of each
state per symbol; :meth:`BuchiAutomaton.post` maps set masks to successor masks
through it, and :func:`successors` reads it too.
"""
from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Collection, Iterable


class _LineError(ValueError):
    """Malformed text.  ``.line`` is the offending 1-based line number, or None."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class NbaFormatError(_LineError):
    """Malformed .nba text.  Carries the offending 1-based line number."""


class UnknownSymbolError(ValueError):
    """A symbol outside the alphabet of the automaton in use."""


class InvalidAutomatonError(ValueError):
    """Structural invariant of an automaton is violated."""


class LassoFormatError(ValueError):
    """Malformed lasso text (expected ``stem | cycle`` token syntax)."""


_TOKEN_RULE = "must be non-empty UTF-8, without whitespace, '#' or '|'"
# '#' starts a comment, '|' splits a lasso into stem and cycle, and a lone
# surrogate has no UTF-8 encoding.
_UNCARRIED = re.compile("[#|\ud800-\udfff]")


def _check_tokens(tokens: Collection[str], what: str, error: type[ValueError], *line: int) -> None:
    """Raise ``error(message, *line)`` naming the first of ``tokens`` that text cannot carry.

    The tokens are joined, searched and split once, at C speed: the split
    gives them back unchanged exactly when each is non-empty and whitespace-free.
    """
    try:
        text = " ".join(tokens)
    except TypeError:
        bad = next(token for token in tokens if not isinstance(token, str))
        raise error(f"bad {what} {bad!r}: not a str", *line) from None
    if _UNCARRIED.search(text) or text.split() != list(tokens):
        bad = next(token for token in tokens if _UNCARRIED.search(token) or token.split() != [token])
        raise error(f"bad {what} {bad!r}: {_TOKEN_RULE}", *line)


def _check_alphabet(alphabet: Collection[str], error: type[ValueError], *line: int) -> None:
    """The alphabet rule of automata and their text: tokens the text can carry, pairwise distinct."""
    _check_tokens(alphabet, "symbol token", error, *line)
    if len(set(alphabet)) != len(alphabet):
        raise error("duplicate alphabet token", *line)


@dataclass(frozen=True)
class BuchiAutomaton:
    """NBA as a tuple of state count, ordered alphabet, transitions, initial and accepting sets.

    The alphabet is kept as a tuple and the other collections as frozensets,
    whatever containers are passed in.  State ids and the state count must be
    ``int`` (``bool`` is not one), so :func:`parse_nba` reads the serialized
    text back.  Construction also derives ``accepting_mask``, the accepting set
    as a bitmask, and the transition table.
    """

    num_states: int
    alphabet: tuple[str, ...]
    transitions: frozenset[tuple[int, str, int]]
    initial: frozenset[int]
    accepting: frozenset[int]

    def __post_init__(self):
        # Copies of mutable containers; tuple() and frozenset() return an
        # immutable argument of their own type as it is.
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        for name in ("transitions", "initial", "accepting"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        n = self.num_states
        if type(n) is not int or n < 0:
            raise InvalidAutomatonError(f"num_states {n!r} is not a non-negative int")
        _check_alphabet(self.alphabet, InvalidAutomatonError)
        symbols = set(self.alphabet)
        for src, sym, dst in self.transitions:
            if not (type(src) is int and type(dst) is int and 0 <= src < n and 0 <= dst < n):
                raise InvalidAutomatonError(f"transition ({src!r},{sym},{dst!r}) references an invalid state")
            if sym not in symbols:
                raise InvalidAutomatonError(f"transition ({src},{sym},{dst}) uses an unknown symbol")
        if not self.initial:
            raise InvalidAutomatonError("initial state set must be non-empty")
        for group, name in ((self.initial, "initial"), (self.accepting, "accepting")):
            for q in group:
                if type(q) is not int or not 0 <= q < n:
                    raise InvalidAutomatonError(f"{name} state {q!r} out of range")
        # The one transition table: ``tables[symbol][q]`` is the successor
        # mask of state ``q``.  Keyed by the states that have successors, so
        # memory grows with the transitions and not with num_states.
        tables: dict[str, dict[int, int]] = {sym: {} for sym in self.alphabet}
        for src, sym, dst in self.transitions:
            table = tables[sym]
            table[src] = table.get(src, 0) | 1 << dst
        object.__setattr__(self, "_tables", tables)
        object.__setattr__(self, "accepting_mask", to_mask(self.accepting))

    def _table(self, symbol: str) -> dict[int, int]:
        """Successor mask of each state on ``symbol``; states without successors are absent."""
        try:
            return self._tables[symbol]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownSymbolError(f"symbol {symbol!r} not in alphabet") from None

    def post(self, symbol: str) -> "SuccessorMasks":
        """Fresh memo mapping a state-set mask to its successor mask on ``symbol``."""
        return SuccessorMasks(self._table(symbol))


class SuccessorMasks(dict):
    """Successor mask of every state-set mask looked up, computed once per mask.

    ``_table[q]`` is the successor mask of state ``q``; a state missing from
    ``_table`` has no successors.  The table is the automaton's own, so it
    stays private.  Instances are private to one caller (see
    :meth:`BuchiAutomaton.post`), so the memo is never shared between threads.
    """

    __slots__ = ("_table",)

    def __init__(self, table: dict[int, int]):
        super().__init__()
        self._table = table

    def __missing__(self, mask: int) -> int:
        get = self._table.get
        out = 0
        rest = mask
        while rest:
            low = rest & -rest
            out |= get(low.bit_length() - 1, 0)
            rest ^= low
        self[mask] = out
        return out


def to_mask(states: Iterable[int]) -> int:
    """Bitmask with bit ``q`` set for every state ``q``."""
    mask = 0
    for q in states:
        if q < 0:
            raise ValueError(f"state id {q} is negative")
        mask |= 1 << q
    return mask


def mask_states(mask: int) -> list[int]:
    """The states whose bits are set in ``mask``, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def from_mask(mask: int) -> frozenset[int]:
    """The states whose bits are set in ``mask``."""
    return frozenset(mask_states(mask))


@dataclass(frozen=True)
class Lasso:
    """Ultimately periodic word ``stem . cycle^ω`` given by two finite symbol sequences."""

    stem: tuple[str, ...]
    cycle: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "stem", tuple(self.stem))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if len(self.cycle) < 1:
            raise LassoFormatError("lasso cycle must contain at least one symbol")
        _check_tokens(self.stem + self.cycle, "lasso token", LassoFormatError)

    def symbol_at(self, i: int) -> str:
        """Symbol consumed at time ``i`` of the infinite word."""
        if i < len(self.stem):
            return self.stem[i]
        return self.cycle[(i - len(self.stem)) % len(self.cycle)]


def check_symbols(aut: BuchiAutomaton, symbols: Iterable[str]) -> None:
    """Raise :class:`UnknownSymbolError` for the first of ``symbols`` not in the alphabet."""
    for symbol in symbols:
        if symbol not in aut.alphabet:
            raise UnknownSymbolError(f"symbol {symbol!r} not in alphabet")


def successors(aut: BuchiAutomaton, source_set: frozenset[int] | set[int], symbol: str) -> frozenset[int]:
    """States reachable from any member of ``source_set`` on ``symbol``."""
    table = aut._table(symbol)
    out = 0
    for q in source_set:
        if not 0 <= q < aut.num_states:
            raise InvalidAutomatonError(f"source state {q} out of range")
        out |= table.get(q, 0)
    return from_mask(out)


def _read_lines(data: bytes | str, header: str, error: type[_LineError]) -> deque[tuple[int, list[str]]]:
    """Tokens of each line of .nba/.dpa text after the ``header`` line, with its 1-based number.

    The lines come in a deque, so readers take them from the front in constant
    time.  Bytes must be UTF-8.  ``#`` starts a comment, and lines left blank are
    skipped.  Faults raise ``error(message, line)``.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len((data[: exc.start] + b".").decode("utf-8").splitlines())
            raise error(f"input is not UTF-8: {exc.reason}", line) from None
    items: deque[tuple[int, list[str]]] = deque()
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            items.append((lineno, line.split()))
    if not items or items[0][1] != [header]:
        raise error(f"expected {header!r} header", items[0][0] if items else 1)
    items.popleft()
    return items


def _take(
    items: deque[tuple[int, list[str]]], keyword: str, min_args: int, error: type[_LineError]
) -> tuple[int, list[str]]:
    """Pop the next line, which must be ``keyword`` with at least ``min_args`` arguments: its number and arguments."""
    if not items:
        raise error(f"missing '{keyword}' line")
    lineno, tokens = items.popleft()
    if tokens[0] != keyword:
        raise error(f"expected '{keyword}' line, found {tokens[0]!r}", lineno)
    if len(tokens) - 1 < min_args:
        raise error(f"'{keyword}' needs at least {min_args} argument(s)", lineno)
    return lineno, tokens[1:]


def _read_header(items: deque[tuple[int, list[str]]], error: type[_LineError]) -> tuple[int, int, tuple[str, ...]]:
    """The ``states`` and ``alphabet`` lines of .nba/.dpa text: the count, its line and the alphabet."""
    lineno, args = _take(items, "states", 1, error)
    num_states = _read_int(args[0], lineno, error)
    if num_states < 0 or len(args) != 1:
        raise error("'states' takes one non-negative count", lineno)
    alphabet_line, alphabet = _take(items, "alphabet", 0, error)
    _check_alphabet(alphabet, error, alphabet_line)
    return num_states, lineno, tuple(alphabet)


def _header_lines(header: str, num_states: int, alphabet: tuple[str, ...]) -> list[str]:
    """The first three lines of .nba/.dpa text: the header, ``states`` and ``alphabet``."""
    return [header, f"states {num_states}", " ".join(["alphabet", *alphabet]).rstrip()]


def _decimal(token: str) -> int:
    """``token`` as ASCII decimal digits with an optional leading ``-``; ValueError otherwise."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def _read_int(token: str, line: int, error: type[_LineError], states: int | None = None) -> int:
    """:func:`_decimal` raising ``error(message, line)``; with ``states``, a state id below it."""
    try:
        value = _decimal(token)
    except ValueError:
        raise error(f"expected an integer, found {token!r}", line) from None
    if states is not None and not 0 <= value < states:
        raise error(f"state {value} out of range for {states} states", line)
    return value


def parse_nba(data: bytes | str) -> BuchiAutomaton:
    """Parse the .nba text format.

    Line 1 is the literal ``nba`` header, then ``states <n>``,
    ``alphabet <tok> ...``, ``init <id> ...``, ``accept <id> ...``, then zero
    or more ``<src> <symbol> <dst>`` transition lines.  ``#`` starts a comment
    and blank lines are ignored.  Bytes must be UTF-8 and integers ASCII
    decimal.  A state repeated in ``init`` or ``accept`` and a repeated
    transition line are errors.
    """
    items = _read_lines(data, "nba", NbaFormatError)
    num_states, _, alphabet = _read_header(items, NbaFormatError)
    symbol_set = set(alphabet)

    def take_states(keyword: str, min_args: int) -> frozenset[int]:
        lineno, args = _take(items, keyword, min_args, NbaFormatError)
        states: set[int] = set()
        for token in args:
            q = _read_int(token, lineno, NbaFormatError, num_states)
            if q in states:
                raise NbaFormatError(f"duplicate state {q} in '{keyword}'", lineno)
            states.add(q)
        return frozenset(states)

    initial = take_states("init", 1)
    accepting = take_states("accept", 0)

    transitions: set[tuple[int, str, int]] = set()
    for lineno, tokens in items:
        if len(tokens) != 3:
            raise NbaFormatError("transition line must be '<src> <symbol> <dst>'", lineno)
        src = _read_int(tokens[0], lineno, NbaFormatError, num_states)
        if tokens[1] not in symbol_set:
            raise NbaFormatError(f"unknown symbol {tokens[1]!r}", lineno)
        dst = _read_int(tokens[2], lineno, NbaFormatError, num_states)
        if (src, tokens[1], dst) in transitions:
            raise NbaFormatError(f"duplicate transition {src} {tokens[1]} {dst}", lineno)
        transitions.add((src, tokens[1], dst))

    return BuchiAutomaton(
        num_states=num_states,
        alphabet=alphabet,
        transitions=frozenset(transitions),
        initial=initial,
        accepting=accepting,
    )


def serialize_nba(aut: BuchiAutomaton) -> bytes:
    """Canonical .nba text: transitions sorted by (source, symbol index, target)."""
    index = {sym: i for i, sym in enumerate(aut.alphabet)}
    lines = [
        *_header_lines("nba", aut.num_states, aut.alphabet),
        " ".join(["init", *map(str, sorted(aut.initial))]),
        " ".join(["accept", *map(str, sorted(aut.accepting))]).rstrip(),
    ]
    for src, sym, dst in sorted(aut.transitions, key=lambda t: (t[0], index[t[1]], t[2])):
        lines.append(f"{src} {sym} {dst}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_lasso(text: str) -> Lasso:
    """Parse ``stem | cycle`` lasso syntax, e.g. ``a a | b a`` or ``| a``."""
    if text.count("|") != 1:
        raise LassoFormatError("lasso text must contain exactly one '|'")
    stem_text, cycle_text = text.split("|")
    return Lasso(stem=tuple(stem_text.split()), cycle=tuple(cycle_text.split()))


def format_lasso(lasso: Lasso) -> str:
    """Inverse of :func:`parse_lasso`; empty stems render as ``| ...``."""
    return (" ".join(lasso.stem) + " | " + " ".join(lasso.cycle)).strip()
