"""Ranked slices: ordered tuples of disjoint state sets carrying age ranks.

A ranked slice is the macrostate datum of the determinization pipeline: a
tuple of non-empty, pairwise disjoint state sets whose ranks form a bijection
onto ``1..n`` with the rightmost set always holding rank 1.  A pre-slice is
the relaxed intermediate form in which empty sets and rank gaps may occur.
:func:`format_slice` writes the canonical text, which :func:`parse_slice`
and :func:`parse_preslice` read back strictly.  The rank-tree relation of a
slice is computed by :func:`omegadet.safra.unflatten`; the definitional
scans that the tests check it against are in ``tests/reference.py``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .nba import InvalidSliceError, SliceFormatError, _decimal


@dataclass(frozen=True)
class _Slice:
    """The fields and queries that ranked slices and pre-slices share.

    Construction keeps the sets as a tuple of frozensets and the ranks as a
    tuple, whatever containers are passed in, so a slice is a hashable value.
    State ids must be non-negative ``int`` and ranks ``int`` (``bool`` is
    neither), so :func:`format_slice` writes text that the parsers read back.
    """

    sets: tuple[frozenset[int], ...]
    ranks: tuple[int, ...]

    def _check_entries(self) -> None:
        """Copy the containers; check the lengths, disjointness and the types of ids and ranks."""
        object.__setattr__(self, "sets", tuple([frozenset(block) for block in self.sets]))
        object.__setattr__(self, "ranks", tuple(self.ranks))
        if len(self.ranks) != len(self.sets):
            raise InvalidSliceError("sets and ranks must have equal length")
        seen: set[int] = set()
        for block in self.sets:
            if block & seen:
                raise InvalidSliceError(f"sets are not pairwise disjoint: {sorted(block & seen)} repeated")
            seen |= block
        for q in seen:
            if type(q) is not int or q < 0:
                raise InvalidSliceError(f"state id {q!r} is not a non-negative int")
        for rank in self.ranks:
            if type(rank) is not int:
                raise InvalidSliceError(f"rank {rank!r} is not an int")

    def __len__(self) -> int:
        return len(self.sets)

    @property
    def state_set(self) -> frozenset[int]:
        """Union of all member sets."""
        return frozenset().union(*self.sets)


@dataclass(frozen=True)
class RankedSlice(_Slice):
    """Disjoint non-empty sets with a bijective ranking whose last position has rank 1.

    The empty slice (zero sets) is permitted as the rejecting sink macrostate.
    """

    def __post_init__(self):
        self._check_entries()
        n = len(self.sets)
        if any(not block for block in self.sets):
            raise InvalidSliceError("ranked slice sets must be non-empty")
        if sorted(self.ranks) != list(range(1, n + 1)):
            raise InvalidSliceError(f"ranks {self.ranks} are not a bijection onto 1..{n}")
        if n and self.ranks[-1] != 1:
            raise InvalidSliceError("the rightmost set must carry rank 1")


@dataclass(frozen=True)
class PreSlice(_Slice):
    """Intermediate slice: empty sets allowed, ranks positive but otherwise free."""

    def __post_init__(self):
        self._check_entries()
        if any(r < 1 for r in self.ranks):
            raise InvalidSliceError("ranks must be positive")


def format_set(block: Iterable[int]) -> str:
    """Canonical set text ``{ids}`` with ascending ids."""
    return "{" + ",".join(map(str, sorted(block))) + "}"


def format_slice(slice_: _Slice) -> str:
    """Canonical text form ``({ids}:rank,...)`` with ascending ids inside each set."""
    return "(" + ",".join([f"{format_set(block)}:{rank}" for block, rank in zip(slice_.sets, slice_.ranks)]) + ")"


def parse_slice(text: str) -> RankedSlice:
    """Parse the canonical slice string; strict, no whitespace tolerated."""
    sets, ranks = _parse_entries(text)
    return RankedSlice(sets=sets, ranks=ranks)


def parse_preslice(text: str) -> PreSlice:
    """Parse the canonical form into a pre-slice (empty sets permitted)."""
    sets, ranks = _parse_entries(text)
    return PreSlice(sets=sets, ranks=ranks)


def _parse_entries(text: str) -> tuple[tuple[frozenset[int], ...], tuple[int, ...]]:
    if not text.startswith("(") or not text.endswith(")"):
        raise SliceFormatError("slice text must be wrapped in parentheses")
    body = text[1:-1]
    if body == "":
        return (), ()
    sets: list[frozenset[int]] = []
    ranks: list[int] = []
    pos = 0
    while True:
        block, rank, pos = _parse_entry(body, pos, ",", SliceFormatError, "set")
        sets.append(block)
        ranks.append(rank)
        if pos == len(body):
            return tuple(sets), tuple(ranks)
        pos += 1


def _parse_entry(
    text: str, pos: int, stops: str, error: type[ValueError], noun: str
) -> tuple[frozenset[int], int, int]:
    """Parse ``{ids}:rank`` at ``pos``; the rank runs up to a character of ``stops`` or the end.

    Ids are distinct non-negative decimals and the rank is a decimal (see
    ``nba._decimal``).  Returns the set, the rank and the offset after the
    rank.  Faults raise ``error``, calling the set a ``noun``.
    """
    if pos >= len(text) or text[pos] != "{":
        raise error(f"expected '{{' at offset {pos + 1}")
    end = text.find("}", pos)
    if end < 0:
        raise error(f"unterminated {noun}")
    ids_text = text[pos + 1 : end]
    try:
        ids = [_decimal(t) for t in ids_text.split(",")] if ids_text else []
        if min(ids, default=0) < 0:
            raise ValueError("negative state id")
    except ValueError:
        raise error(f"bad state id in {ids_text!r}") from None
    if len(set(ids)) != len(ids):
        raise error(f"duplicate state id in {ids_text!r}")
    pos = end + 1
    if pos >= len(text) or text[pos] != ":":
        raise error(f"expected ':' at offset {pos + 1}")
    pos += 1
    stop = pos
    while stop < len(text) and text[stop] not in stops:
        stop += 1
    try:
        rank = _decimal(text[pos:stop])
    except ValueError:
        raise error(f"bad rank {text[pos:stop]!r}") from None
    return frozenset(ids), rank, stop
