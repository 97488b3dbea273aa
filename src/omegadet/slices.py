"""Ranked slices: ordered tuples of disjoint state sets carrying age ranks.

A ranked slice is the macrostate datum of the determinization pipeline: a
tuple of non-empty, pairwise disjoint state sets whose ranks form a bijection
onto ``1..n`` with the rightmost set always holding rank 1.  A pre-slice is
the relaxed intermediate form in which empty sets and rank gaps may occur.

Tuple positions are 1-based throughout, matching the rank-tree view: the
parent of a position is the closest position to its right with a smaller
rank, and the left subtree boundary is the closest position to its left with
a smaller rank (0 when none exists).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .nba import _decimal


class InvalidSliceError(ValueError):
    """A slice or pre-slice invariant is violated."""


class SliceFormatError(ValueError):
    """Canonical slice text cannot be parsed."""


class StateNotPresentError(LookupError):
    """The queried state is not contained in any set of the slice."""


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


SliceLike = Union[RankedSlice, PreSlice]


def index_of(slice_: SliceLike, q: int) -> int:
    """1-based tuple position of the set containing ``q``."""
    for pos, block in enumerate(slice_.sets, start=1):
        if q in block:
            return pos
    raise StateNotPresentError(f"state {q} not present in slice")


def rank_of(slice_: SliceLike, q: int) -> int:
    """Rank of the set containing ``q``."""
    return slice_.ranks[index_of(slice_, q) - 1]


def parent(slice_: SliceLike, i: int) -> int | None:
    """Closest position right of ``i`` with a smaller rank; None for the root.

    Defined on ranked slices and on pre-slices with pairwise distinct ranks.
    This is the direct definitional scan; see ``safra.unflatten`` for the
    linear-time computation of the whole relation.
    """
    _check_position(slice_, i)
    ranks = slice_.ranks
    for k in range(i + 1, len(ranks) + 1):
        if ranks[k - 1] < ranks[i - 1]:
            return k
    return None


def left_boundary(slice_: SliceLike, i: int) -> int:
    """Closest position left of ``i`` with a smaller rank, or 0 when none exists."""
    _check_position(slice_, i)
    ranks = slice_.ranks
    for k in range(i - 1, 0, -1):
        if ranks[k - 1] < ranks[i - 1]:
            return k
    return 0


def subtree_set(slice_: SliceLike, i: int) -> frozenset[int]:
    """Union of the sets at positions ``left_boundary(i)+1 .. i`` (the subtree of ``i``)."""
    lo = left_boundary(slice_, i)
    out: set[int] = set()
    for block in slice_.sets[lo:i]:
        out |= block
    return frozenset(out)


def rank_profile(slice_: SliceLike, q: int) -> tuple[int, ...]:
    """Ascending rank sequence from the root down to the set hosting ``q``."""
    pos: int | None = index_of(slice_, q)
    chain: list[int] = []
    while pos is not None:
        chain.append(slice_.ranks[pos - 1])
        pos = parent(slice_, pos)
    return tuple(reversed(chain))


def compare_profiles(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Three-way profile order: -1 if ``a`` is better, 0 if equal, +1 if ``b`` is better.

    Lexicographic on the common-length prefixes; on equal prefixes the longer
    profile is the better one, so a strict prefix compares as worse.
    """
    m = min(len(a), len(b))
    if a[:m] != b[:m]:
        return -1 if a[:m] < b[:m] else 1
    if len(a) == len(b):
        return 0
    return -1 if len(a) > len(b) else 1


def k_cut(profile: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Prefix holding all ranks below ``k`` plus at most one first rank >= ``k``."""
    for i, r in enumerate(profile, start=1):
        if r >= k:
            return profile[:i]
    return profile


def compare_profiles_cut(a: tuple[int, ...], b: tuple[int, ...], k: int) -> int:
    """Three-way order of the ``k``-cuts; strict-prefix cuts compare as worse."""
    return compare_profiles(k_cut(a, k), k_cut(b, k))


def _check_position(slice_: SliceLike, i: int) -> None:
    if not 1 <= i <= len(slice_.sets):
        raise InvalidSliceError(f"position {i} out of range 1..{len(slice_.sets)}")


def format_set(block: Iterable[int]) -> str:
    """Canonical set text ``{ids}`` with ascending ids."""
    return "{" + ",".join(map(str, sorted(block))) + "}"


def format_entries(set_texts: Iterable[str], ranks: Iterable[int]) -> str:
    """Canonical slice text from already formatted sets (see :func:`format_set`) and their ranks."""
    return "(" + ",".join([f"{text}:{rank}" for text, rank in zip(set_texts, ranks)]) + ")"


def format_slice(slice_: SliceLike) -> str:
    """Canonical text form ``({ids}:rank,...)`` with ascending ids inside each set."""
    return format_entries(map(format_set, slice_.sets), slice_.ranks)


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
