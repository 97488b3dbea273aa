"""Ground-truth lasso membership, lasso enumeration, and random automata.

The membership decision works on the product of automaton states with cycle
positions: a lasso is accepted exactly when some product node holding an
accepting state lies on a cycle reachable after the stem.  It reads the
automaton's successor masks, with state sets as bitmasks, and visits
successors in ascending order.  One breadth-first search, :func:`_search`,
finds the nodes reachable after the stem and then, for each accepting
candidate in sorted order, a shortest cycle back to it; :func:`_anchor`
runs both.  :func:`nba_accepts_lasso` walks the stem one mask per symbol
through :meth:`BuchiAutomaton.post`, runs :func:`_anchor` and rebuilds the
witness in time linear in the stem and the product path: parent pointers
and the stem run are followed by appending, then reversed once.
``omegadet check`` already holds the post-stem set as a mask, so it
decides from that mask with :func:`_accepts_after`, which builds no
witness, and runs :func:`nba_accepts_lasso` only for the disagreement it
reports.  The tests compare both with an independently coded decision
procedure based on boundary-relation powers.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import product

from .nba import BuchiAutomaton, Lasso, check_symbols, mask_states, to_mask


@dataclass(frozen=True)
class LassoVerdict:
    """Membership decision plus, when accepting, an ultimately periodic witness run.

    ``prefix_states`` covers run times ``0..T`` and ``loop_states`` times
    ``T..T+L`` with ``loop_states[0] == prefix_states[-1]`` and
    ``loop_states[-1] == loop_states[0]``; the loop visits an accepting state
    and its length is a multiple of the cycle length.
    """

    accepted: bool
    prefix_states: tuple[int, ...] | None = None
    loop_states: tuple[int, ...] | None = None


def nba_accepts_lasso(aut: BuchiAutomaton, lasso: Lasso) -> LassoVerdict:
    """Decide membership of ``stem . cycle^ω`` and recover a witness run if accepted.

    Raises :class:`UnknownSymbolError` if a lasso symbol is not in the
    alphabet, also when the stem leaves no state to read it.
    """
    check_symbols(aut, lasso.stem + lasso.cycle)
    layers = [to_mask(aut.initial)]
    for symbol in lasso.stem:
        layers.append(aut.post(symbol)[layers[-1]])
    found = _anchor(aut, layers[-1], lasso.cycle)
    if found is None:
        return LassoVerdict(accepted=False)
    parents, anchor, loop_parents, last = found

    # Product path from a post-stem node to the anchor, then a stem run into
    # its first state, picked backwards through the stem layers.
    path = _path(parents, anchor)
    run = [path[0][0]]
    tables = aut._tables  # type: ignore[attr-defined]
    for i in range(len(lasso.stem), 0, -1):
        table = tables[lasso.stem[i - 1]]
        run.append(next(q for q in mask_states(layers[i - 1]) if table.get(q, 0) >> run[-1] & 1))
    run.reverse()
    prefix = tuple(run) + tuple(q for q, _ in path[1:])
    loop = tuple(q for q, _ in _path(loop_parents, last)) + (anchor[0],)
    return LassoVerdict(accepted=True, prefix_states=prefix, loop_states=loop)


def _accepts_after(aut: BuchiAutomaton, layer: int, cycle: tuple[str, ...]) -> bool:
    """Whether ``cycle^ω`` is accepted from some state of the mask ``layer``.

    This is :func:`nba_accepts_lasso`'s decision for a stem that leads to
    ``layer``, with no witness built; the cycle's symbols are not checked.
    """
    return _anchor(aut, layer, cycle) is not None


def _anchor(aut: BuchiAutomaton, layer: int, cycle: tuple[str, ...]):
    """The first accepting product node, in sorted order, that lies on a cycle.

    Searches from the nodes ``(q, 0)`` for ``q`` in ``layer`` and returns the
    search's parents, that anchor, and the parents and last node of the
    cycle search back to it; None when no accepting node lies on a cycle.
    """
    tables = aut._tables  # type: ignore[attr-defined]
    parents, _ = _search(tables, cycle, [(q, 0) for q in mask_states(layer)])
    for anchor in sorted(node for node in parents if node[0] in aut.accepting):
        loop_parents, last = _search(tables, cycle, [anchor], goal=anchor)
        if last is not None:
            return parents, anchor, loop_parents, last
    return None


def _search(
    tables: dict[str, dict[int, int]],
    cycle: tuple[str, ...],
    starts: list[tuple[int, int]],
    goal: tuple[int, int] | None = None,
) -> tuple[dict[tuple[int, int], tuple[int, int] | None], tuple[int, int] | None]:
    """Breadth-first search over (state, cycle position) from ``starts``.

    Returns the parent of every node reached (None for a start) and the first
    node found with an edge into ``goal``, or None when there is none; the
    search stops at that node.  Successors are visited in ascending order.
    """
    parents: dict[tuple[int, int], tuple[int, int] | None] = dict.fromkeys(starts)
    frontier = deque(starts)
    while frontier:
        node = frontier.popleft()
        q, j = node
        position = (j + 1) % len(cycle)
        for target in mask_states(tables[cycle[j]].get(q, 0)):
            succ = (target, position)
            if succ == goal:
                return parents, node
            if succ not in parents:
                parents[succ] = node
                frontier.append(succ)
    return parents, None


def _path(parents: dict[tuple[int, int], tuple[int, int] | None], node: tuple[int, int]) -> list[tuple[int, int]]:
    """The search path from a start node to ``node``, rebuilt through ``parents``."""
    path = [node]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])  # type: ignore[arg-type]
    path.reverse()
    return path


def enumerate_lassos(alphabet: tuple[str, ...], max_stem: int, max_cycle: int):
    """All lassos with bounded stem and cycle lengths, in length-lexicographic order.

    Stems of length ``0..max_stem`` in length-then-alphabet order, and for
    each stem all cycles of length ``1..max_cycle`` in the same order.
    """
    for stem, cycle in _lasso_words(alphabet, max_stem, max_cycle):
        yield Lasso(stem=stem, cycle=cycle)


def _lasso_words(alphabet: tuple[str, ...], max_stem: int, max_cycle: int):
    """The ``(stem, cycle)`` symbol tuples of :func:`enumerate_lassos`, in its order.

    Every stem comes after its prefixes, so a caller can extend a stem's
    state by one symbol from its prefix's.
    """
    if max_cycle < 1:
        raise ValueError("max_cycle must be at least 1")
    cycles = [
        cycle
        for length in range(1, max_cycle + 1)
        for cycle in product(alphabet, repeat=length)
    ]
    # Stems are generated one at a time: there are exponentially many in
    # max_stem, and each is used only with the cycles that follow it.
    for length in range(max_stem + 1):
        for stem in product(alphabet, repeat=length):
            for cycle in cycles:
                yield stem, cycle


def sample_lassos(alphabet: tuple[str, ...], count: int, max_stem: int, max_cycle: int, seed: int):
    """Reproducible random lassos within the given bounds."""
    if max_cycle < 1:
        raise ValueError("max_cycle must be at least 1")
    rng = random.Random(seed)
    for _ in range(count):
        stem_len = rng.randint(0, max_stem)
        cycle_len = rng.randint(1, max_cycle)
        yield Lasso(
            stem=tuple(rng.choice(alphabet) for _ in range(stem_len)),
            cycle=tuple(rng.choice(alphabet) for _ in range(cycle_len)),
        )


def random_nba(
    num_states: int,
    alphabet: tuple[str, ...],
    density: float,
    accepting_fraction: float,
    seed: int,
) -> BuchiAutomaton:
    """Seed-reproducible random automaton; state 0 is the single initial state.

    Every potential transition is included with probability ``density`` and
    every state is accepting with probability ``accepting_fraction``.
    """
    rng = random.Random(seed)
    transitions: set[tuple[int, str, int]] = set()
    for src in range(num_states):
        for symbol in alphabet:
            for dst in range(num_states):
                if rng.random() < density:
                    transitions.add((src, symbol, dst))
    accepting = frozenset(q for q in range(num_states) if rng.random() < accepting_fraction)
    return BuchiAutomaton(
        num_states=num_states,
        alphabet=alphabet,
        transitions=frozenset(transitions),
        initial=frozenset({0}),
        accepting=accepting,
    )
