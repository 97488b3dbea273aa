"""Ground-truth lasso membership, lasso enumeration, and random automata.

The membership decision works on the product of automaton states with cycle
positions: a lasso is accepted exactly when some product node holding an
accepting state lies on a cycle reachable after the stem.  It reads the
automaton's successor masks, with state sets as bitmasks, and visits
successors in ascending order.  The product's components come from one
iterative Tarjan pass (:mod:`omegadet.scc`), so every decision is linear in
the product reachable from its roots.

:func:`nba_accepts_lasso` walks the stem one mask per symbol through
:meth:`BuchiAutomaton.post` and runs :func:`_anchor`: one breadth-first
search, :func:`_search`, for the nodes reachable after the stem, one SCC
pass over them, and one more search for a shortest cycle through the least
accepting node of a cyclic component.  The witness is rebuilt in time
linear in the stem and the product path: parent pointers and the stem run
are followed by appending, then reversed once.

``omegadet check`` decides many lassos per cycle and builds no witness, so
it keeps one :class:`_CycleDecision` per cycle, which marks the product
nodes that start an accepting run and extends its pass as new post-stem
state sets are asked about; :func:`_accepts_after` is its one-shot form.
Only the disagreement ``check`` reports runs :func:`nba_accepts_lasso`.
The tests compare both with an independently coded decision procedure
based on boundary-relation powers.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Callable

from .nba import BuchiAutomaton, Lasso, check_symbols, mask_states, to_mask
from .scc import components

# The successor function of a product of automaton states with cycle positions.
_Successors = Callable[[tuple[int, int]], list[tuple[int, int]]]


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
    return _CycleDecision(aut, cycle).accepts(layer)


class _CycleDecision:
    """From which states ``cycle^ω`` is accepted, decided for the roots asked about so far.

    A product node ``(q, j)`` is good when some run on the cycle's word from
    position ``j`` in state ``q`` is accepting: its component is cyclic and
    holds an accepting state, or it has an edge into a good node.  Components
    are emitted sinks first, so every edge out of a component leads to a node
    already decided.  ``good[j]`` is the mask of the states ``q`` with
    ``(q, j)`` good among the nodes visited, and only nodes reachable from the
    roots ``(q, 0)`` of the layers passed to :meth:`accepts` are visited.
    """

    def __init__(self, aut: BuchiAutomaton, cycle: tuple[str, ...]):
        tables = aut._tables  # type: ignore[attr-defined]
        self._rows = [tables[symbol] for symbol in cycle]
        self._successors = _product(self._rows)
        self._accepting = aut.accepting_mask  # type: ignore[attr-defined]
        self.good = [0] * len(cycle)
        self._index: dict[tuple[int, int], int] = {}
        self._roots = 0

    def accepts(self, layer: int) -> bool:
        """Whether ``cycle^ω`` is accepted from some state of the mask ``layer``."""
        new = layer & ~self._roots
        if new:
            self._roots |= new
            self._visit([(q, 0) for q in mask_states(new)])
        return layer & self.good[0] != 0

    def _visit(self, roots: list[tuple[int, int]]) -> None:
        rows, good, accepting, successors = self._rows, self.good, self._accepting, self._successors
        last = len(rows) - 1
        for component in components(successors, roots, self._index):
            on_accepting_cycle = _cyclic(component, rows) and any(accepting >> q & 1 for q, _ in component)
            if on_accepting_cycle or any(rows[j].get(q, 0) & good[j + 1 if j < last else 0] for q, j in component):
                for q, j in component:
                    good[j] |= 1 << q


def _anchor(aut: BuchiAutomaton, layer: int, cycle: tuple[str, ...]):
    """The first accepting product node, in sorted order, that lies on a cycle.

    Searches from the nodes ``(q, 0)`` for ``q`` in ``layer``, takes the least
    accepting node of a cyclic component among those reached, and returns the
    search's parents, that anchor, and the parents and last node of the
    cycle search back to it; None when no accepting node lies on a cycle.
    """
    tables = aut._tables  # type: ignore[attr-defined]
    rows = [tables[symbol] for symbol in cycle]
    successors = _product(rows)
    starts = [(q, 0) for q in mask_states(layer)]
    parents, _ = _search(successors, starts)
    accepting = aut.accepting_mask  # type: ignore[attr-defined]
    anchors = [
        node
        for component in components(successors, starts, {})
        if _cyclic(component, rows)
        for node in component
        if accepting >> node[0] & 1
    ]
    if not anchors:
        return None
    anchor = min(anchors)
    loop_parents, last = _search(successors, [anchor], goal=anchor)
    return parents, anchor, loop_parents, last


def _product(rows: list[dict[int, int]]) -> _Successors:
    """Successors of a node ``(q, j)`` of the product of states with cycle positions, in ascending order.

    ``rows[j]`` is the transition table of the cycle's symbol at position ``j``.
    """
    positions = [*range(1, len(rows)), 0]

    def successors(node: tuple[int, int]) -> list[tuple[int, int]]:
        q, j = node
        position = positions[j]
        return [(target, position) for target in mask_states(rows[j].get(q, 0))]

    return successors


def _cyclic(component: list[tuple[int, int]], rows: list[dict[int, int]]) -> bool:
    """Whether a product component lies on a cycle: it has two nodes, or its node an edge to itself.

    A node ``(q, j)`` has an edge to itself only when the cycle has one
    symbol, on which ``q`` is its own successor.
    """
    if len(component) > 1:
        return True
    q, _ = component[0]
    return len(rows) == 1 and rows[0].get(q, 0) >> q & 1 == 1


def _search(
    successors: _Successors,
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
        for succ in successors(node):
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
