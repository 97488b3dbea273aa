"""Strongly connected components of a graph given by a successor function.

:func:`components` is Tarjan's algorithm (SIAM J. Comput. 1972) with an
explicit stack in place of recursion, so a path of any length hits no
recursion limit.  It visits only the nodes reachable from the roots it is
given and emits each component once all components it has edges into are
emitted, that is sinks first.  The caller's ``index`` dict records every
node visited, so a later call with new roots continues the same numbering
and skips what earlier calls have emitted.
"""
from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, TypeVar

Node = TypeVar("Node", bound=Hashable)


def components(
    successors: Callable[[Node], Iterable[Node]],
    roots: Iterable[Node],
    index: dict[Node, int],
) -> Iterator[list[Node]]:
    """Yield the components reachable from ``roots`` and not yet in ``index``, sinks first.

    ``index`` maps each node visited, by this call or an earlier one on the
    same graph, to its discovery number; nodes already in it are not entered
    again.  The caller exhausts the iterator before it passes ``index`` on,
    so every node in it belongs to an emitted component.
    """
    low: dict[Node, int] = {}  # the nodes of components not yet emitted
    stack: list[Node] = []
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, edges = work[-1]
            for succ in edges:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    work.append((succ, iter(successors(succ))))
                    break
                if succ in low and index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                work.pop()
                lowest = low[node]
                if work:
                    parent = work[-1][0]
                    if lowest < low[parent]:
                        low[parent] = lowest
                if lowest == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        del low[member]
                        component.append(member)
                        if member == node:
                            break
                    yield component
