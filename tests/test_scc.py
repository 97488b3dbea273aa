import random

import pytest

from omegadet.scc import components


def reachable(graph: dict[int, list[int]], node: int) -> set[int]:
    seen, frontier = {node}, [node]
    while frontier:
        for succ in graph[frontier.pop()]:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


@pytest.mark.parametrize("seed", range(40))
def test_components_are_the_mutual_reachability_classes_in_sinks_first_order(seed):
    rng = random.Random(seed)
    size = rng.randint(1, 12)
    graph = {v: [rng.randrange(size) for _ in range(rng.randint(0, 3))] for v in range(size)}
    roots = rng.sample(range(size), rng.randint(1, size))
    index: dict[int, int] = {}
    emitted = list(components(graph.__getitem__, roots[:1], index))
    emitted += components(graph.__getitem__, roots[1:], index)

    reach = {v: reachable(graph, v) for v in graph}
    assert sorted(v for component in emitted for v in component) == sorted(set().union(*(reach[r] for r in roots)))
    assert set(index) == {v for component in emitted for v in component}
    done: set[int] = set()
    for component in emitted:
        members = set(component)
        v = component[0]
        assert members == {w for w in reach[v] if v in reach[w]}
        # Every edge out of a component leads into one emitted before it.
        assert all(succ in members or succ in done for w in component for succ in graph[w])
        done |= members


def test_a_path_deeper_than_the_recursion_limit():
    n = 200_000
    emitted = list(components(lambda v: [v + 1] if v < n - 1 else [0], [0], {}))
    assert len(emitted) == 1 and len(emitted[0]) == n
    chain = list(components(lambda v: [v + 1] if v < n - 1 else [], [0], {}))
    assert chain == [[v] for v in reversed(range(n))]
