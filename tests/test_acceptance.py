"""End-to-end acceptance checks.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""
import ast
import random
import subprocess
import sys
import time
from itertools import permutations, product
from pathlib import Path
from types import SimpleNamespace

import pytest

from omegadet.determinize import (
    InternalInvariantError,
    choose_partition,
    determinize,
    initial_slice,
    merge,
    normalize,
    transition,
)
from omegadet.nba import parse_nba
from omegadet.oracle import enumerate_lassos, nba_accepts_lasso, random_nba
from omegadet.parity import run_lasso
from omegadet.safra import SafraNode, safra_to_slice, slice_to_safra, unflatten
from omegadet.slices import PreSlice, RankedSlice, format_slice, parse_slice

from .conftest import MEDIUM_STAGED_NBA, SMALL_NBA, WIDE_STAGED_NBA, build_corpus, replay
from .reference import (
    compare_profiles_cut,
    iter_valid_partitions,
    rank_profile,
    run_prefix,
    safra_tree_update,
    split_tree_levels,
)
from .test_determinize import count_ranked_slices
from .test_safra import brute_force_shape, random_tree

ALL_STRATEGIES = ("ms", "safra", "max", "adaptive")


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def corpus_bundle():
    started = time.perf_counter()
    automata = build_corpus(count=300, master_seed=20260808)
    dpas = {}
    violations = []
    for i, aut in enumerate(automata):
        for token in ALL_STRATEGIES:
            try:
                dpas[(i, token)] = replay(aut, token)
            except InternalInvariantError as exc:
                violations.append((i, token, str(exc)))
    return SimpleNamespace(
        automata=automata,
        dpas=dpas,
        violations=violations,
        build_seconds=time.perf_counter() - started,
    )


def test_criterion_1_split_tree_levels():
    aut = parse_nba(SMALL_NBA)
    f = frozenset
    expected = (
        (f({0}),),
        (f({1}), f({0})),
        (f({1}), f({2}), f({0})),
        (f({1}), f({2}), f({0})),
    )
    got = split_tree_levels(aut, ("a", "a", "a"))
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        split_tree_levels(aut, ("a", "a", "a"))
        timings.append(time.perf_counter() - start)
    ok = got == expected and min(timings) < 0.001
    report(1, ok, f"three-level split tree exact, best of 5 in {min(timings) * 1e6:.0f} us")


def test_criterion_2_one_collapse_transition():
    aut = parse_nba(MEDIUM_STAGED_NBA)
    source = parse_slice("({1}:2,{2}:3,{0}:1)")
    out = transition(aut, source, "a", "safra")
    ok = (
        format_slice(out.successor) == "({2}:2,{3}:3,{0}:1)"
        and 3 in out.green
        and 2 in out.red
        and out.priority == 3
    )
    report(2, ok, f"successor {format_slice(out.successor)}, priority {out.priority}")


def test_criterion_3_merge_strategies_and_partition_count():
    pruned = PreSlice(
        sets=tuple(frozenset({q}) for q in (2, 1, 3, 5, 4, 0)),
        ranks=(7, 3, 2, 6, 4, 1),
    )
    green = frozenset({2, 6})
    dominating = 2
    expected = {
        "ms": "({2}:6,{1}:3,{3}:2,{5}:5,{4}:4,{0}:1)",
        "safra": "({1,2,3}:2,{5}:4,{4}:3,{0}:1)",
        "max": "({1,2,3}:2,{4,5}:3,{0}:1)",
    }
    got = {
        token: format_slice(normalize(merge(pruned, choose_partition(pruned, dominating, green, token))))
        for token in expected
    }
    partitions = list(iter_valid_partitions(pruned, dominating))
    ok = got == expected and len(partitions) == 8 and len(set(partitions)) == 8
    report(3, ok, f"three named successors exact, {len(partitions)} permitted partitions")


def _iter_forests(n):
    if n == 0:
        yield ()
        return
    for first_size in range(1, n + 1):
        for first in _iter_shapes(first_size):
            for rest in _iter_forests(n - first_size):
                yield (first,) + rest


def _iter_shapes(n):
    # An ordered rooted tree with n nodes is a root carrying an (n-1)-forest.
    for forest in _iter_forests(n - 1):
        yield forest


def _shape_preorder(shape):
    """Parents and left siblings of the pre-order node ids of a shape."""
    parents: list = [None]
    lefts: list = [None]

    def walk(forest, parent_id):
        prev = None
        for child in forest:
            node_id = len(parents)
            parents.append(parent_id)
            lefts.append(prev)
            prev = node_id
            walk(child, node_id)

    walk(shape, 0)
    return parents, lefts


def _label_assignments(n: int, pool: int):
    out = []
    for vector in product(range(n + 1), repeat=pool):
        blocks = [frozenset(i for i in range(pool) if vector[i] == j + 1) for j in range(n)]
        if all(blocks):
            out.append(tuple(blocks))
    return out


def _build_tree(shape, ranks_by_id, labels_by_id):
    # Pre-order ids: a node is numbered before its children, siblings left to right.
    def build(forest, node_id):
        children = []
        next_id = node_id + 1
        for child_forest in forest:
            child, next_id = build(child_forest, next_id)
            children.append(child)
        return (
            SafraNode(label=labels_by_id[node_id], rank=ranks_by_id[node_id], children=tuple(children)),
            next_id,
        )

    root, _ = build(shape, 0)
    return root


def _random_slice(rng: random.Random, pool: int = 9) -> RankedSlice:
    n = rng.randint(1, pool)
    size = rng.randint(n, pool)
    chosen = rng.sample(range(pool), size)
    blocks = [{chosen[i]} for i in range(n)]
    for state in chosen[n:]:
        blocks[rng.randrange(n)].add(state)
    tail = list(range(2, n + 1))
    rng.shuffle(tail)
    return RankedSlice(
        sets=tuple(frozenset(b) for b in blocks),
        ranks=tuple(tail) + (1,),
    )


def test_criterion_4_bijection():
    started = time.perf_counter()
    pool = 5
    failures = 0
    trees_seen = 0
    for n in range(1, 6):
        labelings = _label_assignments(n, pool)
        for shape in _iter_shapes(n):
            parents, lefts = _shape_preorder(shape)
            rankings = [
                perm
                for perm in permutations(range(1, n + 1))
                if all(
                    perm[parents[i]] < perm[i] and (lefts[i] is None or perm[lefts[i]] < perm[i])
                    for i in range(1, n)
                )
            ]
            for perm in rankings:
                for labels in labelings:
                    tree = _build_tree(shape, perm, labels)
                    trees_seen += 1
                    if slice_to_safra(safra_to_slice(tree)) != tree:
                        failures += 1
    # Exhaustive slices over the same pool, enumerated independently.
    slices_seen = 0
    for n in range(1, 6):
        for labels in _label_assignments(n, pool):
            for tail in permutations(range(2, n + 1)):
                slice_ = RankedSlice(sets=labels, ranks=tuple(tail) + (1,))
                slices_seen += 1
                if safra_to_slice(slice_to_safra(slice_)) != slice_:
                    failures += 1
    rng = random.Random(20260808)
    for _ in range(5000):
        slice_ = _random_slice(rng)
        if safra_to_slice(slice_to_safra(slice_)) != slice_:
            failures += 1
    for _ in range(5000):
        tree = random_tree(rng, pool=9, max_nodes=9)
        if slice_to_safra(safra_to_slice(tree)) != tree:
            failures += 1
    elapsed = time.perf_counter() - started
    counts_match = trees_seen == slices_seen == count_ranked_slices(pool) - 1
    ok = failures == 0 and counts_match and elapsed < 10.0
    report(
        4,
        ok,
        f"{trees_seen} exhaustive trees, {slices_seen} exhaustive slices, "
        f"10000 random, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_5_unflatten():
    rng = random.Random(424242)
    failures = 0
    worst = 0.0
    for _ in range(10_000):
        n = rng.randint(1, 12)
        body = list(range(2, n + 1))
        rng.shuffle(body)
        ranks = tuple(body) + (1,)
        shape = unflatten(ranks)
        if (shape.parent_of, shape.left_boundary_of) != brute_force_shape(ranks):
            failures += 1
        if shape.work > 3 * n:
            failures += 1
        worst = max(worst, shape.work / n)
    report(5, failures == 0, f"10000 rankings, {failures} failures, worst work {worst:.2f}n")


def test_criterion_6_language_equivalence(corpus_bundle):
    started = time.perf_counter()
    disagreements = 0
    lassos_checked = 0
    # A DPA whose replay raised is missing, and counts as a failure.
    missing = []
    for i, aut in enumerate(corpus_bundle.automata):
        dpas = []
        for token in ALL_STRATEGIES:
            if (i, token) in corpus_bundle.dpas:
                dpas.append(corpus_bundle.dpas[(i, token)])
            else:
                missing.append((i, token))
        for lasso in enumerate_lassos(aut.alphabet, 3, 3):
            expected = nba_accepts_lasso(aut, lasso).accepted
            lassos_checked += 1
            for dpa in dpas:
                if run_lasso(dpa, lasso).accepted != expected:
                    disagreements += 1
    elapsed = corpus_bundle.build_seconds + (time.perf_counter() - started)
    ok = disagreements == 0 and not missing and elapsed < 300.0
    report(
        6,
        ok,
        f"300 automata, {lassos_checked} lassos x {len(ALL_STRATEGIES)} strategies, "
        f"{disagreements} disagreements, {len(missing)} missing DPAs {missing[:5]}, {elapsed:.1f}s",
    )


def test_criterion_7_split_tree_correspondence(corpus_bundle):
    mismatches = 0
    words = 0
    for aut in corpus_bundle.automata[:100]:
        for word in product(aut.alphabet, repeat=6):
            words += 1
            levels = split_tree_levels(aut, word)
            current = initial_slice(aut)
            if current.sets != levels[0]:
                mismatches += 1
            for depth, symbol in enumerate(word):
                current = transition(aut, current, symbol, "ms").successor
                if current.sets != levels[depth + 1]:
                    mismatches += 1
    report(7, mismatches == 0, f"100 automata, {words} words of length 6, {mismatches} mismatches")


def test_criterion_8_pipeline_invariants(corpus_bundle):
    count = sum(len(dpa.edges) for dpa in corpus_bundle.dpas.values())
    ok = not corpus_bundle.violations and len(corpus_bundle.dpas) == 4 * len(corpus_bundle.automata)
    report(8, ok, f"{count} validated transitions, {len(corpus_bundle.violations)} violations")


def test_criterion_9_profile_cut_monotonicity(corpus_bundle):
    pairs = []
    for aut in corpus_bundle.automata:
        for lasso in enumerate_lassos(aut.alphabet, 2, 2):
            verdict = nba_accepts_lasso(aut, lasso)
            if verdict.accepted:
                pairs.append((aut, lasso, verdict))
                break
        if len(pairs) == 50:
            break
    assert len(pairs) == 50
    violations = 0
    steps_checked = 0
    for aut, lasso, verdict in pairs:
        horizon = len(verdict.prefix_states) + 3 * (len(verdict.loop_states) - 1) + 3 * len(lasso.cycle)
        run = run_prefix(verdict, horizon + 1)
        for token in ("ms", "safra"):
            current = initial_slice(aut)
            for i in range(horizon):
                trace = transition(aut, current, lasso.symbol_at(i), token)
                before = rank_profile(current, run[i])
                after = rank_profile(trace.successor, run[i + 1])
                steps_checked += 1
                if compare_profiles_cut(after, before, trace.dominating) > 0:
                    violations += 1
                current = trace.successor
    report(9, violations == 0, f"50 accepting pairs, {steps_checked} steps, {violations} violations")


def test_criterion_10_deterministic_output(tmp_path):
    sources = {"medium.nba": MEDIUM_STAGED_NBA, "wide.nba": WIDE_STAGED_NBA}
    for name, data in sources.items():
        (tmp_path / name).write_bytes(data)
    compared = 0
    identical = True
    for name in sources:
        for token in ALL_STRATEGIES:
            outputs = []
            for attempt in range(2):
                out = tmp_path / f"{name}.{token}.{attempt}.dpa"
                result = subprocess.run(
                    [
                        sys.executable,
                        "-m",
                        "omegadet.cli",
                        "determinize",
                        "-i",
                        str(tmp_path / name),
                        "-o",
                        str(out),
                        "--strategy",
                        token,
                        "--labels",
                    ],
                    capture_output=True,
                )
                assert result.returncode == 0, result.stderr
                outputs.append(out.read_bytes())
            compared += 1
            identical = identical and outputs[0] == outputs[1]
    report(10, identical, f"{compared} strategy/input combinations byte-identical across runs")


def _safra_edge_mismatches(aut, dpa) -> tuple[int, int, int]:
    """Edges out of the non-sink states, and those the tree update gives another successor or priority."""
    edges = successors = priorities = 0
    for (src, symbol), (dst, priority) in dpa.edges.items():
        source = parse_slice(dpa.labels[src])
        if not source.sets:
            continue
        tree, got = safra_tree_update(aut, slice_to_safra(source), symbol)
        target = RankedSlice((), ()) if tree is None else safra_to_slice(tree)
        edges += 1
        successors += target != parse_slice(dpa.labels[dst])
        priorities += got != priority
    return edges, successors, priorities


def test_criterion_11_safra_instance():
    # Safra's construction is an instance of the slice construction: on every
    # edge of a `safra` DPA, the textbook tree update of the source's tree
    # gives the target and the priority.  This needs one convention: the name
    # of a new child that stays empty counts as red.
    grid = [random_nba(n, ("a", "b"), 1.8 / n, 0.5, seed=9100 * n + i) for n in (12, 14, 16, 18) for i in range(6)]
    wide = [random_nba(24, ("a", "b"), 1.8 / 24, 0.5, seed=9100 * 24 + i) for i in range(6)]
    groups = {"grid": grid, "n=24": wide, "corpus": build_corpus(count=300, master_seed=20260808)}
    totals = {
        name: tuple(map(sum, zip(*[_safra_edge_mismatches(aut, determinize(aut, "safra")) for aut in automata])))
        for name, automata in groups.items()
    }
    ok = all(edges and not successors and not priorities for edges, successors, priorities in totals.values())
    detail = "; ".join(
        f"{name}: {edges} edges, {successors} successor and {priorities} priority mismatches"
        for name, (edges, successors, priorities) in totals.items()
    )
    report(11, ok, detail)


def test_reference_is_independent():
    # The reference is the independent side of the checks on the pipeline, so
    # it may not import the pipeline, neither by module nor by the package's
    # re-exports.
    imports = []
    for node in ast.walk(ast.parse(Path(__file__).with_name("reference.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imports += [(alias.name, 0) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports.append((node.module, node.level))
    assert ("omegadet.safra", 0) in imports
    for module, level in imports:
        assert level == 0, f"relative import of {module!r}"
        assert module != "omegadet" and not module.startswith("omegadet.determinize"), module
