"""Tests of the benchmark's own logic.  Run: PYTHONPATH=src python3 -m pytest -q perfbench"""
import statistics
import sys

import pytest

from omegadet import nba, parse_nba, serialize_nba
from omegadet.determinize import ADAPTIVE, determinize
from omegadet.slices import PreSlice, RankedSlice
from run import latency_summary, smoothed_median
from tests.conftest import build_corpus
from tracing import Spans, Tracer
from workloads import build_jobs, corpus_automata


def test_self_times_on_synthetic_span_tree():
    spans = Spans()
    root = spans.add("cli.main", -1, 0.0, 10.0)
    step = spans.add("determinize.step", root, 1.0, 4.0)
    spans.add("nba.successors", step, 2.0, 3.0)
    spans.add("determinize.prune", root, 5.0, 9.0)
    spans.add("cli.main", -1, 20.0, 21.5)

    assert spans.self_times() == [3.0, 2.0, 1.0, 4.0, 1.5]
    summary = spans.summary()
    assert summary["cli.main.calls"] == 2
    assert summary["cli.main.self_s"] == 4.5
    assert summary["determinize.step.self_s"] == 2.0
    assert summary["nba.successors.self_s"] == 1.0
    assert summary["determinize.prune.self_s"] == 4.0
    assert summary["determinize.merge.calls"] == 0
    assert summary["spans.total_s"] == 11.5
    assert sum(v for k, v in summary.items() if k.endswith(".self_s")) == summary["spans.total_s"]


def test_adaptive_hit_and_fallback_on_a_hand_built_slice():
    # No rank is below k = 1, so the only free cut is between the two sets and
    # the coarsest candidate merges them into ({0,1}:1).
    pre = PreSlice(sets=(frozenset({0}), frozenset({1})), ranks=(3, 2))
    merged = RankedSlice(sets=(frozenset({0, 1}),), ranks=(1,))
    module = sys.modules["omegadet.determinize"]
    with Tracer() as tracer:
        # looked up on the module, where the tracer installed its wrapper
        assert module.choose_partition(pre, 1, frozenset(), ADAPTIVE, {merged}) == ((1, 2),)
        assert module.choose_partition(pre, 1, frozenset(), ADAPTIVE, set()) == ((1, 2),)
        assert module.choose_partition(pre, 1, frozenset(), "ms", set()) == ((1, 1), (2, 2))
    summary = tracer.spans.summary()
    # hit: one candidate; fallback: both candidates, then the nested max call
    assert summary["determinize.choose_partition.calls"] == 4
    assert summary["determinize.choose_partition.candidates"] == 3
    assert summary["determinize.adaptive.reuse_ratio"] == 0.5


# Two symbols that shuffle an accepting state through a three-state cycle.
HAND_BUILT_NBA = b"""nba
states 3
alphabet a b
init 0
accept 1
0 a 0
0 a 1
1 a 2
2 a 0
2 a 1
0 b 2
1 b 1
1 b 0
2 b 2
"""


def test_adaptive_reuse_on_a_hand_built_automaton(monkeypatch):
    aut = parse_nba(HAND_BUILT_NBA)
    module = sys.modules["omegadet.determinize"]
    kinds = []
    original = module.choose_partition

    def counting(pre, k, green, strategy, context=()):
        kinds.append(module.as_strategy(strategy).kind)
        return original(pre, k, green, strategy, context)

    monkeypatch.setattr(module, "choose_partition", counting)
    expected = determinize(aut, ADAPTIVE)
    monkeypatch.undo()
    adaptive, fallbacks = kinds.count("adaptive"), kinds.count("max")
    assert 0 < fallbacks < adaptive

    plain = nba.successors
    with Tracer() as tracer:
        # the copy bound in determinize is wrapped too, around the same function
        assert module.successors is not plain and module.successors.__wrapped__ is plain
        traced = determinize(aut, ADAPTIVE)
    assert module.successors is plain and nba.successors is plain and module.choose_partition is original
    assert traced == expected
    summary = tracer.spans.summary()
    assert summary["determinize.choose_partition.calls"] == adaptive + fallbacks
    assert summary["determinize.adaptive.reuse_ratio"] == pytest.approx((adaptive - fallbacks) / adaptive)


def test_check_corpus_reproduces_build_corpus():
    expected = [serialize_nba(aut) for aut in build_corpus()]
    assert [serialize_nba(aut) for aut in corpus_automata(300, 20260808)] == expected


def test_seed_relabels_the_reference_automata(tmp_path):
    base = build_jobs("explore-ms", 0, tmp_path / "s0")
    assert [j.automaton for j in base] == [j.automaton for j in build_jobs("explore-ms", 0, tmp_path / "again")]
    other = build_jobs("explore-ms", 1, tmp_path / "s1")
    assert [j.automaton for j in other] == [j.automaton for j in build_jobs("explore-ms", 1, tmp_path / "s1b")]
    assert all(a.automaton != b.automaton for a, b in zip(base, other))
    for a, b in zip(base[:6], other[:6]):
        assert a.automaton.num_states == b.automaton.num_states
        assert len(a.automaton.transitions) == len(b.automaton.transitions)
        # isomorphic inputs: same numbering and priorities, only the labels differ
        assert determinize(a.automaton).edges == determinize(b.automaton).edges


def test_tail_leaves_ten_per_job_medians_beyond():
    summary = latency_summary([[float(i) for i in range(1, 101)]])
    assert summary == {"p50": pytest.approx(50.5), "tail": 90.0, "percentile": 90.0, "samples": 100}
    # three passes over two jobs: per-job medians 2 and 3; too few for ten beyond
    summary = latency_summary([[1.0, 5.0], [3.0, 1.0], [2.0, 3.0]])
    assert summary == {"p50": pytest.approx(2.5), "tail": 3.0, "percentile": 100.0, "samples": 2}


def test_smoothed_median_bridges_a_gap_between_clusters():
    # 49 fast and 51 slow jobs: the middle order statistics sit at the slow
    # cluster's bottom; moving one job across the gap barely moves the estimate
    low = smoothed_median(sorted([1.0] * 49 + [3.0] * 51))
    high = smoothed_median(sorted([1.0] * 51 + [3.0] * 49))
    assert 1.0 < high < low < 3.0
    assert low - high < 0.5 and statistics.median([1.0] * 51 + [3.0] * 49) == 1.0
