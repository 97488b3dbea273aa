"""Determinization of nondeterministic Büchi automata into parity automata.

The deterministic macrostates are ranked slices: ordered tuples of disjoint
state sets carrying age ranks, in bijection with ranked Safra trees.  One
pluggable merge stage selects between the Muller-Schupp update, the Safra
update, maximal collapse, and an adaptive successor-reuse heuristic.  A
brute-force lasso membership oracle provides the correctness ground truth.

Importing the package loads the exploration kernel and the modules it runs
with.  The slice, Safra tree and staged-reference names, and those three
submodules, load on first use.
"""
from importlib import import_module as _import_module

from .determinize import (
    ADAPTIVE, MAX_COLLAPSE, MULLER_SCHUPP, SAFRA, CapacityError, MergeStrategy, as_strategy, determinize
)
from .nba import BuchiAutomaton, Lasso, format_lasso, parse_lasso, parse_nba, serialize_nba, successors
from .oracle import enumerate_lassos, nba_accepts_lasso, random_nba
from .parity import ParityAutomaton, parse_dpa, run_lasso, serialize_dpa

__version__ = "0.1.0"

# The submodule that defines each name loaded on first use.
_LAZY = {
    **dict.fromkeys(
        ["choose_partition", "dominating_rank", "initial_slice", "merge", "normalize", "prune", "step", "transition"],
        "stages",
    ),
    **dict.fromkeys(
        ["SafraNode", "TreeShape", "format_tree", "parse_tree", "safra_to_slice", "slice_to_safra", "unflatten"],
        "safra",
    ),
    **dict.fromkeys(["PreSlice", "RankedSlice", "format_slice", "parse_slice"], "slices"),
}

__all__ = [
    "ADAPTIVE", "MAX_COLLAPSE", "MULLER_SCHUPP", "SAFRA", "CapacityError", "MergeStrategy", "as_strategy",
    "determinize", "BuchiAutomaton", "Lasso", "format_lasso", "parse_lasso", "parse_nba", "serialize_nba", "successors",
    "enumerate_lassos", "nba_accepts_lasso", "random_nba",
    "ParityAutomaton", "parse_dpa", "run_lasso", "serialize_dpa",
    *_LAZY,
]


def __getattr__(name: str):
    """A lazy name, or one of the submodules ``slices``, ``safra`` and ``stages``, on first use."""
    if name in ("slices", "safra", "stages"):
        return _import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{_LAZY[name]}", __name__), name)
