"""Fuzzing of the text parsers: random text and mutated valid texts raise only documented errors."""
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omegadet.determinize import ADAPTIVE, determinize
from omegadet.nba import LassoFormatError, NbaFormatError, parse_lasso, parse_nba
from omegadet.parity import DpaFormatError, parse_dpa, serialize_dpa
from omegadet.safra import TreeFormatError, format_tree, parse_tree, slice_to_safra
from omegadet.slices import InvalidSliceError, SliceFormatError, parse_preslice, parse_slice

from .conftest import MEDIUM_STAGED_NBA, SMALL_NBA, WIDE_STAGED_NBA

NBA_TEXTS = [data.decode() for data in (SMALL_NBA, MEDIUM_STAGED_NBA, WIDE_STAGED_NBA)]
DPA_TEXTS = [serialize_dpa(determinize(parse_nba(text), ADAPTIVE, labels=True)).decode() for text in NBA_TEXTS]
# Repeated init/accept ids and a repeated transition line, which parse_nba rejects.
NBA_TEXTS += [NBA_TEXTS[0].replace("init 0", "init 0 0"), NBA_TEXTS[1].replace("accept 2 3", "accept 2 3 2")]
NBA_TEXTS += [NBA_TEXTS[0] + "2 a 1\n"]
SLICE_TEXTS = [line.split()[2] for text in DPA_TEXTS for line in text.splitlines() if line.startswith("label")]
TREE_TEXTS = [format_tree(slice_to_safra(parse_slice(text))) for text in SLICE_TEXTS if text != "()"]
PRESLICE_TEXTS = SLICE_TEXTS + ["({}:4,{}:2,{2}:5,{}:3,{3}:6,{0}:1)"]
LASSO_TEXTS = ["a a | b a", "| a", "b c d e | a"]

# Each parser, the errors it documents, and the valid texts its mutants start from.
PARSERS = {
    "nba": (parse_nba, (NbaFormatError,), NBA_TEXTS),
    "dpa": (parse_dpa, (DpaFormatError,), DPA_TEXTS),
    "slice": (parse_slice, (SliceFormatError, InvalidSliceError), SLICE_TEXTS),
    "preslice": (parse_preslice, (SliceFormatError, InvalidSliceError), PRESLICE_TEXTS),
    "tree": (parse_tree, (TreeFormatError,), TREE_TEXTS),
    "lasso": (parse_lasso, (LassoFormatError,), LASSO_TEXTS),
}

# Pieces that probe the grammars: signs, separators, line breaks that
# str.splitlines honours, non-ASCII digits and keywords.
PIECES = list("0123456789-+_ ,:{}()|#\n\t\r\x1c ٣²é") + ["states", "label", "nba", "dpa", "a"]


@st.composite
def mutants(draw, texts):
    """A valid text with one to four spliced edits: a piece or short random text replaces 0-2 characters."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(PIECES) | st.text(max_size=2))
        text = text[:at] + piece + text[at + draw(st.integers(0, 2)) :]
    return text


def few_states(text: str) -> bool:
    """False when a ``states`` line asks for more than 64 states.

    A large state id still costs one bit in every mask that holds it: the
    successor masks and ``accepting_mask`` built while parsing.
    """
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens[:1] == ["states"] and len(tokens) == 2:
            try:
                if int(tokens[1]) > 64:
                    return False
            except ValueError:
                pass
    return True


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=300)
@given(data=st.data())
def test_parsers_raise_only_documented_errors(name, data):
    parse, errors, texts = PARSERS[name]
    text = data.draw(st.text(max_size=60) | mutants(texts), label="text")
    assume(few_states(text))
    try:
        parse(text)
    except errors:
        pass


@pytest.mark.parametrize("name", ["nba", "dpa"])
@settings(max_examples=200)
@given(data=st.data())
def test_file_parsers_take_any_bytes(name, data):
    parse, errors, texts = PARSERS[name]
    text = data.draw(mutants(texts), label="text")
    raw = data.draw(st.binary(max_size=3), label="raw")
    at = data.draw(st.integers(0, len(text)), label="at")
    blob = text[:at].encode() + raw + text[at:].encode()
    assume(few_states(blob.decode("utf-8", "replace")))
    try:
        parse(blob)
    except errors:
        pass
