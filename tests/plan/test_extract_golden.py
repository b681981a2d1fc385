"""The plan cache's literal extraction reproduces a recorded output.

``params_golden/extract_parameters.json`` holds, per input, the template,
the ``ok`` flag and every extracted literal as ``[start, end, value]``.
It was recorded from the character-loop scanner that the pass over the
lexer's pattern replaced, over three input groups:

- ``edge``: comments, ``''`` escapes, quoted identifiers, number forms
  (``.5e3``, ``1.``, ``1e``, ``0.5.5``), unterminated quotes, stray and
  non-ASCII characters;
- ``tokens_golden``: every input of ``tests/sql/golden/tokens.json``;
- ``seeded``: 1 500 strings of 1-24 units drawn with ``random.Random(43)``
  over quotes, ``--``, digits, exponents, symbols, whitespace, words and
  characters the lexer refuses.

Compared as JSON text, so a value of 1 and one of 1.0 differ.

The property below ties the extraction to the lexer itself: every literal
lifted out of a statement the lexer accepts is one of its NUMBER/STRING
tokens, with the same value and span.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexError
from repro.plan.cache import extract_parameters
from repro.sql import tokenize
from repro.sql.lexer import TokenKind

GOLDEN = json.loads(
    (Path(__file__).parent / "params_golden" / "extract_parameters.json").read_text()
)


def _observed(text):
    extracted = extract_parameters(text)
    return {
        "template": extracted.template,
        "ok": extracted.ok,
        "params": [[p.start, p.end, p.value] for p in extracted.params],
    }


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_extraction_matches_the_recording(group):
    assert GOLDEN[group]
    for case in GOLDEN[group]:
        expected = {k: v for k, v in case.items() if k != "input"}
        assert json.dumps(_observed(case["input"])) == json.dumps(expected), case["input"]


_UNITS = st.sampled_from([
    "'", "''", '"', "--", ".", "0", "7", "e", "E", "+", "-", "\n", " ", "\t",
    "a", "_", "#", "(", ")", ",", "<", ">", "=", "?", "|", "1.5", ".5", "2e3",
    "select", "where", "'x'", "'it''s'", '"c1"',
])


@settings(max_examples=300, deadline=None)
@given(st.lists(_UNITS, min_size=1, max_size=30).map("".join))
def test_every_extracted_literal_is_a_lexer_literal(text):
    try:
        tokens = tokenize(text)
    except LexError:
        return
    literals = {
        (t.position, t.end): t.value
        for t in tokens
        if t.kind in (TokenKind.NUMBER, TokenKind.STRING)
    }
    extracted = extract_parameters(text)
    assert extracted.ok
    assert len(extracted.params) == len(literals)
    for param in extracted.params:
        value = literals[(param.start, param.end)]
        assert value == param.value and type(value) is type(param.value)
