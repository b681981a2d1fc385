"""The lexer reproduces a recorded token stream, token for token.

``golden/tokens.json`` holds, per input, either every token as
``[kind, text, value, position, line, column]`` (EOF last) or the
``LexError`` as ``[message, position, line, column]``. It was recorded
from the character-loop lexer this one replaced, over three input groups:

- ``tpcd``: every query constant of :mod:`repro.tpcd.queries`;
- ``tests_sql``: every non-empty string constant in ``tests/sql/*.py``;
- ``seeded``: 2 000 strings of 1-24 units drawn with ``random.Random``
  over quotes, ``''``, ``--``, ``.``, digits, ``e``/``E``, ``+``/``-``,
  ``#``/``$``, newlines, tabs, the symbols, and characters the lexer
  refuses (``@``, ``%``, form feed, no-break space, non-ASCII letters
  and digits, ...).

Only these six fields are pinned: ``end`` of a quoted identifier was
wrong in the recorded lexer (it ended two characters early).
"""

import json
from pathlib import Path

import pytest

from repro.errors import LexError
from repro.sql import tokenize

GOLDEN = json.loads((Path(__file__).parent / "golden" / "tokens.json").read_text())


def _observed(text):
    try:
        tokens = tokenize(text)
    except LexError as exc:
        return {"error": [str(exc), exc.position, exc.line, exc.column]}
    return {"tokens": [
        [t.kind.name, t.text, t.value, t.position, t.line, t.column] for t in tokens
    ]}


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_token_stream_matches_the_recording(group):
    assert GOLDEN[group]
    for case in GOLDEN[group]:
        expected = {k: v for k, v in case.items() if k != "input"}
        # Compared as JSON text, so a value of 1 and one of 1.0 differ.
        assert json.dumps(_observed(case["input"])) == json.dumps(expected), case["input"]
