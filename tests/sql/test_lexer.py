"""Unit tests for the SQL lexer."""

import pytest

from repro.errors import LexError
from repro.sql import Token, TokenKind, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]


def texts(text):
    return [t.text for t in tokenize(text)[:-1]]


class TestTokenize:
    def test_idents_and_keywords_are_idents(self):
        tokens = tokenize("SELECT name FROM dept")
        assert [t.kind for t in tokens[:-1]] == [TokenKind.IDENT] * 4
        assert [t.keyword for t in tokens[:-1]] == ["SELECT", "NAME", "FROM", "DEPT"]

    def test_numbers(self):
        tokens = tokenize("1 2.5 0.2 1e3 2E-2 10000")
        values = [t.value for t in tokens[:-1]]
        assert values == [1, 2.5, 0.2, 1000.0, 0.02, 10000]
        assert isinstance(values[0], int)
        assert isinstance(values[1], float)

    def test_number_starting_with_dot(self):
        tokens = tokenize(".5")
        assert tokens[0].value == 0.5

    def test_strings_with_escapes(self):
        tokens = tokenize("'FRANCE' 'it''s'")
        assert tokens[0].value == "FRANCE"
        assert tokens[1].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize("'abc")

    def test_symbols_greedy(self):
        assert texts("a<=b<>c>=d!=e") == ["a", "<=", "b", "<>", "c", ">=", "d", "!=", "e"]

    def test_dot_qualification(self):
        assert texts("d.building") == ["d", ".", "building"]

    def test_comments_skipped(self):
        tokens = tokenize("SELECT 1 -- comment here\n, 2")
        assert [t.text for t in tokens[:-1]] == ["SELECT", "1", ",", "2"]

    def test_line_and_column_tracking(self):
        tokens = tokenize("SELECT\n  name")
        assert tokens[0].line == 1 and tokens[0].column == 1
        assert tokens[1].line == 2 and tokens[1].column == 3

    def test_invalid_character(self):
        with pytest.raises(LexError) as exc:
            tokenize("SELECT @")
        assert "line 1" in str(exc.value)

    def test_quoted_identifier(self):
        tokens = tokenize('"select" x')
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].text == "select"

    def test_quoted_identifier_ends_after_its_closing_quote(self):
        tokens = tokenize('a."order" ""')
        assert [(t.position, t.end) for t in tokens] == [(0, 1), (1, 2), (2, 9), (10, 12), (12, 13)]

    def test_keyword_form_is_for_bare_identifiers_only(self):
        tokens = tokenize("""select "select" 'select' 1 ( Order""")
        assert [t.keyword for t in tokens] == ["SELECT", None, None, None, None, "ORDER", None]

    def test_token_is_immutable(self):
        token = tokenize("x")[0]
        with pytest.raises(AttributeError):
            token.text = "y"

    def test_eof_token_present(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_ident_with_underscore_and_digits(self):
        assert texts("ps_supplycost l_quantity x1") == [
            "ps_supplycost", "l_quantity", "x1",
        ]
