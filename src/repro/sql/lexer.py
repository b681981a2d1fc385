"""SQL lexer: one compiled pattern, run once over the text.

Produces a flat list of :class:`Token`. Keywords are not a token kind: a
bare identifier carries its upper-case spelling in :attr:`Token.keyword`
and the parser compares that against the keywords it expects. Quoted
identifiers carry ``keyword=None``, so ``"order"`` is a name and never the
keyword ORDER, and the Starburst ``DT(cols) AS (...)`` derived-table syntax
can use e.g. ``DT`` as a name.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple, Optional

from ..errors import LexError


class TokenKind(enum.Enum):
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    SYMBOL = "SYMBOL"
    EOF = "EOF"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    value: object  # parsed value for NUMBER/STRING, text otherwise
    position: int
    line: int
    column: int
    #: One past the token's last source character, quotes included.
    end: int
    #: Upper-case text of a bare identifier; ``None`` for every other token,
    #: quoted identifiers included.
    keyword: Optional[str]


#: The whole lexical grammar: the blanks before a token, then exactly one
#: of the groups, tried in order. ``findall`` hands back one tuple of
#: strings per token, so no match objects are built and a token's position
#: is the running sum of the lengths before it. A newline is its own group
#: and the only one that moves the line: strings and quoted identifiers may
#: span lines without changing the line of the tokens after them. ``bad``
#: takes the one character no other group accepts; trailing blanks match
#: nothing and are skipped. The plan cache's literal extraction
#: (:func:`repro.plan.cache.extract_parameters`) runs the same pattern.
TOKEN_PATTERN = re.compile(
    r"""([ \t\r]*)(?:
      ([A-Za-z_][A-Za-z0-9_\#$]*)
    | (<>|<=|>=|!=|\|\||[(),+*/<>=;?]|-(?!-)|\.(?![0-9]))
    | ((?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (\n)
    | (--[^\n]*)
    | ('[^']*(?:''[^']*)*'(?!'))
    | ("[^"]*")
    | ([^ \t\r])
    )""",
    re.VERBOSE,
)


def number_value(text: str) -> object:
    """A NUMBER token's value: ``float`` when a fraction or an exponent is
    spelled, ``int`` otherwise."""
    return float(text) if "." in text or "e" in text or "E" in text else int(text)


def string_value(text: str) -> str:
    """A STRING token's value: the quotes dropped and ``''`` unescaped."""
    return text[1:-1].replace("''", "'")


_IDENT = TokenKind.IDENT
_NUMBER = TokenKind.NUMBER
_STRING = TokenKind.STRING
_SYMBOL = TokenKind.SYMBOL
#: ``_new(Token, fields)`` is what ``Token(*fields)`` does, without the
#: Python-level ``__new__`` in between.
_new = tuple.__new__


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`LexError` on invalid input."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    end = 0
    for space, ident, symbol, number, newline, comment, string, quoted, bad in (
        TOKEN_PATTERN.findall(text)
    ):
        start = end + len(space)
        column = start - line_start + 1
        if ident:
            end = start + len(ident)
            append(_new(Token, (_IDENT, ident, ident, start, line, column, end, ident.upper())))
        elif symbol:
            end = start + len(symbol)
            append(_new(Token, (_SYMBOL, symbol, symbol, start, line, column, end, None)))
        elif newline:
            end = line_start = start + 1
            line += 1
        elif number:
            end = start + len(number)
            append(_new(Token, (_NUMBER, number, number_value(number), start, line, column, end, None)))
        elif comment:
            end = start + len(comment)
        elif string:
            end = start + len(string)
            append(_new(Token, (_STRING, string, string_value(string), start, line, column, end, None)))
        elif quoted:
            end = start + len(quoted)
            name = quoted[1:-1]
            append(_new(Token, (_IDENT, name, name, start, line, column, end, None)))
        elif bad == "'":
            raise LexError("unterminated string literal", start, line, column)
        elif bad == '"':
            raise LexError("unterminated quoted identifier", start, line, column)
        else:
            raise LexError(f"unexpected character {bad!r}", start, line, column)
    # EOF spans one character past the text, so an error there has a width.
    n = len(text)
    tokens.append(Token(TokenKind.EOF, "", None, n, line, n - line_start + 1, n + 1, None))
    return tokens
