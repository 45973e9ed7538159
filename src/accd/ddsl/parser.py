"""Recursive-descent DDSL parser.

Tokens, read by one regular expression (``_TOKEN``):

* spaces, tabs, carriage returns and newlines separate tokens, and a block
  comment ``/* ... */`` is whitespace;
* a number is ASCII: ``[0-9]+``, a float when a ``.`` fraction or an
  ``e``/``E`` exponent follows;
* a string is ``"..."`` on one line, without escapes;
* an identifier starts with a letter (``str.isalpha``) or ``_`` and goes on
  with letters, digits (``str.isalnum``) or ``_``;
* punctuation is one of ``( ) { } , ; = -``.

Any other character is a syntax error. Accepted grammar, whose calls are
``ast._CALLS``:

    program    := decl+ construct*
    decl       := "DVar" ident dtype literal? ";"
                | "DSet" ident dtype szref szref ";"
    dtype      := "int" | "float" | "double"
    szref      := ident | integer
    construct  := call ";" | iter
    call       := "AccD_Comp_Dist" "(" ident "," ident "," ident "," ident
                  "," szref "," string "," szref ")"
                | "AccD_Dist_Select" "(" ident "," ident "," szref ","
                  string "," ident ")"
                | "AccD_Update" "(" ident ("," ident)+ ")"
    iter       := "AccD_Iter" "(" szref ")" "{" stmt+ "}"
    stmt       := call ";" | ident "=" ("true"|"false") ";"

An iteration block holds at least one call. The semicolon after the last
statement of an iteration block may be omitted. Parsing either returns a
complete Program or raises DdslSyntaxError; there is no partial success.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from ..errors import DdslSyntaxError, Span
from .ast import (
    _CALLS,
    Iter,
    Program,
    SetDecl,
    SizeRef,
    StatusAssign,
    VarDecl,
    DTYPE_MAP,
)

# One named group per token class, tried in this order at each offset.
# COMMENT and STRING also match an unclosed one, which _lex reports.
_TOKEN = re.compile(
    r"""(?P<SPACE>[ \t\r\n]+)
    | (?P<COMMENT>/\*(?:.*?\*/)?)
    | (?P<NUMBER>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)
    | (?P<STRING>"[^"\n]*"?)
    | (?P<IDENT>\w+)
    | (?P<PUNCT>[(){},;=-])
    | (?P<ERROR>.)""",
    re.DOTALL | re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT INT FLOAT STRING PUNCT EOF
    text: str
    line: int
    col: int

    def span(self) -> Span:
        return Span(self.line, self.col)


def _lex(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, word, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "COMMENT" and not word.endswith("*/", 2):
            raise DdslSyntaxError(line, col, {"'*/'"}, "end of input")
        if kind in ("SPACE", "COMMENT"):
            newlines = word.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + word.rfind("\n") + 1
            continue
        if kind == "STRING":
            if len(word) == 1 or not word.endswith('"'):
                raise DdslSyntaxError(line, col, {"closing '\"'"}, "end of line")
            toks.append(_Token("STRING", word[1:-1], line, col))
            continue
        if kind == "IDENT" and not (word[0].isalpha() or word[0] == "_"):
            kind = "ERROR"  # \w also matches numerals that are not letters
        if kind == "ERROR":
            raise DdslSyntaxError(line, col, {"token"}, repr(word[0]))
        if kind == "NUMBER":
            kind = "INT" if word.isdigit() else "FLOAT"
        toks.append(_Token(kind, word, line, col))
    toks.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return toks


def _int(t: _Token) -> int:
    try:
        return int(t.text)
    except ValueError:  # more digits than Python converts
        limit = sys.get_int_max_str_digits()
        raise DdslSyntaxError(
            t.line, t.col, {f"integer of at most {limit} digits"}, f"{len(t.text)} digits"
        ) from None


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def fail(self, expected) -> None:
        t = self.peek()
        found = "end of input" if t.kind == "EOF" else repr(t.text)
        raise DdslSyntaxError(t.line, t.col, expected, found)

    def at_punct(self, ch: str) -> bool:
        t = self.peek()
        return t.kind == "PUNCT" and t.text == ch

    def expect_punct(self, ch: str) -> None:
        if not self.at_punct(ch):
            self.fail({f"'{ch}'"})
        self.advance()

    def expect_ident(self, what: str = "identifier") -> _Token:
        if self.peek().kind == "IDENT":
            return self.advance()
        self.fail({what})

    def at_ident(self, *words: str) -> bool:
        t = self.peek()
        return t.kind == "IDENT" and t.text in words

    # -- grammar --------------------------------------------------------

    def parse_program(self) -> Program:
        decls = []
        if not self.at_ident("DVar", "DSet"):
            self.fail({"'DVar'", "'DSet'"})
        while self.at_ident("DVar", "DSet"):
            decls.append(self.parse_decl())
        body = []
        while self.peek().kind != "EOF":
            body.append(self.parse_construct(inside_iter=False))
        return Program(decls=tuple(decls), body=tuple(body))

    def parse_decl(self):
        head = self.advance()
        name = self.expect_ident("declaration name")
        if not self.at_ident(*DTYPE_MAP):
            self.fail({"'int'", "'float'", "'double'"})
        dtype = DTYPE_MAP[self.advance().text]
        if head.text == "DVar":
            init = None
            if self.peek().kind in ("INT", "FLOAT") or self.at_punct("-"):
                init = self.parse_literal(dtype)
            self.expect_punct(";")
            return VarDecl(name=name.text, dtype=dtype, init=init, span=head.span())
        size = self.parse_szref()
        dim = self.parse_szref()
        self.expect_punct(";")
        return SetDecl(name=name.text, dtype=dtype, size=size, dim=dim, span=head.span())

    def parse_literal(self, dtype: str):
        neg = self.at_punct("-")
        if neg:
            self.advance()
        t = self.peek()
        if t.kind not in ("INT", "FLOAT"):
            self.fail({"numeric literal"})
        self.advance()
        # Float-typed variables store float inits so printing round-trips,
        # and an integer literal has no negative zero.
        v = _int(t) if t.kind == "INT" and dtype == "int32" else float(t.text)
        if neg:
            v = -v if t.kind == "FLOAT" else 0 - v
        return v

    def parse_szref(self) -> SizeRef:
        t = self.peek()
        if t.kind == "IDENT":
            self.advance()
            return SizeRef(name=t.text, span=t.span())
        if t.kind == "INT":
            self.advance()
            return SizeRef(value=_int(t), span=t.span())
        self.fail({"identifier", "integer"})

    def parse_construct(self, inside_iter: bool):
        """One call, or at top level an iteration block."""
        if self.at_ident(*_CALLS):
            return self.parse_call(inside_iter)
        if inside_iter:
            self.fail({f"'{h}'" for h in _CALLS} | {"'}'"})
        if self.at_ident("AccD_Iter"):
            return self.parse_iter()
        self.fail({f"'{h}'" for h in _CALLS} | {"'AccD_Iter'"})

    def _finish_stmt(self, inside_iter: bool) -> None:
        """Consume the trailing semicolon; inside an iteration block it may
        be omitted immediately before the closing brace."""
        if not (inside_iter and self.at_punct("}")):
            self.expect_punct(";")

    def parse_arg(self, kind: str):
        if kind == "ident":
            return self.expect_ident().text
        if kind == "size":
            return self.parse_szref()
        if kind == "idents":
            names = [self.expect_ident().text]
            while len(names) < 2 or self.at_punct(","):
                self.expect_punct(",")
                names.append(self.expect_ident().text)
            return tuple(names)
        if self.peek().kind != "STRING":
            self.fail({f"{kind} string"})
        return self.advance().text

    def parse_call(self, inside_iter: bool):
        head = self.advance()
        cls, kinds = _CALLS[head.text]
        self.expect_punct("(")
        args = []
        for i, kind in enumerate(kinds):
            if i:
                self.expect_punct(",")
            args.append(self.parse_arg(kind))
        self.expect_punct(")")
        self._finish_stmt(inside_iter)
        return cls(*args, span=head.span())

    def parse_iter(self) -> Iter:
        head = self.advance()
        self.expect_punct("(")
        cond = self.parse_szref()
        self.expect_punct(")")
        self.expect_punct("{")
        assigns: list[StatusAssign] = []
        body = []
        while not self.at_punct("}"):
            t = self.peek()
            if t.kind == "EOF":
                self.fail({"'}'"})
            if t.kind == "IDENT" and t.text not in _CALLS and t.text != "AccD_Iter":
                assigns.append(self.parse_status_assign())
            else:
                body.append(self.parse_construct(inside_iter=True))
        close = self.advance()
        if not body:
            raise DdslSyntaxError(
                close.line, close.col, {"at least one construct"}, "'}'"
            )
        return Iter(
            condition=cond,
            status_assigns=tuple(assigns),
            body=tuple(body),
            span=head.span(),
        )

    def parse_status_assign(self) -> StatusAssign:
        name = self.advance()
        self.expect_punct("=")
        if not self.at_ident("true", "false"):
            self.fail({"'true'", "'false'"})
        value = self.advance().text == "true"
        self._finish_stmt(inside_iter=True)
        return StatusAssign(name=name.text, value=value, span=name.span())


def parse(text: str) -> Program:
    """Parse DDSL source into a Program, or raise DdslSyntaxError."""
    return _Parser(text).parse_program()
