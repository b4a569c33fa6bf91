"""Lexer for MiniC, the C subset the benchmarks are written in.

MiniC keeps the parts of C that make CGCM's problem hard -- raw
pointers, pointer arithmetic, aliasing, casts, jagged arrays, global
arrays -- and drops what the benchmarks do not need (preprocessor,
typedef, unions, bitfields).  Two extensions mirror CUDA C:

* ``__global__`` marks a kernel function (first parameter = thread id),
* ``__launch(kernel, grid, args...)`` spawns a kernel grid.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from ..errors import FrontendError

KEYWORDS = frozenset({
    "int", "long", "char", "float", "double", "void", "unsigned", "signed",
    "const", "static", "struct", "sizeof", "if", "else", "for", "while",
    "do", "return", "break", "continue", "__global__", "__launch",
    "extern", "restrict",
})

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=",
    "/=", "%=", "&=", "|=", "^=", "<<", ">>", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]

_TOKEN_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<ws>\s+)
    | (?P<float>(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?[fF]?|\d+[eE][-+]?\d+[fF]?|\d+[fF])
    | (?P<int>0[xX][0-9a-fA-F]+|\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"(?:\\.|[^"\\])*")
    | (?P<char>'(?:\\.|[^'\\])')
    | (?P<op>""" + "|".join(re.escape(op) for op in _OPERATORS) + r""")
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: str          # 'keyword' | 'ident' | 'int' | 'float' | 'string'
    #                   | 'char' | 'op' | 'eof'
    text: str
    line: int
    column: int


def tokenize(source: str) -> List[Token]:
    """Tokenize MiniC source; raises :class:`FrontendError` on bad input."""
    tokens: List[Token] = []
    line = 1
    line_start = 0
    pos = 0
    length = len(source)
    while pos < length:
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            column = pos - line_start + 1
            raise FrontendError(f"unexpected character {source[pos]!r}",
                                line, column)
        kind = match.lastgroup or ""
        text = match.group()
        column = pos - line_start + 1
        pos = match.end()
        if "\n" in text:
            line += text.count("\n")
            line_start = match.start() + text.rfind("\n") + 1
        if kind in ("ws", "comment"):
            continue
        if kind == "ident" and text in KEYWORDS:
            kind = "keyword"
        tokens.append(Token(kind, text, line, column))
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
            "'": "'", '"': '"'}


def unescape_string(text: str, line: int = 0) -> str:
    """Decode a quoted string or char literal body."""
    body = text[1:-1]
    out: List[str] = []
    i = 0
    while i < len(body):
        char = body[i]
        if char == "\\":
            escape = body[i + 1]
            if escape not in _ESCAPES:
                raise FrontendError(f"unknown escape \\{escape}", line)
            out.append(_ESCAPES[escape])
            i += 2
        else:
            out.append(char)
            i += 1
    return "".join(out)
