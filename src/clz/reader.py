"""The reader: source text in, positioned forms out, each line scanned once.

Surface syntax: symbols (case-insensitive, canonicalized upper), keywords
(:name), signed 64-bit integer literals ([+-]?[0-9]+), double-quoted
strings with \\" and \\\\ escapes, t / nil, ' and #' sugar, proper lists,
and ; comments.

A Reader is fed the text in pieces that end at newlines: a whole file, or
the REPL's lines one at a time. One compiled regex, run over each piece
with finditer, yields each lexeme together with the blanks in front of it,
and one loop builds forms from the matches, keeping open lists and quote
marks on an explicit stack, so nesting depth costs no host recursion. The
stack, the line count and the lines of an unfinished string carry over to
the next piece, which scans the string only once it can end. Every atom,
integers included, resolves through one table from spelling to datum.
"""

from __future__ import annotations

import re

from .errors import ReadError
from .values import INT_MAX, INT_MIN, NIL, T, Cons, Keyword, Symbol, brief, cut

_STRING_BODY = r'[^"\\]*(?:\\["\\][^"\\]*)*'  # the only escapes are \" and \\

# An atom runs up to whitespace, one of ( ) ' " ; # or the end. One that
# runs into a control character does not match at all, so that the
# character is diagnosed where it stands.
_ATOM_END = r"""(?![^ \t\r\n()'";#])"""

# Blanks, then one group per lexeme class, the most frequent first;
# m.lastindex says which one matched. Trailing blanks match with no group,
# and a character where no lexeme starts matches the last group alone.
_LEXEME = re.compile(
    r"[ \t\r]*(?:"
    r"""([^\x00-\x20()'";#]+)""" + _ATOM_END +  # 1 an atom: symbol, keyword or integer
    r"|(\()"                                # 2
    r"|(\))"                                # 3
    r"|(\n)"                                # 4
    r"|(;[^\n]*)"                           # 5 a comment
    r"|('|#')"                              # 6 quote marks
    r'|("' + _STRING_BODY + '")'            # 7 a string, quotes included
    r"|\Z|(.))", re.DOTALL)                 # 8 no lexeme starts here
_ATOM, _OPEN, _CLOSE, _NEWLINE, _COMMENT, _QUOTE, _STRING, _ILLEGAL = range(1, 9)

# The longest run of a string literal's body that is still well formed.
_BODY = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r'\\(["\\])')
_INTEGER = re.compile(r"[+-]?[0-9]+")  # ASCII digits only, unlike str.isdigit
_CONTROL = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f]")

_QUOTE_MARKS = {"'": Symbol.intern("QUOTE"), "#'": Symbol.intern("FUNCTION")}

# Each atom spelling read so far, integers included, mapped to its datum.
# A spelling that raises (lone : or ., an integer out of range) is never
# stored, so it raises on every read. Like the intern tables whose entries
# it holds, it lives as long as the process and grows only with distinct
# spellings.
_ATOMS: dict[str, object] = {}


class Form:
    """A parsed expression with the source position of its first character.

    ``datum`` is an atom (int, str, Symbol, Keyword, T, NIL) or a Python
    list of sub-Forms. Surface lists are always proper; ``()`` reads as NIL.
    ``cache`` is None as read. A first evaluation that succeeds keeps there
    what depends on this Form alone: its dispatch, quoted value or parse.
    A quote's value is made when the quote is dispatched, before that is kept.
    """

    __slots__ = ("datum", "line", "col", "cache")

    def __init__(self, datum, line: int, col: int):
        self.datum = datum
        self.line = line
        self.col = col
        self.cache = None

    def __repr__(self):
        """The printed form, cut to 80 characters for diagnostics."""
        return brief(form_to_value(self))


def read_source(text: str) -> list[Form]:
    """Read every top-level form in ``text``.

    Raises ReadError at the first error in source order, with ``incomplete``
    set when the text ended inside a form that more text could complete.
    """
    reader = Reader()
    forms = reader.feed(text)
    reader.close()
    return forms


class Reader:
    """Reads a source fed in pieces, each ending at a newline but the last.

    After ``feed`` or ``close`` raises, the reader is not used again.
    """

    def __init__(self):
        self._forms: list[Form] = []    # top-level forms not yet handed out
        self._items = self._forms       # the list the next finished form joins
        self._mark = None               # ' or #' while a quote mark awaits its form
        self._stack = []                # (items, mark, line, col) saved by each open ( or mark
        self._line, self._line_start = 1, 0  # the line's start as an offset into the next text
        self._string: list[str] = []    # the pieces of an unfinished string literal

    @property
    def open(self) -> bool:
        """Whether a form has begun and not ended."""
        return bool(self._stack or self._string)

    def feed(self, piece: str) -> list[Form]:
        """The top-level forms ``piece`` finishes; ReadError at the first error."""
        text = piece
        if self._string:    # pieces end at newlines, so none splits an escape
            if _BODY.fullmatch(piece):  # the literal runs on past this piece
                self._string.append(piece)
                return []
            text = "".join(self._string) + piece
        forms, items, mark, stack = self._forms, self._items, self._mark, self._stack
        line, line_start, string = self._line, self._line_start, ""
        for m in _LEXEME.finditer(text):
            kind = m.lastindex
            if kind == _ATOM:
                lexeme = m[_ATOM]
                col = m.start(_ATOM) - line_start + 1
                try:
                    datum = _ATOMS[lexeme]
                except KeyError:
                    datum = _ATOMS[lexeme] = _atom_datum(lexeme, line, col)
                form = Form(datum, line, col)
            elif kind == _OPEN:   # a ( or ) is the last character matched
                stack.append((items, mark, line, m.end() - line_start))
                items, mark = [], None
                continue
            elif kind == _CLOSE:
                if mark is not None:
                    raise ReadError(f"{mark} with no following form", line, m.end() - line_start)
                if not stack:
                    raise ReadError("unbalanced close parenthesis", line, m.end() - line_start)
                datum = items or NIL
                items, mark, line0, col0 = stack.pop()
                form = Form(datum, line0, col0)
            elif kind == _NEWLINE:
                line += 1
                line_start = m.end()
                continue
            elif kind == _COMMENT:
                continue
            elif kind == _QUOTE:
                stack.append((items, mark, line, m.start(_QUOTE) - line_start + 1))
                items, mark = None, m[_QUOTE]
                continue
            elif kind == _STRING:
                lexeme = m[_STRING]
                col = m.start(_STRING) - line_start + 1
                form = Form(_ESCAPE.sub(r"\1", lexeme[1:-1]), line, col)
                if "\n" in lexeme:
                    line += lexeme.count("\n")
                    line_start = text.rindex("\n", 0, m.end()) + 1
            elif kind == _ILLEGAL:
                error = _diagnose(text, m.start(_ILLEGAL), line, line_start)
                if not error.incomplete:
                    raise error
                string = text[m.start(_ILLEGAL):]   # the next piece may end it
                break
            else:
                continue    # the blanks at the end of the text
            # A finished form completes every quote mark waiting for it.
            while mark is not None:
                head = _QUOTE_MARKS[mark]
                items, mark, line0, col0 = stack.pop()
                form = Form([Form(head, line0, col0), form], line0, col0)
            items.append(form)
        self._items, self._mark, self._string = items, mark, [string] if string else []
        self._line, self._line_start = line, line_start - len(text) + len(string)
        done, forms[:] = forms[:], []
        return done

    def close(self) -> None:
        """Raise the incomplete ReadError of a form the text ended inside."""
        if self._string:
            raise _diagnose("".join(self._string), 0, self._line, self._line_start)
        if self._stack:
            mark, (_, _, line0, col0) = self._mark, self._stack[-1]
            message = "unclosed parenthesis" if mark is None else f"{mark} with no following form"
            raise ReadError(message, line0, col0, incomplete=True)


def _atom_datum(lexeme: str, line: int, col: int):
    """The datum an atom's spelling denotes: an integer, keyword, T, NIL or symbol."""
    if _INTEGER.fullmatch(lexeme):
        # int() takes at most 4,300 digits; 20 past sign and zeros are out of range
        value = int(lexeme.lstrip("+-0")[:20] or 0) * (-1 if lexeme[0] == "-" else 1)
        if not INT_MIN <= value <= INT_MAX:
            raise ReadError(f"integer literal {cut(lexeme)} outside the 64-bit signed range",
                            line, col)
        return value
    name = lexeme.upper()
    if name[0] == ":":
        if len(name) == 1:
            raise ReadError("lone ':' is not a keyword", line, col)
        return Keyword.intern(name[1:])
    if name == ".":
        raise ReadError("lone '.': dotted lists are not supported", line, col)
    return T if name == "T" else NIL if name == "NIL" else Symbol.intern(name)


def _diagnose(text: str, pos: int, line: int, line_start: int) -> ReadError:
    """The error at ``pos``, where no lexeme matches, on a line from ``line_start``.

    That is a '#' without a quote after it, a string that is unterminated
    or has an unknown escape, or a control character at or in an atom.
    """
    incomplete = False
    if text[pos] == "#":
        at, message = pos, "illegal character '#' (only #' is supported)"
    elif text[pos] == '"':
        at = _BODY.match(text, pos + 1).end()
        if at + 1 >= len(text):
            at, message, incomplete = pos, "unterminated string literal", True
        else:
            message = f"unknown string escape '\\{text[at + 1]}'"
    else:
        at = _CONTROL.search(text, pos).start()
        message = f"illegal character (codepoint {ord(text[at])})"
    if "\n" in text[pos:at]:   # only a string spans lines
        line += text.count("\n", pos, at)
        line_start = text.rindex("\n", pos, at) + 1
    return ReadError(message, line, at - line_start + 1, incomplete=incomplete)


def form_to_value(form: Form):
    """Quote semantics: turn a parsed form into the datum it denotes.

    Each list is consed up from its last item, with an explicit stack of
    the enclosing lists, so any nesting depth converts.
    """
    items = form.datum
    if not isinstance(items, list):
        return items
    pending = []  # (items, index, tail built so far) of each enclosing list
    i, tail = len(items), NIL
    while True:
        if i:
            i -= 1
            datum = items[i].datum
            if isinstance(datum, list):
                pending.append((items, i, tail))
                items, i, tail = datum, len(datum), NIL
            else:
                tail = Cons(datum, tail)
        elif pending:
            inner = tail
            items, i, tail = pending.pop()
            tail = Cons(inner, tail)
        else:
            return tail
