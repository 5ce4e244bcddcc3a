"""Lambda-list parsing: required, &optional, &rest, and &key parameters.

Parsing is purely structural, so the first lambda, defun or deflazy that
reaches a lambda-list form keeps its parse on the form; a bad one raises
each time. Binding argument values against the parsed shape lives in core.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import EvalError
from .values import NIL, Keyword, Symbol
from .reader import Form

_OPTIONAL = Symbol.intern("&OPTIONAL")
_REST = Symbol.intern("&REST")
_KEY = Symbol.intern("&KEY")
_MARKERS = {_OPTIONAL, _REST, _KEY}


class Param(NamedTuple):
    """An &optional parameter (``keyword`` None) or a &key parameter."""
    name: Symbol                # the variable bound in the body
    keyword: Optional[Keyword]  # the marker callers pass, e.g. :name
    default: Optional[Form]     # None means no default written (binds NIL)
    supplied: Optional[Symbol]  # supplied-p variable, if written


class LambdaList:
    __slots__ = ("required", "optional", "rest", "keys")

    def __init__(self, required, optional, rest, keys):
        self.required: list[Symbol] = required
        self.optional: list[Param] = optional
        self.rest: Optional[Symbol] = rest
        self.keys: Optional[list[Param]] = keys  # None when &key is not written


def _bad(msg: str, form: Form) -> EvalError:
    return EvalError(msg, form.line, form.col, kind="malformed-lambda-list")


def _param_symbol(form: Form) -> Symbol:
    d = form.datum
    if not isinstance(d, Symbol) or d in _MARKERS:
        raise _bad(f"expected a parameter name, got {form!r}", form)
    return d


def _looks_like_marker(datum) -> bool:
    return isinstance(datum, Symbol) and datum.name.startswith("&")


def parse_lambda_list(form: Form) -> LambdaList:
    """Parse the lambda-list position of lambda/defun/deflazy.

    ``form`` is either the NIL atom (an empty ``()`` list) or a list form.
    Section order is fixed: required, &optional, &rest, &key.
    """
    if form.datum is NIL:
        items: list[Form] = []
    elif isinstance(form.datum, list):
        items = form.datum
    else:
        raise _bad(f"lambda list must be a list, got {form!r}", form)

    required: list[Symbol] = []
    optional: list[Param] = []
    rest: Optional[Symbol] = None
    keys: Optional[list[Param]] = None
    seen: set[Symbol] = set()

    def claim(name: Symbol, where: Form):
        if name in seen:
            raise _bad(f"duplicate parameter name {name.name}", where)
        seen.add(name)

    SECTION_REQUIRED, SECTION_OPTIONAL, SECTION_REST, SECTION_KEY = 0, 1, 2, 3
    section = SECTION_REQUIRED
    i = 0
    while i < len(items):
        item = items[i]
        d = item.datum
        if _looks_like_marker(d):
            if d is _OPTIONAL and section < SECTION_OPTIONAL:
                section = SECTION_OPTIONAL
            elif d is _REST and section < SECTION_REST:
                section = SECTION_REST
                if i + 1 >= len(items) or _looks_like_marker(items[i + 1].datum):
                    raise _bad("&rest must be followed by one parameter name", item)
                rest = _param_symbol(items[i + 1])
                claim(rest, items[i + 1])
                i += 2
                # only &key may follow the rest parameter
                if i < len(items) and items[i].datum is not _KEY:
                    raise _bad("only &key may follow the &rest parameter", items[i])
                continue
            elif d is _KEY and section < SECTION_KEY:
                section = SECTION_KEY
                keys = []
            else:
                if d in _MARKERS:
                    raise _bad(f"{d.name} out of order", item)
                raise _bad(f"unknown lambda-list marker {d.name}", item)
            i += 1
            continue

        if section == SECTION_REQUIRED:
            name = _param_symbol(item)
            claim(name, item)
            required.append(name)
        elif section == SECTION_OPTIONAL:
            optional.append(_parse_param(item, claim, keyed=False))
        else:  # SECTION_KEY: only &key may follow the &rest parameter
            keys.append(_parse_param(item, claim, keyed=True))
        i += 1

    return LambdaList(required, optional, rest, keys)


def lambda_list_of(form: Form) -> LambdaList:
    """The parse of lambda-list ``form``, made on its first use only."""
    if form.cache is None:
        form.cache = parse_lambda_list(form)
    return form.cache


def _parse_param(item: Form, claim, keyed: bool) -> Param:
    """Parse one &optional parameter, or one &key parameter if ``keyed``."""
    d = item.datum
    if isinstance(d, Symbol):
        claim(d, item)
        return Param(d, Keyword.intern(d.name) if keyed else None, None, None)
    marker = "&key" if keyed else "&optional"
    if not isinstance(d, list) or not 1 <= len(d) <= 3:
        raise _bad(f"malformed {marker} parameter {item!r}", item)

    head = d[0]
    keyword = None
    if not keyed:
        name = _param_symbol(head)
    elif isinstance(head.datum, list):
        # ((:external internal) default supplied-p)
        pair = head.datum
        if len(pair) != 2 or not isinstance(pair[0].datum, Keyword):
            raise _bad(f"malformed &key name pair {head!r}", head)
        keyword = pair[0].datum
        name = _param_symbol(pair[1])
    elif isinstance(head.datum, Symbol) and head.datum not in _MARKERS:
        name = head.datum
        keyword = Keyword.intern(name.name)
    else:
        raise _bad(f"malformed &key parameter {item!r}", item)
    claim(name, head)

    default = d[1] if len(d) >= 2 else None
    supplied = None
    if len(d) == 3:
        supplied = _param_symbol(d[2])
        claim(supplied, d[2])
    return Param(name, keyword, default, supplied)
