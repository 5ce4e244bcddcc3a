"""Lambda-list parsing: required, &optional, &rest, and &key parameters.

Parsing is purely structural, so the first lambda, defun or deflazy to
reach a lambda-list form keeps its parse on the form; a bad one raises
each time. One pass reads the items; a table gives each marker its
section, and sections only move forward. Binding is in core.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import EvalError
from .values import NIL, Keyword, Symbol, cut
from .reader import Form

_KEY = Symbol.intern("&KEY")
# Each marker's section; the required parameters are section 0.
_SECTIONS = {Symbol.intern("&OPTIONAL"): 1, Symbol.intern("&REST"): 2, _KEY: 3}


# An &optional parameter (keyword None) or a &key parameter (keyword :name);
# default and supplied are None when no default form or supplied-p is written.
Param = namedtuple("Param", "name keyword default supplied")


class LambdaList:
    __slots__ = ("required", "optional", "rest", "keys", "simple")

    def __init__(self, required, optional, rest, keys):
        self.required: list[Symbol] = required
        self.optional: list[Param] = optional
        self.rest: Symbol | None = rest
        self.keys: list[Param] | None = keys  # None when &key is not written
        self.simple = not optional and rest is None and keys is None  # required only


def _bad(msg: str, form: Form) -> EvalError:
    return EvalError(msg, form.line, form.col, kind="malformed-lambda-list")


def _claim(form: Form, seen: set, at: Form | None = None) -> Symbol:
    """The name ``form`` holds, added to ``seen``; a duplicate is reported at ``at``."""
    name = form.datum
    if not isinstance(name, Symbol) or name.name.startswith("&"):
        raise _bad(f"expected a parameter name, got {form!r}", form)
    if name in seen:
        raise _bad(f"duplicate parameter name {cut(name.name)}", at or form)
    seen.add(name)
    return name


def parse_lambda_list(form: Form) -> LambdaList:
    """Parse the lambda-list position of lambda/defun/deflazy.

    ``form`` is either the NIL atom (an empty ``()`` list) or a list form.
    Section order is fixed: required, &optional, &rest, &key.
    """
    items = [] if form.datum is NIL else form.datum
    if not isinstance(items, list):
        raise _bad(f"lambda list must be a list, got {form!r}", form)
    required: list[Symbol] = []
    optional: list[Param] = []
    rest: Symbol | None = None
    keys: list[Param] | None = None
    seen: set[Symbol] = set()
    section = 0
    marker = None  # the last marker read
    for item in items:
        d = item.datum
        if section == 2 and rest is not None and d is not _KEY:
            raise _bad("only &key may follow the &rest parameter", item)
        if isinstance(d, Symbol) and d.name.startswith("&"):
            if section == 2 and rest is None:
                raise _bad("&rest must be followed by one parameter name", marker)
            if d not in _SECTIONS:
                raise _bad(f"unknown lambda-list marker {cut(d.name)}", item)
            if _SECTIONS[d] <= section:
                raise _bad(f"{d.name} out of order", item)
            section, marker = _SECTIONS[d], item
            if d is _KEY:
                keys = []
        elif section == 0:
            required.append(_claim(item, seen))
        elif section == 1:
            optional.append(_parse_param(item, seen, keyed=False))
        elif section == 3:
            keys.append(_parse_param(item, seen, keyed=True))
        else:
            rest = _claim(item, seen)
    if section == 2 and rest is None:
        raise _bad("&rest must be followed by one parameter name", marker)
    return LambdaList(required, optional, rest, keys)


def lambda_list_of(form: Form) -> LambdaList:
    """The parse of lambda-list ``form``, made on its first use only."""
    if form.cache is None:
        form.cache = parse_lambda_list(form)
    return form.cache


def _parse_param(item: Form, seen: set, keyed: bool) -> Param:
    """Parse one &optional parameter, or one &key parameter if ``keyed``."""
    d = item.datum
    if isinstance(d, Symbol):
        d = [item]  # a bare name reads as (name)
    if not isinstance(d, list) or not 1 <= len(d) <= 3:
        section = "&key" if keyed else "&optional"
        raise _bad(f"malformed {section} parameter {item!r}", item)
    head = d[0]
    keyword = None
    if keyed and isinstance(head.datum, list):
        # ((:external internal) default supplied-p)
        pair = head.datum
        if len(pair) != 2 or not isinstance(pair[0].datum, Keyword):
            raise _bad(f"malformed &key name pair {head!r}", head)
        keyword = pair[0].datum
        name = _claim(pair[1], seen, head)
    elif keyed and (not isinstance(head.datum, Symbol) or head.datum.name.startswith("&")):
        raise _bad(f"malformed &key parameter {item!r}", item)
    else:
        name = _claim(head, seen)
        if keyed:
            keyword = Keyword.intern(name.name)
    default = d[1] if len(d) >= 2 else None
    supplied = _claim(d[2], seen) if len(d) == 3 else None
    return Param(name, keyword, default, supplied)
