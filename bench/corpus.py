"""Random pure programs for the corpus workload, each with its expected value.

This is the benchmark's own copy of the strict/lazy agreement generator, so
that a change to the test suite's generator cannot change benchmark traffic.
A program is a three-parameter function body of integer arithmetic and `if`
over `=`/`<` comparisons, plus three small pure argument forms. The expected
value is computed here in Python, independently of the interpreter. Programs
whose evaluated path leaves less than comfortable 64-bit headroom are redrawn.
"""

from __future__ import annotations

import random

PARAMS = ("a", "b", "c")
_SAFE_MAGNITUDE = 2 ** 62


class _Overflowy(Exception):
    pass


def _gen_expr(rng: random.Random, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.30:
        if rng.random() < 0.5:
            return rng.randint(-50, 50)
        return ("p", rng.randrange(3))
    if roll < 0.50:
        return ("+", _gen_expr(rng, depth - 1), _gen_expr(rng, depth - 1))
    if roll < 0.65:
        return ("-", _gen_expr(rng, depth - 1), _gen_expr(rng, depth - 1))
    if roll < 0.75:
        return ("*", _gen_expr(rng, depth - 1), _gen_expr(rng, depth - 1))
    if roll < 0.83:
        return ("1+", _gen_expr(rng, depth - 1))
    cmp_op = rng.choice(("=", "<"))
    return ("if", cmp_op,
            _gen_expr(rng, depth - 1), _gen_expr(rng, depth - 1),
            _gen_expr(rng, depth - 1), _gen_expr(rng, depth - 1))


def _expr_src(node) -> str:
    if isinstance(node, int):
        return str(node)
    tag = node[0]
    if tag == "p":
        return PARAMS[node[1]]
    if tag == "1+":
        return f"(1+ {_expr_src(node[1])})"
    if tag == "if":
        _, cmp_op, left, right, then, alt = node
        return (f"(if ({cmp_op} {_expr_src(left)} {_expr_src(right)}) "
                f"{_expr_src(then)} {_expr_src(alt)})")
    return f"({tag} {_expr_src(node[1])} {_expr_src(node[2])})"


def _expr_eval(node, args):
    """Reference evaluation; only the taken `if` branch is computed."""
    if isinstance(node, int):
        return node
    tag = node[0]
    if tag == "p":
        return args[node[1]]
    if tag == "1+":
        return _guard(_expr_eval(node[1], args) + 1)
    if tag == "if":
        _, cmp_op, left, right, then, alt = node
        lv = _expr_eval(left, args)
        rv = _expr_eval(right, args)
        taken = (lv == rv) if cmp_op == "=" else (lv < rv)
        return _expr_eval(then if taken else alt, args)
    lv = _expr_eval(node[1], args)
    rv = _expr_eval(node[2], args)
    if tag == "+":
        return _guard(lv + rv)
    if tag == "-":
        return _guard(lv - rv)
    return _guard(lv * rv)


def _guard(value: int) -> int:
    if abs(value) > _SAFE_MAGNITUDE:
        raise _Overflowy
    return value


def _gen_arg(rng: random.Random):
    roll = rng.random()
    if roll < 0.4:
        v = rng.randint(-40, 40)
        return str(v), v
    if roll < 0.7:
        x, y = rng.randint(-20, 20), rng.randint(-20, 20)
        return f"(+ {x} {y})", x + y
    x, y = rng.randint(-12, 12), rng.randint(-12, 12)
    return f"(* {x} {y})", x * y


def generate_program(rng: random.Random):
    """One program: (body_src, arg_srcs, expected_value)."""
    while True:
        body = _gen_expr(rng, 4)
        arg_pairs = [_gen_arg(rng) for _ in range(3)]
        try:
            expected = _expr_eval(body, [v for _, v in arg_pairs])
        except _Overflowy:
            continue
        return _expr_src(body), [s for s, _ in arg_pairs], expected
