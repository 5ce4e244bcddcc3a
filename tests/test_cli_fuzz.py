"""The command line ends every run with an exit code, never a traceback.

Generated inputs run in-process through ``cli.main`` three ways: as a file,
as --eval (also repeated) and as REPL input. They mix long digit runs, deep nesting, NUL,
vertical tab, unclosed forms, strings across lines and, in a file, bytes
that are not UTF-8.
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from clz import cli

_PIECES = st.sampled_from([
    "(", ")", "'", "#'", "#", " ", "\n", "\x00", "\x0b", '"', '"a\nb"', "\\", "; c\n",
    "x", ":k", "(+ 1 2)", "(car nil)", "(diverge)", "(loop)",
    "(defun f (n) (f n))", "(defun g (n) (+ 1 (g n)))", "(f 1)", "(g 1)",
    "1" * 5000, "-" + "0" * 5000 + "7", str(2 ** 63), "(" * 3000, ")" * 3000,
])

# Small budgets keep each run short; exceeding them is exit 3 or 1.
_LIMITS = ["--step-limit", "20000", "--recursion-limit", "500"]


def run_main(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(_LIMITS + argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code


class TestCliFuzz:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(_PIECES, max_size=12).map("".join), st.sampled_from([b"", b"\xff", b"\xc3"]))
    def test_no_input_ends_in_a_traceback(self, text, tail):
        run_main(["--eval", text])
        run_main([], stdin=text)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "prog.lisp")
            with open(path, "wb") as fh:
                fh.write(text.encode() + tail)
            code = run_main([path])
        assert (code == 2) == bool(tail)  # only bytes that are not UTF-8 fail to read


def run_main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO("")), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(_LIMITS + argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code, out.getvalue(), err.getvalue()


class TestRepeatedEvalFuzz:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(st.lists(_PIECES, max_size=6).map("".join), min_size=1, max_size=3))
    def test_texts_run_in_order_up_to_the_first_failure(self, texts):
        argv = [arg for text in texts for arg in ("--eval", text)]
        code, out, err = run_main_captured(argv)
        first_code, first_out, first_err = run_main_captured(argv[:2])
        if first_code:  # the first text failed, so no later text ran
            assert (code, out, err) == (first_code, first_out, first_err)
        else:  # the first text's output comes first, whatever follows
            assert out.startswith(first_out)
