"""End-to-end command line behavior via subprocesses."""

import contextlib
import io
import os
import resource
import signal
import subprocess
import sys

import pytest

import clz
from clz import cli
from clz.core import MAX_RECURSION_LIMIT

CLZ = [sys.executable, "-m", "clz"]


def run_clz(*args, stdin=None, timeout=60):
    return subprocess.run(
        CLZ + list(args),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def script(tmp_path, text, name="prog.lisp"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestRepl:
    def test_prompt_evaluate_print_loop(self):
        proc = run_clz(stdin="(+ 1 2)\n")
        assert proc.returncode == 0
        assert "clz> " in proc.stdout
        assert "3" in proc.stdout

    def test_transcript(self):
        lines = (
            "(deflazy si (c e a) (if c e a))\n"
            "(lazy-call #'si t 42 (diverge))\n"
        )
        proc = run_clz(stdin=lines)
        assert proc.returncode == 0
        replies = [
            chunk.strip()
            for chunk in proc.stdout.split("clz> ")
            if chunk.strip()
        ]
        assert replies == ["SI", "42"]

    def test_read_error_does_not_kill_the_session(self):
        proc = run_clz(stdin="(\n(car nil)\n")
        assert proc.returncode == 0
        assert "read-error" in proc.stdout
        assert "unclosed" in proc.stdout
        assert proc.stdout == ("clz> ...  ...  read-error at 1:1: unclosed parenthesis\n"
                               "clz> \n")

    def test_form_continues_across_lines(self):
        proc = run_clz(stdin="(defun sq (x)\n  (* x x))\n(sq 7)\n")
        assert proc.returncode == 0
        assert "read-error" not in proc.stdout
        replies = [
            chunk.strip()
            for chunk in proc.stdout.split("clz> ")
            if chunk.strip()
        ]
        assert replies == ["...  SQ", "49"]

    def test_unbalanced_close_does_not_swallow_the_next_line(self):
        proc = run_clz(stdin=') "abc\n(+ 1 2)\n')
        assert proc.returncode == 0
        assert "...  " not in proc.stdout
        replies = [
            chunk.strip()
            for chunk in proc.stdout.split("clz> ")
            if chunk.strip()
        ]
        assert replies == ["read-error at 1:1: unbalanced close parenthesis", "3"]

    def test_eval_error_reports_kind_and_position(self):
        proc = run_clz(stdin="(boom)\n(+ 1 1)\n")
        assert proc.returncode == 0
        # position points at the offending symbol inside the form
        assert "unbound-symbol at 1:2" in proc.stdout
        assert "2" in proc.stdout.split("clz> ")[-2]

    def test_multiple_forms_on_one_line(self):
        proc = run_clz(stdin="(+ 1 2) (+ 3 4)\n")
        assert "3" in proc.stdout and "7" in proc.stdout

    def test_eof_exits_zero(self):
        proc = run_clz(stdin="")
        assert proc.returncode == 0

    def test_a_lines_forms_run_once_none_is_left_open(self):
        proc = run_clz(stdin="(+ 1 2) (car\n'(9))\n")
        assert proc.returncode == 0
        assert proc.stdout == "clz> ...  3\n9\nclz> \n"

    def test_a_long_pasted_form_reads_each_line_once(self):
        lines = "".join(f"(+ {i} 1)\n" for i in range(20_000))
        proc = run_clz(stdin=f"(progn\n{lines})\n", timeout=30)
        assert proc.returncode == 0
        assert proc.stdout.endswith("...  20000\nclz> \n")

    def test_a_long_string_literal_reads_each_line_once(self):
        body = "".join(f"line {i}\n" for i in range(20_000))
        proc = run_clz(stdin=f'(print "{body}")\n', timeout=30)
        assert proc.returncode == 0
        assert proc.stdout == "clz> " + "...  " * 20_000 + f'"{body}"\n' * 2 + "clz> \n"

    def test_unclosed_forms_at_end_of_input_are_one_read_error(self):
        # the open form's lines are dropped at EOF, not read again
        proc = run_clz(stdin="(\n" * 20_000, timeout=30)
        assert proc.returncode == 0
        assert proc.stdout.count("read-error") == 1
        assert proc.stdout.endswith("read-error at 20000:1: unclosed parenthesis\nclz> \n")


class TestClosedStdout:
    @pytest.mark.parametrize("mode", ["file", "eval", "repl"])
    def test_a_closed_stdout_exits_one_without_a_traceback(self, tmp_path, mode):
        args = {"file": [script(tmp_path, "(print 1)\n")],
                "eval": ["--eval", "(+ 1 2)"], "repl": []}[mode]
        proc = subprocess.Popen(CLZ + args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        proc.stdout.close()   # before the child writes anything
        _, err = proc.communicate("(+ 1 2)\n", timeout=60)
        assert proc.returncode == 1
        assert err == ""


class TestRunFile:
    def test_quiet_run_prints_only_print_output(self, tmp_path):
        path = script(tmp_path, """
(deflazy si (c e a) (if c e a))
(defparameter ll (lazy-call 'conc 1 (lazy-call 'conc (diverge) (lazy-call 'conc 3 (diverge)))))
(+ 1 2)
(print (head (tail (tail ll))))
""")
        proc = run_clz(path)
        assert proc.returncode == 0
        assert proc.stdout == "3\n"
        assert proc.stderr == ""

    def test_stream_printing(self, tmp_path):
        path = script(tmp_path, "(print (stream-take (integers-from 0) 3))\n")
        proc = run_clz(path)
        assert proc.returncode == 0
        assert proc.stdout == "(0 1 2)\n"

    def test_error_diagnostic_names_file_line_column(self, tmp_path):
        path = script(tmp_path, "(+ 1 2)\n  (car 5)\n")
        proc = run_clz(path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert f"{path}:2:3:" in proc.stderr
        assert "type-error" in proc.stderr

    def test_read_error_exits_one(self, tmp_path):
        path = script(tmp_path, "(a (b\n")
        proc = run_clz(path)
        assert proc.returncode == 1
        assert "read-error" in proc.stderr

    def test_deep_nesting_is_a_recursion_limit_error(self, tmp_path):
        path = script(tmp_path, "(" * 300_000 + ")" * 300_000 + "\n")
        proc = run_clz(path)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"{path}:1:10001: recursion-limit:")

    def test_deep_form_in_a_diagnostic_is_cut_short(self, tmp_path):
        binding = "(" * 100_000 + ")" * 100_000
        path = script(tmp_path, f"(let ({binding}) 1)\n")
        proc = run_clz(path)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1
        assert len(proc.stderr) < len(path) + 150
        assert "malformed-special-form: malformed let binding (((" in proc.stderr

    def test_missing_file_exits_two(self, tmp_path):
        proc = run_clz(str(tmp_path / "absent.lisp"))
        assert proc.returncode == 2
        assert "cannot read" in proc.stderr

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.lisp"
        path.write_bytes(b"\xef\xbb\xbf(print 1)\n")
        proc = run_clz(str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")

    def test_non_utf8_script_exits_two(self, tmp_path):
        path = tmp_path / "bad.lisp"
        path.write_bytes(b"(print 1)\n\xff\xfe\n")
        proc = run_clz(str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"clz: cannot read {path}: ")
        assert proc.stderr.count("\n") == 1

    def test_step_limit_exits_three(self, tmp_path):
        path = script(tmp_path, "(loop)\n")
        proc = run_clz("--step-limit", "1000", path)
        assert proc.returncode == 3
        assert "step-limit" in proc.stderr

    def test_divergence_exits_one(self, tmp_path):
        path = script(tmp_path, "(diverge)\n")
        proc = run_clz(path)
        assert proc.returncode == 1
        assert "divergence" in proc.stderr


class TestEvalFlag:
    def test_echoes_each_value(self):
        proc = run_clz("--eval", "(+ 1 2) (* 2 3)")
        assert proc.returncode == 0
        assert proc.stdout == "3\n6\n"

    def test_thunk_prints_opaquely(self):
        proc = run_clz("--eval", "(cons 1 (delay (diverge)))")
        assert proc.returncode == 0
        assert proc.stdout == "(1 . #<thunk>)\n"

    def test_file_and_eval_conflict(self, tmp_path):
        path = script(tmp_path, "1\n")
        proc = run_clz(path, "--eval", "1")
        assert proc.returncode == 2

    def test_repeated_eval_runs_each_text_in_order(self):
        proc = run_clz("--eval", "(print 1)", "--eval", "(defun f () 2)", "--eval", "(f)")
        assert proc.returncode == 0
        assert proc.stdout == "1\n1\nF\n2\n"
        assert proc.stderr == ""

    @pytest.mark.parametrize("second, code, diagnostic", [
        ("(car 1)", 1, "<eval>:1:1: type-error: car expects a cons or nil, got 1\n"),
        ("(+ 1", 1, "<eval>:1:1: read-error: unclosed parenthesis\n"),
        ("(loop)", 3, "<eval>:1:1: step-limit: step limit of 100 exceeded\n"),
    ], ids=["evaluation-error", "read-error", "step-limit"])
    def test_repeated_eval_stops_at_the_first_failure(self, second, code, diagnostic):
        # each text is read whole before it runs, and positions count from its start
        proc = run_clz("--step-limit", "100", "--eval", "(print 1)", "--eval", second,
                       "--eval", "(print 3)")
        assert proc.returncode == code
        assert proc.stdout == "1\n1\n"
        assert proc.stderr == diagnostic

    def test_file_and_repeated_eval_conflict(self, tmp_path):
        path = script(tmp_path, "1\n")
        proc = run_clz("--eval", "1", path, "--eval", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_a_long_value_in_a_diagnostic_is_cut_short(self):
        proc = run_clz("--eval", "(+ 1 (stream-take (integers-from 0) 2000))")
        assert proc.returncode == 1
        assert proc.stderr.startswith("<eval>:1:1: type-error: + expects integers, got (0 1 2 ")
        assert proc.stderr.endswith("...\n") and len(proc.stderr) < 150

    def test_a_long_name_in_a_diagnostic_is_cut_short(self):
        proc = run_clz("--eval", f"({'a' * 3000} 1)")
        assert proc.returncode == 1
        assert proc.stderr.startswith("<eval>:1:2: unbound-symbol: unbound symbol AAA")
        assert proc.stderr.endswith("...\n") and len(proc.stderr.encode()) < 150

    def test_literal_past_the_host_digit_limit_is_a_read_error(self):
        proc = run_clz("--eval", "(+ 1 " + "1" * 5000 + ")")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("<eval>:1:6: read-error: integer literal " + "1" * 77
                               + "... outside the 64-bit signed range\n")

    def test_bad_limit_value_rejected(self):
        for option in ("--step-limit", "--recursion-limit"):
            for bad in ("0", "-3", "many"):
                proc = run_clz(f"{option}={bad}", "--eval", "1")
                assert proc.returncode == 2
                assert f"argument {option}: " in proc.stderr
            proc = run_clz(option, "0", "--eval", "1")
            assert proc.stderr.endswith(f"clz: error: argument {option}: must be positive\n")


class TestFlags:
    def test_memoize_changes_reevaluation_count_only(self, tmp_path):
        path = script(tmp_path, """
(deflazy twice (x) (+ x x))
(print (lazy-call #'twice (tick!)))
(print (ticks))
""")
        plain = run_clz(path)
        memo = run_clz("--memoize", path)
        assert plain.returncode == memo.returncode == 0
        # call-by-name forces the argument at both reads; call-by-need once
        assert plain.stdout == "3\n2\n"
        assert memo.stdout == "2\n1\n"

    def test_pure_outputs_unchanged_by_memoize(self, tmp_path):
        path = script(tmp_path, """
(deflazy blend (a b c) (if (< a b) (+ (* a b) c) (- c b)))
(print (lazy-call #'blend (+ 1 2) (* 2 3) (- 10 4)))
(print (stream-take (integers-from 3) 5))
(print (lazy-call 'conc 1 2))
(print (head (lazy-call 'conc (* 7 6) (diverge))))
""")
        plain = run_clz(path)
        memo = run_clz("--memoize", path)
        assert plain.returncode == memo.returncode == 0
        assert plain.stdout == memo.stdout

    def test_recursion_limit_trips_cleanly(self):
        proc = run_clz(
            "--recursion-limit", "500", "--eval",
            "(progn (defun down (n) (if (= n 0) 0 (down (- n 1)))) (down 100000))",
        )
        assert proc.returncode == 1
        assert "recursion" in proc.stderr

    @pytest.mark.parametrize("flags, program, col", [
        ([], "(defun down (n) (if (= n 0) 0 (funcall #'down (- n 1))))\n"
             "(down 100000)", 21),
        (["--memoize"],
         "(deflazy chain (x n) (if (= n 0) x (lazy-call 'chain x (- n 1))))\n"
         "(lazy-call 'chain 7 100000)", 26),
    ])
    def test_depth_guard_fires_before_the_host_limit(self, tmp_path, flags,
                                                     program, col):
        # funcall recursion, and a by-need chain of thunks over a symbol
        path = script(tmp_path, program)
        proc = run_clz("--recursion-limit", "3000", *flags, path)
        assert proc.returncode == 1
        assert proc.stderr == (f"{path}:1:{col}: recursion-limit: "
                               "recursion depth exceeded the limit of 3000\n")

    def test_deep_forcing_within_default_limits(self, tmp_path):
        # forcing 2000 stream cells nests evaluation deeply; the host
        # ceiling the default --recursion-limit sets absorbs it on the
        # main thread
        path = script(tmp_path, """
(defun last-of (s n) (if (= n 0) (head s) (last-of (tail s) (- n 1))))
(print (last-of (integers-from 0) 2000))
""")
        proc = run_clz(path)
        assert proc.returncode == 0
        assert proc.stdout == "2000\n"

    def test_huge_recursion_limit_is_a_usage_error(self):
        # 5 host frames per unit would pass the largest C int, and its depth
        # would need far more memory than a machine holds
        proc = run_clz("--recursion-limit", "1000000000", "--eval", "(+ 1 2)")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.endswith("clz: error: argument --recursion-limit: "
                                    f"must be at most {MAX_RECURSION_LIMIT}\n")

    @pytest.mark.parametrize("source, col", [
        ("(progn (defun f (n) (+ 1 (f n))) (f 0))", 21),
        ("(progn (defun d (&optional (x (lazy-call (lazy #'funcall) #'d))) x) (d))", 48),
        ("(progn (defun d (&optional (x (d))) x) (d))", 31),
    ], ids=["plain", "lazy-funcall-default", "strict-default"])
    def test_runaway_recursion_at_the_maximum_limit_fits_in_memory(self, source, col):
        # peak RSS at the maximum on Python 3.11, 3.12 and 3.13: a plain
        # recursion 52-57 MiB, the strict default 168-177 MiB, and the default
        # through a lazy funcall, the most memory per unit measured (about
        # 2.6 KB), 255-266 MiB; each met the depth guard under a 384 MB
        # address-space cap too. The cap limits the child only; memory running
        # out would end in a Python traceback
        cap = 512 << 20
        proc = subprocess.run(
            CLZ + ["--recursion-limit", str(MAX_RECURSION_LIMIT), "--eval", source],
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert proc.returncode == 1
        assert proc.stderr == (f"<eval>:1:{col}: recursion-limit: recursion depth "
                               f"exceeded the limit of {MAX_RECURSION_LIMIT}\n")

    def test_raised_recursion_limit_reaches_deeper(self, tmp_path):
        path = script(tmp_path, """
(defun down (n) (if (= n 0) 0 (down (- n 1))))
(print (down 4500))
""")
        proc = run_clz("--recursion-limit", "20000", path)
        assert proc.returncode == 0
        assert proc.stdout == "0\n"


class TestInterrupt:
    """SIGINT while a form runs or the REPL waits at its prompt: the REPL
    keeps its session, a file or --eval stops with one line on stderr and
    exit code 130."""

    LOOP = "(progn (print 'go) (loop))"

    def start(self, *args):
        # unbuffered, so GO arrives as soon as the loop is about to run; SIGINT
        # back to its default, since a child of a background shell job would
        # otherwise inherit it ignored and never see the interrupt
        return subprocess.Popen(
            [sys.executable, "-u", "-m", "clz", "--step-limit", "2000000000", *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))

    def interrupt_after_go(self, proc):
        assert proc.stdout.readline().endswith("GO\n")
        proc.send_signal(signal.SIGINT)

    def test_repl_drops_the_form_and_keeps_the_session(self):
        proc = self.start()
        try:
            proc.stdin.write(self.LOOP + "\n")
            proc.stdin.flush()
            self.interrupt_after_go(proc)
            out, err = proc.communicate("(+ 1 2)\n", timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert out == "interrupted\nclz> 3\nclz> \n"
        assert err == ""

    @pytest.mark.parametrize("typed, prompts", [("", "clz> "), ("(+ 1\n", "clz> ...  ")],
                             ids=["empty", "unclosed-form"])
    def test_repl_at_its_prompt_drops_the_lines_and_prompts_again(self, typed, prompts):
        proc = self.start()
        try:
            proc.stdin.write(typed)
            proc.stdin.flush()
            # the last prompt is written just before readline waits
            assert proc.stdout.read(len(prompts)) == prompts
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate("(+ 1 2)\n", timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert out == "interrupted\nclz> 3\nclz> \n"
        assert err == ""

    @pytest.mark.parametrize("mode", ["file", "eval"])
    def test_file_and_eval_stop_with_exit_130(self, tmp_path, mode):
        if mode == "file":
            origin = script(tmp_path, self.LOOP + "\n(print 'after)\n")
            proc = self.start(origin)
        else:
            origin = "<eval>"
            proc = self.start("--eval", self.LOOP + " (print 'after)")
        try:
            self.interrupt_after_go(proc)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 130
        assert out == ""
        assert err == f"{origin}: interrupted\n"


class TestOptions:
    """The CLI reads its own options: each spelled in full, a value given as
    --opt VALUE or --opt=VALUE and taken as written, even when it starts with -."""

    def test_an_eval_text_may_start_with_a_dash(self):
        proc = run_clz("--eval", "-x")
        assert proc.returncode == 1
        assert proc.stderr == "<eval>:1:1: unbound-symbol: unbound symbol -X\n"
        proc = run_clz("--eval", "-1")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "-1\n", "")

    def test_a_dash_text_run_in_process_is_an_exit_code(self):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["--step-limit", "20000", "--eval", "-0007("])
        assert code == 1
        assert err.getvalue() == "<eval>:1:6: read-error: unclosed parenthesis\n"

    def test_both_spellings_of_a_value(self):
        for argv in (["--step-limit", "100", "--eval", "(loop)"],
                     ["--step-limit=100", "--eval=(loop)"]):
            proc = run_clz(*argv)
            assert proc.returncode == 3
            assert proc.stderr == "<eval>:1:1: step-limit: step limit of 100 exceeded\n"

    def test_help_names_every_option(self):
        for flag in ("-h", "--help"):
            proc = run_clz(flag)
            assert proc.returncode == 0
            assert proc.stderr == ""
            for name in ("FILE", "--eval FORM", "--memoize", "--step-limit N",
                         "--recursion-limit N", "-h, --help"):
                assert name in proc.stdout

    def test_help_to_a_closed_stdout_exits_one_without_a_traceback(self):
        proc = subprocess.Popen(CLZ + ["--help"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        proc.stdout.close()   # before the child writes anything
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == ""

    @pytest.mark.parametrize("argv, message", [
        (["--mem", "--eval", "1"], "unrecognized arguments: --mem"),
        (["--memoize=1", "--eval", "1"], "unrecognized arguments: --memoize=1"),
        (["a", "b", "-q"], "unrecognized arguments: b"),
        (["--eval"], "argument --eval: expected one argument"),
        (["--eval", "1", "--step-limit"], "argument --step-limit: expected one argument"),
        (["--step-limit", "x"], "argument --step-limit: invalid int value: 'x'"),
        (["--recursion-limit="], "argument --recursion-limit: invalid int value: ''"),
        (["--recursion-limit", "-2"], "argument --recursion-limit: must be positive"),
        (["prog.lisp", "--eval", "1"], "give a FILE or --eval, not both"),
    ], ids=["abbreviation", "flag-with-value", "extra", "eval-value", "last-value",
            "not-an-int", "empty-int", "not-positive", "file-and-eval"])
    def test_a_bad_command_line_is_a_usage_error(self, argv, message):
        proc = run_clz(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: clz ")
        assert proc.stderr.endswith(f"clz: error: {message}\n")

    def test_importing_the_cli_loads_no_option_parser_copy_or_typing(self):
        # -S: no site module, which on some hosts imports typing itself
        src = os.path.dirname(os.path.dirname(clz.__file__))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", "import sys, clz.cli; print(*sys.modules, sep='\\n')"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "clz.cli" in loaded
        assert loaded.isdisjoint({"argparse", "gettext", "locale", "copy", "typing"})
