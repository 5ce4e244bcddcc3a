"""Each REPL transcript in README.md is what the REPL prints for its inputs."""

import contextlib
import io
import pathlib
import re
from unittest import mock

import pytest

from clz import cli

_README = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
_TRANSCRIPTS = [block for block in re.findall(r"^```lisp\n(.*?)^```", _README, re.M | re.S)
                if "clz> " in block]


def test_the_readme_shows_six_transcripts():
    assert len(_TRANSCRIPTS) == 6


@pytest.mark.parametrize("block", _TRANSCRIPTS,
                         ids=[f"transcript-{i}" for i in range(1, len(_TRANSCRIPTS) + 1)])
def test_transcript(block):
    inputs, expected = [], ""
    for line in block.splitlines():
        if line.startswith("clz> "):
            inputs.append(line[len("clz> "):])
            expected += "clz> "
        else:  # a printed line, less its comment
            expected += line.partition(";")[0].rstrip() + "\n"
    argv = ["--memoize"] if "--memoize" in block else []
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO("".join(line + "\n" for line in inputs))), \
            contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert out.getvalue() == expected + "clz> \n"
