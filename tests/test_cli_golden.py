"""CLI output against recorded invocations.

``cli_golden.txt`` holds one JSON record per line: ``argv``, ``exit``,
``stdout`` and ``stderr`` of an in-process ``mvdelta`` run.  It covers
the README examples (except ``axioms --carrier pl`` and ``isbell``, which
are slow or write files), ``check`` of every corpus non-theorem,
``eval "join(x, join(y, x))"`` on each carrier, and ``gammaxi --chain n
--bound b`` for n = 1..7 and b in {0, 1, 3}.  An intended output change
is edited into the file by hand.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from mvdelta.cli import run

RECORDS = [
    json.loads(line)
    for line in (Path(__file__).with_name("cli_golden.txt")).read_text().splitlines()
]


@pytest.mark.parametrize("record", RECORDS, ids=[f"line{i}" for i in range(1, len(RECORDS) + 1)])
def test_cli_matches_recorded_output(record):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(record["argv"], out=out)
    assert (code, out.getvalue(), err.getvalue()) == (
        record["exit"],
        record["stdout"],
        record["stderr"],
    )
