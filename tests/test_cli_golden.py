"""Golden CLI output: the exit code and the sha256 of stdout per argv.

The argvs are the README commands, every command of the dataset
scripts at their default sizes, a few JSON forms, an eq3 sweep, the
near-axis `eps` scan of N=32, odd-N `eps` runs, whose pair labels
follow a convention of their own (see `ep_pair_id`), an unlabelled
`eps` scan, a `fit` whose acid-test join needs the level index, an
`eps` scan with a lower Im edge and an eq2 sweep past the bisection's
range.  `cli_golden.json` holds the
digests; it records the behaviour contract, so a refactor must match it
rather than rewrite it.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from lipkin.cli import main

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"])
                                                for e in GOLDEN])
def test_cli_output_matches_golden_digest(entry):
    argv = entry["argv"]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (code, digest) == (entry["exit"], entry["sha256"]), \
        f"lipkin {' '.join(argv)}: output differs from the golden run"
