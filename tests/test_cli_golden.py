"""Golden CLI output: the exit code and the sha256 of stdout per argv.

The argvs are the README commands, every command of the dataset
scripts at their default sizes, a few JSON forms, an eq3 sweep, the
near-axis `eps` scan of N=32, odd-N `eps` runs, whose pair labels
follow a convention of their own (see `ep_pair_id`), an unlabelled
`eps` scan, a `fit` whose acid-test join needs the level index, an
`eps` scan with a lower Im edge, eq2 sweeps past the bisection's range,
the largest vector solves of `localization`, one-side `fit`s with
fewer terms, a one-sector `eps` scan, a full spectrum with padded
derivative columns, an eq2 sweep in JSON and an `eps` table with no
rows.  `cli_golden.json`
holds the digests; it records the behaviour contract, so a refactor
must match it rather than rewrite it.  Every command in the README's CLI
block must have an entry, so a README edit cannot leave it unpinned.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from lipkin.cli import main

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
README = Path(__file__).parents[1] / "README.md"


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


def test_every_readme_command_is_pinned():
    # the `lipkin ...` lines of the README's CLI code block
    text = README.read_text()
    block = text[text.index("## CLI"):]
    block = block[block.index("```sh\n") + 6:]
    block = block[:block.index("```")]
    commands = [line.split()[1:] for line in block.splitlines()
                if line.startswith("lipkin ")]
    assert len(commands) >= 7
    pinned = [entry["argv"] for entry in GOLDEN]
    assert [argv for argv in commands if argv not in pinned] == []
