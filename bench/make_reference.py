#!/usr/bin/env python3
"""Write `reference_seed0.json`: the branch points that this checkout's
`lipkin` reports for the seed-0 `eps` commands of every workload.

    python3 bench/make_reference.py

The committed file was made from the first commit of the benchmark.  The
gate requires every later version to report at least these EPs on seed 0
(more are allowed), so regenerate it only on purpose.
"""

import contextlib
import io
import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from lipkin import cli

    eps = {}
    for name in workloads.NAMES:
        for argv in workloads.commands(name, 0):
            if argv[0] != "eps":
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                if cli.main(argv) != 0:
                    print(f"failed: {' '.join(argv)}", file=sys.stderr)
                    return 1
            rows = [line.split(",") for line in out.getvalue().split()[1:]]
            eps[" ".join(argv)] = [[float(r[0]), float(r[1]), r[6]]
                                   for r in rows]
    body = ",\n".join(f" {json.dumps(argv)}: {json.dumps(found)}"
                      for argv, found in eps.items())
    sha = json.dumps(run._git_sha(run.ROOT))
    run.REFERENCE.write_text(f'{{"git_sha": {sha}, "eps": {{\n{body}\n}}}}\n')
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
