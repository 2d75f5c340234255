"""The dataset scripts run end to end, write what the CLI prints, and
run the commands the README gives for them."""

import io
import os
import re
import runpy
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import lipkin.cli
from lipkin.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def _spectrum(lam, *extra):
    return ["spectrum", "--n", "16", "--lambda", lam, "--sector", "merged",
            "--lower-half", *extra]


def _eps(n):
    return ["eps", "--n", str(n), "--re-max", "3", "--im-max", "3",
            "--grid", "8", "--im-tol", "1.5"]


SCRIPTS = {
    "scaled_spectra.py": (["--n", "16"], {
        "spectrum_n16_g0.csv": _spectrum("0.0"),
        "spectrum_n16_g1.csv": _spectrum("1.0"),
        "spectrum_n16_g5.csv": _spectrum("5.0"),
        "spectrum_n16_g10.csv": _spectrum("10.0"),
    }),
    "derivative_curves.py": (["--n", "16"], {
        "derivative_n16_g1.csv": _spectrum("1.0", "--derivative"),
        "derivative_n16_g10.csv": _spectrum("10.0", "--derivative"),
    }),
    "branch_point_map.py": (["--grid", "8"], {
        f"branch_points_n{n}.csv": _eps(n) for n in (8, 16, 32)
    }),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_writes_cli_output(script, tmp_path):
    args, expected = SCRIPTS[script]
    outdir = tmp_path / "data"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args,
         "--outdir", str(outdir)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in outdir.iterdir()) == sorted(expected)
    for name, argv in expected.items():
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
        assert (outdir / name).read_text() == out.getvalue()


def _readme_commands():
    """The `lipkin ...` command of each numbered item of the README's
    "Reproducing the standard datasets", keyed by its script."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Reproducing the standard datasets"):]
    section = section[:section.index("\n## ", 1)]
    return {script: command.split() for script, command
            in re.findall(r"\(`scripts/([\w.]+)`\).*?`lipkin ([^`]+)`",
                          section, re.S)}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_readme_command_reproduces_the_script(script, tmp_path, monkeypatch):
    # the script runs at its default sizes with the CLI recording its
    # argvs; each parses to what the README's line parses to, with its
    # G or N placeholder filled from that argv, --output aside
    template = _readme_commands()[script]
    recorded = []
    monkeypatch.setattr(lipkin.cli, "main",
                        lambda argv: recorded.append(argv) or 0)
    monkeypatch.setattr(sys, "argv", [script, "--outdir", str(tmp_path)])
    with redirect_stdout(io.StringIO()):
        runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    assert recorded
    parser = build_parser()
    for argv in recorded:
        filled = [argv[argv.index(template[i - 1]) + 1]
                  if token in ("G", "N") else token
                  for i, token in enumerate(template)]
        ran, documented = (vars(parser.parse_args(a)) for a in (argv, filled))
        ran.pop("output")
        documented.pop("output")
        assert ran == documented, f"README: lipkin {' '.join(template)}"
