"""Fast self-test of the benchmark, at self-test sizes (N <= 64, grid <= 8).

    python -m pytest -q bench/test_bench.py

It stays out of the package's own test suite (`tests/`), so that the
suite's timing budget does not carry it.
"""

import json
import random
import sys

import numpy as np
import pytest
import scipy.linalg

import gate
import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _main(capsys, *argv):
    code = run.main(list(argv))
    return code, capsys.readouterr().out.splitlines()


@pytest.fixture(autouse=True)
def _one_setup_repeat(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.fixture
def lipkin():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import lipkin.cli

    return lipkin


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_passes_the_gate_and_reports_every_metric(
        capsys, workload, trace):
    code, lines = _main(capsys, "--workload", workload, "--seed", "1",
                        "--seconds", "0", "--trace", str(trace), "--tiny")
    assert code == 0
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, lines[-2]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    env = json.loads(lines[-2])["env"]
    assert env["numpy_blas"]["threads"] <= env["nproc"]
    if trace:
        # the layers' self times account for the traced time
        assert result["metrics"]["trace.covered_frac"]["value"] > 0.95
        assert result["metrics"]["cli.main.self_s"]["value"] > 0.0


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.NAMES)


def test_missing_package_exits_without_a_result(capsys, monkeypatch,
                                                tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code, lines = _main(capsys, "--workload", "spectra", "--seconds", "0")
    assert code != 0 and lines == []


def test_seed_zero_runs_the_readme_and_script_commands():
    spectra = [" ".join(c) for c in workloads.commands("spectra", 0)]
    assert "spectrum --n 1000 --lambda 5 --sector merged --format csv" \
        in spectra
    assert "spectrum --n 4096 --lambda 10.0 --sector merged --lower-half " \
        "--derivative" in spectra
    assert [" ".join(c) for c in workloads.commands("branch_points", 0)] == [
        f"eps --n {n} --re-max 3 --im-max 3 --grid 90 --im-tol 1.5"
        for n in (8, 16, 32)]


def test_other_seeds_move_inputs_within_the_stated_ranges():
    base = workloads.commands("spectra", 0)
    for seed in (1, 2, 3):
        moved = workloads.commands("spectra", seed)
        assert moved == workloads.commands("spectra", seed)
        assert moved != base
        for a, b in zip(base, moved):
            lam0, lam = (float(gate.flags(c)["--lambda"]) for c in (a, b))
            lo, hi = workloads.COUPLING_JITTER
            assert lam == lam0 if lam0 in (0.0, 1.0) else \
                lo * lam0 <= lam <= hi * lam0


def test_merged_level_matches_a_full_diagonalization():
    n, lam = 37, 2.5
    levels = np.sort(np.concatenate([
        scipy.linalg.eigvalsh_tridiagonal(*gate.sector_block(n, lam, even))
        for even in (True, False)]))
    for k in range(1, n + 2):
        assert gate.merged_level(n, lam, k) == pytest.approx(levels[k - 1],
                                                             abs=1e-10)


def test_gate_catches_wrong_levels_and_missing_eps(lipkin):
    rng = random.Random(0)
    argv = ["spectrum", "--n", "20", "--lambda", "3"]
    code, text, _ = run.run_command(lipkin.cli, argv)
    assert gate.check(argv, code, text, rng) == []
    lines = text.splitlines()
    row = lines[1].split(",")
    row[2] = repr(float(row[2]) + 1e-3)
    row[3] = repr(2.0 * float(row[2]) / 20)
    broken = "\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n"
    assert any("bisection" in p for p in gate.check(argv, 0, broken, rng))
    assert gate.check(argv, 3, text, rng) == ["exit code 3"]

    argv = ["eps", "--n", "8", "--re-max", "3", "--im-max", "3",
            "--grid", "8"]
    code, text, _ = run.run_command(lipkin.cli, argv)
    first = text.splitlines()[1].split(",")
    ref = [[float(first[0]), float(first[1]), first[6]]]
    assert gate.check(argv, code, text, rng, ref) == []
    shifted = [[ref[0][0] + 1e-3, ref[0][1], ref[0][2]]]
    assert any("missing" in p for p in gate.check(argv, code, text, rng,
                                                  shifted))


def test_tracer_wraps_every_binding_site_and_restores_them(lipkin):
    original = lipkin.eigen.det_state_at
    with tracing.Tracer(lipkin):
        for module in (lipkin.eigen, lipkin.excpt):
            assert module.det_state_at.__wrapped__ is original
        assert lipkin.cli.full_spectrum.__wrapped__ is \
            lipkin.analysis.full_spectrum.__wrapped__
    assert lipkin.excpt.det_state_at is original
    assert not hasattr(lipkin.cli.full_spectrum, "__wrapped__")
