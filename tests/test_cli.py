import io
import json
import math
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from lipkin import full_spectrum
from lipkin.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_spectrum_csv_schema_full_and_lower_half():
    code, out, _ = run_cli(["spectrum", "--n", "10", "--lambda", "5",
                            "--sector", "merged", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,x,E,eps,sector"
    assert len(lines) == 1 + 11  # header + N+1 rows

    code, out, _ = run_cli(["spectrum", "--n", "10", "--lambda", "5",
                            "--lower-half"])
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 5


def test_spectrum_csv_values_round_trip():
    code, out, _ = run_cli(["spectrum", "--n", "8", "--lambda", "1.7"])
    rows = out.strip().split("\n")[1:]
    merged = full_spectrum(8, 1.7).merged
    for k, row in enumerate(rows, start=1):
        fields = row.split(",")
        assert int(fields[0]) == k
        assert float(fields[2]) == merged[k - 1]  # repr round-trips exactly


def test_spectrum_derivative_columns():
    code, out, _ = run_cli(["spectrum", "--n", "12", "--lambda", "1.0",
                            "--lower-half", "--derivative"])
    lines = out.strip().split("\n")
    assert lines[0] == "k,x,E,eps,sector,x_mid,deps_dx"
    assert lines[-1].endswith(",,")  # no midpoint for the last rows


def test_gaps_csv():
    code, out, _ = run_cli(["gaps", "--n", "6", "--lambda", "0",
                            "--sector", "even"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,e_low,e_high,gap"
    assert len(lines) == 1 + 3  # even sector of N=6 has 4 levels
    assert all(line.split(",")[3] == "2.0" for line in lines[1:])


def test_scaling_json_payload():
    code, out, _ = run_cli(["scaling", "--law", "eq2", "--k", "1",
                            "--n-list", "64,128,256", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["command"] == "scaling"
    assert doc["meta"]["tool_version"]
    assert doc["meta"]["elapsed_seconds"] is None
    assert doc["results"]["expected_slope"] == -1.0 / 3.0
    assert doc["results"]["slope"] == pytest.approx(-1.0 / 3.0, abs=0.05)
    ns = [row["n"] for row in doc["results"]["rows"]]
    assert ns == [64, 128, 256]


def test_scaling_eq3_requires_coupling():
    code, _, err = run_cli(["scaling", "--law", "eq3",
                            "--n-list", "64,128"])
    assert code == 2
    assert "lambda" in err


def test_eps_csv_schema_and_analytic_point():
    code, out, _ = run_cli(["eps", "--n", "2", "--re-max", "3",
                            "--im-max", "3", "--grid", "30",
                            "--sector", "even"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "re_lambda,im_lambda,re_E,im_E,k,k_next,sector,residual"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert float(fields[0]) == pytest.approx(0.0, abs=1e-9)
    assert float(fields[1]) == pytest.approx(2.0, abs=1e-9)
    assert (fields[4], fields[5]) == ("1", "2")
    assert fields[6] == "even"


def test_eps_rows_sorted_and_near_real_meta():
    code, out, _ = run_cli(["eps", "--n", "4", "--re-max", "3",
                            "--im-max", "3", "--grid", "40",
                            "--format", "json", "--im-tol", "1.5"])
    assert code == 0
    doc = json.loads(out)
    rows = doc["results"]["rows"]
    keys = [(r["re_lambda"], r["im_lambda"]) for r in rows]
    assert keys == sorted(keys)
    assert "near_real_count" in doc["results"]


def test_fit_command_json():
    code, out, _ = run_cli(["fit", "--n", "1024", "--lambda", "5",
                            "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    fits = doc["results"]["fits"]
    assert set(fits) == {"left", "right"}
    for side in fits:
        assert fits[side]["rms_residual"] <= 5e-3
        assert set(fits[side]["coefficients"]) == {"a1", "a2", "a3"}
    assert doc["results"]["x_c"] == pytest.approx(0.58, abs=0.02)


@pytest.mark.parametrize("n", ["2", "4"])
def test_fit_without_resolved_crossing_is_numerical_failure(n):
    # every lower-half level lies below the critical line
    code, out, err = run_cli(["fit", "--n", n, "--lambda", "5"])
    assert code == 3
    assert out == ""
    assert "critical line" in err


def test_fit_below_transition_is_numerical_failure(tmp_path):
    target = tmp_path / "out.csv"
    code, _, err = run_cli(["fit", "--n", "100", "--lambda", "0.5",
                            "--output", str(target)])
    assert code == 3
    assert "failure" in err
    assert not target.exists()  # no partial artifact
    assert list(tmp_path.iterdir()) == []


def test_localization_csv():
    code, out, _ = run_cli(["localization", "--n", "40", "--lambda", "5",
                            "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,E,eps,ipr,m_peak"
    assert len(lines) == 1 + 21  # even sector of N=40
    iprs = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(0.0 < v <= 1.0 + 1e-12 for v in iprs)


def test_output_file_written_atomically(tmp_path):
    target = tmp_path / "spec.csv"
    code, out, _ = run_cli(["spectrum", "--n", "6", "--lambda", "1",
                            "--output", str(target)])
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.endswith("\n")
    assert text.startswith("k,x,E,eps,sector")
    assert [p.name for p in tmp_path.iterdir()] == ["spec.csv"]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "50", "--lambda", "1.7"],
    ["spectrum", "--n", "64", "--lambda", "10", "--derivative",
     "--lower-half"],
    ["gaps", "--n", "31", "--lambda", "2.4", "--sector", "odd"],
    ["eps", "--n", "4", "--re-max", "3", "--im-max", "3", "--grid", "35"],
    ["fit", "--n", "512", "--lambda", "5", "--format", "json"],
    ["scaling", "--law", "eq3", "--lambda", "2", "--n-list", "128,256",
     "--format", "json"],
])
def test_reruns_are_byte_identical(argv):
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_round_trip_reproduces_memory_values():
    code, out, _ = run_cli(["spectrum", "--n", "16", "--lambda", "2.2",
                            "--format", "json"])
    doc = json.loads(out)
    merged = full_spectrum(16, 2.2).merged
    for row in doc["results"]["rows"]:
        assert row["E"] == merged[row["k"] - 1]
        assert row["eps"] == 2.0 * merged[row["k"] - 1] / 16


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--lambda", "1"])  # --n missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_timing_flag_populates_metadata():
    code, out, _ = run_cli(["spectrum", "--n", "6", "--lambda", "1",
                            "--format", "json", "--timing"])
    doc = json.loads(out)
    assert doc["meta"]["elapsed_seconds"] >= 0.0


def exit_code(argv):
    """main's return code, or the code argparse exits with."""
    try:
        code, _, _ = run_cli(argv)
    except SystemExit as exc:
        return exc.code
    return code


@pytest.mark.parametrize("argv", [
    ["--law", "eq2", "--k", "1", "--n-list", "2,4"],  # N < 2k+2
    ["--law", "eq2", "--n-list", ","],
    ["--law", "eq2", "--n-list", "256"],
    ["--law", "eq2", "--n-list", "256,256"],
    ["--law", "eq2", "--k", "0", "--n-list", "64,128"],
    ["--law", "eq2", "--k", "-1", "--n-list", "64,128"],
    ["--law", "eq2", "--n-list", "0,64"],
    ["--law", "eq3", "--lambda", "2", "--n-list", "1"],
    ["--law", "eq3", "--lambda", "2", "--n-list", ","],
])
def test_bad_scaling_input_is_usage_error_before_any_solve(argv, monkeypatch):
    import lipkin.analysis

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a block for rejected input")

    monkeypatch.setattr(lipkin.analysis, "eig_real_tridiag", no_solve)
    assert exit_code(["scaling", *argv]) == 2


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "0", "--lambda", "1"],
    ["spectrum", "--n", "-3", "--lambda", "1"],
    ["gaps", "--n", "10", "--lambda", "nan"],
    ["spectrum", "--n", "10", "--lambda", "inf"],
    ["localization", "--n", "10", "--lambda=-inf"],
    ["scaling", "--law", "eq3", "--lambda", "nan", "--n-list", "64,128"],
    ["fit", "--n", "512", "--lambda", "5", "--window", "0.5,0.1"],
    ["fit", "--n", "512", "--lambda", "5", "--window", "0.1,nan"],
    ["eps", "--n", "4", "--re-max", "3", "--im-max", "3", "--grid", "0"],
    ["eps", "--n", "4", "--re-max", "3", "--im-max", "-1"],
    ["eps", "--n", "4", "--re-min", "3", "--re-max", "1", "--im-max", "1"],
    ["eps", "--n", "4", "--re-max", "3", "--im-min", "-1", "--im-max", "1"],
    ["gaps", "--n", "1", "--lambda", "1"],
    ["gaps", "--n", "2", "--lambda", "1", "--sector", "odd"],
    ["spectrum", "--n", "1", "--lambda", "1", "--derivative"],
    ["spectrum", "--n", "2", "--lambda", "1", "--sector", "odd",
     "--derivative"],
])
def test_bad_input_is_usage_error(argv):
    assert exit_code(argv) == 2


def test_non_finite_json_result_is_numerical_failure(tmp_path, monkeypatch):
    import lipkin.cli
    from lipkin.analysis import ScalingReport

    def nan_report(coupling, n_list):
        return ScalingReport([(64, math.nan)], [math.nan])

    monkeypatch.setattr(lipkin.cli, "gap_ratio_eq3", nan_report)
    target = tmp_path / "out.json"
    code, _, err = run_cli(["scaling", "--law", "eq3", "--lambda", "2",
                            "--n-list", "64", "--format", "json",
                            "--output", str(target)])
    assert code == 3
    assert "failure" in err
    assert list(tmp_path.iterdir()) == []


def test_localization_solves_its_block_once(monkeypatch):
    import lipkin.analysis
    import lipkin.cli

    calls = []
    real_solver = lipkin.cli.eig_real_tridiag

    def counting_solver(*args, **kwargs):
        calls.append(kwargs.get("want_vectors", False))
        return real_solver(*args, **kwargs)

    monkeypatch.setattr(lipkin.cli, "eig_real_tridiag", counting_solver)
    monkeypatch.setattr(lipkin.analysis, "eig_real_tridiag", counting_solver)
    code, out, _ = run_cli(["localization", "--n", "40", "--lambda", "5",
                            "--format", "json"])
    assert code == 0
    assert calls == [True]
    assert json.loads(out)["results"]["critical_level"] >= 1


def test_eps_near_real_count_dedups_mirror_sectors():
    # for odd N the two sector blocks mirror each other and share every
    # branch coupling, which must count once, as in near_real_ep_count
    from lipkin import near_real_ep_count

    code, out, _ = run_cli(["eps", "--n", "9", "--re-min", "1",
                            "--re-max", "2", "--im-max", "1.6",
                            "--grid", "90", "--im-tol", "1.5", "--no-pairs",
                            "--format", "json"])
    assert code == 0
    doc = json.loads(out)["results"]
    sectors = {row["sector"] for row in doc["rows"]}
    assert sectors == {"even", "odd"}
    assert doc["near_real_count"] == 1
    assert near_real_ep_count(9, 2.0, 1.5) == 1


def test_eps_failed_solve_on_one_walk_blanks_only_that_pair(monkeypatch):
    import lipkin.excpt

    argv = ["eps", "--n", "16", "--re-max", "3", "--im-max", "3",
            "--grid", "40"]
    code, baseline, _ = run_cli(argv)
    assert code == 0
    rows = [line.split(",") for line in baseline.strip().split("\n")[1:]]
    assert len(rows) > 2 and all(r[4] and r[5] for r in rows)
    target = float(rows[1][0])
    real_solver = lipkin.excpt.eig_complex_tridiag

    def flaky(n, parity, couplings):
        values = real_solver(n, parity, couplings)
        g = np.asarray(couplings)
        if len(g) > 1 and np.all(g.real == target):  # a walk from rows[1]
            values[len(values) // 2] = np.nan
        return values

    monkeypatch.setattr(lipkin.excpt, "eig_complex_tridiag", flaky)
    code, out, _ = run_cli(argv)
    assert code == 0
    expected = [list(r) for r in rows]
    expected[1][4] = expected[1][5] = ""
    assert [line.split(",") for line in out.strip().split("\n")[1:]] \
        == expected


def test_benchmark_tracer_binding_names():
    # bench/tracing.py hooks these names and argument names, and the
    # benchmark's per-layer metrics read the spans of the functions
    # below; after a rename a counter would silently read 0
    import inspect

    import lipkin.analysis
    import lipkin.cli
    import lipkin.core
    import lipkin.eigen
    import lipkin.excpt
    import lipkin.logfit
    from lipkin import Parity, build_block

    for module, name in [
        (lipkin.core, "build_block"),
        (lipkin.eigen, "eig_real_tridiag"),
        (lipkin.eigen, "eig_complex_tridiag"),
        (lipkin.eigen, "det_state_at"),
        (lipkin.analysis, "full_spectrum"),
        (lipkin.analysis, "critical_state"),
        (lipkin.excpt, "ep_scan"),
        (lipkin.excpt, "ep_refine"),
        (lipkin.excpt, "ep_pair_id"),
        (lipkin.logfit, "fit_spectrum_side"),
        (lipkin.logfit, "derivative_comparison"),
    ]:
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn), f"{module.__name__}.{name}"
        assert fn.__module__ == module.__name__, f"{module.__name__}.{name}"

    assert lipkin.excpt.det_state_at is lipkin.eigen.det_state_at
    assert lipkin.excpt.eig_complex_tridiag \
        is lipkin.eigen.eig_complex_tridiag
    params = inspect.signature(lipkin.eigen.det_state_at).parameters
    assert {"n_particles", "parity"} <= set(params)
    solver = lipkin.eigen.eig_real_tridiag
    assert "want_vectors" in inspect.signature(solver).parameters
    assert len(solver(build_block(4, 1.0, Parity.EVEN)).values) == 3
    assert "grid" in inspect.signature(lipkin.excpt.ep_scan).parameters
    assert callable(lipkin.cli.full_spectrum)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "64", "--lambda", "1e308"],
    ["scaling", "--law", "eq3", "--lambda", "1e308", "--n-list", "64,128"],
])
def test_overflowing_coupling_is_named(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        code, out, err = run_cli(argv)
    assert code == 3
    assert out == ""
    assert "numerical failure: the coupling overflows the off-diagonal of " \
        "the N=64 even block" in err


@pytest.mark.parametrize("argv", [
    ["eps", "--n", "4", "--re-max", "1e308", "--im-max", "1", "--grid", "2"],
    ["eps", "--n", "9", "--re-max", "1", "--im-max", "1e200", "--grid", "3"],
])
def test_overflowing_eps_seeds_are_dropped(argv):
    # the determinant recurrence overflows on these seeds; the scan drops
    # them as it drops any seed whose refinement fails
    code, out, err = run_cli(argv)
    assert code == 0
    assert out == ("re_lambda,im_lambda,re_E,im_E,k,k_next,sector,"
                   "residual\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,re_min", [
    (["eps", "--n", "2", "--re-max", "1e308", "--im-max", "1", "--grid", "3"],
     0.0),
    (["eps", "--n", "4", "--re-min=-1e308", "--re-max", "1e308",
      "--im-max", "1", "--grid", "3"], -1e308),
])
def test_scan_cells_of_a_region_spanning_the_double_range(argv, re_min,
                                                          monkeypatch):
    import lipkin.excpt

    centres = []
    real_solver = lipkin.excpt.eig_complex_tridiag

    def recording(n, parity, couplings):
        if len(couplings) == 3:  # a grid row, not a pair-tracking walk
            centres.extend(couplings)
        return real_solver(n, parity, couplings)

    monkeypatch.setattr(lipkin.excpt, "eig_complex_tridiag", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, no skipped cell
        code, out, _ = run_cli(argv)
    assert code == 0
    assert len(centres) == 2 * 9  # both sectors, every cell
    for g in centres:
        assert math.isfinite(g.real) and re_min < g.real < 1e308
        assert 0.0 < g.imag < 1.0
    rows = out.splitlines()[1:]
    if re_min == 0.0:
        assert rows == []
    else:
        # the cell column at Re g = 0 finds the analytic branch point
        # of the N=4 odd block at g* = 4i/3
        re_g, im_g, *_, sector, _ = rows[0].split(",")
        assert len(rows) == 1 and sector == "odd"
        assert abs(complex(float(re_g), float(im_g)) - 4j / 3) < 1e-12


def test_public_functions_run_on_the_main_thread(monkeypatch):
    # bench/tracing.py keeps one span stack for all threads, so the
    # solver's worker threads must run private code only
    import functools
    import importlib
    import inspect
    import threading

    import lipkin

    layers = [importlib.import_module(f"lipkin.{name}") for name in
              ("core", "eigen", "analysis", "excpt", "logfit", "cli")]
    calls = []

    def recording(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append((fn.__name__, threading.current_thread()))
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {}
    for module in layers:
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                wrappers[id(obj)] = (obj, recording(obj))
    for module in (lipkin, *layers):
        for name, obj in list(vars(module).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                monkeypatch.setattr(module, name, entry[1])

    for argv in [["spectrum", "--n", "64", "--lambda", "2"],
                 ["fit", "--n", "256", "--lambda", "5"],
                 ["scaling", "--law", "eq3", "--lambda", "2",
                  "--n-list", "16,32,64"],
                 ["localization", "--n", "64", "--lambda", "5"],
                 ["eps", "--n", "8", "--re-max", "3", "--im-max", "3",
                  "--grid", "16"]]:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert lipkin.cli.main(argv) == 0
    names = {name for name, _ in calls}
    assert {"main", "full_spectrum", "gap_ratio_eq3", "eig_real_tridiag",
            "critical_state", "fit_spectrum_side", "ep_scan",
            "eig_complex_tridiag", "ep_pair_id"} <= names
    assert {thread.name for _, thread in calls} \
        == {threading.main_thread().name}
