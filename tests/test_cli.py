import io
import json
import math
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from lipkin import full_spectrum
from lipkin.cli import _fmt, main


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


ONE_TABLE_ARGVS = [
    ["spectrum", "--n", "12", "--lambda", "2", "--derivative"],
    ["gaps", "--n", "9", "--lambda", "3", "--sector", "odd"],
    ["scaling", "--law", "eq3", "--lambda", "2", "--n-list", "16,32"],
    ["eps", "--n", "8", "--re-max", "3", "--im-max", "3", "--grid", "20"],
    ["fit", "--n", "512", "--lambda", "5"],
    ["localization", "--n", "40", "--lambda", "5", "--sector", "odd"],
    ["eps", "--n", "9", "--re-max", "1e-300", "--im-min", "1e-08",
     "--im-max", "0.5", "--grid", "4"],  # a table with no rows
]


@pytest.mark.parametrize("argv", ONE_TABLE_ARGVS, ids=" ".join)
def test_csv_and_json_carry_one_table(argv):
    code, text, _ = run_cli(argv)
    assert code == 0
    header, *lines = text.splitlines()
    code, out, _ = run_cli(argv + ["--format", "json"])
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert len(rows) == len(lines)
    assert (len(rows) == 0) == (argv[-1] == "4")  # only the last is empty
    for row, line in zip(rows, lines):
        assert ",".join(row) == header
        assert ",".join(_fmt(v) for v in row.values()) == line


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


def test_fit_window_bounds_every_row():
    code, out, _ = run_cli(["fit", "--n", "2048", "--lambda", "5",
                            "--window", "0.03,0.12", "--format", "json"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["window"] == [0.03, 0.12]
    rows = results["rows"]
    assert {row["side"] for row in rows} == {"left", "right"}
    assert all(0.03 <= abs(row["x"] - results["x_c"]) <= 0.12
               for row in rows)


def test_fit_reports_every_acid_test_point_it_computed():
    # the stride-2 midpoints of the acid test sit on levels, but their x
    # differs from 2k/N by an ulp at some k; each must reach its row
    from lipkin import (critical_x, derivative_comparison, fit_spectrum_side,
                        scaled_spectrum)

    code, out, _ = run_cli(["fit", "--n", "301", "--lambda", "5",
                            "--format", "json"])
    assert code == 0
    doc = json.loads(out)["results"]
    x_c = doc["x_c"]
    s = full_spectrum(301, 5.0)
    assert x_c == critical_x(301, 5.0, spectrum=s)
    ss = scaled_spectrum(s, "merged")
    for side in ("left", "right"):
        rows = [r for r in doc["rows"] if r["side"] == side]
        acid = derivative_comparison(fit_spectrum_side(ss, x_c, side), ss)
        filled = [r for r in rows if r["dy_fd"] != ""]
        assert [r["dy_fd"] for r in filled] \
            == acid["finite_difference"].tolist()
        assert [r["rel_dev"] for r in filled] \
            == acid["relative_deviation"].tolist()
        in_band = [r for r in rows
                   if 0.02 + 1e-9 <= abs(r["x"] - x_c) <= 0.1 - 1e-9]
        assert len(in_band) > 10
        assert all(r["dy_fd"] != "" and r["rel_dev"] != "" for r in in_band)


@pytest.mark.parametrize("n", ["1", "2", "4"])
def test_fit_without_resolved_crossing_is_numerical_failure(n):
    # N = 1 has no lower-half level; for N = 2 and 4 every lower-half
    # level lies below the critical line
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


@pytest.mark.parametrize("kind", ["missing directory", "directory"])
def test_unwritable_output_is_usage_error_before_any_solve(kind, tmp_path,
                                                           monkeypatch):
    import lipkin.cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking --output")

    monkeypatch.setattr(lipkin.cli, "full_spectrum", no_solve)
    target = tmp_path / "missing" / "x.csv" if kind == "missing directory" \
        else tmp_path
    code, out, err = run_cli(["spectrum", "--n", "4", "--lambda", "1",
                              "--output", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --output") and str(target) in err
    assert list(tmp_path.iterdir()) == []


def test_failed_output_write_is_usage_error_and_leaves_nothing(tmp_path,
                                                               monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(os, "replace", refuse)
    target = tmp_path / "spec.csv"
    code, out, err = run_cli(["spectrum", "--n", "4", "--lambda", "1",
                              "--output", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --output") \
        and str(target) in err
    assert list(tmp_path.iterdir()) == []


GAPS_ARGV = ["gaps", "--n", "6", "--lambda", "2"]


def test_output_writes_through_a_symlink(tmp_path):
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("old\n")
    link.symlink_to(real.name)
    code, expected, _ = run_cli(GAPS_ARGV)
    assert code == 0
    assert run_cli(GAPS_ARGV + ["--output", str(link)])[0] == 0
    assert link.is_symlink()
    assert real.read_text() == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv",
                                                          "real.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_output_writes_into_a_fifo_in_place(tmp_path):
    import stat
    import threading

    fifo, keep = tmp_path / "out.fifo", tmp_path / "keep.fifo"
    os.mkfifo(fifo)
    os.link(fifo, keep)  # a second name, to release a stuck reader
    received = []
    reader = threading.Thread(
        target=lambda: received.append(keep.read_text()), daemon=True)
    reader.start()
    code, expected, _ = run_cli(GAPS_ARGV)
    try:
        assert run_cli(GAPS_ARGV + ["--output", str(fifo)])[0] == 0
        reader.join(timeout=10)
        assert not reader.is_alive(), "nothing was written into the FIFO"
    finally:
        if reader.is_alive():
            os.close(os.open(keep, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert received == [expected]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)],
                         ids=["umask022", "umask027"])
def test_output_file_gets_the_mode_of_a_plain_open(umask, mode, tmp_path):
    target = tmp_path / "gaps.csv"
    old = os.umask(umask)
    try:
        assert run_cli(GAPS_ARGV + ["--output", str(target)])[0] == 0
    finally:
        os.umask(old)
    assert target.stat().st_mode & 0o777 == mode
    # an existing file keeps its mode, as under a plain open
    target.chmod(0o600)
    assert run_cli(GAPS_ARGV + ["--output", str(target)])[0] == 0
    assert target.stat().st_mode & 0o777 == 0o600


def test_empty_output_path_is_usage_error_before_any_solve(monkeypatch):
    import lipkin.cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking --output")

    monkeypatch.setattr(lipkin.cli, "full_spectrum", no_solve)
    code, out, err = run_cli(GAPS_ARGV + ["--output", ""])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --output ''")


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
    ["--law", "eq3", "--lambda", "1", "--n-list", "64,128"],
    ["--law", "eq3", "--n-list", "64,128"],
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
    ["fit", "--n", "512", "--lambda", "5", "--window", "0.2,0.1"],
    ["spectrum", "--n", "abc", "--lambda", "1"],
    ["spectrum", "--n", "8", "--lambda", "abc"],
    ["eps", "--n", "4", "--re-max", "3", "--im-max", "3", "--grid", "0"],
    ["eps", "--n", "4", "--re-max", "3", "--im-max", "-1"],
    ["eps", "--n", "4", "--re-min", "3", "--re-max", "1", "--im-max", "1"],
    ["eps", "--n", "4", "--re-max", "3", "--im-min", "-1", "--im-max", "1"],
    ["gaps", "--n", "1", "--lambda", "1"],
    ["gaps", "--n", "2", "--lambda", "1", "--sector", "odd"],
    ["spectrum", "--n", "1", "--lambda", "1", "--derivative"],
    ["spectrum", "--n", "2", "--lambda", "1", "--sector", "odd",
     "--derivative"],
    ["eps", "--n", "8", "--re-max", "3", "--im-max", "3", "--grid", "20",
     "--im-tol", "-1", "--format", "json"],
    ["eps", "--n", "8", "--re-max", "3", "--im-max", "3", "--grid", "20",
     "--im-tol", "0", "--format", "json"],
])
def test_bad_input_is_usage_error(argv):
    assert exit_code(argv) == 2


def test_non_finite_json_result_is_numerical_failure(tmp_path, monkeypatch):
    import lipkin.cli
    from lipkin.analysis import ScalingReport

    def nan_report(coupling, n_list):
        return ScalingReport([(64, math.nan)], None)

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


@pytest.mark.parametrize("argv", [
    ["eps", "--n", "16", "--re-max", "3", "--im-min", "1", "--im-max", "3",
     "--grid", "30"],
    ["eps", "--n", "8", "--re-max", "3", "--im-min", "2", "--im-max", "3",
     "--grid", "20"],
])
def test_eps_rows_respect_every_region_edge(argv):
    # the region, widened by 2 % of its larger extent on every side
    code, out, _ = run_cli(argv)
    assert code == 0
    value = dict(zip(argv[1::2], argv[2::2]))
    re0, re1 = 0.0, float(value["--re-max"])
    im0, im1 = float(value["--im-min"]), float(value["--im-max"])
    pad = 0.02 * max(re1 - re0, im1 - im0)
    for line in out.splitlines()[1:]:
        re_g, im_g = map(float, line.split(",")[:2])
        assert re0 - pad <= re_g <= re1 + pad
        assert im0 - pad <= im_g <= im1 + pad


def test_eps_n32_keeps_every_row_of_the_strict_stop_rule():
    # eps_n32_strict_stop.csv is this command's output when Newton
    # accepted only its 1e-13 stop rule; accepting stalled runs that pass
    # the certificate adds 10 rows, all paired, and keeps every one of
    # those rows, byte for byte and in order
    code, out, _ = run_cli(["eps", "--n", "32", "--re-max", "3",
                            "--im-max", "3", "--format", "csv"])
    assert code == 0
    strict = (Path(__file__).parent
              / "eps_n32_strict_stop.csv").read_text().splitlines()
    rows = out.splitlines()
    remaining = iter(rows)
    assert all(row in remaining for row in strict)
    assert len(rows) == len(strict) + 10
    assert all(row.split(",")[4] for row in rows[1:])


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


def _workload_commands(name):
    """The seed-0 argvs of one of the benchmark's workloads."""
    import importlib.util

    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.commands(name, 0)


def test_scipy_bisects_but_never_solves_in_full(monkeypatch):
    # every full real solve is the ctypes dstevd worker; scipy's
    # eigh_tridiagonal is called for a level range only
    import scipy.linalg

    real = scipy.linalg.eigh_tridiagonal
    selects = []

    def spy(*args, **kwargs):
        selects.append(kwargs.get("select", "a"))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
    for argv in _workload_commands("spectra") + _workload_commands("scaling"):
        assert run_cli(argv)[0] == 0, argv
    assert selects and set(selects) == {"i"}


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

    # the tracer wraps every binding of a function: pair tracking counts
    # under cli.cmd_eps, and Newton's recurrence under excpt.ep_refine,
    # only through these names
    assert lipkin.cli.ep_pair_id is lipkin.excpt.ep_pair_id
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


@pytest.mark.parametrize("command", ["spectrum", "gaps", "localization"])
def test_levels_beyond_the_double_range_are_named(command):
    # the off-diagonal is finite at this coupling, but the extreme levels
    # are not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli([command, "--n", "8", "--lambda", "1e308"])
    assert code == 3
    assert out == ""
    assert "numerical failure: the levels of the N=8 even block exceed " \
        "the double range" in err


def test_scaled_energy_of_huge_levels_stays_finite():
    # 2E overflows for the lowest levels here, E / (N/2) does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(["spectrum", "--n", "8", "--lambda", "6e307"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 9
    for _, _, e, eps, _ in rows:
        assert math.isfinite(float(eps)) and float(eps) == float(e) / 4


def test_eq3_at_couplings_whose_square_overflows():
    def ratios(lam):
        code, out, _ = run_cli(["scaling", "--law", "eq3", "--lambda", lam,
                                "--n-list", "8,16", "--format", "json"])
        assert code == 0
        return json.loads(out)["results"]["ratios"]

    reference = ratios("1.3e154")  # g*g is still finite here
    assert all(r > 0.2 for r in reference)
    for lam in ("1e200", "1e307"):
        assert ratios(lam) == pytest.approx(reference, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam", ["1e200", "1e300"])
def test_eq2_at_couplings_past_the_bisection_range(lam):
    # the squared off-diagonal overflows inside LAPACK's bisection here;
    # the full solve behind `gaps` is the reference
    code, out, _ = run_cli(["scaling", "--law", "eq2", "--n-list", "8,16",
                            "--lambda", lam, "--format", "json"])
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert [row["n"] for row in rows] == [8, 16]
    for row in rows:
        code, out, _ = run_cli(["gaps", "--n", str(row["n"]), "--lambda", lam,
                                "--format", "json"])
        assert code == 0
        reference = json.loads(out)["results"]["rows"][0]["gap"]
        assert row["gap"] == pytest.approx(reference, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("argv", [
    ["eps", "--n", "4", "--re-max", "1e308", "--im-max", "1", "--grid", "2"],
    ["eps", "--n", "9", "--re-max", "1", "--im-max", "1e200", "--grid", "3"],
    # eigenvalue differences here overflow: no close pair, no warning
    ["eps", "--n", "9", "--re-max", "1e308", "--im-max", "1", "--grid", "2"],
    # Newton lands on an axis EP with a subnormal Re g, where the
    # certificate's recurrence overflows
    ["eps", "--n", "9", "--re-max", "1e-300", "--im-min", "1e-08",
     "--im-max", "0.5", "--grid", "4"],
])
def test_overflowing_eps_seeds_are_dropped(argv):
    # the determinant recurrence overflows on these seeds; the scan drops
    # them as it drops any seed whose refinement fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv)
    assert code == 0
    assert out == ("re_lambda,im_lambda,re_E,im_E,k,k_next,sector,"
                   "residual\n")
    assert "Traceback" not in err


def test_overflowing_scan_cells_warn_only_that_they_are_skipped():
    # Im g up to 1e308 overflows g times the ladder factors: those blocks
    # are skipped cells, with no numpy warning of their own
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_cli(["eps", "--n", "17", "--re-min", "1e-08",
                                "--re-max", "1", "--im-min", "0.5",
                                "--im-max", "1e308", "--grid", "3",
                                "--no-pairs"])
    assert code == 0
    messages = [str(w.message) for w in caught]
    assert messages
    assert all(m.endswith("cells skipped: eigensolve failed")
               for m in messages), messages


@pytest.mark.parametrize("argv,key,value", [
    (["localization", "--n", "4", "--lambda=-1e300"], "lambda", -1e300),
    (["eps", "--n", "4", "--re-min=-1e-3", "--re-max", "1", "--im-max", "2",
      "--grid", "6"], "re_min", -1e-3),
])
def test_negative_float_in_exponent_form_takes_the_equals_form(argv, key,
                                                               value):
    # argparse may read a spaced "-1e-3" as a flag, depending on the
    # Python version; the "=" form is a value on every version
    code, out, _ = run_cli([*argv, "--format", "json"])
    assert code == 0
    assert json.loads(out)["config"][key] == value


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
        if len(couplings) != 60:  # grid rows, not a pair-tracking walk
            centres.extend(couplings)
        return real_solver(n, parity, couplings)

    monkeypatch.setattr(lipkin.excpt, "eig_complex_tridiag", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, no skipped cell
        code, out, _ = run_cli(argv)
    assert code == 0
    # both sectors, every cell exactly once, in row order
    xs = lipkin.excpt._cell_centres(re_min, 1e308, 3)
    ys = lipkin.excpt._cell_centres(0.0, 1.0, 3)
    assert centres == 2 * [x + 1j * y for y in ys for x in xs]
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


def record_public_calls(monkeypatch):
    """(name, thread) of every call of a public function of the package,
    wrapped at every name it is bound under, as bench/tracing.py does."""
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
    return calls


def test_public_functions_run_on_the_main_thread(monkeypatch):
    # bench/tracing.py keeps one span stack for all threads, so the
    # solver's worker threads must run private code only
    import threading

    import lipkin

    calls = record_public_calls(monkeypatch)
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


def test_scan_solves_on_workers_that_call_no_public_function(monkeypatch):
    # two usable CPUs, so the complex solves run on worker threads even
    # on a one-CPU host; every public call still comes from the main thread
    import threading

    import lipkin.eigen

    monkeypatch.setattr(lipkin.eigen, "_usable_cpus", lambda: 2)
    calls = record_public_calls(monkeypatch)
    workers = []
    real_slice = lipkin.eigen._solve_slice

    def recording(*args):
        workers.append(threading.current_thread())
        return real_slice(*args)

    monkeypatch.setattr(lipkin.eigen, "_solve_slice", recording)
    code, out, _ = run_cli(["eps", "--n", "32", "--re-max", "3",
                            "--im-max", "3", "--grid", "30"])
    assert code == 0
    assert len(out.splitlines()) > 10
    assert {"ep_scan", "ep_refine", "det_state_at",
            "eig_complex_tridiag", "ep_pair_id"} <= {n for n, _ in calls}
    assert {thread for _, thread in calls} == {threading.main_thread()}
    assert workers
    assert threading.main_thread() not in workers
