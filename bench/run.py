#!/usr/bin/env python3
"""Benchmark of the `lipkin` command line, end to end and per layer.

    python3 bench/run.py --workload spectra --seed 0 --seconds 36 --trace 0

Run it from anywhere inside a source checkout: `lipkin` is imported from
the checkout's `src/`, never from an installed copy, and the run fails
(exit 2, no result) when `src/lipkin` is missing.

A workload (`workloads.py`) is a fixed list of `lipkin` argv lists.  The
commands run in-process through `lipkin.cli.main`, one after another,
with stdout captured: a closed loop with a single client.  A pass runs
every command once; passes repeat while the next one still fits in
`--seconds`.  Tiny versions of the commands run once first, so lazy
imports and first-call costs stay out of the timed passes.  Every output
goes through the correctness gate (`gate.py`); later passes must repeat
the first pass byte for byte, as the CLI promises.

--trace 0 reports the end-to-end metrics, with tracing off.  --trace 1
alternates untraced and traced passes (`tracing.py`), reports the
per-layer metrics, and writes the spans of the first traced pass to
`.bench_out/trace-<workload>-seed<seed>.json`.

Standard output ends with two JSON lines: the environment record, then
the result {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference_seed0.json"

# One BLAS thread: the program is a single-threaded closed loop, and two
# cores shared with the benchmark's own work give steadier times this way.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 8
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy, scipy.linalg, lipkin.cli
lipkin.cli.build_parser()
print(time.perf_counter() - t0)
"""
SUBCOMMANDS = ("spectrum", "gaps", "fit", "localization", "scaling", "eps")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: N <= 64, grid <= 8")
    return parser.parse_args(argv)


# ------------------------------------------------------------ environment


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    with contextlib.suppress(OSError):
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lipkin").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _openblas_threads(module) -> int | None:
    """Effective thread count of the OpenBLAS a package bundles."""
    pkg = Path(module.__file__).parent
    for lib in sorted(pkg.parent.glob(f"{pkg.name}.libs/*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _blas(module) -> dict:
    info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": _openblas_threads(module)}


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(ROOT),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
    }


# ------------------------------------------------------------ running


def measure_setup() -> float:
    """Time to import numpy, scipy and lipkin and build the parser in a
    fresh interpreter, which runs alone: this process waits for it."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1])


def run_command(cli, argv: list[str]):
    """(exit code, stdout, seconds) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # counted as a failed command, never dropped
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start


class Run:
    """Outcome of one benchmark invocation: commands, passes, failures."""

    def __init__(self, gate, cmds, seed, reference):
        self.gate = gate
        self.cmds = cmds
        self.rng = random.Random(seed)
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: list[str] | None = None
        self.passes: list[dict] = []

    def record(self, argv, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{' '.join(argv)}: {p}" for p in problems)

    def warm_up(self, cli) -> None:
        """Run each command once at self-test size, gated."""
        seen = set()
        for argv in map(workloads.shrink, self.cmds):
            if tuple(argv) not in seen:
                seen.add(tuple(argv))
                code, text, _ = run_command(cli, argv)
                self.record(argv, self.gate.check(argv, code, text, self.rng))

    def one_pass(self, cli, traced: bool) -> float:
        cpu = time.process_time()
        results = [run_command(cli, argv) for argv in self.cmds]
        cpu = time.process_time() - cpu
        cmd_s = [seconds for _, _, seconds in results]
        if self.first is None:
            self.first = [text for _, text, _ in results]
            for argv, (code, text, _) in zip(self.cmds, results):
                ref = self.reference.get(" ".join(argv))
                self.record(argv, self.gate.check(argv, code, text, self.rng,
                                                  ref))
        else:
            for argv, (code, text, _), first in zip(self.cmds, results,
                                                    self.first):
                self.record(argv, [] if code == 0 and text == first else
                            [f"exit code {code} or output differs from the "
                             "first pass"])
        self.passes.append({"traced": traced, "wall_s": sum(cmd_s),
                            "cpu_s": cpu, "cmd_s": cmd_s, "stats": None})
        return sum(cmd_s)

    def pass_s(self, traced: bool = False, subcommand: str | None = None):
        """Time of one pass, robust to bursts of machine noise: each
        command's median over the (un)traced passes, summed over the
        commands (of one subcommand, if given)."""
        passes = [p for p in self.passes if p["traced"] == traced]
        return sum((_median([p["cmd_s"][i] for p in passes])
                    for i, argv in enumerate(self.cmds)
                    if subcommand in (None, argv[0])), 0.0)

    def output_rows(self):
        """(rows, complete rows, EPs, paired EPs) of the first pass."""
        rows = complete = eps = paired = 0
        for argv, text in zip(self.cmds, self.first or []):
            try:
                header, table = self.gate.table(
                    text, self.gate.flags(argv).get("--format", "csv"))
            except (ValueError, KeyError, IndexError):
                continue
            rows += len(table)
            complete += sum(all(cell != "" for cell in row) for row in table)
            if argv[0] == "eps":
                eps += len(table)
                paired += sum(row[4] != "" for row in table)
        return rows, complete, eps, paired


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, setup_s: float) -> dict:
    rows, complete, _, _ = run.output_rows()
    return {
        "wall_s": run.pass_s(),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_frac": 1.0 - run.failed / run.attempted,
        "rows_emitted": rows,
        "rows_complete_frac": complete / rows if rows else 0.0,
    }


def per_layer(run: Run) -> dict:
    traced = [p for p in run.passes if p["traced"]]
    first = traced[0]["stats"]
    counts = first["_counts"]

    def count(name, stat="calls"):
        """A deterministic count, from the first traced pass."""
        return first.get(name, {}).get(stat, 0)

    def seconds(name, stat="self_s"):
        """Median over traced passes; a module name sums its functions."""
        return _median([sum(v[stat] for k, v in p["stats"].items()
                            if k == name or k.startswith(name + "."))
                        for p in traced])

    def ratio(num, den):
        return num / den if den else 0.0

    rows, _, eps, paired = run.output_rows()
    m = {
        "eigen.eig_real_tridiag.calls": count("eigen.eig_real_tridiag"),
        "eigen.eig_real_tridiag.self_s": seconds("eigen.eig_real_tridiag"),
        "eigen.eig_real_tridiag.levels": counts["levels"],
        "eigen.eig_real_tridiag.vector_calls": counts["vector_calls"],
        "eigen.level_yield": ratio(rows, counts["levels"]),
        "eigen.eig_complex_tridiag.calls": count("eigen.eig_complex_tridiag"),
        "eigen.eig_complex_tridiag.self_s": seconds(
            "eigen.eig_complex_tridiag"),
        "eigen.eig_complex_tridiag.errors": count(
            "eigen.eig_complex_tridiag", "errors"),
        "core.build_block.calls": count("core.build_block"),
        "core.build_block.self_s": seconds("core.build_block"),
        "excpt.ep_scan.self_s": seconds("excpt.ep_scan"),
        "excpt.ep_scan.total_s": seconds("excpt.ep_scan", "total_s"),
        "excpt.ep_scan.cells": counts["cells"],
        "excpt.ep_refine.calls": count("excpt.ep_refine"),
        "excpt.ep_refine.self_s": seconds("excpt.ep_refine"),
        "excpt.ep_refine.total_s": seconds("excpt.ep_refine", "total_s"),
        "excpt.ep_refine.rejected": count("excpt.ep_refine", "errors"),
        "excpt.newton_evals": counts["newton_evals"],
        "excpt.refine_yield": ratio(counts["kept"],
                                    count("excpt.ep_refine")),
        "eigen.det_state_at.calls": count("eigen.det_state_at"),
        "eigen.det_state_at.self_s": seconds("eigen.det_state_at"),
        "eigen.det_state_at.steps": counts["steps"],
        "excpt.ep_pair_id.calls": count("excpt.ep_pair_id"),
        "excpt.ep_pair_id.self_s": seconds("excpt.ep_pair_id"),
        "excpt.ep_pair_id.total_s": seconds("excpt.ep_pair_id", "total_s"),
        "excpt.ep_pair_id.failures": count("excpt.ep_pair_id", "errors"),
        "excpt.ep_pair_id.eig_calls": counts["pair_eig_calls"],
        "excpt.ep_found": eps,
        "excpt.ep_paired_frac": ratio(paired, eps),
        "analysis.full_spectrum.calls": count("analysis.full_spectrum"),
        "analysis.full_spectrum.self_s": seconds("analysis.full_spectrum"),
        "analysis.critical_state.calls": count("analysis.critical_state"),
        "logfit.fit_spectrum_side.self_s": seconds(
            "logfit.fit_spectrum_side"),
        "logfit.derivative_comparison.self_s": seconds(
            "logfit.derivative_comparison"),
        "cli.main.self_s": seconds("cli.main"),
        "cli.bytes_out": sum(len(text.encode()) for text in run.first),
        "cli.rows_out": rows,
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = seconds(layer)
    for sub in SUBCOMMANDS:
        m[f"{sub}_s"] = run.pass_s(subcommand=sub)
    m["trace.overhead_frac"] = run.pass_s(traced=True) / run.pass_s() - 1.0
    m["trace.covered_frac"] = _median(
        [sum(v["self_s"] for k, v in p["stats"].items() if k != "_counts")
         / p["wall_s"] for p in traced])
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lipkin" / "__init__.py").is_file():
        print(f"error: {SRC / 'lipkin'} is missing; run from a lipkin "
              "source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lipkin = importlib.import_module("lipkin")
    cli = importlib.import_module("lipkin.cli")
    if Path(lipkin.__file__).resolve().parent != SRC / "lipkin":
        print(f"error: lipkin imported from {lipkin.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import gate  # imports numpy, so only after the BLAS thread setting

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    cmds = workloads.commands(args.workload, args.seed, tiny=args.tiny)
    reference = {}
    if args.seed == 0 and not args.tiny:
        reference = json.loads(REFERENCE.read_text())["eps"]
    # Set-up samples are spread over the run (one before and one after
    # each pass), so that one burst of machine noise cannot move them all.
    setup = []
    if not args.trace:
        setup.append(measure_setup())

    run = Run(gate, cmds, args.seed, reference)
    run.warm_up(cli)
    measured = 0.0
    first_tracer = None
    while True:
        if args.trace and len(run.passes) % 2 == 1:
            tracer = tracing.Tracer(lipkin)
            with tracer:
                wall = run.one_pass(cli, True)
            run.passes[-1]["stats"] = tracer.aggregate()
            first_tracer = first_tracer or tracer
        else:
            wall = run.one_pass(cli, False)
        if not args.trace:
            setup.append(measure_setup())
        measured += wall
        if measured + wall > args.seconds and (
                not args.trace or len(run.passes) >= 2):
            break

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    if args.trace:
        first_tracer.write(
            OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", cmds)
        metrics = per_layer(run)
    else:
        while len(setup) < SETUP_REPEATS:
            setup.append(measure_setup())
        metrics = end_to_end(run, statistics.median(setup))
    for problem in run.problems:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps({
        "env": environment(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commands": [" ".join(c) for c in cmds],
        "passes": [{k: p[k] for k in ("traced", "wall_s", "cpu_s")}
                   for p in run.passes],
        "problems": run.problems[:100],
    }))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
