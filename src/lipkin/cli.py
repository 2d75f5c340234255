"""Command-line driver: every analysis as a reproducible run.

Commands map onto the library one-to-one.  Each `cmd_*` returns one
table, (columns, results): column names mapped, in order, to equal-length
cell sequences, and its further JSON results; `main` alone writes them
as CSV or JSON.  Output is deterministic: floats print in shortest
round-trip form, rows come in a fixed order, and run metadata excludes
wall-clock timing unless --timing is passed (timing would break
byte-identical reruns).  Regular files are written atomically -- a
failed run leaves nothing behind.

Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .analysis import (
    _scaled_energy,
    critical_state,
    critical_x,
    full_spectrum,
    gap_ratio_eq3,
    gaps,
    ipr,
    min_gap,
    scaled_spectrum,
    scaling_exponent_eq2,
    spectral_derivative,
)
from .core import Parity, UsageError, build_block
from .eigen import eig_real_tridiag
from .excpt import EpTrackingError, _near_real_count, ep_pair_id, ep_scan
from .logfit import (
    DEFAULT_WINDOW,
    derivative_comparison,
    fit_derivative,
    fit_eval,
    fit_spectrum_side,
    window_points,
)

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _csv_lines(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_payload(config: dict, results, elapsed: float | None) -> str:
    doc = {
        "config": config,
        "results": results,
        "meta": {
            "tool_version": __version__,
            "elapsed_seconds": elapsed,
        },
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _check_output(path: str) -> None:
    """Reject an --output path that cannot name a file, before any solve."""
    if not path:
        raise UsageError("--output '' names no file")
    if os.path.isdir(path):
        raise UsageError(f"--output {path!r} is a directory")
    directory = os.path.dirname(os.path.realpath(path))
    if not os.path.isdir(directory):
        raise UsageError(f"--output {path!r}: no directory {directory!r}")


def _emit(text: str, path: str | None) -> None:
    """Write to stdout or to the file path names, through any symlink; a
    file that cannot be written is a UsageError.  A FIFO or a device is
    written in place.  A regular file is replaced atomically by a temp
    file with the mode a plain open would give, so a failed write leaves
    nothing behind."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w") as handle:
                handle.write(text)
            return
        target = os.path.realpath(path)
        if os.path.exists(target):  # a plain open keeps a file's mode
            mode = os.stat(target).st_mode & 0o777
        else:  # and gives a new file 0o666 less the umask
            umask = os.umask(0o077)
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                                   prefix=".lipkin-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                os.fchmod(handle.fileno(), mode)
                handle.write(text)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write --output {path!r}: {exc}") from exc


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- commands


def cmd_spectrum(args) -> tuple[dict, dict]:
    s = full_spectrum(args.n, args.lam)
    values = s.levels(args.sector)
    half = min(len(values), args.n // 2)
    count = half if args.lower_half else len(values)
    k = np.arange(1, count + 1)
    tags = (list(map(str, s.merged_parity[:count]))
            if args.sector == "merged" else [args.sector] * count)
    columns = {"k": k, "x": 2.0 * k / args.n, "E": values[:count],
               "eps": _scaled_energy(values[:count], args.n), "sector": tags}
    if args.derivative:
        xm, slope = spectral_derivative(scaled_spectrum(s, args.sector))
        blank = [""] * (count - len(xm))
        columns["x_mid"] = [*xm, *blank]
        columns["deps_dx"] = [*slope, *blank]
    return columns, {"lower_half_points": half}


def cmd_gaps(args) -> tuple[dict, dict]:
    s = full_spectrum(args.n, args.lam)
    sector = Parity(args.sector)
    g = gaps(s, sector)
    values = s.levels(args.sector)
    k_c, smallest = min_gap(s, sector)
    columns = {"k": np.arange(1, len(g) + 1), "e_low": values[:-1],
               "e_high": values[1:], "gap": g}
    return columns, {"min_gap": smallest, "min_gap_merged_index": k_c}


def cmd_scaling(args) -> tuple[dict, dict]:
    n_list = args.n_list
    if args.law == "eq2":
        lam = 1.0 if args.lam is None else args.lam
        _progress(f"gap-exponent sweep over N={n_list} at coupling {lam}")
        report = scaling_exponent_eq2(args.k, n_list, lam)
        n, gap = zip(*report.samples)
        return {"n": n, "gap": gap}, {
            "law": "eq2", "k": args.k, "lambda": lam,
            "slope": report.summary, "expected_slope": -1.0 / 3.0}
    if args.lam is None:
        raise UsageError("--law eq3 needs --lambda")
    _progress(f"min-gap ratio sweep over N={n_list} at coupling {args.lam}")
    n, ratio = zip(*gap_ratio_eq3(args.lam, n_list).samples)
    return {"n": n, "ratio": ratio}, {"law": "eq3", "lambda": args.lam,
                                      "ratios": list(ratio)}


def cmd_eps(args) -> tuple[dict, dict]:
    sectors = ([Parity.EVEN, Parity.ODD] if args.sector == "both"
               else [Parity(args.sector)])
    region = (args.re_min, args.re_max, args.im_min, args.im_max)
    found = []
    for sector in sectors:
        _progress(f"scanning {sector} sector over {region} "
                  f"with a {args.grid}x{args.grid} grid")
        for ep in ep_scan(args.n, sector, region, args.grid):
            pair = ("", "")  # blank when skipped or when tracking fails
            if not args.no_pairs:
                try:
                    pair = ep_pair_id(ep)
                except EpTrackingError:
                    pass
            found.append((ep, pair))
    found.sort(key=lambda f: (f[0].lambda_star.real, f[0].lambda_star.imag))
    g_star = np.array([ep.lambda_star for ep, _ in found], dtype=complex)
    e_star = np.array([ep.energy_star for ep, _ in found], dtype=complex)
    columns = {"re_lambda": g_star.real, "im_lambda": g_star.imag,
               "re_E": e_star.real, "im_E": e_star.imag,
               "k": [pair[0] for _, pair in found],
               "k_next": [pair[1] for _, pair in found],
               "sector": [str(ep.sector) for ep, _ in found],
               "residual": [ep.residual for ep, _ in found]}
    results = {"count": len(found)}
    if args.im_tol is not None:
        results["near_real_count"] = _near_real_count(g_star, args.re_max,
                                                      args.im_tol)
        results["im_tol"] = args.im_tol
    return columns, results


def cmd_fit(args) -> tuple[dict, dict]:
    window = tuple(args.window) if args.window else DEFAULT_WINDOW
    _progress(f"diagonalizing N={args.n} at coupling {args.lam}")
    s = full_spectrum(args.n, args.lam)
    x_c = critical_x(args.n, args.lam, spectrum=s)
    ss = scaled_spectrum(s, "merged")
    sides = [args.side] if args.side else ["left", "right"]
    parts, fit_info = [], {}
    for side in sides:
        fit = fit_spectrum_side(ss, x_c, side, n_terms=args.terms,
                                window=window)
        acid = derivative_comparison(fit, ss)
        xs, ys = window_points(ss, x_c, side, window)
        # a stride-2 midpoint sits on a level k, but its x can differ
        # from 2k/N by an ulp: join the acid test to the rows by k
        fd_at = {round(x * args.n / 2): (float(f), float(r)) for x, f, r in
                 zip(acid["x"], acid["finite_difference"],
                     acid["relative_deviation"])}
        joined = [fd_at.get(round(x * args.n / 2), ("", "")) for x in xs]
        parts.append({"side": [side] * len(xs), "x": xs, "y": ys,
                      "y_fit": fit_eval(fit, xs),
                      "dy_fit": fit_derivative(fit, xs),
                      "dy_fd": [fd for fd, _ in joined],
                      "rel_dev": [rel for _, rel in joined]})
        coeffs = {f"a{p}": float(a)
                  for p, a in enumerate(fit.coefficients, start=1)}
        fit_info[side] = {
            "coefficients": coeffs,
            "rms_residual": fit.rms_residual,
            "acid_max_relative_deviation": acid["max_relative_deviation"],
            "acid_rms_relative_deviation": acid["rms_relative_deviation"],
        }
    columns = {name: [c for part in parts for c in part[name]]
               for name in parts[0]}
    return columns, {"x_c": x_c, "window": list(window),
                     "n_terms": args.terms, "fits": fit_info}


def cmd_localization(args) -> tuple[dict, dict]:
    block = build_block(args.n, args.lam, Parity(args.sector))
    res = eig_real_tridiag(block, want_vectors=True)
    iprs = ipr(res.vectors)
    k_crit = critical_state(args.n, res)
    columns = {"k": np.arange(1, len(res.values) + 1), "E": res.values,
               "eps": _scaled_energy(res.values, args.n), "ipr": iprs,
               "m_peak": block.diag[np.argmax(np.abs(res.vectors), axis=0)]}
    return columns, {"critical_level": k_crit,
                     "critical_level_ipr": iprs[k_crit - 1]}


# ------------------------------------------------------------------ driver


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, "
                                         f"got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, "
                                         f"got {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    values = [_positive_int(part) for part in text.split(",") if part]
    if not values:
        raise argparse.ArgumentTypeError(f"empty integer list {text!r}")
    return values


def _float_pair(text: str) -> list[float]:
    parts = [_finite_float(p) for p in text.split(",") if p]
    if len(parts) != 2 or not 0.0 <= parts[0] < parts[1]:
        raise argparse.ArgumentTypeError(
            f"expected LO,HI with 0 <= LO < HI, got {text!r}")
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipkin",
        description="Collective-spin spectra, scaling laws, and "
                    "coupling-plane branch points as reproducible data runs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sectors=("even", "odd", "merged"), default_sector="merged"):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--output", default=None,
                       help="output path (default: stdout)")
        p.add_argument("--timing", action="store_true",
                       help="record wall-clock time in JSON metadata "
                            "(breaks byte-identical reruns)")
        if sectors:
            p.add_argument("--sector", choices=list(sectors),
                           default=default_sector)

    p = sub.add_parser("spectrum", help="eigenvalues and the scaled view")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--lambda", dest="lam", type=_finite_float,
                   required=True)
    p.add_argument("--lower-half", action="store_true",
                   help="emit only the lower half (x <= 1)")
    p.add_argument("--derivative", action="store_true",
                   help="append finite-difference slope columns")
    common(p)
    p.set_defaults(run=cmd_spectrum)

    p = sub.add_parser("gaps", help="same-sector level distances")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--lambda", dest="lam", type=_finite_float,
                   required=True)
    common(p, sectors=("even", "odd"), default_sector="even")
    p.set_defaults(run=cmd_gaps)

    p = sub.add_parser("scaling", help="finite-size scaling sweeps")
    p.add_argument("--law", choices=["eq2", "eq3"], required=True)
    p.add_argument("--k", type=_positive_int, default=1,
                   help="gap index for the exponent law")
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--lambda", dest="lam", type=_finite_float,
                   default=None)
    common(p, sectors=None)
    p.set_defaults(run=cmd_scaling)

    p = sub.add_parser("eps", help="branch points in the coupling plane")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--re-min", type=_finite_float, default=0.0)
    p.add_argument("--re-max", type=_finite_float, required=True)
    p.add_argument("--im-min", type=_finite_float, default=0.0)
    p.add_argument("--im-max", type=_finite_float, required=True)
    p.add_argument("--grid", type=_positive_int, default=80,
                   help="grid points per axis for seeding")
    p.add_argument("--im-tol", type=_positive_float, default=None,
                   help="also report the near-real count below this "
                        "cutoff (JSON results only)")
    p.add_argument("--no-pairs", action="store_true",
                   help="skip level-pair identification")
    common(p, sectors=("even", "odd", "both"), default_sector="both")
    p.set_defaults(run=cmd_eps)

    p = sub.add_parser("fit", help="critical-line singularity fit + acid test")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--lambda", dest="lam", type=_finite_float,
                   required=True)
    p.add_argument("--side", choices=["left", "right"], default=None,
                   help="fit one side only (default: both)")
    p.add_argument("--terms", type=int, default=3, choices=[1, 2, 3])
    p.add_argument("--window", type=_float_pair, default=None,
                   metavar="LO,HI")
    common(p, sectors=None)
    p.set_defaults(run=cmd_fit)

    p = sub.add_parser("localization",
                       help="per-level inverse participation ratios")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--lambda", dest="lam", type=_finite_float,
                   required=True)
    common(p, sectors=("even", "odd"), default_sector="even")
    p.set_defaults(run=cmd_localization)

    return parser


def _config_echo(args) -> dict:
    skip = {"run", "command", "output", "format", "timing"}
    config = {"command": args.command}
    for key, value in sorted(vars(args).items()):
        if key in skip or callable(value):
            continue
        config["lambda" if key == "lam" else key] = value
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        if args.output is not None:
            _check_output(args.output)
        columns, results = args.run(args)
        elapsed = time.monotonic() - start
        # tolist() turns numpy cells into the ints, floats and strings
        # json takes, with the same shortest round-trip digits
        rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                          for c in columns.values())))
        if args.format == "csv":
            text = _csv_lines(list(columns), rows)
        else:
            # allow_nan=False: a NaN or infinity in the results raises
            # ValueError here instead of emitting invalid JSON
            results = {"rows": [dict(zip(columns, row)) for row in rows],
                       **results}
            text = _json_payload(_config_echo(args),
                                 results,
                                 elapsed if args.timing else None)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    try:
        _emit(text, args.output)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
