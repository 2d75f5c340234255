"""Command-line driver: every analysis as a reproducible run.

Commands map onto the library one-to-one and emit CSV or JSON.  Output
is deterministic: floats print in shortest round-trip form, rows come in
a fixed order, and run metadata excludes wall-clock timing unless
--timing is passed (timing would break byte-identical reruns).  Files
are written atomically -- a failed run leaves nothing behind.

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
    NoCrossingError,
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
from .core import Parity, build_block, sector_basis
from .eigen import eig_real_tridiag
from .excpt import EpConvergenceError, _near_real_count, ep_scan
from .logfit import (
    DEFAULT_WINDOW,
    FitError,
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


def _csv_lines(header: list[str], rows: list[list]) -> str:
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


def _emit(text: str, path: str | None) -> None:
    """Write to stdout or atomically to a file."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lipkin-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- commands


def _sector_size(n: int, selector: str) -> int:
    """Number of levels a spectrum selector holds, without a solve."""
    if selector == "merged":
        return n + 1
    return len(sector_basis(n, Parity(selector)))


def cmd_spectrum(args) -> tuple[list[str], list[list], dict]:
    if args.derivative:
        stride = 2 if args.sector == "merged" else 1
        points = min(_sector_size(args.n, args.sector), args.n // 2)
        if points < stride + 1:
            raise UsageError(
                f"--derivative takes stride-{stride} differences of the "
                f"lower half, which needs at least {stride + 1} levels; "
                f"N={args.n} gives {points}"
            )
    s = full_spectrum(args.n, args.lam)
    selector = args.sector
    values = s.levels(selector)
    if selector == "merged":
        sector_tags = [str(p) for p in s.merged_parity]
    else:
        sector_tags = [selector] * len(values)
    count = min(len(values), args.n // 2) if args.lower_half else len(values)
    header = ["k", "x", "E", "eps", "sector"]
    rows = []
    for k in range(1, count + 1):
        e = values[k - 1]
        rows.append([k, 2.0 * k / args.n, e, 2.0 * e / args.n,
                     sector_tags[k - 1]])
    if args.derivative:
        ss = scaled_spectrum(s, selector)
        xm, slope = spectral_derivative(ss)
        header += ["x_mid", "deps_dx"]
        for i, row in enumerate(rows):
            if i < len(xm):
                row.extend([xm[i], slope[i]])
            else:
                row.extend(["", ""])
    extra = {"lower_half_points": min(len(values), args.n // 2)}
    return header, rows, extra


def cmd_gaps(args) -> tuple[list[str], list[list], dict]:
    levels = _sector_size(args.n, args.sector)
    if levels < 2:
        raise UsageError(f"the {args.sector} sector of N={args.n} holds "
                         f"{levels} level; gaps need at least 2")
    s = full_spectrum(args.n, args.lam)
    sector = Parity(args.sector)
    g = gaps(s, sector)
    values = s.levels(args.sector)
    header = ["k", "e_low", "e_high", "gap"]
    rows = [[k, values[k - 1], values[k], g[k - 1]]
            for k in range(1, len(g) + 1)]
    k_c, smallest = min_gap(s, sector)
    return header, rows, {"min_gap": smallest, "min_gap_merged_index": k_c}


def _check_scaling(args) -> None:
    """Reject sweeps the laws cannot evaluate, before any solve."""
    if args.law == "eq2":
        smallest = 2 * args.k + 2
        if len(set(args.n_list)) < 2:
            raise UsageError("--law eq2 fits a slope and needs at least two "
                             "distinct N in --n-list")
    else:
        if args.lam is None or args.lam <= 1.0:
            raise UsageError("--law eq3 needs --lambda greater than 1")
        smallest = 2
    if min(args.n_list) < smallest:
        raise UsageError(f"--law {args.law} needs every N in --n-list to be "
                         f">= {smallest}, got {min(args.n_list)}")


def cmd_scaling(args) -> tuple[list[str], list[list], dict]:
    _check_scaling(args)
    n_list = args.n_list
    if args.law == "eq2":
        lam = 1.0 if args.lam is None else args.lam
        _progress(f"gap-exponent sweep over N={n_list} at coupling {lam}")
        report = scaling_exponent_eq2(args.k, n_list, lam)
        header = ["n", "gap"]
        extra = {"law": "eq2", "k": args.k, "lambda": lam,
                 "slope": report.summary, "expected_slope": -1.0 / 3.0}
    else:
        _progress(f"min-gap ratio sweep over N={n_list} at coupling {args.lam}")
        report = gap_ratio_eq3(args.lam, n_list)
        header = ["n", "ratio"]
        extra = {"law": "eq3", "lambda": args.lam,
                 "ratios": [float(r) for r in report.summary]}
    rows = [[n, v] for n, v in report.samples]
    return header, rows, extra


def cmd_eps(args) -> tuple[list[str], list[list], dict]:
    if not (args.re_min < args.re_max and 0.0 <= args.im_min < args.im_max):
        raise UsageError(
            "the scan region needs --re-min < --re-max and "
            "0 <= --im-min < --im-max"
        )
    sectors = ([Parity.EVEN, Parity.ODD] if args.sector == "both"
               else [Parity(args.sector)])
    region = (args.re_min, args.re_max, args.im_min, args.im_max)
    rows = []
    for sector in sectors:
        _progress(f"scanning {sector} sector over {region} "
                  f"with a {args.grid}x{args.grid} grid")
        found = ep_scan(args.n, sector, region, args.grid,
                        identify_pairs=not args.no_pairs)
        for ep in found:
            pair = ep.pair if ep.pair is not None else ("", "")
            rows.append([ep.lambda_star.real, ep.lambda_star.imag,
                         ep.energy_star.real, ep.energy_star.imag,
                         pair[0], pair[1], str(ep.sector), ep.residual])
    rows.sort(key=lambda r: (r[0], r[1]))
    header = ["re_lambda", "im_lambda", "re_E", "im_E", "k", "k_next",
              "sector", "residual"]
    extra = {"count": len(rows)}
    if args.im_tol is not None:
        extra["near_real_count"] = _near_real_count(
            [complex(r[0], r[1]) for r in rows], args.re_max, args.im_tol)
        extra["im_tol"] = args.im_tol
    return header, rows, extra


def cmd_fit(args) -> tuple[list[str], list[list], dict]:
    window = tuple(args.window) if args.window else DEFAULT_WINDOW
    _progress(f"diagonalizing N={args.n} at coupling {args.lam}")
    s = full_spectrum(args.n, args.lam)
    x_c = critical_x(args.n, args.lam, spectrum=s)
    ss = scaled_spectrum(s, "merged")
    sides = [args.side] if args.side else ["left", "right"]
    header = ["side", "x", "y", "y_fit", "dy_fit", "dy_fd", "rel_dev"]
    rows = []
    fit_info = {}
    for side in sides:
        fit = fit_spectrum_side(ss, x_c, side, n_terms=args.terms,
                                window=window)
        acid = derivative_comparison(fit, ss)
        xs, ys = window_points(ss, x_c, side, window)
        yfit = fit_eval(fit, xs)
        fd_at = {float(x): (float(f), float(r)) for x, f, r in
                 zip(acid["x"], acid["finite_difference"],
                     acid["relative_deviation"])}
        for x, y, yf in zip(xs, ys, yfit):
            fd, rel = fd_at.get(float(x), ("", ""))
            rows.append([side, x, y, yf, fit_derivative(fit, x), fd, rel])
        coeffs = {f"a{p}": float(a)
                  for p, a in enumerate(fit.coefficients, start=1)}
        fit_info[side] = {
            "coefficients": coeffs,
            "rms_residual": fit.rms_residual,
            "acid_max_relative_deviation": acid["max_relative_deviation"],
            "acid_rms_relative_deviation": acid["rms_relative_deviation"],
        }
    extra = {"x_c": x_c, "window": list(window), "n_terms": args.terms,
             "fits": fit_info}
    return header, rows, extra


def cmd_localization(args) -> tuple[list[str], list[list], dict]:
    sector = Parity(args.sector)
    block = build_block(args.n, args.lam, sector)
    res = eig_real_tridiag(block, want_vectors=True)
    header = ["k", "E", "eps", "ipr", "m_peak"]
    rows = []
    for k in range(1, len(res.values) + 1):
        vec = res.vectors[:, k - 1]
        peak = block.diag[int(np.argmax(np.abs(vec)))]
        rows.append([k, res.values[k - 1],
                     2.0 * res.values[k - 1] / args.n, ipr(vec), peak])
    k_crit, _, vec = critical_state(args.n, res)
    return header, rows, {"critical_level": k_crit,
                          "critical_level_ipr": ipr(vec)}


# ------------------------------------------------------------------ driver


class UsageError(ValueError):
    pass


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
    p.add_argument("--im-tol", type=_finite_float, default=None,
                   help="also report the near-real count below this cutoff")
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
        header, rows, extra = args.run(args)
        elapsed = time.monotonic() - start
        if args.format == "csv":
            text = _csv_lines(header, rows)
        else:
            # rows hold ints, strings and floats (np.float64 is a float to
            # json); allow_nan=False: a NaN or infinity in the results
            # raises ValueError here instead of emitting invalid JSON
            results = {"rows": [dict(zip(header, row)) for row in rows],
                       **extra}
            text = _json_payload(_config_echo(args),
                                 results,
                                 elapsed if args.timing else None)
    except (UsageError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (NoCrossingError, EpConvergenceError, FitError,
            ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    _emit(text, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
