"""Correctness gate for one `lipkin` command: exit code, schema header,
and the numbers themselves, checked against the benchmark's own
reference computations.

Reference levels come from sector blocks that this module builds from the
ladder formula and diagonalizes by Sturm bisection
(`scipy.linalg.eigh_tridiagonal(select='i')`), never from `lipkin`.
Branch points are checked by their reported residual, by a dense
eigensolve of the complex block at g*, and, on seed 0, by containing the
EP set that the seed commit found (`reference_seed0.json`).  Byte digests
are never compared across versions: finding more EPs is allowed.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import scipy.linalg

SCHEMAS = {
    "spectrum": ["k", "x", "E", "eps", "sector"],
    "gaps": ["k", "e_low", "e_high", "gap"],
    "fit": ["side", "x", "y", "y_fit", "dy_fit", "dy_fd", "rel_dev"],
    "localization": ["k", "E", "eps", "ipr", "m_peak"],
    "eps": ["re_lambda", "im_lambda", "re_E", "im_E", "k", "k_next",
            "sector", "residual"],
}
DERIVATIVE_COLUMNS = ["x_mid", "deps_dx"]
LEVEL_SAMPLES = 6
EP_RESIDUAL_LIMIT = 1e-8
EP_MATCH = 1e-6            # |g - g_ref| for the seed-0 containment check
EP_SPLIT = 1e-5            # relative distance of the coalescing pair to E*
REGION_SLACK = 0.05        # share of the larger region side
EQ2_SLOPE_TOL = 0.03       # |slope + 1/3|
EQ3_RATIO_RANGE = (0.0, 2.0)


class _Problems(list):
    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.append(message)
        return ok


def table(text: str, fmt: str) -> tuple[list[str], list[list]]:
    """Header and rows of a command's output; an empty cell is ""."""
    if fmt == "json":
        rows = json.loads(text)["results"]["rows"]
        header = list(rows[0]) if rows else []
        return header, [[r[h] for h in header] for r in rows]
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def flags(argv: list[str]) -> dict:
    """`--flag value` pairs of an argv; bare flags map to True."""
    out = {}
    i = 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[argv[i]] = argv[i + 1]
            i += 2
        else:
            out[argv[i]] = True
            i += 1
    return out


# ------------------------------------------------------- reference levels


def sector_block(n: int, coupling, even: bool):
    """Diagonal and off-diagonal of one sector of H(g), from the ladder
    formula sqrt((j-m)(j+m+1)(j-m-1)(j+m+2)) / (2N)."""
    j = n / 2.0
    m = np.arange(-j if even else -j + 1.0, j + 0.5, 2.0)
    mm = m[:-1]
    radicand = (j - mm) * (j + mm + 1.0) * (j - mm - 1.0) * (j + mm + 2.0)
    return m, coupling * np.sqrt(radicand) / (2.0 * n)


def sector_levels(n: int, coupling: float, even: bool, lo: int, hi: int):
    """Levels lo..hi (0-based, inclusive) of one sector by bisection."""
    d, e = sector_block(n, coupling, even)
    if len(d) == 1:
        return d.copy()
    return scipy.linalg.eigh_tridiagonal(
        d, e, eigvals_only=True, select="i", select_range=(lo, hi))


def merged_level(n: int, coupling: float, k: int) -> float:
    """Level k (1-based) of the union of both sectors.

    Bisects a window of indices around k/2 in each sector.  A window
    value v is ranked exactly when every sector's window reaches below and
    above v (or that sector's window starts or ends its spectrum); the
    window widens until the level sought is ranked that way.
    """
    pad = 8
    while True:
        lows, highs, parts, below = [], [], [], 0
        for even in (True, False):
            dim = (n // 2 + 1) if even else (n + 1) // 2
            a0 = max(0, (k - 1) // 2 - pad)
            a1 = min(dim - 1, (k - 1) // 2 + pad)
            if a0 > a1:
                continue
            vals = sector_levels(n, coupling, even, a0, a1)
            parts.append(vals)
            below += a0
            lows.append(vals[0] if a0 > 0 else -math.inf)
            highs.append(vals[-1] if a1 < dim - 1 else math.inf)
        union = np.sort(np.concatenate(parts))
        p = k - 1 - below
        if 0 <= p < len(union) and max(lows) <= union[p] <= min(highs):
            return float(union[p])
        pad *= 4


def _level_tol(n: int, coupling: float) -> float:
    return 1e-10 * n * max(1.0, abs(coupling))


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _samples(count: int, rng: random.Random) -> list[int]:
    """0-based row indices: first, last and a few random ones."""
    if count == 0:
        return []
    picks = {0, count - 1}
    picks.update(rng.randrange(count) for _ in range(LEVEL_SAMPLES - 2))
    return sorted(picks)


# ------------------------------------------------------- per-command checks


def _check_levels(p, rows, n, lam, sector, col_e, rng):
    """Sampled rows: column col_e against the reference level of row k."""
    tol = _level_tol(n, lam)
    for i in _samples(len(rows), rng):
        k = int(rows[i][0])
        e = float(rows[i][col_e])
        if sector == "merged":
            ref = merged_level(n, lam, k)
        else:
            ref = float(sector_levels(n, lam, sector == "even", k - 1,
                                      k - 1)[0])
        p.check(abs(e - ref) <= tol,
                f"level k={k}: {e!r} against bisection {ref!r}")


def _spectrum(p, f, header, rows, rng):
    n, lam = int(f["--n"]), float(f["--lambda"])
    sector = f.get("--sector", "merged")
    expected = SCHEMAS["spectrum"] + (DERIVATIVE_COLUMNS
                                      if "--derivative" in f else [])
    if not p.check(header == expected, f"header {header}"):
        return
    dim = {"merged": n + 1, "even": n // 2 + 1, "odd": (n + 1) // 2}[sector]
    half = min(dim, n // 2)
    count = half if "--lower-half" in f else dim
    if not p.check(len(rows) == count, f"{len(rows)} rows, expected {count}"):
        return
    xs, es = [], []
    for i, row in enumerate(rows):
        k, x, e, eps = int(row[0]), float(row[1]), float(row[2]), float(row[3])
        xs.append(x)
        es.append(eps)
        if not (p.check(k == i + 1, f"row {i} has k={k}")
                and p.check(_close(x, 2.0 * k / n), f"k={k}: x={x!r}")
                and p.check(_close(eps, 2.0 * e / n), f"k={k}: eps={eps!r}")
                and p.check(row[4] in ("even", "odd"), f"k={k}: sector")
                and p.check(i == 0 or e >= float(rows[i - 1][2]),
                            f"k={k}: levels not ascending")):
            return
    _check_levels(p, rows, n, lam, sector, 2, rng)
    if "--derivative" in f:
        stride = 2 if sector == "merged" else 1
        for i in _samples(len(rows), rng):
            if i >= half - stride:
                p.check(rows[i][5:] == ["", ""], f"row {i}: slope not blank")
                continue
            dx = xs[i + stride] - xs[i]
            slope = (es[i + stride] - es[i]) / dx
            xm = 0.5 * (xs[i + stride] + xs[i])
            p.check(_close(float(rows[i][5]), xm, 1e-9)
                    and _close(float(rows[i][6]), slope, 1e-9),
                    f"row {i}: derivative columns {rows[i][5:]}")


def _gaps(p, f, header, rows, rng):
    n, lam = int(f["--n"]), float(f["--lambda"])
    sector = f.get("--sector", "even")
    if not p.check(header == SCHEMAS["gaps"], f"header {header}"):
        return
    dim = n // 2 + 1 if sector == "even" else (n + 1) // 2
    if not p.check(len(rows) == dim - 1, f"{len(rows)} rows"):
        return
    for row in rows:
        lo, hi, gap = float(row[1]), float(row[2]), float(row[3])
        if not p.check(_close(gap, hi - lo, 1e-9), f"gap row {row}"):
            return
    _check_levels(p, rows, n, lam, sector, 1, rng)


def _localization(p, f, header, rows, rng):
    n, lam = int(f["--n"]), float(f["--lambda"])
    sector = f.get("--sector", "even")
    if not p.check(header == SCHEMAS["localization"], f"header {header}"):
        return
    dim = n // 2 + 1 if sector == "even" else (n + 1) // 2
    if not p.check(len(rows) == dim, f"{len(rows)} rows, expected {dim}"):
        return
    j = n / 2.0
    for row in rows:
        e, eps, ipr, m = (float(v) for v in row[1:])
        offset = (m + j) % 2.0 if sector == "even" else (m + j + 1.0) % 2.0
        if not (p.check(_close(eps, 2.0 * e / n), f"row {row[0]}: eps")
                and p.check(0.0 < ipr <= 1.0 + 1e-9, f"row {row[0]}: ipr")
                and p.check(-j <= m <= j and offset == 0.0,
                            f"row {row[0]}: m_peak {m} not in sector")):
            return
    _check_levels(p, rows, n, lam, sector, 1, rng)


def _fit(p, f, text, rng):
    n, lam = int(f["--n"]), float(f["--lambda"])
    doc = json.loads(text)
    if not p.check(sorted(doc) == ["config", "meta", "results"],
                   f"JSON keys {sorted(doc)}"):
        return
    results = doc["results"]
    rows = results["rows"]
    if not (p.check(rows != [], "no fit rows")
            and p.check(all(list(r) == SCHEMAS["fit"] for r in rows),
                        "fit row keys")):
        return
    x_c = results["x_c"]
    p.check(0.0 < x_c < 1.0, f"x_c={x_c}")
    for r in rows:
        if not p.check((r["x"] < x_c) == (r["side"] == "left"),
                       f"row x={r['x']} on the wrong side of x_c"):
            return
        if r["dy_fd"] != "":
            rel = abs(r["dy_fit"] - r["dy_fd"]) / abs(r["dy_fd"])
            p.check(_close(r["rel_dev"], rel, 1e-9),
                    f"row x={r['x']}: rel_dev {r['rel_dev']} against {rel}")
    for side, info in results["fits"].items():
        resid = [r["y_fit"] - r["y"] for r in rows if r["side"] == side]
        rms = math.sqrt(sum(d * d for d in resid) / len(resid))
        p.check(_close(info["rms_residual"], rms, 1e-6),
                f"{side} fit: rms_residual {info['rms_residual']} against "
                f"{rms} from its rows")
        p.check(math.isfinite(info["acid_max_relative_deviation"]),
                f"{side} acid test not finite")
    tol = _level_tol(n, lam) * 2.0 / n
    for i in _samples(len(rows), rng):
        k = round(rows[i]["x"] * n / 2.0)
        ref = 2.0 * merged_level(n, lam, k) / n + 1.0
        p.check(abs(rows[i]["y"] - ref) <= tol,
                f"fit row x={rows[i]['x']}: y={rows[i]['y']!r} "
                f"against {ref!r}")


def _scaling(p, f, header, rows):
    law = f["--law"]
    n_list = sorted(int(v) for v in f["--n-list"].split(","))
    column = "gap" if law == "eq2" else "ratio"
    if not (p.check(header == ["n", column], f"header {header}")
            and p.check([int(r[0]) for r in rows] == n_list,
                        f"rows for N={[r[0] for r in rows]}")):
        return
    values = [float(r[1]) for r in rows]
    if law == "eq3":
        lo, hi = EQ3_RATIO_RANGE
        p.check(all(lo < v < hi for v in values), f"eq3 ratios {values}")
        return
    k = int(f.get("--k", "1"))
    lam = float(f.get("--lambda", "1"))
    for n, gap in zip(n_list, values):
        lv = sector_levels(n, lam, True, k - 1, k)
        p.check(abs(gap - (lv[1] - lv[0])) <= _level_tol(n, lam),
                f"eq2 gap at N={n}: {gap!r} against {lv[1] - lv[0]!r}")
    slope = float(np.polyfit(np.log(n_list), np.log(values), 1)[0])
    p.check(abs(slope + 1.0 / 3.0) <= EQ2_SLOPE_TOL,
            f"eq2 slope {slope} is not near -1/3")


def _eps(p, f, header, rows, reference):
    n = int(f["--n"])
    re0, re1 = float(f.get("--re-min", 0)), float(f["--re-max"])
    im0, im1 = float(f.get("--im-min", 0)), float(f["--im-max"])
    slack = REGION_SLACK * max(re1 - re0, im1 - im0)
    if not p.check(header == SCHEMAS["eps"], f"header {header}"):
        return
    found = []
    for row in rows:
        g = complex(float(row[0]), float(row[1]))
        energy = complex(float(row[2]), float(row[3]))
        sector, residual = row[6], float(row[7])
        found.append((g, sector))
        where = f"EP g*={g}"
        if not (p.check(len(row) == 8, f"{where}: {len(row)} columns")
                and p.check(residual <= EP_RESIDUAL_LIMIT,
                            f"{where}: residual {residual}")
                and p.check(sector in ("even", "odd"), f"{where}: sector")
                and p.check(g.imag >= 0.0, f"{where}: not canonical")
                and p.check(re0 - slack <= g.real <= re1 + slack
                            and im0 - slack <= g.imag <= im1 + slack,
                            f"{where}: outside the region")
                and p.check(row[4:6] == ["", ""]
                            or int(row[5]) == int(row[4]) + 1,
                            f"{where}: pair {row[4:6]}")):
            return
        d, e = sector_block(n, g, sector == "even")
        w = np.linalg.eigvals(np.diag(d.astype(complex)) + np.diag(e, 1)
                              + np.diag(e, -1))
        near = np.sort(np.abs(w - energy))[:2]
        p.check(near[1] <= EP_SPLIT * max(1.0, abs(energy)),
                f"{where}: no eigenvalue pair coalesces at E*={energy}")
    keys = [(float(r[0]), float(r[1])) for r in rows]
    p.check(keys == sorted(keys),
            "EP rows not sorted by (re, im)")
    for re_, im_, sector in reference or []:
        g = complex(re_, im_)
        p.check(any(abs(g - h) < EP_MATCH and s == sector for h, s in found),
                f"seed-commit EP g*={g} ({sector}) is missing")


def check(argv: list[str], code, text: str, rng: random.Random,
          reference: list | None = None) -> list[str]:
    """Problems found in one command's run; empty when it passes.

    reference lists the (re g*, im g*, sector) triples an eps command must
    contain; rng picks the sampled rows.
    """
    p = _Problems()
    if not p.check(code == 0, f"exit code {code}"):
        return p
    f = flags(argv)
    fmt = f.get("--format", "csv")
    try:
        if argv[0] == "fit":
            _fit(p, f, text, rng)
            return p
        header, rows = table(text, fmt)
        p.check(all(len(r) == len(header) for r in rows), "ragged rows")
        if argv[0] == "spectrum":
            _spectrum(p, f, header, rows, rng)
        elif argv[0] == "gaps":
            _gaps(p, f, header, rows, rng)
        elif argv[0] == "localization":
            _localization(p, f, header, rows, rng)
        elif argv[0] == "scaling":
            _scaling(p, f, header, rows)
        elif argv[0] == "eps":
            _eps(p, f, header, rows, reference)
        else:
            p.append(f"no check for command {argv[0]!r}")
    except Exception as exc:  # malformed output fails the command
        p.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return p
