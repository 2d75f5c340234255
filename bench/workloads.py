"""The benchmark's workloads: fixed lists of `lipkin` argv lists.

Seed 0 runs exactly the README commands and the argv of the dataset
scripts in `scripts/` (stdout captured instead of `--output`).  Any other
seed moves couplings and region edges inside the ranges stated below, so
that a change cannot be tuned to one argv while the work per pass stays
about the same:

* couplings other than the special points 0 (free) and 1 (critical) are
  scaled by a factor drawn from [0.95, 1.05];
* every N of a scaling sweep gets an even offset drawn from [0, 32];
* the upper edges of an EP scan region move by up to +-3 % of the
  region's width or height; the lower edges, the grid and `--im-tol`
  stay put.

`tiny=True` caps every size (N <= 64, grid <= 8) for the self-test.
"""

from __future__ import annotations

import random

COUPLING_JITTER = (0.95, 1.05)
N_OFFSET_MAX = 32
EDGE_JITTER = 0.03
TINY_N = 64
TINY_GRID = 8
TINY_N_LIST = "16,32,64"


def _coupling(rng: random.Random | None, text: str) -> str:
    value = float(text)
    if rng is None or value in (0.0, 1.0):
        return text
    return repr(round(value * rng.uniform(*COUPLING_JITTER), 6))


def _n_list(rng: random.Random | None, sizes: list[int]) -> str:
    if rng is not None:
        sizes = [n + 2 * rng.randint(0, N_OFFSET_MAX // 2) for n in sizes]
    return ",".join(str(n) for n in sizes)


def _edge(rng: random.Random | None, text: str, span: float) -> str:
    if rng is None:
        return text
    return repr(round(float(text) + span * rng.uniform(-EDGE_JITTER,
                                                       EDGE_JITTER), 6))


def _spectra(rng):
    def lam(text):
        return _coupling(rng, text)

    cmds = [
        # README
        ["spectrum", "--n", "1000", "--lambda", lam("5"),
         "--sector", "merged", "--format", "csv"],
        ["gaps", "--n", "500", "--lambda", lam("2"), "--sector", "even"],
        ["fit", "--n", "8192", "--lambda", lam("5"), "--format", "json"],
        ["localization", "--n", "500", "--lambda", lam("5")],
    ]
    # scripts/scaled_spectra.py
    cmds += [["spectrum", "--n", "2000", "--lambda", lam(g),
              "--sector", "merged", "--lower-half"]
             for g in ("0.0", "1.0", "5.0", "10.0")]
    # scripts/derivative_curves.py
    cmds += [["spectrum", "--n", "4096", "--lambda", lam(g),
              "--sector", "merged", "--lower-half", "--derivative"]
             for g in ("1.0", "10.0")]
    cmds += [
        ["localization", "--n", "4096", "--lambda", lam("5")],
        ["spectrum", "--n", "16384", "--lambda", lam("5")],
    ]
    return cmds


def _scaling(rng):
    eq2 = [256, 512, 1024, 2048, 4096, 8192, 16384]
    eq3 = [1024, 2048, 4096, 8192, 16384]
    return [
        ["scaling", "--law", "eq2", "--k", "1", "--n-list", _n_list(rng, eq2)],
        ["scaling", "--law", "eq3", "--lambda", _coupling(rng, "2"),
         "--n-list", _n_list(rng, eq3)],
    ]


def _eps(rng, n, re_min, re_max, im_max, grid, im_tol):
    argv = ["eps", "--n", str(n)]
    if re_min != "0":
        argv += ["--re-min", re_min]
    width = float(re_max) - float(re_min)
    return argv + ["--re-max", _edge(rng, re_max, width),
                   "--im-max", _edge(rng, im_max, float(im_max)),
                   "--grid", grid, "--im-tol", im_tol]


def _branch_points(rng):
    # scripts/branch_point_map.py
    return [_eps(rng, n, "0", "3", "3", "90", "1.5") for n in (8, 16, 32)]


_BUILDERS = {
    "spectra": _spectra,
    "scaling": _scaling,
    "branch_points": _branch_points,
}
NAMES = tuple(_BUILDERS)


def shrink(argv: list[str]) -> list[str]:
    """The same command at self-test size: N <= 64, grid <= 8."""
    out = list(argv)
    for i, flag in enumerate(out[:-1]):
        if flag == "--n":
            out[i + 1] = str(min(int(out[i + 1]), TINY_N))
        elif flag == "--grid":
            out[i + 1] = str(min(int(out[i + 1]), TINY_GRID))
        elif flag == "--n-list":
            out[i + 1] = TINY_N_LIST
    return out


def commands(name: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """The argv lists of one pass of a workload."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    rng = None if seed == 0 else random.Random(seed)
    cmds = _BUILDERS[name](rng)
    return [shrink(c) for c in cmds] if tiny else cmds
