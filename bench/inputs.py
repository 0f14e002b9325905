"""Workload inputs, made by the benchmark's own numpy code.

The truth is the simulation-study configuration: a Gaussian-windowed
swirl of strength 1.5 and radius 0.35 about (0.5, 0.5), and an
exponential covariance in the swirled plane with partial sill 1, range
0.25 and nugget 1.  Replicates are drawn through a Cholesky factor.
Nothing here calls the package, so a change to the package cannot move
a workload's inputs or its truth; they reach the program only as CSV
files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SWIRL_CENTER = np.array([0.5, 0.5])
SWIRL_STRENGTH = 1.5
SWIRL_RADIUS = 0.35
SIGMA2, PHI, NUGGET = 1.0, 0.25, 1.0
T = 100
# mixed into every seed so that no stream replays the acceptance suite's
# seeds
SEED_TAG = 0x5EED_BE7C
# the one random draw of sites and replicates every run uses: fit time
# depends on the draw more than a run can average out (README.md)
DRAW = 0


def swirl(points: np.ndarray) -> np.ndarray:
    """Rotate each point about the center by strength * exp(-r^2 / 2 radius^2)."""
    rel = np.asarray(points, dtype=float) - SWIRL_CENTER
    ang = SWIRL_STRENGTH * np.exp(-np.sum(rel**2, axis=1) / (2.0 * SWIRL_RADIUS**2))
    ca, sa = np.cos(ang), np.sin(ang)
    return np.column_stack([ca * rel[:, 0] - sa * rel[:, 1],
                            sa * rel[:, 0] + ca * rel[:, 1]]) + SWIRL_CENTER


def exp_cov(a: np.ndarray, b: np.ndarray, sigma2: float, phi: float) -> np.ndarray:
    """Exponential covariance sigma2 exp(-|a_i - b_j| / phi), no nugget."""
    d = np.sqrt(np.maximum(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1), 0.0))
    return sigma2 * np.exp(-d / phi)


def true_cov(sites: np.ndarray) -> np.ndarray:
    y = swirl(sites)
    c = exp_cov(y, y, SIGMA2, PHI)
    c[np.diag_indices_from(c)] += NUGGET
    return c


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([SEED_TAG, int(seed), stream]))


def grid_sites(n_side: int) -> np.ndarray:
    g = np.linspace(0.0, 1.0, n_side)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def uniform_sites(n: int) -> np.ndarray:
    return rng_for(DRAW, 1).uniform(0.0, 1.0, size=(n, 2))


def sample_replicates(cov: np.ndarray, t: int) -> np.ndarray:
    """(n, t) zero-mean Gaussian replicates L e with C = L L'."""
    ell = np.linalg.cholesky(cov)
    return ell @ rng_for(DRAW, 2).standard_normal((cov.shape[0], t))


def box_grid(lo: np.ndarray, hi: np.ndarray, n_side: int) -> np.ndarray:
    """n_side x n_side prediction points spanning the box [lo, hi]."""
    g1 = np.linspace(lo[0], hi[0], n_side)
    g2 = np.linspace(lo[1], hi[1], n_side)
    xx, yy = np.meshgrid(g1, g2, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def _fmt(x: float) -> str:
    return repr(float(x))


def write_long_csv(path: Path, sites: np.ndarray, z: np.ndarray) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["station_id", "x1", "x2", "time", "value"])
        for i, (x1, x2) in enumerate(sites):
            sid, sx1, sx2 = station_id(i), _fmt(x1), _fmt(x2)
            for j in range(z.shape[1]):
                w.writerow([sid, sx1, sx2, time_label(j), _fmt(z[i, j])])


def write_grid_csv(path: Path, points: np.ndarray) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2"])
        w.writerows([_fmt(a), _fmt(b)] for a, b in points)


def station_id(i: int) -> str:
    return f"s{i:04d}"


def time_label(j: int) -> str:
    return f"t{j:03d}"


@dataclass(frozen=True)
class Inputs:
    """Everything a workload feeds the program, and the truth it is checked
    against.  Stations are numbered so that the program's sorted order is
    the order of ``sites``."""

    sites: np.ndarray
    replicates: np.ndarray
    truth: np.ndarray          # true covariance of the sites, nugget included
    grid: np.ndarray           # predict grid, 100 x 100
    draws_grid: np.ndarray     # predict --draws grid, 32 x 32
    data_csv: Path
    grid_csv: Path
    draws_grid_csv: Path


def make_inputs(workdir: Path, uniform_n: int | None) -> Inputs:
    """Sites (11 x 11 unit grid, or ``uniform_n`` uniform sites), T
    replicates and truth, written to CSVs in ``workdir``; station i is the
    i-th site."""
    sites = grid_sites(11) if uniform_n is None else uniform_sites(uniform_n)
    truth = true_cov(sites)
    z = sample_replicates(truth, T)
    lo, hi = sites.min(axis=0), sites.max(axis=0)
    inputs = Inputs(
        sites=sites, replicates=z, truth=truth,
        grid=box_grid(lo, hi, 100), draws_grid=box_grid(lo, hi, 32),
        data_csv=workdir / "data.csv", grid_csv=workdir / "grid.csv",
        draws_grid_csv=workdir / "draws_grid.csv",
    )
    write_long_csv(inputs.data_csv, sites, z)
    write_grid_csv(inputs.grid_csv, inputs.grid)
    write_grid_csv(inputs.draws_grid_csv, inputs.draws_grid)
    return inputs
