"""Seeded workload inputs, generated without importing stickygas.

The program under test receives only the files written here (instance JSON
with repr floats) and command-line flags, so a change to the program cannot
move the workload.  Shock times, needed to keep the gvp sample times away
from every shock and to place the gas window, come from a small vectorised
event engine of this file's own; it also serves as the reference the
simulate output is checked against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLES = 200          # simulate --samples
GVP_TIMES = 50         # sample times per gvp command
FUZZ_N_MAX = 12        # fuzz --n-max
FUZZ_COUNT = 200       # fuzz --count, always --with-oracle
ORACLE_HORIZON_MAX = 200.0  # longest fuzz horizon given to the oracle (see oracle_fuzz_seed)
WINDOW_START = 0.05     # gas window start, as a share of the last shock time
WINDOW_WORK = 50_000    # velocity-field work in the gas window (see gas_window)
MAX_SCALING_N = 100_000
SCALING_SIZES = [128 * 2**k for k in range(20) if 128 * 2**k <= MAX_SCALING_N]


@dataclass(frozen=True)
class Workload:
    """What one pass runs: simulate, gvp, gas and fuzz, once each.

    n: particles of the instance given to simulate and gvp.
    gas_n: particles of the instance given to gas (the same file when equal).
    The fuzz command is the same on every workload: FUZZ_COUNT screened
    instances with the oracle.
    """

    n: int
    gas_n: int


# Every workload runs all four commands, so every end-to-end metric exists on
# every workload; the sizes decide which command dominates.  README.md
# records why each workload was chosen.
WORKLOADS = {
    "large-random": Workload(500, 128),
    "fuzz-oracle": Workload(12, 12),
}


@dataclass(frozen=True)
class Inputs:
    main: Path                 # instance for simulate and gvp
    main_shocks: np.ndarray    # reference shock times of `main`
    gas: Path                  # instance for gas
    gvp_times: str             # comma-separated repr floats
    window: str                # "t1:t2", repr floats
    fuzz_seed: int
    fuzz_draws: int            # fuzz seeds drawn by the horizon screen


def random_particles(rng: np.random.Generator, n: int):
    """Admissible instance: sorted-uniform positions on [0, n], log-uniform
    masses on [0.1, 10], N(0, 1) velocities, N(0, 1) accelerations sorted
    descending (the distribution of stickygas.instances.random_instance)."""
    x = np.sort(rng.uniform(0.0, float(n), n))
    while np.any(np.diff(x) <= 0.0):  # ties have probability zero
        x = np.sort(rng.uniform(0.0, float(n), n))
    m = 10.0 ** rng.uniform(-1.0, 1.0, n)
    v = rng.normal(0.0, 1.0, n)
    th = np.sort(rng.normal(0.0, 1.0, n))[::-1]
    return x, m, v, th


def instance_json(x, m, v, th) -> str:
    particles = [{"x": float(a), "m": float(b), "v": float(c), "theta": float(d)}
                 for a, b, c, d in zip(x, m, v, th)]
    return json.dumps({"particles": particles}, indent=1) + "\n"


def _earliest_roots(a, b, c, after):
    """Per pair, the smallest root of a*t^2 + b*t + c greater than `after`
    (inf when none)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - 4.0 * a * c
        sq = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        q = -0.5 * (b + np.copysign(sq, b))
        r1 = np.where(a != 0.0, q / a, -c / b)
        r2 = np.where(a != 0.0, c / q, np.nan)
    r1 = np.where(r1 > after, r1, np.inf)
    r2 = np.where(r2 > after, r2, np.inf)
    return np.fmin(np.nan_to_num(r1, nan=np.inf), np.nan_to_num(r2, nan=np.inf))


def reference_timeline(x, m, v, th) -> tuple[np.ndarray, list]:
    """Shock times of the sticky dynamics and the inter-shock segments.

    Clusters are index ranges whose barycentric path follows from prefix sums
    of the initial data; adjacent pairs meeting within 1e-9 * (1 + t) of the
    earliest crossing merge together, as in the program's event grouping.
    Returns one time per distinct shock and, per segment, (t_lo, t_hi, c1, c2)
    with the clusters' velocity coefficients.
    """
    pm, px, pv, pth = (np.concatenate([[0.0], np.cumsum(w)])
                       for w in (m, m * x, m * v, m * th))
    starts = np.arange(len(x))
    ends = starts + 1
    t_now = 0.0
    times, segments = [], []
    while True:
        mass = pm[ends] - pm[starts]
        c0 = (px[ends] - px[starts]) / mass
        c1 = (pv[ends] - pv[starts]) / mass
        c2 = (pth[ends] - pth[starts]) / mass
        roots = _earliest_roots(0.5 * (c2[:-1] - c2[1:]), c1[:-1] - c1[1:],
                                c0[:-1] - c0[1:], t_now)
        t_star = float(roots.min()) if roots.size else np.inf
        segments.append((t_now, t_star, c1, c2))
        if not np.isfinite(t_star):
            break
        chosen = np.nonzero(roots <= t_star + 1e-9 * (1.0 + t_star))[0]
        starts = np.delete(starts, chosen + 1)
        ends = np.delete(ends, chosen)
        times.append(t_star)
        t_now = t_star
    return np.asarray(times), segments


def velocity_coincidences(segments) -> np.ndarray:
    """Sorted distinct times at which two clusters of one segment share a
    velocity: the times at which the gas command evaluates congestion."""
    found = []
    for t_lo, t_hi, c1, c2 in segments:
        i, j = np.triu_indices(len(c1), 1)
        dc2 = c2[i] - c2[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            tc = (c1[j] - c1[i]) / dc2
        found.append(tc[(dc2 != 0.0) & (tc > t_lo) & (tc < t_hi) & (tc > 0.0)])
    return np.unique(np.concatenate(found))


def _away_from_shocks(rng, shocks, lo, hi, count, min_gap):
    out: list[float] = []
    while len(out) < count:
        t = float(rng.uniform(lo, hi))
        if shocks.size == 0 or np.abs(shocks - t).min() >= min_gap:
            out.append(t)
    return out


def gas_window(shocks: np.ndarray, segments) -> tuple[float, float]:
    """The gas window: from 0.05 T, for the last shock time T, to where it
    holds WINDOW_WORK units of velocity-field work (at most to T).

    The gas command groups the cluster velocities once at every velocity
    coincidence in its window and three times (once per velocity test
    function) at every shock in it; each grouping costs about the number of
    live clusters.  Over [0.05 T, 0.5 T] that sum varies by a factor of two
    between seeds, so the window is sized by the work instead: for N=128 it
    ends between about 0.1 T and 0.4 T, and at T for small instances."""
    t_last = float(shocks[-1])
    t1 = WINDOW_START * t_last
    live = np.array([len(c1) for _, _, c1, _ in segments])
    coincide = velocity_coincidences(segments)
    coincide = coincide[coincide > t1]
    shocks_in = shocks[shocks > t1]
    at = np.concatenate([coincide, shocks_in])
    cost = np.concatenate([live[np.searchsorted(shocks, coincide, side="right")],
                           3 * live[np.searchsorted(shocks, shocks_in, side="left")]])
    order = np.argsort(at, kind="stable")
    at, work = at[order], np.cumsum(cost[order])
    over = np.nonzero(work > WINDOW_WORK)[0]
    if over.size == 0:
        return t1, t_last
    if over[0] == 0:
        return t1, 0.5 * (t1 + float(at[0]))
    return t1, 0.5 * float(at[over[0] - 1] + at[over[0]])


def fuzz_horizon(seed: int) -> float:
    """The time horizon the fuzz command gives the instance of `seed`.

    Draws the instance as stickygas.instances.random_instance does (the
    count n from [2, FUZZ_N_MAX], then random_particles) and returns the last
    reference shock time plus one, or 1 without shocks, as
    stickygas.verify.horizon_of does."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, FUZZ_N_MAX + 1))
    shocks, _ = reference_timeline(*random_particles(rng, n))
    return float(shocks[-1]) + 1.0 if shocks.size else 1.0


def oracle_fuzz_seed(rng: np.random.Generator, count: int) -> tuple[int, int]:
    """First seed of `count` consecutive fuzz instances whose horizons are
    all at most ORACLE_HORIZON_MAX, and the number of seeds drawn.

    The time-stepped oracle materialises its whole dt=1e-5 grid, about
    3.15 MB per unit of horizon, and the horizon has a heavy tail (4,261 was
    seen), so an unscreened batch can need gigabytes.  Batches holding a
    longer horizon are redrawn; about 3% of 200-instance batches are."""
    draws = 0
    while True:
        draws += 1
        seed = int(rng.integers(0, 2**31 - 1 - 10**6))
        if all(fuzz_horizon(s) <= ORACLE_HORIZON_MAX for s in range(seed, seed + count)):
            return seed, draws


def make_inputs(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write the instance files of one workload and pick its times."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng_main, rng_gas, rng_times, rng_fuzz = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4))
    main = random_particles(rng_main, workload.n)
    main_shocks, main_segments = reference_timeline(*main)
    main_path = out_dir / "main.json"
    main_path.write_text(instance_json(*main))
    if workload.gas_n == workload.n:
        gas_path, gas_shocks, gas_segments = main_path, main_shocks, main_segments
    else:
        gas = random_particles(rng_gas, workload.gas_n)
        gas_shocks, gas_segments = reference_timeline(*gas)
        gas_path = out_dir / "gas.json"
        gas_path.write_text(instance_json(*gas))
    t_last = float(main_shocks[-1])
    times = _away_from_shocks(rng_times, main_shocks, 0.0, t_last, GVP_TIMES,
                              1e-4 * (1.0 + t_last))
    t1, t2 = gas_window(gas_shocks, gas_segments)
    fuzz_seed, fuzz_draws = oracle_fuzz_seed(rng_fuzz, FUZZ_COUNT)
    return Inputs(main_path, main_shocks, gas_path, ",".join(map(repr, times)),
                  f"{t1!r}:{t2!r}", fuzz_seed, fuzz_draws)
