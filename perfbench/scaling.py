"""In-process scaling curves and the allocation peaks of simulate and the oracle.

Run as ``python perfbench/scaling.py SEED INSTANCE.json OUT.json`` with
``src`` on PYTHONPATH.  Times ``dynamics.simulate`` and
``gvp.clusters_from_gvp`` (at t = 1) on seeded random instances of doubling
size N = 128, 256, ...; each curve stops after the first call that takes
longer than BUDGET_S, or at the last size not above 10^5.  The slope is the
least-squares slope of log time against log N over the points that took at
least MIN_FIT_S.  Then takes the tracemalloc peak of one ``simulate`` on the
workload's own instance, and that of the time-stepped oracle
(``dynamics.brute_force_partitions`` at dt = 1e-5) up to t = ORACLE_T on a
seeded N=4 instance, per unit of time: the oracle materialises its whole
time grid, so its memory grows with the sample time.  A function missing at
the commit under test is listed as absent and its metrics are left out.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc

import numpy as np

from inputs import SCALING_SIZES, random_particles

BUDGET_S = 1.0
MIN_FIT_S = 0.05
ORACLE_T = 20.0  # sample time of the oracle's allocation probe


def _lookup(module: str, name: str, absent: list[str]):
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        absent.append(f"{module}:{name}")
        return None


def _slope(points: dict[int, float]) -> float:
    fit = [(n, s) for n, s in points.items() if s >= MIN_FIT_S]
    if len(fit) < 2:
        return 0.0
    logn = np.log([n for n, _ in fit])
    logs = np.log([s for _, s in fit])
    return float(np.polyfit(logn, logs, 1)[0])


def curve(seed: int, validate, call) -> dict[int, float]:
    points: dict[int, float] = {}
    for n in SCALING_SIZES:
        data = validate(*random_particles(np.random.default_rng([seed, n]), n))
        t0 = time.perf_counter()
        call(data)
        points[n] = time.perf_counter() - t0
        if points[n] > BUDGET_S:
            break
    return points


def main(argv: list[str]) -> int:
    seed, instance_path, out_path = int(argv[0]), argv[1], argv[2]
    absent: list[str] = []
    validate = _lookup("stickygas.model", "validate", absent)
    simulate = _lookup("stickygas.dynamics", "simulate", absent)
    clusters_from_gvp = _lookup("stickygas.gvp", "clusters_from_gvp", absent)
    load_instance = _lookup("stickygas.instances", "load_instance", absent)
    sticky_error = _lookup("stickygas.errors", "StickyError", absent) or ()

    def partition_at_one(data) -> None:
        try:
            clusters_from_gvp(data, 1.0)
        except sticky_error:
            pass  # t = 1 on a shock: the endpoint tests ran all the same

    values: dict[str, float] = {}
    for name, call in (("dynamics.simulate", simulate),
                       ("gvp.clusters_from_gvp", clusters_from_gvp and partition_at_one)):
        if call is None or validate is None:
            continue
        points = curve(seed, validate, call)
        for n, s in points.items():
            values[f"{name}.s.n{n}"] = s
        values[f"{name}.slope"] = _slope(points)

    if simulate is not None and load_instance is not None:
        data = load_instance(instance_path).data
        tracemalloc.start()
        simulate(data)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        values["dynamics.simulate.alloc_peak_mb"] = peak / 2**20
    brute_force = _lookup("stickygas.dynamics", "brute_force_partitions", absent)
    if brute_force is not None and validate is not None:
        data = validate(*random_particles(np.random.default_rng(seed), 4))
        tracemalloc.start()
        brute_force(data, [ORACLE_T], 1e-5)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        values["dynamics.oracle.alloc_mb_per_time"] = peak / 2**20 / ORACLE_T
    with open(out_path, "w") as fh:
        json.dump({"values": values, "absent": absent}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
