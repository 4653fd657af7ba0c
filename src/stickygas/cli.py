"""Command-line front end.

Subcommands: simulate, gvp, gas, dermoune, fuzz.  All tables are CSV with a
fixed header and 17-significant-digit floats, so re-running with identical
input and flags is byte-identical and every float round-trips.  Exit codes:
0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from functools import partial
from pathlib import Path

import numpy as np

from . import gas as gaslib
from .dynamics import ShockTimeline, horizon_of, simulate
from .errors import InadmissibleData, StickyError
from .flow import dermoune_identity_residuals, right_derivative_check
from .gvp import gvp_equivalence_check, require_admissible
from .instances import (
    Instance,
    instance_dict,
    instance_document,
    load_instance,
    random_instance,
)
from .quadratics import QuadraticPath
from .testfunctions import covering_test_functions
from .tolerances import Tolerances
from .verify import (
    conservation_suite,
    inject_velocity_fault,
    run_instance_suites,
)

OK, VERIFICATION_FAILURE, INPUT_ERROR = 0, 1, 2


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_lines(path: Path, header: list[str], lines: Iterable[str]) -> None:
    """Write the header, then each line (already ending in a newline) as it comes."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    _write_lines(path, header, (",".join(map(_fmt, row)) + "\n" for row in rows))


_ROW_BLOCK = 128  # trajectory.csv rows built and written per block


def _trajectory_lines(timeline: ShockTimeline, ts: list[float]) -> Iterator[str]:
    """The trajectory.csv lines at the sorted times ts: t, then x, v and theta
    of every particle.

    All members of a cluster share its x, v and theta, so each cluster life
    is evaluated on the rows it covers (as `ShockTimeline.sample_positions`
    and `sample_velocities` evaluate it), each value is formatted once and
    repeated over the members, and theta is formatted once per life.  Lives
    come in particle-index order, so appending every life's x cells, then v,
    then theta builds each row in column order.

    Rows are built, joined and yielded _ROW_BLOCK at a time, each life clipped
    to the block, so the writer holds O(_ROW_BLOCK * N) cells besides the
    O(N) lives, whatever the number of rows."""
    tarr = np.asarray(ts, dtype=float)
    spans = timeline.life_rows(tarr)
    thetas = [",%.17g" % life.cluster.acceleration for life, _, _ in spans]
    for lo in range(0, len(ts), _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, len(ts))
        # the block's lives, in life order, with rows counted from lo
        block = [(life, max(first, lo) - lo, min(stop, hi) - lo, theta)
                 for (life, first, stop), theta in zip(spans, thetas)
                 if first < hi and lo < stop]
        times = tarr[lo:hi]
        rows = [["%.17g" % t] for t in ts[lo:hi]]
        for evaluate in (QuadraticPath.__call__, QuadraticPath.derivative):
            for life, first, stop, _ in block:
                values = evaluate(life.path, times[first:stop]).tolist()
                # one format call for the life's values, split at the NULs
                cells = ("\0,%.17g" * len(values) % tuple(values)).split("\0")[1:]
                size = life.cluster.size
                for row, cell in zip(rows[first:stop], cells):
                    row.append(cell * size)
        for life, first, stop, theta in block:
            cell = theta * life.cluster.size
            for row in rows[first:stop]:
                row.append(cell)
        yield from ("".join(row) + "\n" for row in rows)


def _write_manifest(out_dir: Path, command: str, instance: dict | None,
                    params: dict, outputs: list[str]) -> None:
    doc = {
        "command": command,
        "instance": instance,
        "parameters": params,
        "outputs": sorted(outputs),
    }
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _intervals_str(intervals) -> str:
    return "|".join(f"{g}-{d}" for g, d in intervals)


def _effective_t_end(args_t_end, inst: Instance, timeline: ShockTimeline) -> float:
    if args_t_end is not None:
        return args_t_end
    if inst.t_end is not None:
        return inst.t_end
    return horizon_of(timeline)


def _load(args) -> tuple[Instance, Tolerances]:
    inst = load_instance(args.instance)
    tol = inst.tolerances
    if args.tol_abs is not None or args.tol_rel is not None:
        tol = Tolerances(
            abs_tol=args.tol_abs if args.tol_abs is not None else tol.abs_tol,
            rel_tol=args.tol_rel if args.tol_rel is not None else tol.rel_tol,
        )
    return inst, tol


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    inst, tol = _load(args)
    out = _out_dir(args)
    timeline = simulate(inst.data, tol=tol)
    t_end = _effective_t_end(args.t_end, inst, timeline)

    event_rows = []
    for e in timeline.events:
        if e.time > t_end:
            continue
        for grp in e.groups:
            c = grp.merged
            event_rows.append([
                e.time, c.left_index, c.right_index,
                ";".join(f"{g}-{d}" for g, d in grp.members),
                c.mass, c.acceleration, grp.path.derivative(e.time), grp.path(e.time),
            ])
    _write_csv(out / "events.csv",
               ["time", "left_index", "right_index", "members",
                "mass", "acceleration", "velocity", "position"],
               event_rows)

    ts = sorted(set(np.linspace(0.0, t_end, args.samples).tolist())
                | {s for s in timeline.event_times if s <= t_end})
    n = inst.data.n
    header = (["t"] + [f"x{j}" for j in range(n)] + [f"v{j}" for j in range(n)]
              + [f"theta{j}" for j in range(n)])
    _write_lines(out / "trajectory.csv", header, _trajectory_lines(timeline, ts))

    _write_manifest(out, "simulate", instance_dict(inst.data, inst.t_end, inst.seed),
                    {"t_end": t_end, "samples": args.samples,
                     "tol_abs": tol.abs_tol, "tol_rel": tol.rel_tol},
                    ["events.csv", "trajectory.csv"])
    return OK


def cmd_gvp(args) -> int:
    inst, tol = _load(args)
    require_admissible(inst.data)
    out = _out_dir(args)
    report = gvp_equivalence_check(simulate(inst.data, tol=tol), args.times)
    rows = []
    for e in report.entries:
        rows.append([
            e.time,
            "MATCH" if e.match else "MISMATCH",
            _intervals_str(e.simulated),
            _intervals_str(e.reconstructed),
            ";".join(str(i) for i in e.ties),
        ])
    _write_csv(out / "gvp_report.csv",
               ["time", "verdict", "simulated", "reconstructed", "tie_indices"],
               rows)
    _write_manifest(out, "gvp", instance_dict(inst.data, inst.t_end, inst.seed),
                    {"times": args.times, "tol_abs": tol.abs_tol, "tol_rel": tol.rel_tol},
                    ["gvp_report.csv"])
    return OK if report.all_match else VERIFICATION_FAILURE


def _residual_row(r: gaslib.ResidualReport) -> list:
    return [r.equation, r.test_function, r.window[0], r.window[1], r.lhs,
            r.transport, r.source, r.jump, r.residual, r.residual_without_jumps,
            r.quad_error, r.passes]


_RESIDUAL_HEADER = ["equation", "test_function", "t1", "t2", "lhs", "transport",
                    "source", "jump", "residual", "residual_without_jumps",
                    "quad_error", "passes"]


def cmd_gas(args) -> int:
    inst, tol = _load(args)
    out = _out_dir(args)
    t1, t2 = args.window
    timeline = simulate(inst.data, tol=tol)

    xs = np.concatenate([timeline.positions_at(t1), timeline.positions_at(t2)])
    pos_fs = covering_test_functions(xs, pad=0.5 * (1.0 + float(np.ptp(xs))))
    vs = np.concatenate([timeline.velocities_at(t1), timeline.velocities_at(t2),
                         timeline.velocities_at(t2, left=True)])
    vel_fs = covering_test_functions(vs, pad=0.5 * (1.0 + float(np.ptp(vs))))

    pos_rows, vel_rows = [], []
    all_pass = True
    for f in pos_fs:
        for r in gaslib.position_space_residuals(timeline, f, t1, t2):
            pos_rows.append(_residual_row(r))
            all_pass &= r.passes
    for f in vel_fs:
        for r in gaslib.velocity_space_residuals(timeline, f, t1, t2):
            vel_rows.append(_residual_row(r))
            all_pass &= r.passes
    _write_csv(out / "position_residuals.csv", _RESIDUAL_HEADER, pos_rows)
    _write_csv(out / "velocity_residuals.csv", _RESIDUAL_HEADER, vel_rows)

    _write_csv(out / "congestion.csv", ["t", "velocity", "weight", "w", "a"],
               gaslib.congestion_rows(timeline, t1, t2))

    _write_manifest(out, "gas", instance_dict(inst.data, inst.t_end, inst.seed),
                    {"window": [t1, t2], "tol_abs": tol.abs_tol, "tol_rel": tol.rel_tol},
                    ["position_residuals.csv", "velocity_residuals.csv", "congestion.csv"])
    return OK if all_pass else VERIFICATION_FAILURE


def cmd_dermoune(args) -> int:
    inst, tol = _load(args)
    out = _out_dir(args)
    timeline = simulate(inst.data, tol=tol)
    id_rows, der_rows = [], []
    all_pass = True
    for t in args.times:
        res = dermoune_identity_residuals(timeline, t)
        ok = res.first_failure() is None
        all_pass &= ok
        id_rows.append([t, res.r_pos, res.r_vel, res.r_acc, ok])
        gap = timeline.time_to_next_event(t)
        h_list = [h for h in (1e-2, 1e-3, 1e-4) if h < gap]
        for probe in right_derivative_check(timeline, t, h_list).probes:
            der_rows.append([t, probe.h, probe.max_pos_error,
                             probe.max_pos_error_vs_predicted, probe.max_vel_error])
    _write_csv(out / "dermoune.csv",
               ["t", "r_pos", "r_vel", "r_acc", "passes"], id_rows)
    _write_csv(out / "derivatives.csv",
               ["t", "h", "pos_fd_error", "pos_fd_error_vs_predicted", "vel_fd_error"],
               der_rows)
    _write_manifest(out, "dermoune", instance_dict(inst.data, inst.t_end, inst.seed),
                    {"times": args.times, "tol_abs": tol.abs_tol, "tol_rel": tol.rel_tol},
                    ["dermoune.csv", "derivatives.csv"])
    return OK if all_pass else VERIFICATION_FAILURE


def _fuzz_instance(seed: int, n_max: int, with_oracle: bool,
                   inject_failure: bool) -> tuple[list, str | None]:
    """One fuzz instance: its fuzz_summary.csv row, and its reproduction
    document when a suite fails (None when all pass)."""
    rng = np.random.default_rng(seed)
    data = random_instance(rng, n_max)
    if inject_failure:
        timeline = inject_velocity_fault(simulate(data))
        results = [conservation_suite(timeline)]
    else:
        results = run_instance_suites(data, rng, with_oracle=with_oracle)
    failed = [r for r in results if not r.passed]
    row = [seed, data.n,
           ";".join(r.name for r in results if r.passed),
           ";".join(f"{r.name}:{r.detail}" for r in failed)]
    return row, (instance_document(data, seed=seed) + "\n" if failed else None)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_FUZZ_CHUNK = 2  # instances handed to a fuzz worker at a time


def _fuzz_pool(count: int):
    """A pool of forked workers, one per usable CPU but at most `count`; a
    context that gives None when there would be only one, so the instances
    run in this process."""
    workers = min(_usable_cpus(), count)
    if workers == 1:
        return nullcontext()
    # imported here, so that simulate, gvp and gas do not pay for it
    import multiprocessing

    # fork: a worker starts with numpy and stickygas already imported (spawn
    # would import them again in each worker).  The pool forks its workers
    # before it starts its own threads, and stickygas starts none.
    return multiprocessing.get_context("fork").Pool(workers)


def cmd_fuzz(args) -> int:
    out = _out_dir(args)
    rows = []
    failures = 0
    run = partial(_fuzz_instance, n_max=args.n_max, with_oracle=args.with_oracle,
                  inject_failure=args.inject_failure)
    seeds = range(args.seed, args.seed + args.count)
    with _fuzz_pool(args.count) as pool:
        # imap hands results back in seed order, so the outputs do not
        # depend on the number of workers
        results = map(run, seeds) if pool is None else pool.imap(run, seeds, _FUZZ_CHUNK)
        for row, repro in results:
            if repro is not None:
                failures += 1
                (out / f"failure_{row[0]}.json").write_text(repro)
            rows.append(row)
    _write_csv(out / "fuzz_summary.csv", ["seed", "n", "passed", "failed"], rows)
    _write_manifest(out, "fuzz", None,
                    {"count": args.count, "n_max": args.n_max, "seed": args.seed,
                     "inject_failure": args.inject_failure},
                    ["fuzz_summary.csv"])
    print(f"{args.count - failures}/{args.count} instances passed")
    return OK if failures == 0 else VERIFICATION_FAILURE


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def _times(text: str) -> list[float]:
    try:
        return [_nonnegative_float(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated non-negative finite numbers, got {text!r}") from None


def _window(text: str) -> tuple[float, float]:
    try:
        t1, t2 = map(_finite_float, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected t1:t2 with finite numbers, got {text!r}") from None
    if not 0.0 < t1 < t2:
        raise argparse.ArgumentTypeError(f"expected 0 < t1 < t2, got {text!r}")
    return t1, t2


def _int_at_least(low: int):
    """Argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stickygas",
        description="Sticky-particle simulation, variational partition checks, "
                    "and weak-solution residuals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True):
        if instance:
            p.add_argument("instance", help="instance JSON file")
            p.add_argument("--tol-abs", type=_nonnegative_float, default=None)
            p.add_argument("--tol-rel", type=_nonnegative_float, default=None)
        p.add_argument("--out-dir", required=True, help="output directory")

    p = sub.add_parser("simulate", help="run the dynamics, export events and trajectories")
    common(p)
    p.add_argument("--t-end", type=_nonnegative_float, default=None)
    p.add_argument("--samples", type=_int_at_least(0), default=200,
                   help="evenly spaced sample times, besides the event times")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gvp", help="compare variational partitions against simulation")
    common(p)
    p.add_argument("--times", type=_times, required=True,
                   help="comma-separated times")
    p.set_defaults(func=cmd_gvp)

    p = sub.add_parser("gas", help="weak-solution residual tables over a window")
    common(p)
    p.add_argument("--window", type=_window, required=True, help="t1:t2")
    p.set_defaults(func=cmd_gas)

    p = sub.add_parser("dermoune", help="conditional-expectation identity residuals")
    common(p)
    p.add_argument("--times", type=_times, required=True,
                   help="comma-separated times")
    p.set_defaults(func=cmd_dermoune)

    p = sub.add_parser("fuzz", help="randomized verification campaign")
    common(p, instance=False)
    p.add_argument("--count", type=_int_at_least(1), required=True)
    p.add_argument("--n-max", type=_int_at_least(2), default=12,
                   help="most particles per instance")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--with-oracle", action="store_true",
                   help="also run the time-stepped oracle comparison")
    p.add_argument("--inject-failure", action="store_true",
                   help="perturb a merged velocity to confirm the harness detects it")
    p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except InadmissibleData as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except StickyError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
