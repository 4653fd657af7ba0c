"""CLI-level benchmark of stickygas.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout (the program is taken from ``src``; nothing is
installed).  The load is a closed loop with one client: one ``python -m
stickygas.cli`` process at a time, each started after the previous one
ended.  A pass runs the four commands simulate, gvp, gas and fuzz on inputs
generated from the seed (see inputs.py); passes repeat for about S seconds,
and every timing is the median over passes.  Every output of every command
is checked, and must be byte-identical between passes.

With ``--trace 1`` one more pass runs each command under perfbench/tracer.py
and scaling.py measures the scaling curves; the per-layer metrics are
printed instead of the end-to-end ones.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  README.md documents
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import (
    FUZZ_COUNT,
    FUZZ_N_MAX,
    GVP_TIMES,
    ORACLE_HORIZON_MAX,
    SAMPLES,
    SCALING_SIZES,
    WORKLOADS,
    Inputs,
    Workload,
    make_inputs,
)

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 15      # set-up runs at least this often ...
SETUP_MIN_S = 0.5       # ... and for at least this long; setup_s is the median
DEADLINE_S = 170.0      # the whole run, trace included
TIME_RTOL = 1e-7        # event times against the reference engine
# Address-space cap of every child process.  The fuzz oracle's memory grows
# with an instance's time horizon (about 3.15 MB per unit of time at
# dt=1e-5); inputs.oracle_fuzz_seed keeps every horizon at or below 200, and
# the cap guards a shared machine should an allocation still grow huge.
MEMORY_CAP = 3 * 2**30

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "gvp_s": "s",
    "gas_s": "s",
    "fuzz_instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# (metric, unit).  Counts repeat exactly for one seed; *_s are self times
# summed over the traced pass.
PER_LAYER = [
    ("quadratics.meet_times.calls", "count"),
    ("quadratics.meet_times.self_s", "s"),
    ("quadratics.meet_times_per_event", "ratio"),
    ("dynamics.simulate.calls", "count"),
    ("dynamics.simulate.self_s", "s"),
    ("dynamics.next_collision.calls", "count"),
    ("dynamics.next_collision.self_s", "s"),
    ("dynamics.events", "count"),
    ("dynamics.merge_groups", "count"),
    ("dynamics.live_pairs", "count"),
    ("dynamics.simulate.alloc_peak_mb", "MB"),
    ("dynamics.query.calls", "count"),
    ("dynamics.query.self_s", "s"),
    ("dynamics.oracle.self_s", "s"),
    ("dynamics.oracle.alloc_mb_per_time", "MB"),
    ("model.cluster_aggregates.calls", "count"),
    ("model.cluster_aggregates.self_s", "s"),
    ("model.validate.calls", "count"),
    ("gvp.equivalence.self_s", "s"),
    ("gvp.clusters_from_gvp.calls", "count"),
    ("gvp.clusters_from_gvp.self_s", "s"),
    ("gvp.endpoint_ties.self_s", "s"),
    ("gvp.margin.calls", "count"),
    ("gvp.margin.self_s", "s"),
    ("gvp.margins_per_time", "ratio"),
    ("flow.identities.self_s", "s"),
    ("gas.velocity_fields.calls", "count"),
    ("gas.velocity_fields.self_s", "s"),
    ("gas.velocity_residuals.self_s", "s"),
    ("gas.position_residuals.self_s", "s"),
    ("gas.coincidence_times.self_s", "s"),
    ("gas.quad.calls", "count"),
    ("gas.quad.integrand_evals", "count"),
    ("gas.quad.self_s", "s"),
    ("testfunctions.evals", "count"),
    ("testfunctions.self_s", "s"),
    ("measures.integrate.calls", "count"),
    ("measures.integrate.self_s", "s"),
    ("instances.load.self_s", "s"),
    ("verify.conservation.self_s", "s"),
    ("verify.gvp_suite.self_s", "s"),
    ("verify.dermoune_suite.self_s", "s"),
    ("verify.oracle_suite.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.fuzz_peak_rss_mb", "MB"),
    ("trace.overhead_s", "s"),
    *[(f"{name}.s.n{n}", "s") for name in ("dynamics.simulate", "gvp.clusters_from_gvp")
      for n in SCALING_SIZES],
    ("dynamics.simulate.slope", "ratio"),
    ("gvp.clusters_from_gvp.slope", "ratio"),
]

CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": str(SRC),
    # one client on one core: no hidden BLAS or OpenMP threads
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass
class Op:
    kind: str                  # simulate, gvp, gas or fuzz; names the outputs
    args: list[str]            # stickygas CLI arguments
    out_dir: Path


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    error: str | None = None
    digests: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_process(argv: list[str], log_path: Path, deadline: float) -> tuple[int, float, float]:
    """Run one process to completion; (exit code, wall seconds, peak RSS MB).

    The process is killed when the run's deadline passes."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=CHILD_ENV, cwd=ROOT, preexec_fn=_cap_memory)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(deadline - time.monotonic(), 0.0))
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def digest_dir(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _missing(out_dir: Path, names: list[str]) -> str | None:
    gone = [n for n in names if not (out_dir / n).is_file()]
    return f"missing outputs {gone}" if gone else None


def check_simulate(op: Op, inputs: Inputs, workload: Workload, log: str) -> str | None:
    err = _missing(op.out_dir, ["events.csv", "trajectory.csv", "manifest.json"])
    if err:
        return err
    times = sorted({float(r["time"]) for r in _rows(op.out_dir / "events.csv")})
    ref = inputs.main_shocks
    if len(times) != len(ref):
        return f"{len(times)} shock times, reference engine has {len(ref)}"
    worst = max((abs(t - r) / (1.0 + abs(r)) for t, r in zip(times, ref)), default=0.0)
    if worst > TIME_RTOL:
        return f"shock time off the reference by {worst:.3g} relative"
    with open(op.out_dir / "trajectory.csv", "rb") as fh:
        columns = fh.readline().count(b",") + 1
        rows = sum(1 for _ in fh)
    if columns != 1 + 3 * workload.n or rows < SAMPLES:
        return f"trajectory.csv has {rows} rows of {columns} columns"
    return None


def check_gvp(op: Op, inputs: Inputs, workload: Workload, log: str) -> str | None:
    err = _missing(op.out_dir, ["gvp_report.csv", "manifest.json"])
    if err:
        return err
    verdicts = [r["verdict"] for r in _rows(op.out_dir / "gvp_report.csv")]
    if len(verdicts) != GVP_TIMES or any(v != "MATCH" for v in verdicts):
        return f"{verdicts.count('MATCH')} of {len(verdicts)} rows MATCH, want {GVP_TIMES}"
    return None


def check_gas(op: Op, inputs: Inputs, workload: Workload, log: str) -> str | None:
    tables = ["position_residuals.csv", "velocity_residuals.csv"]
    err = _missing(op.out_dir, tables + ["congestion.csv", "manifest.json"])
    if err:
        return err
    for name in tables:
        rows = _rows(op.out_dir / name)
        if not rows or any(r["passes"] != "true" for r in rows):
            return f"{name}: {sum(r['passes'] == 'true' for r in rows)} of {len(rows)} rows pass"
    return None


def check_fuzz(op: Op, inputs: Inputs, workload: Workload, log: str) -> str | None:
    err = _missing(op.out_dir, ["fuzz_summary.csv", "manifest.json"])
    if err:
        return err
    rows = _rows(op.out_dir / "fuzz_summary.csv")
    failed = [r["seed"] for r in rows if r["failed"]]
    if (len(rows) != FUZZ_COUNT or failed
            or f"{FUZZ_COUNT}/{FUZZ_COUNT} instances passed" not in log):
        return f"{len(rows)} fuzz rows, failing seeds {failed[:5]}"
    return None


CHECKS = {"simulate": check_simulate, "gvp": check_gvp, "gas": check_gas, "fuzz": check_fuzz}


def make_ops(inputs: Inputs, out_root: Path) -> list[Op]:
    """The commands of one pass."""
    def op(kind: str, *args: str) -> Op:
        return Op(kind, [kind, *args, "--out-dir", str(out_root / kind)], out_root / kind)

    return [
        op("simulate", str(inputs.main), "--samples", str(SAMPLES)),
        op("gvp", str(inputs.main), "--times", inputs.gvp_times),
        op("gas", str(inputs.gas), "--window", inputs.window),
        op("fuzz", "--n-max", str(FUZZ_N_MAX), "--count", str(FUZZ_COUNT),
           "--seed", str(inputs.fuzz_seed), "--with-oracle"),
    ]


def run_op(op: Op, argv_head: list[str], inputs: Inputs, workload: Workload,
           deadline: float) -> Outcome:
    """Run one command in a fresh output directory and check its outputs."""
    shutil.rmtree(op.out_dir, ignore_errors=True)
    op.out_dir.parent.mkdir(parents=True, exist_ok=True)
    log_path = op.out_dir.with_suffix(".log")
    code, wall, rss = run_process([*argv_head, *op.args], log_path, deadline)
    log = log_path.read_text(errors="replace")
    outcome = Outcome(wall, rss)
    if code != 0:
        outcome.error = f"exit code {code}: {log.strip()[-300:]}"
        return outcome
    outcome.error = CHECKS[op.kind](op, inputs, workload, log)
    outcome.digests = digest_dir(op.out_dir)
    outcome.bytes_written = sum(p.stat().st_size for p in op.out_dir.iterdir())
    return outcome


def environment() -> dict:
    """Interpreter, library versions and machine of this run.

    The probe imports stickygas.cli, so byte-code caches exist before any
    timing."""
    probe = ("import json, platform, numpy, scipy, stickygas.cli; "
             "print(json.dumps({'python': platform.python_version(), "
             "'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
    out = subprocess.run([sys.executable, "-c", probe], env=CHILD_ENV, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    env = json.loads(out.stdout)
    env["nproc"] = len(os.sched_getaffinity(0))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env["cpu"] = cpu
    return env


class Ledger:
    """Operations attempted and failed, and the first digests of each op."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[str, dict[str, str]] = {}

    def record(self, op: Op, outcome: Outcome, label: str) -> None:
        self.attempted += 1
        if outcome.error is None:
            ref = self.reference.setdefault(op.kind, outcome.digests)
            if ref != outcome.digests:
                outcome.error = "outputs differ from the first pass: " + ", ".join(
                    sorted(k for k in ref.keys() | outcome.digests.keys()
                           if ref.get(k) != outcome.digests.get(k)))
        if outcome.error is not None:
            self.failed += 1
            self.errors.append(f"{label} {op.kind}: {outcome.error}")


def set_up(workload: Workload, seed: int, out_dir: Path) -> tuple[Inputs, list[float]]:
    """Generate the inputs repeatedly; the inputs and every set-up time."""
    times: list[float] = []
    first = None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        inputs = make_inputs(workload, seed, out_dir)
        times.append(time.perf_counter() - t0)
        snapshot = (digest_dir(out_dir), inputs.gvp_times, inputs.window)
        if first is None:
            first = snapshot
        elif snapshot != first:
            raise RuntimeError("input generation is not deterministic for one seed")
    return inputs, times


def layer_metrics(traces: list[dict], outcomes: list[Outcome], untraced_pass_s: float,
                  scaling: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    values: dict[str, float] = {}
    absent: list[str] = []
    for tr in traces:
        for group, (calls, self_s) in tr["stats"].items():
            values[f"{group}.calls"] = values.get(f"{group}.calls", 0) + calls
            values[f"{group}.self_s"] = values.get(f"{group}.self_s", 0.0) + self_s
        for key, count in tr["extra"].items():
            values[key] = values.get(key, 0) + count
        absent += [a for a in tr["absent"] if a not in absent]
    values["testfunctions.evals"] = values.get("testfunctions.calls", 0)
    events = values.get("dynamics.events", 0)
    values["quadratics.meet_times_per_event"] = (
        values.get("quadratics.meet_times.calls", 0) / events if events else 0.0)
    times = values.get("gvp.clusters_from_gvp.calls", 0)
    values["gvp.margins_per_time"] = values.get("gvp.margin.calls", 0) / times if times else 0.0
    if traces:
        values["cli.import_s"] = statistics.median(tr["import_s"] for tr in traces)
    values["cli.bytes_written"] = sum(o.bytes_written for o in outcomes)
    values["trace.overhead_s"] = sum(o.wall_s for o in outcomes) - untraced_pass_s
    values.update(scaling)
    return values, absent


def traced_pass(ops: list[Op], inputs: Inputs, workload: Workload, seed: int,
                untraced_pass_s: float, ledger: Ledger, trace_dir: Path,
                deadline: float) -> tuple[dict[str, float], dict[str, list]]:
    """One pass under tracer.py, then scaling.py; the per-layer values and
    the spans of each traced command."""
    trace_dir.mkdir(parents=True)
    traced: list[tuple[str, dict]] = []
    outcomes = []
    for i, op in enumerate(ops):
        trace_path = trace_dir / f"{i}-{op.kind}.json"
        head = [sys.executable, str(BENCH / "tracer.py"), str(trace_path)]
        outcome = run_op(op, head, inputs, workload, deadline)
        ledger.record(op, outcome, "traced")
        outcomes.append(outcome)
        if trace_path.is_file():  # absent only when the process was killed
            traced.append((f"{i}-{op.kind}", json.loads(trace_path.read_text())))
    traces = [tr for _, tr in traced]

    scaling_path = trace_dir / "scaling.json"
    code, _, _ = run_process(
        [sys.executable, str(BENCH / "scaling.py"), str(seed), str(inputs.main),
         str(scaling_path)], trace_dir / "scaling.log", deadline)
    ledger.attempted += 1
    scaling = {"values": {}, "absent": []}
    if code == 0:
        scaling = json.loads(scaling_path.read_text())
    else:
        ledger.failed += 1
        log = (trace_dir / "scaling.log").read_text(errors="replace").strip()
        ledger.errors.append(f"scaling: exit code {code}: {log[-300:]}")

    values, absent = layer_metrics(traces, outcomes, untraced_pass_s, scaling["values"])
    absent += scaling["absent"]
    values["cli.fuzz_peak_rss_mb"] = max(
        o.rss_mb for op, o in zip(ops, outcomes) if op.kind == "fuzz")

    traced_s = sum(o.wall_s for o in outcomes)
    shares = {k[:-len(".self_s")]: v for k, v in values.items() if k.endswith(".self_s")}
    shares["(import)"] = sum(tr["import_s"] for tr in traces)
    shares["(other)"] = traced_s - sum(shares.values())
    for group, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"# share {group} {100.0 * seconds / traced_s:.1f}%")
    if absent:
        print("# absent " + "; ".join(absent))
    not_run = [name for name, _ in PER_LAYER if name not in values]
    if not_run:
        print("# not run (reported as 0) " + " ".join(not_run))
    return values, {label: tr["spans"] for label, tr in traced}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "stickygas" / "cli.py").is_file():
        print(f"error: no stickygas sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)

    print("# env " + json.dumps(environment(), sort_keys=True))
    inputs, setup_times = set_up(workload, args.seed, work / "inputs")
    print(f"# fuzz seed {inputs.fuzz_seed}, draw {inputs.fuzz_draws} of the oracle "
          f"horizon screen (<= {ORACLE_HORIZON_MAX:g})")
    ops = make_ops(inputs, work / "out")
    cli_head = [sys.executable, "-m", "stickygas.cli"]
    ledger = Ledger()
    walls: dict[str, list[float]] = {op.kind: [] for op in ops}
    rss: dict[str, float] = {}
    pass_walls: list[float] = []

    # Passes go on while the next one, as long as the last, would end at most
    # half a pass after --seconds: the run measures about --seconds.
    loop_start = time.monotonic()
    while not pass_walls or (time.monotonic() - loop_start + 0.5 * pass_walls[-1]
                             < args.seconds):
        pass_wall = 0.0
        for op in ops:
            outcome = run_op(op, cli_head, inputs, workload, deadline)
            ledger.record(op, outcome, f"pass {len(pass_walls) + 1}")
            walls[op.kind].append(outcome.wall_s)
            rss[op.kind] = max(rss.get(op.kind, 0.0), outcome.rss_mb)
            pass_wall += outcome.wall_s
        pass_walls.append(pass_wall)

    for name, digests in ledger.reference.items():
        print(f"# digests {name} " + " ".join(f"{k}={v[:16]}" for k, v in sorted(digests.items())))
    print(f"# passes {len(pass_walls)}: " + " ".join(f"{w:.3f}" for w in pass_walls))
    print("# wall s " + " ".join(f"{k}=" + ",".join(f"{w:.3f}" for w in v) for k, v in walls.items()))
    print("# peak rss MB " + " ".join(f"{k}={v:.1f}" for k, v in rss.items()))

    if args.trace:
        values, spans = traced_pass(ops, inputs, workload, args.seed,
                                    statistics.median(pass_walls), ledger,
                                    work / "trace", deadline)
        (WORK / "trace").mkdir(parents=True, exist_ok=True)
        (WORK / "trace" / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"spans": spans, "values": values}))
        metrics = {name: {"value": float(values.get(name, 0)), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "simulate_s": statistics.median(walls["simulate"]),
            "gvp_s": statistics.median(walls["gvp"]),
            "gas_s": statistics.median(walls["gas"]),
            "fuzz_instances_per_s": FUZZ_COUNT / statistics.median(walls["fuzz"]),
            "peak_rss_mb": max(v for k, v in rss.items() if k != "fuzz"),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    for line in ledger.errors:
        print(f"# FAILED {line}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# ops_failed = {ledger.failed} of ops_attempted = {ledger.attempted}")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
