"""Outside-in tracing of one stickygas CLI command.

Run as ``python perfbench/tracer.py OUT.json <cli arguments...>`` with
``src`` on PYTHONPATH.  It imports ``stickygas.cli`` (timing the import),
replaces each traced public name by a timing wrapper in every stickygas
module namespace that holds it, runs ``stickygas.cli.main`` and writes the
counters and spans to OUT.json when the command ends.  No source file of the
program changes.

Every wrapped call pushes a frame on one stack, so a group's self time is
its calls' time minus the time of wrapped calls made inside them.  Coarse
calls (SPANS) also keep a span record: name, start, end, parent span.  Hot
leaf calls (LEAVES) keep only counts and summed times.  A name that does not
exist at the commit under test is listed as absent, not fatal.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, group).  Groups are the per-layer metric prefixes.
SPANS = [
    ("stickygas.cli", "cmd_simulate", "cli"),
    ("stickygas.cli", "cmd_gvp", "cli"),
    ("stickygas.cli", "cmd_gas", "cli"),
    ("stickygas.cli", "cmd_dermoune", "cli"),
    ("stickygas.cli", "cmd_fuzz", "cli"),
    ("stickygas.dynamics", "simulate", "dynamics.simulate"),
    ("stickygas.dynamics", "brute_force_partitions", "dynamics.oracle"),
    ("stickygas.gvp", "gvp_equivalence_check", "gvp.equivalence"),
    ("stickygas.gvp", "clusters_from_gvp", "gvp.clusters_from_gvp"),
    ("stickygas.gas", "position_space_residuals", "gas.position_residuals"),
    ("stickygas.gas", "velocity_space_residuals", "gas.velocity_residuals"),
    ("stickygas.gas", "velocity_space_fields", "gas.velocity_fields"),
    ("stickygas.verify", "conservation_suite", "verify.conservation"),
    ("stickygas.verify", "gvp_suite", "verify.gvp_suite"),
    ("stickygas.verify", "dermoune_suite", "verify.dermoune_suite"),
    ("stickygas.verify", "oracle_suite", "verify.oracle_suite"),
]

_QUERIES = ["segment_at", "segment_before", "partition_at", "partition_before",
            "positions_at", "velocities_at", "accelerations_at",
            "positions_at_left", "velocities_at_left", "accelerations_at_left",
            "sample_positions", "sample_velocities"]

LEAVES = [
    ("stickygas.quadratics", "quadratic_meet_times", "quadratics.meet_times"),
    ("stickygas.dynamics", "next_collision", "dynamics.next_collision"),
    *[("stickygas.dynamics", f"ShockTimeline.{q}", "dynamics.query") for q in _QUERIES],
    ("stickygas.model", "cluster_aggregates", "model.cluster_aggregates"),
    ("stickygas.model", "validate", "model.validate"),
    ("stickygas.gvp", "GvpFunctional.left_endpoint_margin", "gvp.margin"),
    ("stickygas.gvp", "GvpFunctional.right_endpoint_margin", "gvp.margin"),
    ("stickygas.gvp", "endpoint_tie_indices", "gvp.endpoint_ties"),
    ("stickygas.flow", "dermoune_identity_residuals", "flow.identities"),
    ("stickygas.flow", "right_derivative_check", "flow.right_derivative"),
    ("stickygas.gas", "velocity_coincidence_times", "gas.coincidence_times"),
    ("stickygas.testfunctions", "TestFunction.__call__", "testfunctions"),
    ("stickygas.testfunctions", "TestFunction.prime", "testfunctions"),
    ("stickygas.measures", "DiscreteMeasure.integrate", "measures.integrate"),
    ("stickygas.instances", "load_instance", "instances.load"),
    ("stickygas.gas", "quad", "gas.quad"),  # scipy.integrate.quad as gas imports it
]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack: list[list] = []           # frames: [child seconds, span id]
        self.stats = defaultdict(lambda: [0, 0.0])  # calls, self seconds
        self.spans: list[tuple] = []          # (id, parent, name, start, end)
        self.extra = defaultdict(int)         # counts derived from results
        self.absent: list[str] = []           # traced names missing here

    def wrap(self, group: str, fn, span: bool, post=None):
        """fn, counting each call and its self time under `group`, keeping a
        span per call when `span`, and passing each result to `post`."""
        clock, stack, stats, spans = self.clock, self.stack, self.stats, self.spans
        name = getattr(fn, "__qualname__", group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            sid = len(spans) + 1 if span else parent
            if span:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                st = stats[group]
                st[0] += 1
                st[1] += dt - frame[0]
                if span:
                    spans[sid - 1] = (sid, parent, name, t0 - self.origin, t1 - self.origin)
            if post is not None:
                post(result)
            return result

        return wrapper


def _resolve(module, path: str):
    """(owner, attribute, object) for a dotted path, or None when absent."""
    owner, *rest = path.split(".")
    obj = getattr(module, owner, None)
    if not rest:
        return (module, owner, obj) if obj is not None else None
    if obj is None or not hasattr(obj, rest[0]):
        return None
    return obj, rest[0], getattr(obj, rest[0])


def _count_events(tracer: Tracer, timeline) -> None:
    """Events, merge groups, and adjacent pairs live at each scheduling step
    (sum over steps of live clusters - 1) of one simulate result."""
    extra = tracer.extra
    try:
        live = timeline.initial.n
        for event in timeline.events:
            extra["dynamics.live_pairs"] += live - 1
            extra["dynamics.events"] += 1
            for group in event.groups:
                extra["dynamics.merge_groups"] += 1
                live -= len(group.members) - 1
    except AttributeError as exc:
        note = f"simulate result ({exc})"
        if note not in tracer.absent:
            tracer.absent.append(note)
        return
    extra["dynamics.live_pairs"] += live - 1  # the final step finds no meeting


def _counting_quad(tracer: Tracer, quad):
    """Timed quad wrapper that also counts integrand evaluations."""
    extra = tracer.extra

    def counted_quad(func, a, b, *args, **kwargs):
        def integrand(t, *fargs):
            extra["gas.quad.integrand_evals"] += 1
            return func(t, *fargs)
        return quad(integrand, a, b, *args, **kwargs)

    return tracer.wrap("gas.quad", counted_quad, span=False)


def install(tracer: Tracer) -> None:
    """Wrap every traced name; list the missing ones in tracer.absent."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "stickygas" or name.startswith("stickygas."))]
    targets = [(t, True) for t in SPANS] + [(t, False) for t in LEAVES]
    for (mod_name, path, group), span in targets:
        module = sys.modules.get(mod_name)
        found = _resolve(module, path) if module is not None else None
        if found is None:
            tracer.absent.append(f"{mod_name}:{path}")
            continue
        owner, attr, original = found
        if group == "gas.quad":
            wrapper = _counting_quad(tracer, original)
        elif group == "dynamics.simulate":
            wrapper = tracer.wrap(group, original, span,
                                  post=lambda timeline: _count_events(tracer, timeline))
        else:
            wrapper = tracer.wrap(group, original, span)
        if owner is module:
            # module-level function: replace it wherever it was imported
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        else:
            setattr(owner, attr, wrapper)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import stickygas.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    rc = None
    try:
        rc = cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "exit": rc, "absent": tracer.absent,
                       "stats": tracer.stats, "extra": tracer.extra,
                       "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
