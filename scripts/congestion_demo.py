#!/usr/bin/env python3
"""Walk through the congestion term on the designed two-particle instance.

Two particles far apart, one accelerating from rest toward the other: at
t=1 their velocities momentarily coincide while their accelerations differ,
so the conditional variance of acceleration given velocity spikes to 1/4
for that single instant and is zero at every other pre-shock time.
"""

from stickygas import simulate, validate, velocity_space_fields
from stickygas.gas import congestion_onset_delay, velocity_coincidence_times

data = validate([0.0, 10.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0])
timeline = simulate(data)
T = timeline.event_times[0]
print(f"first shock at T = {T:.6f}")
print(f"velocity coincidences: {velocity_coincidence_times(timeline, T)}")
print(f"congestion onset delay: {congestion_onset_delay(data, T)}")

for t in [0.25, 0.5, 0.75, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0, 4.0]:
    fl = velocity_space_fields(timeline, t)
    atoms = ", ".join(
        f"v={v:+.4f} wgt={wt:.2f} w={w:+.4f} a={a:.4f}"
        for (v, wt), w, a in zip(fl.atoms, fl.w, fl.a))
    print(f"t={t:<12.6g} {atoms}")
