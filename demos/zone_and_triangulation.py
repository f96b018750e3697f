"""One tracking cycle by hand: zone, beamwidths, ranging, triangulation."""

import numpy as np

from sectrack.channel import ChannelConfig, exchange
from sectrack.geometry import (
    Position,
    beamwidth_for_zone,
    distance,
    form_zone,
    range_from_timestamps,
    sector_of,
    bearing_deg,
    triangulate,
)

rng = np.random.default_rng(7)
chan = ChannelConfig(sigma_t=5e-9)

ref_a = Position(120.0, 80.0)
ref_b = Position(280.0, 90.0)
truth = Position(205.0, 215.0)
last_estimate = Position(203.0, 211.0)  # where the trackers last saw it

zone = form_zone(ref_a, ref_b, last_estimate, v_max=10.0, dt=5.0)
print(f"zone: center=({zone.center.x:.0f},{zone.center.y:.0f}) radius={zone.radius:.1f} m")

for name, ref in (("A", ref_a), ("B", ref_b)):
    width = beamwidth_for_zone(zone, ref, sectors=4)
    sec = sector_of(bearing_deg(ref, zone.center), 4)
    print(f"ref {name}: sector {sec}, beamwidth {width:.1f} deg")

def measure(ref):
    # The responder holds 2e-4 s before it echoes; the hold cancels exactly.
    return range_from_timestamps(exchange(ref, truth, 0.0, 2e-4, chan, rng), chan.c)

r_a, r_b = measure(ref_a), measure(ref_b)
print(f"\nmeasured ranges: {r_a:.2f} m (true {distance(ref_a, truth):.2f}), "
      f"{r_b:.2f} m (true {distance(ref_b, truth):.2f})")

est, ambiguous = triangulate(ref_a, r_a, ref_b, r_b, zone)
print(f"fix: ({est.x:.2f}, {est.y:.2f}), ambiguous={ambiguous}")
print(f"error vs truth: {distance(est, truth):.2f} m")
