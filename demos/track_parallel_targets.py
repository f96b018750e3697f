"""Track four targets marching on parallel lanes for a full run.

Prints the per-target error summary and drops the trajectory CSVs in
``out_trajectory/`` under the working directory for plotting elsewhere.
"""

from pathlib import Path

from sectrack.config import ScenarioConfig
from sectrack.metrics import mean_tracking_error, plt_efficiency, write_csv
from sectrack.scenarios import run_trajectory, trajectory_config

cfg = ScenarioConfig(master_seed=1)
run_cfg = trajectory_config(cfg)
lanes, sample_times = run_cfg.placements, run_cfg.sample_times()
log = run_trajectory(cfg)

print("target  lane-y  estimates  mean-err  efficiency")
for target in sorted(log.tracks):
    rec = log.tracks[target]
    lane_y = lanes[target].y
    print(f"{target:6d} {lane_y:7.0f} {len(rec.estimates):10d} "
          f"{mean_tracking_error(rec):8.2f}  {plt_efficiency(rec, sample_times):9.2f}")

print(f"\nreference switches during the run: {len(log.switches)}")
for ev in log.switches[:5]:
    print(f"  t={ev.t:6.1f} target {ev.target}: ref {ev.old_ref} -> {ev.new_ref} "
          f"({ev.cause.value}, {ev.delay_s:.1f} s)")
if len(log.switches) > 5:
    print(f"  ... and {len(log.switches) - 5} more")

out = Path.cwd() / "out_trajectory"
write_csv(log, out)
print(f"\nCSV files written under {out}/")
