"""Turn an availability schedule into charts that keep RES.* current every minute.

A schedule line `r: (s, e)` means r is usable for minutes s < t <= e. Each
resource becomes a one-state chart whose self-loop re-enters every cycle;
complementary guarded entry actions write the RES.<r> flag so downstream
guards always read the current minute's availability. When a re-entry
changes nothing, the simulator lets the chart sleep until its clock
reaches the next window end, or until its flag is injected; every output
is what re-entering it every minute gives.
"""

from pathlib import Path

from resweave import parse_schedule, is_available, synthesize_resource_chart, synthesize_timer
from resweave.model import guarded_action_to_text, serialize_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

schedule = parse_schedule((FIXTURES / "schedule_extended.txt").read_text())
print(f"horizon: {schedule.horizon} minutes")

print("\navailability by minute (x = available):")
probes = [0, 60, 61, 120, 121, 230, 231, 240, 241, 480, 481, 500, 501]
print(f"{'resource':<14}" + "".join(f"{t:>6}" for t in probes))
for resource, windows in schedule.entries.items():
    row = "".join(f"{'x' if is_available(windows, t) else '.':>6}" for t in probes)
    print(f"{resource:<14}{row}")

print("\nsynthesized chart for CT_technician (two on-shift windows):")
chart = synthesize_resource_chart("CT_technician", schedule.windows_for("CT_technician"))
for ga in chart.states[0].entry_actions:
    print(" ", guarded_action_to_text(ga, "entry"))

print("\nthe timer chart that drives them:")
print(serialize_model(synthesize_timer()))
