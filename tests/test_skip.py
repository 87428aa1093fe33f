"""Idle minutes recorded without being run (`sim.skip_idle`), against plain stepping.

`run` and `check` skip the minutes after an idle one. Every test here holds
them to a loop that runs each minute through `macro_step`, and to the
oracle: on generated compositions with the synthesized timer, resource
charts and guards that read `curT`, and on the benchmark's four workloads.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from resweave import sim, verify
from resweave.cli import build_composition
from resweave.model import parse_model
from resweave.resources import AvailabilitySchedule, parse_resource_map, parse_schedule, synthesize_timer

from generators import gen_timed_composition, gen_timed_invariants, gen_timed_scenario
from oracle import oracle_check

ROOT = Path(__file__).resolve().parent.parent


def plain_run(composition: sim.Composition, scenario: sim.Scenario, horizon: int) -> sim.SimState:
    state = sim.init_composition(composition, scenario)
    while state.curT < horizon:
        sim.macro_step(state)
    return state


def plain_check(composition, scenario, properties, horizon) -> list[verify.Verdict]:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "skip_idle", lambda *args: None)
        return verify.check(composition, scenario, properties, horizon)


def assert_check_is_plain(composition, scenario, properties, horizon) -> None:
    """Verdicts and counterexamples (indices and every trace step) equal plain
    stepping's, and verdicts and indices equal the oracle's."""
    verdicts = verify.check(composition, scenario, properties, horizon)
    assert verdicts == plain_check(composition, scenario, properties, horizon)
    expected = oracle_check(composition, scenario, properties, horizon)
    for verdict in verdicts:
        cx = verdict.counterexample
        assert (verdict.holds, cx and (cx.scenario_index, cx.step_index)) == expected[verdict.property]


def test_run_is_plain_stepping_on_timed_compositions():
    rng = random.Random(61)
    skipped = []
    for _ in range(100):
        composition = gen_timed_composition(rng, horizon=60)
        scenario = gen_timed_scenario(rng, horizon=60)
        for resolved in verify.enumerate_scenarios(scenario)[:2]:
            state = sim.init_composition(composition, resolved)
            trace = sim.run(state, 60)
            assert sim.trace_to_json(trace) == sim.trace_to_json(sim.trace_of(plain_run(composition, resolved, 60)))
            skipped.append(state.minutes_skipped)
    # the generator reaches both long skips and runs with none
    assert max(skipped) > 50 and 0 in skipped and sum(skipped) > 20 * len(skipped)


def test_check_is_plain_stepping_on_timed_compositions():
    rng = random.Random(67)
    violated = 0
    for _ in range(30):
        composition = gen_timed_composition(rng, horizon=50)
        scenario = gen_timed_scenario(rng, horizon=50)
        properties = gen_timed_invariants(rng, composition, horizon=50)
        assert_check_is_plain(composition, scenario, properties, 50)
        violated += sum(not v.holds for v in verify.check(composition, scenario, properties, 50))
    assert violated > 10


def test_other_timer_falls_back_to_plain_stepping():
    rng = random.Random(71)
    for _ in range(10):
        synthesized = gen_timed_composition(rng, horizon=60)
        composition = sim.Composition(replace(synthesized.timer, name="Clock"), synthesized.resources, synthesized.guidelines)
        assert synthesized.skips_idle and not composition.skips_idle
        resolved = verify.enumerate_scenarios(gen_timed_scenario(rng, horizon=60))[0]
        state = sim.init_composition(composition, resolved)
        trace = sim.run(state, 60)
        assert state.minutes_skipped == 0
        assert sim.trace_to_json(trace) == sim.trace_to_json(sim.trace_of(plain_run(composition, resolved, 60)))


def one_guideline(guard: str, action: str | None = None) -> sim.Composition:
    """The synthesized timer and a chart that leaves Wait for Go when `guard` holds."""
    chart = {
        "name": "G",
        "variables": [{"name": "curT", "kind": "integer", "initial": 0}, {"name": "n", "kind": "integer", "initial": 0}],
        "states": [{"name": "Wait"}, {"name": "Go"}],
        "transitions": [{"source": "Wait", "target": "Go", "guard": guard}],
        "initial": "Wait",
    }
    if action:
        chart["transitions"].append({"source": "Go", "target": "Go", "actions": [action]})
    return sim.Composition(synthesize_timer(), (), (parse_model(json.dumps(chart)),))


def test_non_linear_clock_atom_steps_every_minute_until_it_fires():
    counts = {}
    for guard in ("curT > 20", "curT*curT > 400"):
        composition = one_guideline(guard)
        state = sim.init_composition(composition, sim.Scenario())
        trace = sim.run(state, 100)
        assert sim.trace_to_json(trace) == sim.trace_to_json(sim.trace_of(plain_run(composition, sim.Scenario(), 100)))
        assert [(s.t, f.target) for s in trace.steps[1:] for f in s.fires if f.chart == "G"] == [(21, "Go")]
        counts[guard] = state.minutes_skipped
    # both skip minutes 23..100 after the fire; only the linear guard skips 2..20 before it
    assert counts == {"curT > 20": 19 + 78, "curT*curT > 400": 78}


@pytest.mark.parametrize(
    "composition, scenario, skipped",
    [("delayed_composition", "simple_scenario", 711), ("extended_composition", "extended_scenario", 694)],
)
def test_minutes_skipped_is_pinned(request, composition, scenario, skipped):
    composition = request.getfixturevalue(composition)
    resolved = verify.enumerate_scenarios(request.getfixturevalue(scenario))[0]
    state = sim.init_composition(composition, resolved)
    sim.run(state, 720)
    assert state.minutes_skipped == skipped


def test_nothing_is_skipped_when_a_guideline_fires_every_minute():
    composition = one_guideline("true", "n = n + 1")
    state = sim.init_composition(composition, sim.Scenario())
    sim.run(state, 200)
    assert state.minutes_skipped == 0
    assert state.valuation["n"] == 199


@pytest.fixture(scope="module")
def workload_configs(tmp_path_factory):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    out = tmp_path_factory.mktemp("workloads")
    return {name: workloads.build(name, 1000, out / name, ROOT) for name in workloads.NAMES}


@pytest.mark.parametrize("workload", ["casestudy", "shift-roster", "busy-ward", "large-guideline"])
def test_workloads_check_and_simulate_as_plain_stepping(workload_configs, workload):
    for config in workload_configs[workload]:
        read = lambda key: Path(config[key]).read_text(encoding="utf-8")  # noqa: E731
        schedule = parse_schedule(read("schedule")) if config.get("schedule") else AvailabilitySchedule({})
        composition, _ = build_composition(
            parse_model(read("model")), parse_resource_map(read("map")), schedule, config["assume_available"]
        )
        scenario = sim.parse_scenario(read("scenario"))
        properties = verify.parse_properties(read("properties"), composition)
        assert_check_is_plain(composition, scenario, properties, config["horizon"])
        resolved = scenario.resolve(config["simulate"])
        trace = sim.run(sim.init_composition(composition, resolved), config["horizon"])
        plain = plain_run(composition, resolved, config["horizon"])
        assert sim.trace_to_json(trace) == sim.trace_to_json(sim.trace_of(plain))
