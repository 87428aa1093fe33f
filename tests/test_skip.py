"""Sleeping charts and idle minutes recorded without being run (`sim.skip_idle`), against plain stepping.

`macro_step` skips a chart while it sleeps, and `run` and `check` skip the
minutes after an idle one. Every test here holds them to plain stepping, a
loop that calls `macro_step` for each minute (in which a chart still
sleeps: the oracle runs every chart every minute), and to the oracle: on
generated compositions with the synthesized timer, resource charts and
guards that read `curT`, and on the benchmark's four workloads.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from resweave import expr as ex
from resweave import cli, sim, verify
from resweave.cli import build_composition
from resweave.model import parse_model, serialize_model
from resweave.resources import (
    AvailabilitySchedule, Window, parse_resource_map, parse_schedule, synthesize_resource_chart, synthesize_timer,
)

from conftest import FIXTURES, fixture_text
from generators import gen_timed_composition, gen_timed_invariants, gen_timed_scenario
from oracle import oracle_check, oracle_run

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


def test_a_timer_other_than_the_synthesized_one_is_refused(tmp_path, capsys):
    """The clock ticks inside `macro_step`, so no other chart may stand as the timer: a renamed
    synthesized timer is refused by `sim.Composition`, and by `check --manifest` with exit 2."""
    synthesized = gen_timed_composition(random.Random(71), horizon=60)
    clock = synthesized.timer._replace(name="Clock")
    assert _error(lambda: sim.Composition(clock, synthesized.resources, synthesized.guidelines)) == (
        "timer chart 'Clock' is not the synthesized timer"
    )
    assert cli.main(["integrate", str(FIXTURES / "stroke_simple.json"), str(FIXTURES / "stroke_simple.map"),
                     "--out", str(tmp_path)]) == 0
    (tmp_path / "Timer.json").write_text(serialize_model(clock), encoding="utf-8")
    capsys.readouterr()
    manifest, out = tmp_path / "composition.json", tmp_path / "out"
    code = cli.main(["check", "--manifest", str(manifest), "--scenario", str(FIXTURES / "scenario_simple.json"),
                     "--properties", str(FIXTURES / "props_simple.txt"), "--out", str(out)])
    assert (code, capsys.readouterr()) == (2, ("", f"error: {manifest}: timer chart 'Clock' is not the synthesized timer\n"))
    assert not out.exists()


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


def test_a_guard_after_an_enabled_no_op_self_loop_bounds_the_skip():
    """The enabled self-loop always wins, so `curT > 50` is never what picks a
    transition; yet it is one of the state's event-free leaving guards, so
    its bound ends the skip at minute 51, the same as any other clock guard."""
    chart = {
        "name": "G",
        "variables": [{"name": "curT", "kind": "integer", "initial": 0}, {"name": "n", "kind": "integer", "initial": 0}],
        "states": [{"name": "Wait"}, {"name": "Go"}],
        "transitions": [
            {"source": "Wait", "target": "Wait", "guard": "n == 0", "actions": ["n = 0"]},
            {"source": "Wait", "target": "Go", "guard": "curT > 50"},
        ],
        "initial": "Wait",
    }
    composition = sim.Composition(synthesize_timer(), (), (parse_model(json.dumps(chart)),))
    state = sim.init_composition(composition, sim.Scenario())
    trace = sim.run(state, 100)
    assert sim.trace_to_json(trace) == sim.trace_to_json(sim.trace_of(plain_run(composition, sim.Scenario(), 100)))
    assert state.active["G"] == "Wait"
    # minutes 1 and 51 run; 2..50 and 52..100 are skipped
    assert state.minutes_skipped == 49 + 49


def test_each_bound_is_built_once(monkeypatch, delayed_composition, simple_scenario):
    built = []
    compile_bound = ex.compile_bound

    def counting(trees, kinds, clock):
        built.append(trees)
        return compile_bound(trees, kinds, clock)

    monkeypatch.setattr(ex, "compile_bound", counting)
    charts = (delayed_composition.resources, delayed_composition.guidelines)
    composition = sim.Composition(delayed_composition.timer, *charts)
    resolved = verify.enumerate_scenarios(simple_scenario)
    for scenario in resolved:
        sim.run(sim.init_composition(composition, scenario), 720)
    states = sum(len(chart.states) for chart in composition.resources + composition.guidelines)
    assert 0 < len(built) <= states
    once = len(built)  # one per state a chart fell asleep in
    for scenario in resolved:
        sim.run(sim.init_composition(composition, scenario), 720)
    assert len(built) == once
    properties = verify.parse_properties(fixture_text("props_simple.txt"), composition)
    verdicts = verify.check(composition, simple_scenario, properties, 720)
    # one bound for every property, kept after P2 fails in the first scenario
    assert [v.counterexample.scenario_index for v in verdicts if not v.holds] == [0]
    assert len(built) == once + 1
    assert built[-1] == [p.predicate for p in properties]


def test_nothing_is_skipped_when_a_guideline_fires_every_minute():
    composition = one_guideline("true", "n = n + 1")
    state = sim.init_composition(composition, sim.Scenario())
    sim.run(state, 200)
    assert state.minutes_skipped == 0
    assert state.valuation["n"] == 199


def _error(call) -> str:
    with pytest.raises(sim.SimulationError) as caught:
        call()
    return str(caught.value)


@pytest.mark.parametrize("horizon", [15, 720])
def test_clock_leaving_64_bits_is_refused_at_plain_steppings_minute(ideal_composition, simple_scenario, horizon):
    # curT is 2**63 - 1 after minute 4, so the timer's write at minute 5 is refused.
    scenario = simple_scenario._replace(initial={**simple_scenario.initial, "curT": 2**63 - 5})
    resolved = verify.enumerate_scenarios(scenario)[0]
    properties = verify.parse_properties(fixture_text("props_simple.txt"), ideal_composition)
    expected = "chart 'Timer' at minute 5: 'curT' would be set to a value outside the 64-bit range"
    assert _error(lambda: plain_run(ideal_composition, resolved, horizon)) == expected
    assert _error(lambda: sim.run(sim.init_composition(ideal_composition, resolved), horizon)) == expected
    assert _error(lambda: plain_check(ideal_composition, scenario, properties, horizon)) == expected
    assert _error(lambda: verify.check(ideal_composition, scenario, properties, horizon)) == expected


def test_a_no_op_self_loop_that_writes_the_clock_runs_every_minute():
    """From minute 5 the self-loop sets the clock back to 5 after the timer's write: a no-op at
    minute 5, a recorded write at every minute after it, so no minute after 5 may be skipped."""
    chart = {
        "name": "G",
        "variables": [{"name": "curT", "kind": "integer", "initial": 0}],
        "states": [{"name": "S"}],
        "transitions": [{"source": "S", "target": "S", "guard": "curT >= 5", "actions": ["curT = 5"]}],
        "initial": "S",
    }
    composition = sim.Composition(synthesize_timer(), (), (parse_model(json.dumps(chart)),))
    state = sim.init_composition(composition, sim.Scenario())
    trace = sim.run(state, 20)
    assert sim.trace_to_json(trace) == sim.trace_to_json(sim.trace_of(plain_run(composition, sim.Scenario(), 20)))
    assert [len(step.fires) for step in trace.steps[5:]] == [1] + [2] * 15
    assert state.minutes_skipped == 0


def test_an_injected_flag_is_overwritten_by_its_sleeping_resource_chart():
    """A resource chart sleeps between its window's ends, yet it writes its flag at every cycle: an
    injection of the flag wakes it in the same minute, and its entry writes the flag back."""
    composition = sim.Composition(synthesize_timer(), (synthesize_resource_chart("ct", (Window(10, 30),)),))
    scenario = sim.Scenario(injections=(sim.Injection(5, "RES.ct", True), sim.Injection(20, "RES.ct", False)))
    trace = sim.run(sim.init_composition(composition, scenario), 40)
    flags = [valuation["RES.ct"] for _, valuation, _ in oracle_run(composition, scenario, 40)]
    assert [step.deltas.get("RES.ct") for step in trace.steps] == [None] * 11 + [True] + [None] * 19 + [False] + [None] * 9
    assert flags == [10 < t <= 30 for t in range(41)]
    assert sim.trace_to_json(trace) == sim.trace_to_json(sim.trace_of(plain_run(composition, scenario, 40)))


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


# Chart cycles run by one `check` at seed 1000, from minute 1 on, per configuration: timer (the minutes
# `macro_step` ran, each of which ticks the clock), resource charts, guidelines. When every chart ran
# every minute, the counts were busy-ward 11,520/34,560/11,520, large-guideline 80/16,000/80,
# shift-roster 531/4,248/531, and casestudy ideal 56/168/56, delayed-CT 72/216/72 and extended 210/1,890/210.
CYCLES = {
    "casestudy": [(56, 24, 56), (72, 56, 64), (210, 248, 98)],
    "shift-roster": [(531, 540, 101)],
    "busy-ward": [(11_520, 568, 11_520)],
    "large-guideline": [(80, 1_148, 32)],
}


@pytest.mark.parametrize("workload", ["casestudy", "shift-roster", "busy-ward", "large-guideline"])
def test_sleeping_charts_cut_the_cycles_of_a_check(workload_configs, workload, monkeypatch):
    cycles, cycle, step = Counter(), sim._chart_cycle, verify.macro_step

    def counting(state, runtime, fires):
        if state.steps:  # from minute 1
            cycles[runtime.chart.name] += 1
        cycle(state, runtime, fires)

    def ticking(state):  # `check` steps each minute it runs from 1 on here; minute 0 is `init_composition`'s
        cycles[state.composition.timer.name] += 1
        return step(state)

    monkeypatch.setattr(sim, "_chart_cycle", counting)
    monkeypatch.setattr(verify, "macro_step", ticking)
    counts = []
    for config in workload_configs[workload]:
        cycles.clear()
        read = lambda key: Path(config[key]).read_text(encoding="utf-8")  # noqa: E731
        schedule = parse_schedule(read("schedule")) if config.get("schedule") else AvailabilitySchedule({})
        composition, _ = build_composition(
            parse_model(read("model")), parse_resource_map(read("map")), schedule, config["assume_available"]
        )
        scenario = sim.parse_scenario(read("scenario"))
        verify.check(composition, scenario, verify.parse_properties(read("properties"), composition), config["horizon"])
        kinds = (composition.charts[:1], composition.resources, composition.guidelines)
        counts.append(tuple(sum(cycles[chart.name] for chart in charts) for charts in kinds))
    assert counts == CYCLES[workload]
