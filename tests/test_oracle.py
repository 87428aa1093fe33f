"""The oracle (`tests/oracle.py`) against `sim`, minute by minute, and its independence from `sim`'s step code."""

from __future__ import annotations

import json
import math
import random
from collections import Counter

import pytest

from resweave import expr as ex
from resweave import model, sim, verify
from resweave.resources import CLOCK_VARIABLE, Window, synthesize_resource_chart, synthesize_timer

from conftest import fixture_text
from generators import gen_composition, gen_invariants, gen_scenario, gen_timed_composition, gen_timed_scenario
from oracle import oracle_check, oracle_run


def sim_minutes(composition: sim.Composition, scenario: sim.Scenario, horizon: int) -> tuple[list, str | None]:
    """Each minute `sim.run` records, as (active states, valuation, events raised), rebuilt from
    its step records, and the message of the write it refuses, or None."""
    steps, refused = [], None
    try:
        state = sim.init_composition(composition, scenario)
        steps = state.steps
        sim.run(state, horizon)
    except sim.SimulationError as err:
        refused = str(err)
    active, valuation, minutes = {}, {decl.name: decl.initial for decl in composition.variables}, []
    for step in steps:
        valuation.update(step.deltas)
        active.update((fire.chart, fire.target) for fire in step.fires)
        minutes.append((dict(active), dict(valuation), step.raised))
    return minutes, refused


def oracle_minutes(composition: sim.Composition, scenario: sim.Scenario, horizon: int) -> tuple[list, str | None]:
    """`sim_minutes`, from `oracle_run`."""
    minutes, refused = [], None
    try:
        for active, valuation, raised in oracle_run(composition, scenario, horizon):
            minutes.append((dict(active), dict(valuation), raised))
    except sim.SimulationError as err:
        refused = str(err)
    return minutes, refused


def generated_runs(kind: str, seed: int):
    """A generated composition, with its horizon and up to 4 resolutions of a generated scenario.

    Half the timed scenarios also set the clock at some minute after 0, so
    that what the timer reads depends on whether it runs before that
    minute's injections."""
    rng = random.Random(seed)
    if kind == "untimed":
        horizon = rng.randint(5, 40)
        composition, scenario = gen_composition(rng), gen_scenario(rng, horizon)
    else:
        horizon = rng.randint(5, 60)
        composition, scenario = gen_timed_composition(rng, horizon), gen_timed_scenario(rng, horizon)
        if rng.random() < 0.5:
            clock = sim.Injection(rng.randint(1, horizon), CLOCK_VARIABLE, rng.randint(0, horizon))
            scenario = scenario._replace(injections=scenario.injections + (clock,))
    return composition, horizon, verify.enumerate_scenarios(scenario)[:4]


WAKE_CAUSES = ("clock", "earlier write", "later write", "event", "injection")


def counting_wakes(monkeypatch) -> Counter:
    """Count, by cause, the times a sleeping chart runs again, by wrapping `sim._wake` and
    `sim._chart_cycle`: its clock bound came due, a write by a chart before or after it in
    execution order, an event raised before it in the minute, or an injection, which `macro_step`
    passes to `_wake` as position -1, before every chart."""
    causes, woken = Counter(), set()  # (chart position, minute) set by `_wake` in the current run
    wake, cycle = sim._wake, sim._chart_cycle

    def counting_wake(state, names, position, now, later):
        before = list(state.wake)
        wake(state, names, position, now, later)
        for other, (old, new) in enumerate(zip(before, state.wake)):
            if new != old:
                woken.add((other, new))
                causes["injection" if position == -1 else "event" if later == math.inf else
                       "earlier write" if other > position else "later write"] += 1

    def counting_cycle(state, runtime, fires, chosen):
        if chosen is not None:
            woken.clear()
        t, position = state.curT + 1, state.composition.runtimes.index(runtime)
        if chosen is None and state.wake[position] == t and (position, t) not in woken:
            causes["clock"] += 1
        cycle(state, runtime, fires, chosen)

    monkeypatch.setattr(sim, "_wake", counting_wake)
    monkeypatch.setattr(sim, "_chart_cycle", counting_cycle)
    return causes


@pytest.mark.parametrize("kind", ["untimed", "timed"])
def test_oracle_steps_as_sim_minute_by_minute(kind, monkeypatch):
    causes = counting_wakes(monkeypatch)
    runs = refused = raised = 0
    for seed in range(300):
        composition, horizon, resolutions = generated_runs(kind, seed)
        for resolved in resolutions:
            expected = sim_minutes(composition, resolved, horizon)
            assert oracle_minutes(composition, resolved, horizon) == expected, (seed, resolved)
            runs += 1
            refused += expected[1] is not None
            raised += any(minute[2] for minute in expected[0])
    # the runs include writes that `sim` refuses and events raised
    assert runs > 300 and refused and raised > runs // 10
    # charts sleep in both kinds, and each cause wakes one; untimed charts read no clock, so no bound comes due
    assert set(causes) == set(WAKE_CAUSES) - ({"clock"} if kind == "untimed" else set()), causes


def test_oracle_runs_no_step_code_of_sim(monkeypatch, delayed_composition, simple_scenario):
    properties = verify.parse_properties(fixture_text("props_simple.txt"), delayed_composition)
    cases = [(delayed_composition, simple_scenario, properties, 720)]
    rng = random.Random(5)
    for _ in range(20):
        composition = gen_timed_composition(rng, 40)
        cases.append((composition, gen_timed_scenario(rng, 40), gen_invariants(rng, composition), 40))
    checked = []
    for case in cases:
        try:
            verdicts = verify.check(*case)
        except sim.SimulationError:
            continue
        indexes = [v.counterexample and (v.counterexample.scenario_index, v.counterexample.step_index) for v in verdicts]
        checked.append((case, {v.property: (v.holds, first) for v, first in zip(verdicts, indexes)}))
    assert len(checked) > 10 and any(not holds for _, verdicts in checked for holds, _ in verdicts.values())

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran step code of sim")

    for module, name in ((sim, "init_composition"), (sim, "macro_step"), (sim, "_fire"), (model, "fire_actions"),
                         (sim, "fire_actions"), (ex, "compile_expr")):
        monkeypatch.setattr(module, name, refuse)
    for case, verdicts in checked:
        assert oracle_check(*case) == verdicts


def _chart(name: str, states, transitions, events=()) -> model.StatechartModel:
    variables = [{"name": "curT", "kind": "integer", "initial": 0}, {"name": "x", "kind": "integer", "initial": 0}]
    return model.parse_model(json.dumps({
        "name": name, "variables": variables, "events": list(events), "states": [{"name": s} for s in states],
        "transitions": [dict(zip(("source", "target", "guard", "trigger", "actions"), t)) for t in transitions],
        "initial": states[0],
    }))


def test_charts_sleep_and_wake_in_execution_order(monkeypatch):
    """The timer, a resource chart, then A, B and C. B writes x, which A (before it) and C (after
    it) wait on; A raises `go`, which C waits on; the scenario injects x at minute 30 and the clock
    at minute 35. Each minute equals the oracle's, and A and C run only when woken."""
    a = _chart("A", ["A0", "A1"], [("A0", "A1", "x >= 2", None, ["raise go"])], events=["go"])
    b = _chart("B", ["B0", "B1", "B2", "B3"], [
        ("B0", "B1", "curT >= 10", None, ["x = x + 1"]),
        ("B1", "B2", "curT >= 20", None, ["x = x + 1"]),
        ("B2", "B3", "curT >= 45", None, ["x = x + 1"]),
    ])
    c = _chart("C", ["C0", "C1", "C2", "C3"], [
        ("C0", "C1", "x >= 1", None, []),
        ("C1", "C2", "true", "go", []),
        ("C2", "C3", "x >= 10", None, []),
    ], events=["go"])
    resource = synthesize_resource_chart("ct", (Window(10, 30),))
    composition = sim.Composition(synthesize_timer(), (resource,), (a, b, c))
    injections = (sim.Injection(30, "x", 10), sim.Injection(35, CLOCK_VARIABLE, 50))
    scenario = sim.Scenario(injections=injections, horizon=60)
    cycles = []
    cycle = sim._chart_cycle

    def recording(state, runtime, fires, chosen):
        if chosen is None:
            cycles.append((runtime.chart.name, state.curT + 1))
        cycle(state, runtime, fires, chosen)

    monkeypatch.setattr(sim, "_chart_cycle", recording)
    minutes, refused = sim_minutes(composition, scenario, 60)
    assert (minutes, refused) == oracle_minutes(composition, scenario, 60)
    fired = [(t, name) for t, (active, _, _), (before, _, _) in zip(range(1, 61), minutes[1:], minutes)
             for name in "ABC" if active[name] != before[name]]
    assert fired == [(10, "B"), (10, "C"), (20, "B"), (21, "A"), (21, "C"), (30, "C"), (35, "B")]
    ran = {name: [t for chart, t in cycles if chart == name] for name in ("ct", "A", "B", "C")}
    # A chart that fires runs the next minute too, and sleeps if it records nothing. C wakes in the
    # minute of B's write, of A's event and of the injection of x; A in the minute after B's write.
    assert ran["C"] == [1, 10, 11, 21, 22, 30, 31]
    assert ran["A"] == [1, 11, 21, 22]
    # B wakes at its clock bounds and at the injection of the clock; ct at its window's ends and there too
    assert ran["B"] == [1, 10, 11, 20, 21, 35, 36]
    assert ran["ct"] == [1, 11, 12, 31, 32, 35]
