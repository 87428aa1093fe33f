"""The oracle (`tests/oracle.py`) against `sim`, minute by minute, and its independence from `sim`'s step code."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from resweave import expr as ex
from resweave import model, sim, verify
from resweave.resources import CLOCK_VARIABLE

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
            scenario = replace(scenario, injections=scenario.injections + (clock,))
    return composition, horizon, verify.enumerate_scenarios(scenario)[:4]


@pytest.mark.parametrize("kind", ["untimed", "timed"])
def test_oracle_steps_as_sim_minute_by_minute(kind):
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
