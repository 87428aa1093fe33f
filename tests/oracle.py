"""Brute-force reference for `sim` and `verify`, sharing no step code with either.

`oracle_run` steps a composition minute by minute over the model records
themselves. It walks expression trees with `ex.eval_expr` and compiles
nothing; it spells out the order of a fire (the source's exit actions, the
transition's own actions, then the target's entry actions, a self-loop
included) and picks each chart's first enabled transition in declaration
order. It runs every minute, so it shares no idle-minute skipping with `run`
and `check`. From `sim` it reads only the composition's charts and merged
declarations, and imports `SimulationError` and `out_of_range`, for the
message of a refused 64-bit write.

`oracle_check` enumerates the choice product with its own recursion and
scans every minute of `oracle_run` with inlined implication logic.
"""

from __future__ import annotations

from collections.abc import Iterator

from resweave import expr as ex
from resweave.model import Raise, is_tick_trigger
from resweave.sim import Composition, Scenario, SimulationError, out_of_range


def oracle_run(composition: Composition, scenario: Scenario, horizon: int) -> Iterator[tuple[dict, dict, tuple]]:
    """(active states, valuation, events raised) at the end of each minute 0..horizon of a resolved scenario.

    Minute 0 applies the declaration defaults, then the initial values and the
    injections at t=0, then each chart's initial entry, in chart order. From
    minute 1, the timer runs first, then the minute's injections apply, then
    every other chart takes its first enabled transition: one whose trigger is
    none, a tick, or an event raised earlier in the minute. The events are
    cleared at the end of the minute. A write of an integer outside 64 bits
    raises SimulationError. The dicts yielded are live: copy them to keep them.
    """
    charts = composition.charts
    leaving = {chart.name: {} for chart in charts}  # chart -> source state -> transitions in declaration order
    for chart in charts:
        for transition in chart.transitions:
            leaving[chart.name].setdefault(transition.source, []).append(transition)
    injections = {0: list(scenario.initial.items())}
    for injection in scenario.injections:
        injections.setdefault(injection.t, []).append((injection.var, injection.value))
    valuation = {decl.name: decl.initial for decl in composition.variables}
    active: dict[str, str] = {}
    raised: list[str] = []
    minute = 0

    def perform(chart, action, guard=ex.TRUE) -> None:
        if not ex.eval_expr(guard, valuation):
            return
        if isinstance(action, Raise):
            raised.append(action.event)
            return
        value = ex.eval_expr(action.value, valuation)
        if type(value) is int and not ex.INT_MIN <= value <= ex.INT_MAX:
            raise SimulationError(out_of_range(chart.name, minute, action.target))
        valuation[action.target] = value

    def cycle(chart) -> None:
        for transition in leaving[chart.name].get(active[chart.name], ()):
            trigger = transition.trigger
            if trigger is not None and not is_tick_trigger(trigger) and trigger not in raised:
                continue
            if not ex.eval_expr(transition.guard, valuation):
                continue
            for ga in chart.state(transition.source).exit_actions:
                perform(chart, ga.action, ga.guard)
            for action in transition.actions:
                perform(chart, action)
            for ga in chart.state(transition.target).entry_actions:
                perform(chart, ga.action, ga.guard)
            active[chart.name] = transition.target
            return

    valuation.update(injections[0])
    for chart in charts:
        active[chart.name] = chart.initial_state
        for ga in chart.state(chart.initial_state).entry_actions:
            perform(chart, ga.action, ga.guard)
    yield active, valuation, tuple(raised)
    raised.clear()
    timer = () if composition.timer is None else charts[:1]
    for minute in range(1, horizon + 1):
        for chart in timer:
            cycle(chart)
        valuation.update(injections.get(minute, ()))
        for chart in charts[len(timer):]:
            cycle(chart)
        yield active, valuation, tuple(raised)
        raised.clear()


def _resolutions(scenario: Scenario) -> list[Scenario]:
    out: list[Scenario] = []

    def descend(index: int, assignment: dict) -> None:
        if index == len(scenario.choices):
            out.append(scenario.resolve(dict(assignment)))
            return
        choice = scenario.choices[index]
        for value in choice.domain:
            assignment[choice.var] = value
            descend(index + 1, assignment)
        del assignment[choice.var]

    descend(0, {})
    return out


def oracle_check(
    composition: Composition,
    scenario: Scenario,
    properties,
    horizon: int,
) -> dict[str, tuple[bool, tuple[int, int] | None]]:
    """Map property name -> (holds, first (scenario_index, step_index) violation)."""
    results: dict[str, tuple[bool, tuple[int, int] | None]] = {
        prop.name: (True, None) for prop in properties
    }
    for scenario_index, resolved in enumerate(_resolutions(scenario)):
        for step_index, (active, valuation, _) in enumerate(oracle_run(composition, resolved, horizon)):
            for prop in properties:
                holds, first = results[prop.name]
                if not holds:
                    continue
                if prop.location is not None:
                    chart, state_name = prop.location
                    if active.get(chart) != state_name:
                        continue
                if not ex.eval_expr(prop.predicate, valuation):
                    results[prop.name] = (False, (scenario_index, step_index))
    return results
