"""Brute-force verdict oracle, independent of the checker's observation loop.

Where the checker watches live simulator states, this oracle enumerates the
choice product with its own recursion, records full traces, reconstructs the
valuation and active states per step from the trace deltas, and scans every
step with inlined implication logic. It runs every minute with its own
`macro_step` loop, so it shares no idle-minute skipping with `run` and
`check`. Only `macro_step` and the expression evaluator are shared.
"""

from __future__ import annotations

from resweave import expr as ex
from resweave.sim import Composition, Scenario, init_composition, macro_step, trace_of


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
        state = init_composition(composition, resolved)
        while state.curT < horizon:
            macro_step(state)
        trace = trace_of(state)
        valuation = dict(trace.initial_valuation)
        active = dict(trace.initial_active)
        for step_index, step in enumerate(trace.steps):
            if step_index > 0:
                valuation.update(step.deltas)
                for fire in step.fires:
                    active[fire.chart] = fire.target
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
