"""Bounded invariant checking over enumerated scenarios.

Property files are UTF-8 lines (`#` comments):

    P1: A[] Stroke.tPA imply systolicBP<=185 && diastolicBP<=110 && !hemorrhage
    P2: A[] Stroke.tPAcheck imply tpaT-onsetT<=180
    Q:  A[] curT>=0

With a `Chart.State imply` prefix the predicate is only required while that
state is active; without it the predicate must hold always. Properties are
observed at initialization and after every macro-step of every resolved
scenario, so for a given horizon the verdict is exact: each resolved
scenario is deterministic and explored in full.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import NamedTuple

from . import expr as ex
from .errors import ResweaveError
from .resources import CLOCK_VARIABLE, content_lines
from .sim import (
    Composition,
    Scenario,
    SimState,
    Trace,
    init_composition,
    macro_step,
    skip_idle,
    trace_of,
    validate_scenario,
)

DEFAULT_SCENARIO_CAP = 10_000
# The most scenario-minutes, scenarios × (horizon + 1), that one check or
# simulation may run: the default cap at the default horizon fits.
WORK_BUDGET = 10_000_000

_PROPERTY_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*:\s*A\[\]\s*(.*\S)\s*\Z")
_LOCATION_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)\s+imply\s+(.*\S)\s*\Z")


class PropertyError(ResweaveError):
    pass


class ScenarioCapError(ResweaveError):
    pass


class WorkBudgetError(ResweaveError):
    pass


class Invariant(NamedTuple):
    name: str
    location: tuple[str, str] | None  # (chart, state), or None for a bare predicate
    predicate: ex.Expr


class Counterexample(NamedTuple):
    scenario: Scenario  # resolved
    scenario_index: int  # position in enumeration order
    step_index: int  # index into trace.steps; equals the violating minute
    trace: Trace


class Verdict(NamedTuple):
    property: str
    holds: bool
    counterexample: Counterexample | None = None


def parse_properties(text: str, composition: Composition) -> list[Invariant]:
    """Parse invariant lines, resolving their charts, states and variables in the composition and type-checking them."""
    invariants: list[Invariant] = []
    names: set[str] = set()
    for lineno, line in content_lines(text):
        match = _PROPERTY_RE.match(line)
        if not match:
            raise PropertyError(f"line {lineno}: expected 'NAME: A[] [Chart.State imply] expr'")
        name, body = match.group(1), match.group(2)
        if name in names:
            raise PropertyError(f"line {lineno}: duplicate property name {name!r}")
        names.add(name)
        location = None
        location_match = _LOCATION_RE.match(body)
        if location_match:
            location = (location_match.group(1), location_match.group(2))
            body = location_match.group(3)
        try:
            predicate = ex.parse_expr(body)
        except ex.ExprSyntaxError as err:
            raise PropertyError(f"line {lineno}: {err}") from None
        invariant = Invariant(name, location, predicate)
        _check_invariant_names(invariant, composition, lineno)
        invariants.append(invariant)
    return invariants


def _check_invariant_names(invariant: Invariant, composition: Composition, lineno: int) -> None:
    if invariant.location is not None:
        chart_name, state_name = invariant.location
        chart = next((chart for chart in composition.charts if chart.name == chart_name), None)
        if chart is None:
            raise PropertyError(f"line {lineno}: unknown chart {chart_name!r}")
        try:
            chart.state(state_name)
        except KeyError:
            raise PropertyError(f"line {lineno}: unknown state {state_name!r} in chart {chart_name!r}") from None
    try:
        kind = ex.type_of(invariant.predicate, composition.kinds)
    except ex.ExprTypeError as err:
        raise PropertyError(f"line {lineno}: {err}") from None
    if kind != ex.KIND_BOOLEAN:
        raise PropertyError(f"line {lineno}: predicate must be boolean-typed")


def enumerate_scenarios(scenario: Scenario, cap: int = DEFAULT_SCENARIO_CAP,
                        horizon: int | None = None) -> list[Scenario]:
    """Cartesian product over choice domains, lexicographic by declaration.
    Before any scenario is built, a product above `cap` is refused, then,
    given a horizon, one over the work budget."""
    size = math.prod(len(choice.domain) for choice in scenario.choices)
    if size > cap:
        raise ScenarioCapError(
            f"choice product has {size} scenarios, above the cap of {cap}; "
            "reduce the choice domains or raise --scenario-cap"
        )
    if horizon is not None:
        check_work(size, horizon)
    names = [choice.var for choice in scenario.choices]
    domains = [choice.domain for choice in scenario.choices]
    return [scenario.resolve(dict(zip(names, values))) for values in itertools.product(*domains)]


def check_work(scenarios: int, horizon: int) -> None:
    """Refuse a run of more than WORK_BUDGET scenario-minutes."""
    work = scenarios * (horizon + 1)
    if work > WORK_BUDGET:
        raise WorkBudgetError(
            f"{scenarios} scenario(s) x {horizon + 1} minutes is above the work budget of "
            f"{WORK_BUDGET} scenario-minutes; lower the horizon or narrow the choices"
        )


def eval_invariant(invariant: Invariant, state: SimState) -> bool:
    """Implication at an observation point: inactive location or true predicate.

    The reference that `check`'s `observer` agrees with. The predicate is compiled
    against the state's composition, which type-checks it, when first evaluated.
    """
    _, location, predicate = invariant  # one unpacking: a record's field read costs twice a slot's
    if location is not None and state.active.get(location[0]) != location[1]:
        return True
    return bool(state.composition.compiled(predicate)(state.valuation))


def observer(properties, kinds):
    """One generated function of the active states and the valuation: the names of the `properties` that
    `eval_invariant` finds false, in order. A located predicate is evaluated only while its state is active."""
    lines = ["def observe(a, v):", "    failing = []"]
    for name, location, predicate in properties:
        where = "" if location is None else f"a.get({location[0]!r}) == {location[1]!r} and "
        lines.append(f"    if {where}not ({ex.python_source(predicate, kinds)}): failing.append({name!r})")
    exec("\n".join([*lines, "    return failing"]), namespace := {"__builtins__": {}})
    return namespace["observe"]


def check(
    composition: Composition,
    scenario: Scenario,
    properties,
    horizon: int,
    cap: int = DEFAULT_SCENARIO_CAP,
) -> list[Verdict]:
    """Verdict per property over every resolved scenario up to the horizon.

    A property holds iff its invariant is true at initialization and after
    every macro-step of every resolved scenario. The counterexample is the
    earliest violating step of the first violating scenario in enumeration
    order. Each scenario runs once; a violating one's recorded steps are its
    trace. One `observer` of the properties not yet failed, rebuilt when one
    fails, observes every minute. Idle minutes are recorded without being run
    (`sim.skip_idle`) up to the clock bound of every property, built once per
    call; a failed property in it can only end a skip earlier, which changes no record.
    """
    properties = list(properties)
    validate_scenario(scenario, composition)  # an empty choice domain would leave no scenario to check
    resolved_scenarios = enumerate_scenarios(scenario, cap, horizon)
    violations: dict[str, Counterexample] = {}
    watched = ex.compile_bound([p.predicate for p in properties], composition.kinds, CLOCK_VARIABLE)
    open_properties, observe = properties, observer(properties, composition.kinds)
    for scenario_index, resolved in enumerate(resolved_scenarios):
        if not open_properties:
            break
        state = init_composition(composition, resolved)
        pending: dict[str, int] = {}  # property -> violating step, first only
        while True:
            failing = observe(state.active, state.valuation)
            if failing:
                pending.update(dict.fromkeys(failing, len(state.steps) - 1))
                open_properties = [p for p in open_properties if p.name not in pending]
                observe = observer(open_properties, composition.kinds)
            skip_idle(state, horizon, watched)
            if len(state.steps) > horizon:
                break
            macro_step(state)
        if pending:
            trace = trace_of(state)
            for name, step_index in pending.items():
                violations[name] = Counterexample(resolved, scenario_index, step_index, trace)
    return [Verdict(p.name, p.name not in violations, violations.get(p.name)) for p in properties]
