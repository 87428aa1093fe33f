"""Deterministic discrete-time execution of parallel chart compositions.

One macro-step is one minute. Within a step the fixed order is: the timer
chart (advancing the shared clock), scenario injections due at the new
minute, every resource chart, then every guideline chart. Each chart fires
at most one transition per step, chosen by declaration order among enabled
ones; firing runs the source's exit actions, the transition's actions, then
the target's entry actions, re-entering on self-loops. Events raised earlier
in a step are visible to charts executed later and are cleared at the step
boundary.

Scenario documents are UTF-8 JSON:

    {"initial": {"onsetT": 0},
     "injections": [{"t": 20, "var": "orderCT", "value": true}],
     "choices": [{"var": "hemorrhage", "domain": [false, true]}],
     "horizon": 720}

A scenario must be fully resolved (no choices) before simulation; choice
enumeration lives in `check`.

Idle minutes are recorded without being run. A minute is idle when the
synthesized timer's fire is its only record and nothing was injected: only
`curT` changed. After one, `run` and `check` call `skip_idle`, which
appends the same record, with its own `curT`, for each following minute
and moves the clock on, so every record and every output byte is what
running each minute gives. It stops at the next injection, at the horizon,
and at the first minute at which an expression the idle minute evaluated
(or an invariant `check` still observes) may change value, solved from its
comparisons linear in `curT`; any other use of `curT` stops it at the next
minute. A composition whose timer is not `synthesize_timer()` runs every
minute. `macro_step` is the only code that runs a minute.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from . import expr as ex
from .errors import ResweaveError
from .model import Raise, StatechartModel, Transition, VariableDecl, is_tick_trigger
# perfbench/tracer.py wraps `sim.validate_model` by name, so the name stays importable here.
from .model import validate_model  # noqa: F401
from .resources import CLOCK_VARIABLE, synthesize_timer

class SimulationError(ResweaveError):
    pass


class ScenarioError(ResweaveError):
    pass


# ---------------------------------------------------------------------------
# Composition


class _StateCode(NamedTuple):
    """A state's expressions, compiled.

    Each action is a triple (guard, target, value): guard is None when the
    action is unconditional; target is None for raising the event `value`,
    else `value` is the compiled right-hand side assigned to it.
    """

    entry: tuple
    exit: tuple
    leaving: tuple  # (declaration index, trigger event or None, guard or None) per outgoing transition
    actions: dict  # declaration index -> the compiled actions of that outgoing transition


class _ChartIndex:
    """A chart's states and outgoing transitions by name, and each state's
    compiled expressions, built the first time the chart is in that state."""

    def __init__(self, chart: StatechartModel, compile):
        self.chart = chart
        # (declaration index, transition) per source state, in declaration order
        self.by_source: dict[str, list[tuple[int, Transition]]] = {}
        for index, transition in enumerate(chart.transitions):
            self.by_source.setdefault(transition.source, []).append((index, transition))
        self._compile = compile
        self._code: dict[str, _StateCode] = {}

    def code(self, name: str) -> _StateCode:
        code = self._code.get(name)
        if code is None:
            state, leaving = self.chart.state(name), self.by_source.get(name, ())
            code = self._code[name] = _StateCode(
                tuple(self._action(ga.action, ga.guard) for ga in state.entry_actions),
                tuple(self._action(ga.action, ga.guard) for ga in state.exit_actions),
                tuple(
                    (index, None if is_tick_trigger(t.trigger) else t.trigger, self._guard(t.guard))
                    for index, t in leaving
                ),
                {index: tuple(self._action(a, ex.TRUE) for a in t.actions) for index, t in leaving},
            )
        return code

    def _guard(self, guard: ex.Expr):
        return None if guard == ex.TRUE else self._compile(guard)

    def _action(self, action, guard: ex.Expr) -> tuple:
        if isinstance(action, Raise):
            return self._guard(guard), None, action.event
        return self._guard(guard), action.target, self._compile(action.value)


@dataclass(frozen=True)
class Composition:
    """Charts in execution order: timer, then resource charts, then guidelines.

    Checked and indexed once, when built: at least one chart, unique chart
    names, every chart valid (read from its kept `diagnostics`, so a chart
    `parse_model` returned is not validated again), and same-name
    declarations in agreement. An expression is compiled the first time it
    is evaluated, and its clock bound built the first time an idle minute
    needs it; both are kept.
    """

    timer: StatechartModel | None = None
    resources: tuple[StatechartModel, ...] = ()
    guidelines: tuple[StatechartModel, ...] = ()
    _variables: tuple[VariableDecl, ...] = field(init=False, repr=False, compare=False)
    kinds: dict[str, str] = field(init=False, repr=False, compare=False)  # variable -> kind
    indexes: dict[str, _ChartIndex] = field(init=False, repr=False, compare=False)
    _compiled: dict = field(init=False, repr=False, compare=False)  # id(expr) -> function
    # function -> its tree, which stays alive here, so its id is not reused
    _sources: dict = field(init=False, repr=False, compare=False)
    _bounds: dict = field(init=False, repr=False, compare=False)  # function -> clock bound or None
    # Whether idle minutes may be skipped: the timer is the synthesized clock.
    skips_idle: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "resources", tuple(self.resources))
        object.__setattr__(self, "guidelines", tuple(self.guidelines))
        if not self.charts:
            raise SimulationError("composition has no charts")
        counts = Counter(chart.name for chart in self.charts)
        dupes = sorted(name for name, count in counts.items() if count > 1)
        if dupes:
            raise SimulationError(f"duplicate chart names in composition: {dupes}")
        for chart in self.charts:
            if chart.diagnostics:
                raise SimulationError(f"chart {chart.name!r} is invalid: {chart.diagnostics[0]}")
        merged: dict[str, tuple[VariableDecl, str]] = {}
        for chart in self.charts:
            for decl in chart.variables:
                previous = merged.setdefault(decl.name, (decl, chart.name))
                if previous[0] != decl:
                    raise SimulationError(
                        f"variable {decl.name!r} declared as {previous[0].kind}="
                        f"{previous[0].initial!r} in chart {previous[1]!r} but as "
                        f"{decl.kind}={decl.initial!r} in chart {chart.name!r}"
                    )
        object.__setattr__(self, "_variables", tuple(decl for decl, _ in merged.values()))
        object.__setattr__(self, "kinds", {decl.name: decl.kind for decl in self._variables})
        object.__setattr__(self, "_compiled", {})
        object.__setattr__(self, "_sources", {})
        object.__setattr__(self, "_bounds", {})
        object.__setattr__(self, "skips_idle", self.timer == synthesize_timer())
        object.__setattr__(
            self, "indexes", {chart.name: _ChartIndex(chart, self.compiled) for chart in self.charts}
        )

    @property
    def charts(self) -> tuple[StatechartModel, ...]:
        head = (self.timer,) if self.timer is not None else ()
        return head + self.resources + self.guidelines

    def merged_variables(self) -> tuple[VariableDecl, ...]:
        """Union of chart declarations, in first-declaration order."""
        return self._variables

    def compiled(self, expr: ex.Expr):
        """`expr` as a function of the valuation (`ex.compile_expr` against the
        merged declarations), compiled on the first call for this tree."""
        function = self._compiled.get(id(expr))
        if function is None:
            function = self._compiled[id(expr)] = ex.compile_expr(expr, self.kinds)
            self._sources[function] = expr
        return function

    def bound(self, function):
        """`ex.compile_bound` over the clock of the tree that `function` was
        compiled from by `compiled`, built on the first call for it."""
        if function not in self._bounds:
            self._bounds[function] = ex.compile_bound(self._sources[function], self.kinds, CLOCK_VARIABLE)
        return self._bounds[function]

    def merged_events(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for chart in self.charts:
            for event in chart.events:
                seen.setdefault(event, None)
        return tuple(seen)


# ---------------------------------------------------------------------------
# Scenarios


@dataclass(frozen=True)
class Injection:
    t: int
    var: str
    value: int | bool


@dataclass(frozen=True)
class Choice:
    var: str
    domain: tuple[int | bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))


@dataclass(frozen=True)
class Scenario:
    initial: dict[str, int | bool] = field(default_factory=dict)
    injections: tuple[Injection, ...] = ()
    choices: tuple[Choice, ...] = ()
    horizon: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "initial", dict(self.initial))
        object.__setattr__(self, "injections", tuple(self.injections))
        object.__setattr__(self, "choices", tuple(self.choices))

    @property
    def resolved(self) -> bool:
        return not self.choices

    def resolve(self, assignment: dict[str, int | bool]) -> "Scenario":
        """Fold a choice assignment into the initial values."""
        missing = [c.var for c in self.choices if c.var not in assignment]
        if missing:
            raise ScenarioError(f"unresolved choice variables: {missing}")
        unknown = sorted(set(assignment) - {c.var for c in self.choices})
        if unknown:
            raise ScenarioError(f"not choice variables of this scenario: {unknown}")
        initial = dict(self.initial)
        for choice in self.choices:
            initial[choice.var] = assignment[choice.var]
        return replace(self, initial=initial, choices=())


def parse_scenario(text: str) -> Scenario:
    try:
        root = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{err.msg} (line {err.lineno}, column {err.colno})") from None
    except RecursionError:
        raise ScenarioError("JSON nested too deeply") from None
    if not isinstance(root, dict):
        raise ScenarioError("scenario document must be a JSON object")
    known = {"initial", "injections", "choices", "horizon"}
    for key in root:
        if key not in known:
            raise ScenarioError(f"unknown scenario key {key!r}")
    initial = root.get("initial", {})
    if not isinstance(initial, dict) or not all(_is_literal(v) for v in initial.values()):
        raise ScenarioError("'initial' must map variables to int/bool literals")
    injections = []
    for i, obj in enumerate(_as_list(root.get("injections", []), "injections")):
        if (
            not isinstance(obj, dict)
            or not isinstance(obj.get("t"), int)
            or isinstance(obj.get("t"), bool)
            or not isinstance(obj.get("var"), str)
            or not _is_literal(obj.get("value"))
        ):
            raise ScenarioError(f"injections[{i}] must be {{'t': minutes, 'var': name, 'value': literal}}")
        injections.append(Injection(obj["t"], obj["var"], obj["value"]))
    choices = []
    for i, obj in enumerate(_as_list(root.get("choices", []), "choices")):
        if (
            not isinstance(obj, dict)
            or not isinstance(obj.get("var"), str)
            or not isinstance(obj.get("domain"), list)
            or not obj["domain"]
            or not all(_is_literal(v) for v in obj["domain"])
        ):
            raise ScenarioError(f"choices[{i}] must be {{'var': name, 'domain': [literals]}}")
        choices.append(Choice(obj["var"], tuple(obj["domain"])))
    horizon = root.get("horizon")
    if horizon is not None and (isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 0):
        raise ScenarioError("'horizon' must be a nonnegative integer")
    return Scenario(dict(initial), tuple(injections), tuple(choices), horizon)


def serialize_scenario(scenario: Scenario) -> str:
    root: dict = {"initial": dict(scenario.initial)}
    if scenario.injections:
        root["injections"] = [{"t": i.t, "var": i.var, "value": i.value} for i in scenario.injections]
    if scenario.choices:
        root["choices"] = [{"var": c.var, "domain": list(c.domain)} for c in scenario.choices]
    if scenario.horizon is not None:
        root["horizon"] = scenario.horizon
    return json.dumps(root, indent=2, sort_keys=True) + "\n"


def _as_list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise ScenarioError(f"'{what}' must be a list")
    return obj


def _is_literal(value) -> bool:
    return isinstance(value, bool) or (isinstance(value, int) and ex.INT_MIN <= value <= ex.INT_MAX)


def validate_scenario(scenario: Scenario, composition: Composition) -> None:
    """Check every referenced variable is declared with a matching kind, and
    every value is a boolean or a 64-bit integer."""
    kinds = composition.kinds

    def check(var: str, value, where: str) -> None:
        kind = kinds.get(var)
        if kind is None:
            raise ScenarioError(f"{where} references undeclared variable {var!r}")
        if not _is_literal(value):
            raise ScenarioError(f"{where}: value {value!r} of {var!r} is not a boolean or a 64-bit integer")
        is_bool = isinstance(value, bool)
        if (kind == ex.KIND_BOOLEAN) != is_bool:
            raise ScenarioError(f"{where}: value {value!r} does not match {kind} variable {var!r}")

    for var, value in scenario.initial.items():
        check(var, value, "initial")
    for injection in scenario.injections:
        if injection.t < 0 or (scenario.horizon is not None and injection.t > scenario.horizon):
            raise ScenarioError(f"injection time {injection.t} outside [0, horizon]")
        check(injection.var, injection.value, f"injection at t={injection.t}")
    for choice in scenario.choices:
        if not choice.domain:
            raise ScenarioError(f"choice {choice.var!r} has an empty domain")
        for value in choice.domain:
            check(choice.var, value, f"choice {choice.var!r}")


# ---------------------------------------------------------------------------
# Traces


class FireRecord(NamedTuple):
    """One chart's activity in a step: a fired transition or an initial entry."""

    chart: str
    source: str | None  # None for the initial-state entry at t=0
    target: str
    index: int | None  # transition declaration index; None at t=0
    sets: tuple[tuple[str, int | bool], ...]  # value-changing writes, in order
    raised: tuple[str, ...]


class StepReport(NamedTuple):
    t: int
    injected: tuple[tuple[str, int | bool], ...]
    fires: tuple[FireRecord, ...]  # no self-loop that set nothing and raised nothing
    raised: tuple[str, ...]
    deltas: dict[str, int | bool]  # net value changes across the step


@dataclass(frozen=True)
class Trace:
    initial_active: dict[str, str]
    initial_valuation: dict[str, int | bool]
    steps: tuple[StepReport, ...]  # steps[0] is the initialization report (t=0)


def trace_to_dict(trace: Trace) -> dict:
    """The JSON object of a trace, as `trace_to_json` writes it."""
    return {
        "initial_active": trace.initial_active,
        "initial_valuation": trace.initial_valuation,
        "steps": [
            {
                "t": step.t,
                "injected": [[var, value] for var, value in step.injected],
                "fires": [
                    {
                        "chart": fire.chart,
                        "source": fire.source,
                        "target": fire.target,
                        "index": fire.index,
                        "sets": [[var, value] for var, value in fire.sets],
                        "raised": list(fire.raised),
                    }
                    for fire in step.fires
                ],
                "raised": list(step.raised),
                "deltas": step.deltas,
            }
            for step in trace.steps
        ],
    }


def trace_to_json(trace: Trace) -> str:
    return json.dumps(trace_to_dict(trace), indent=2, sort_keys=True) + "\n"


def value_text(value: int | bool) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def trace_lines(trace: Trace) -> list[str]:
    """Human-readable step log, one line per injection or chart activity.

    Initial entries that change nothing are omitted; the JSON trace keeps
    them, because `trace_of` rebuilds the initial states from them.
    """
    lines = []
    for step in trace.steps:
        for var, value in step.injected:
            lines.append(f"t={step.t} inject {var}={value_text(value)}")
        for fire in step.fires:
            if fire.source is None:
                head = f"t={step.t} chart={fire.chart} init={fire.target}"
                if not fire.sets and not fire.raised:
                    continue
            else:
                head = f"t={step.t} chart={fire.chart} fire={fire.source}->{fire.target}"
            parts = [head]
            parts.extend(f"set {var}={value_text(value)}" for var, value in fire.sets)
            parts.extend(f"raise {event}" for event in fire.raised)
            lines.append(" ".join(parts))
    return lines


# ---------------------------------------------------------------------------
# Execution


@dataclass
class SimState:
    """Mutable execution context; confine to one thread at a time."""

    composition: Composition
    active: dict[str, str]
    valuation: dict[str, int | bool]
    pending_events: list[str]
    steps: list[StepReport]  # steps[t] is the report of minute t; steps[0] is initialization
    injections_by_time: dict[int, list[Injection]]
    minutes_skipped: int = 0  # minutes recorded by `skip_idle` without being run

    @property
    def curT(self) -> int:
        """The last minute executed."""
        return len(self.steps) - 1


def _run_actions(state: SimState, chart: str, actions: tuple, sets: list) -> None:
    """Run compiled actions (see `_StateCode`) of `chart`; value-changing writes go to `sets`.

    A write that changes an integer to a value outside 64 bits raises SimulationError.
    """
    valuation = state.valuation
    for guard, target, value in actions:
        if guard is not None and not guard(valuation):
            continue
        if target is None:
            state.pending_events.append(value)
            continue
        new = value(valuation)
        if valuation[target] != new:
            if type(new) is int and not ex.INT_MIN <= new <= ex.INT_MAX:
                raise SimulationError(
                    f"chart {chart!r} at minute {state.curT + 1}: {target!r} would be set to a value "
                    "outside the 64-bit range"
                )
            sets.append((target, new))
            valuation[target] = new


def _fire(state: SimState, charts: _ChartIndex, index: int | None, fires: list) -> None:
    """Fire the transition declared at `index`, or enter the initial state when it is None.

    The fire is recorded in `fires` unless it is a self-loop that set
    nothing and raised nothing.
    """
    chart = charts.chart
    sets: list[tuple[str, int | bool]] = []
    mark = len(state.pending_events)
    if index is None:
        source, target = None, chart.initial_state
    else:
        transition = chart.transitions[index]
        source, target = transition.source, transition.target
        code = charts.code(source)
        _run_actions(state, chart.name, code.exit, sets)
        _run_actions(state, chart.name, code.actions[index], sets)
    state.active[chart.name] = target
    _run_actions(state, chart.name, charts.code(target).entry, sets)
    if source != target or sets or len(state.pending_events) > mark:
        fires.append(FireRecord(chart.name, source, target, index, tuple(sets), tuple(state.pending_events[mark:])))


def _chart_cycle(state: SimState, chart: StatechartModel, fires: list, chosen: dict[str, int] | None) -> None:
    charts = state.composition.indexes[chart.name]
    if chosen is None:
        valuation = state.valuation
        for index, event, guard in charts.code(state.active[chart.name]).leaving:
            if (event is None or event in state.pending_events) and (guard is None or guard(valuation)):
                _fire(state, charts, index, fires)
                return
    elif chart.name in chosen:
        _fire(state, charts, chosen[chart.name], fires)


def _inject(state: SimState, t: int, injected: list) -> None:
    for injection in state.injections_by_time.get(t, ()):
        injected.append((injection.var, injection.value))
        state.valuation[injection.var] = injection.value


def _report(state: SimState, t: int, injected: list, fires: list, before: dict) -> StepReport:
    """Record minute `t`: net value changes since `before`; events are cleared."""
    deltas = {var: value for var, value in state.valuation.items() if before.get(var) != value}
    report = StepReport(t, tuple(injected), tuple(fires), tuple(state.pending_events), deltas)
    state.steps.append(report)
    state.pending_events.clear()
    return report


def init_composition(composition: Composition, scenario: Scenario) -> SimState:
    """Build the t=0 state: defaults, then scenario values, then initial entries.

    The scenario must be fully resolved. Injections scheduled at t=0 are
    applied after the initial values, before any entry action runs.
    """
    if not scenario.resolved:
        raise ScenarioError(
            f"scenario has unresolved choices: {[c.var for c in scenario.choices]}"
        )
    validate_scenario(scenario, composition)

    # Initial values are applied as the first injections at t=0.
    injections_by_time = {0: [Injection(0, var, value) for var, value in scenario.initial.items()]}
    for injection in scenario.injections:
        injections_by_time.setdefault(injection.t, []).append(injection)
    state = SimState(
        composition=composition,
        active={},
        valuation={decl.name: decl.initial for decl in composition.merged_variables()},
        pending_events=[],
        steps=[],
        injections_by_time=injections_by_time,
    )
    # Baseline for init deltas is the declaration defaults.
    before = dict(state.valuation)
    injected: list[tuple[str, int | bool]] = []
    fires: list[FireRecord] = []
    _inject(state, 0, injected)
    for charts in composition.indexes.values():
        _fire(state, charts, None, fires)
    _report(state, 0, injected, fires, before)
    return state


def macro_step(state: SimState, chosen: dict[str, int] | None = None) -> StepReport:
    """Advance one minute; see the module docstring for the in-step order.

    By default each chart fires its first enabled transition. `chosen` maps
    chart names to the declaration index to fire instead, without evaluating
    triggers or guards; charts it does not name stay where they are.
    """
    t = state.curT + 1
    before = dict(state.valuation)
    injected: list[tuple[str, int | bool]] = []
    fires: list[FireRecord] = []
    composition = state.composition
    if composition.timer is not None:
        _chart_cycle(state, composition.timer, fires, chosen)
    _inject(state, t, injected)
    for chart in composition.resources:
        _chart_cycle(state, chart, fires, chosen)
    for chart in composition.guidelines:
        _chart_cycle(state, chart, fires, chosen)
    return _report(state, t, injected, fires, before)


def skip_idle(state: SimState, horizon: int, watched: tuple[ex.Expr, ...] = ()) -> None:
    """After an idle minute (see the module docstring), record the idle
    minutes that follow it without running them.

    The skip ends before the next injection, after the horizon, or at the
    first minute at which one of these may change value (`Composition.bound`):
    the event-free leaving guards of each active state up to the first one
    enabled, the guards and right-hand sides run by that transition, and
    `watched` (the invariants a check still observes).
    """
    report = state.steps[-1]
    composition = state.composition
    if not report.t or report.injected or len(report.fires) != 1 or not composition.skips_idle:
        return
    t, valuation = report.t, state.valuation
    now = valuation[CLOCK_VARIABLE]
    stop = min([horizon + 1, *(due for due in state.injections_by_time if due > t)])  # the first minute that must run
    for bound in _idle_bounds(state, watched):
        if stop <= t + 1:
            return
        if bound is not None:
            stop = min(stop, t + bound(valuation) - now)
    chart, source, target, index = report.fires[0][:4]
    for minute in range(t + 1, stop):
        clock = now + minute - t
        fire = FireRecord(chart, source, target, index, ((CLOCK_VARIABLE, clock),), ())
        state.steps.append(StepReport(minute, (), (fire,), (), {CLOCK_VARIABLE: clock}))
    if stop > t + 1:
        valuation[CLOCK_VARIABLE] = now + stop - 1 - t
        state.minutes_skipped += stop - 1 - t


def _idle_bounds(state: SimState, watched: tuple[ex.Expr, ...]):
    """The clock bounds of what an idle minute in `state` evaluates, and of `watched`."""
    composition, valuation = state.composition, state.valuation
    bound = composition.bound
    for expr in watched:
        yield bound(composition.compiled(expr))
    for chart in composition.guidelines + composition.resources:
        charts = composition.indexes[chart.name]
        code = charts.code(state.active[chart.name])
        for index, event, guard in code.leaving:
            if event is not None:  # no event is pending in an idle minute
                continue
            if guard is not None:
                yield bound(guard)
                if not guard(valuation):
                    continue
            entry = charts.code(chart.transitions[index].target).entry
            for action_guard, target, value in (*code.exit, *code.actions[index], *entry):
                if action_guard is not None:
                    yield bound(action_guard)
                    if not action_guard(valuation):
                        continue
                if target is not None:
                    yield bound(value)
            break


def trace_of(state: SimState) -> Trace:
    """Every step recorded since t=0, with the t=0 active states and valuation.

    Both are rebuilt from the initialization report: it holds one entry per
    chart, and its deltas are the changes from the declaration defaults.
    """
    init = state.steps[0]
    valuation = {decl.name: decl.initial for decl in state.composition.merged_variables()}
    valuation.update(init.deltas)
    return Trace({fire.chart: fire.target for fire in init.fires}, valuation, tuple(state.steps))


def run(state: SimState, horizon: int) -> Trace:
    """Execute macro-steps up to the horizon, skipping idle minutes; the trace starts at t=0."""
    while state.curT < horizon:
        macro_step(state)
        skip_idle(state, horizon)
    return trace_of(state)


def replay_trace(composition: Composition, trace: Trace) -> Trace:
    """Re-execute a trace's recorded fires and injections, without guard checks.

    Transition enablement is not re-evaluated; the recorded declaration
    indexes select what to fire. Returns the reproduced trace for comparison
    against the original.
    """
    if not trace.steps:
        raise SimulationError("trace has no initialization step")
    injections = [Injection(step.t, var, value) for step in trace.steps for var, value in step.injected]
    state = init_composition(composition, Scenario(injections=injections))
    for step in trace.steps[1:]:
        macro_step(state, {fire.chart: fire.index for fire in step.fires})
    return trace_of(state)
