"""Deterministic discrete-time execution of parallel chart compositions.

One macro-step is one minute. Within a step the fixed order is: the clock's
tick, scenario injections due at the new minute, every resource chart, then
every guideline chart. Each chart fires at most one transition per step,
the first enabled one in declaration order; a fire runs `model.fire_actions`
(exit, transition, then entry actions, re-entering on self-loops). Minute 0
is a minute like any other: before it a chart is in no state, None, whose
one leaving transition is its initial entry (trigger-free, unguarded, index
None), and its injections, the scenario's initial values first, precede
every chart's entry. Events raised earlier in a step are visible to charts
executed later and are cleared at the step boundary. A step's `deltas` come
from the old value of each variable at its first write or injection in the
minute. `trace_to_json` writes a trace's records through `model.write_json`.

Scenario documents are UTF-8 JSON:

    {"initial": {"onsetT": 0},
     "injections": [{"t": 20, "var": "orderCT", "value": true}],
     "choices": [{"var": "hemorrhage", "domain": [false, true]}],
     "horizon": 720}

A scenario must be fully resolved (no choices) before simulation; choice
enumeration lives in `check`.

A chart sleeps between changes. When its cycle records nothing (no
transition was enabled, or a self-loop set nothing and raised nothing),
`macro_step` skips it until the first minute at which its state's clock
bound allows a change, a variable its cycle reads or writes is injected or
written by a chart other than the timer (in the same minute when the writer
runs before it, else in the next), or an event one of its leaving
transitions waits on is raised before it in the minute. The bound covers
its event-free leaving guards and the actions of its event-free self-loops.
It is solved from their comparisons linear in `curT`; any other use of
`curT` wakes the chart the next minute. A minute is idle when the
synthesized timer's fire is its only record and nothing was injected. After
one, `run` and `check` call `skip_idle`, which appends the same record,
with its own `curT`, for each minute up to the first wake, the next
injection, the horizon, the clock's leaving 64 bits or the clock bound of
the properties `check` observes, and moves the clock on. So every record
and every output byte is what running each chart every minute gives. The
timer, `synthesize_timer()` or none, ticks inside `macro_step`; without one
no minute is skipped. `macro_step` is the only code that runs a minute;
`replay_trace` runs a trace's injections again, and never reads its fires.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import NamedTuple

from . import expr as ex
from .errors import ResweaveError
from .model import GuardedAction, ModelFormatError, Raise, StatechartModel, Transition, VariableDecl
from .model import expect, expect_object, fire_actions, is_tick_trigger, read_json, write_json
# perfbench/tracer.py wraps `sim.validate_model` by name, so the name stays importable here.
from .model import validate_model  # noqa: F401
from .resources import CLOCK_VARIABLE, synthesize_timer

class SimulationError(ResweaveError):
    pass


class ScenarioError(ResweaveError):
    pass


# ---------------------------------------------------------------------------
# Composition


class _ChartIndex:
    """A chart's runtime: its outgoing transitions by source state, and three methods that build
    their result on the first call and keep it: a state's `leaving`, the first time the chart is in
    it; a transition's `fire`, the first time it runs; and a state's `idle` clock bound and wait set,
    the first time the chart falls asleep in it. `leaving(None)`, before minute 0, is the initial
    entry alone, whose `fire(None)` is built on each call, and not kept."""

    def __init__(self, chart: StatechartModel, composition: Composition):
        self.chart = chart
        # (declaration index, transition) per source state, in declaration order
        self.by_source: dict[str, list[tuple[int, Transition]]] = {}
        for index, transition in enumerate(chart.transitions):
            self.by_source.setdefault(transition.source, []).append((index, transition))
        self._composition = composition
        # Plain dicts add no GC-tracked object until filled; a `functools.cache` wrapper adds seven.
        self._leaving: dict[str | None, tuple] = {None: ((None, None, None),)}
        self._fires: dict[int, tuple] = {}
        self._idle: dict[str, tuple] = {}

    def leaving(self, name: str | None) -> tuple:
        """(declaration index, trigger event or None, compiled guard or None) per outgoing transition of `name`."""
        if name not in self._leaving:
            self._leaving[name] = tuple(
                (index, None if is_tick_trigger(t.trigger) else t.trigger,
                 None if t.guard == ex.TRUE else self._composition.compiled(t.guard))
                for index, t in self.by_source.get(name, ())
            )
        return self._leaving[name]

    def fire(self, index: int | None) -> tuple:
        """(source, target, actions) of the transition declared at `index`, its `model.fire_actions`
        compiled; for None, (None, the initial state, its entry actions evaluated by `ex.eval_expr`, as
        they run once per scenario). An action is a triple (guard or None if unconditional, target,
        value): it raises the event `value` if target is None, else sets target to `value(valuation)`."""
        chart = self.chart
        if index is None:  # built on each call: it runs once per scenario, and kept it would hold GC-tracked partials
            function = functools.partial(functools.partial, ex.eval_expr)  # a tree -> partial(ex.eval_expr, tree)
            actions = chart.state(chart.initial_state).entry_actions
            return None, chart.initial_state, tuple(self._action(ga, function) for ga in actions)
        if index not in self._fires:
            transition = chart.transitions[index]
            actions = tuple(self._action(ga, self._composition.compiled) for ga in fire_actions(chart, transition))
            self._fires[index] = transition.source, transition.target, actions
        return self._fires[index]

    def idle(self, name: str) -> tuple:
        """(clock bound, wait set) of a cycle in state `name` that records nothing (see the module
        docstring): `ex.compile_bound` over the clock, and the variables, of the trees it may evaluate
        (its event-free leaving guards, and the `fire_actions` of its event-free self-loops, with each
        variable they write as an `ex.Var`), and the events its leaving transitions wait on."""
        if name not in self._idle:
            trees, events = [], set()
            for index, event, _ in self.leaving(name):
                transition = self.chart.transitions[index]
                if event is not None:
                    events.add(event)
                    continue
                trees.append(transition.guard)
                if transition.target == name:
                    for ga in fire_actions(self.chart, transition):
                        action = ga.action
                        trees += (ga.guard,) if isinstance(action, Raise) else (ga.guard, action.value, ex.Var(action.target))
            bound = ex.compile_bound(trees, self._composition.kinds, CLOCK_VARIABLE)
            self._idle[name] = bound, frozenset(events.union(*map(ex.variables, trees)))
        return self._idle[name]

    @staticmethod
    def _action(ga: GuardedAction, function) -> tuple:
        guard = None if ga.guard == ex.TRUE else function(ga.guard)
        if isinstance(ga.action, Raise):
            return guard, None, ga.action.event
        return guard, ga.action.target, function(ga.action.value)


class Composition:
    """Charts in execution order: timer, then resource charts, then guidelines.

    Checked and indexed once, when built: no timer but `synthesize_timer()`,
    at least one chart, unique chart names, every chart valid (read from its
    kept `diagnostics`, so a chart `parse_model` returned is not validated
    again), and same-name declarations in agreement; one `_ChartIndex` per
    chart, in `runtimes` in execution order. An expression is compiled the
    first time it is evaluated, and kept; an initial entry's is not compiled.
    """

    def __init__(self, timer: StatechartModel | None = None, resources=(), guidelines=()):
        if timer is not None and timer != synthesize_timer():
            raise SimulationError(f"timer chart {timer.name!r} is not the synthesized timer")
        self.timer, self.resources, self.guidelines = timer, tuple(resources), tuple(guidelines)
        self.charts = (() if timer is None else (timer,)) + self.resources + self.guidelines
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
        # the union of chart declarations, in first-declaration order
        self.variables = tuple(decl for decl, _ in merged.values())
        self.kinds = {decl.name: decl.kind for decl in self.variables}
        # id(expr) -> (expr, function): the tree stays alive here, so its id is not reused
        self._compiled = {}
        self.runtimes = tuple(_ChartIndex(chart, self) for chart in self.charts)

    def compiled(self, expr: ex.Expr):
        """`expr` as a function of the valuation (`ex.compile_expr` against the
        merged declarations), compiled on the first call for this tree."""
        entry = self._compiled.get(id(expr))
        if entry is None:
            entry = self._compiled[id(expr)] = (expr, ex.compile_expr(expr, self.kinds))
        return entry[1]


# ---------------------------------------------------------------------------
# Scenarios


class Injection(NamedTuple):
    t: int
    var: str
    value: int | bool


class Choice(NamedTuple):
    var: str
    domain: tuple[int | bool, ...]


class _Scenario(NamedTuple):
    initial: dict[str, int | bool]
    injections: tuple[Injection, ...]
    choices: tuple[Choice, ...]
    horizon: int | None


class Scenario(_Scenario):
    __slots__ = ()

    def __new__(cls, initial=None, injections=(), choices=(), horizon=None):
        # Each scenario built without initial values gets a dict of its own; a default would be one shared dict.
        return super().__new__(cls, {} if initial is None else initial, injections, choices, horizon)

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
        return self._replace(initial=initial, choices=())


def parse_scenario(text: str) -> Scenario:
    """The scenario of a document. Only its shape is checked here; `validate_scenario` checks its values."""
    root = expect_object(read_json(text), {"initial", "injections", "choices", "horizon"}, "$")
    initial = expect(root.get("initial", {}), dict, "initial", "an object")
    injections = []
    for i, obj in enumerate(expect(root.get("injections", []), list, "injections", "a list")):
        expect_object(obj, {"t", "var", "value"}, f"injections[{i}]", (("t", int, "an integer"), ("var", str, "a string")))
        injections.append(Injection(obj["t"], obj["var"], obj.get("value")))
    choices = []
    for i, obj in enumerate(expect(root.get("choices", []), list, "choices", "a list")):
        expect_object(obj, {"var", "domain"}, f"choices[{i}]", (("var", str, "a string"), ("domain", list, "a list")))
        choices.append(Choice(obj["var"], tuple(obj["domain"])))
    horizon = root.get("horizon")
    if horizon is not None and expect(horizon, int, "horizon", "an integer") < 0:
        raise ModelFormatError(f"horizon: expected a nonnegative integer, found {horizon}")
    return Scenario(initial, tuple(injections), tuple(choices), horizon)


def scenario_to_dict(scenario: Scenario) -> dict:
    """The JSON object of a scenario: its fields, each record an object;
    `injections`, `choices` and `horizon` only when set."""
    records = {name: tuple(r._asdict() for r in getattr(scenario, name)) for name in ("injections", "choices")}
    fields = {**scenario._asdict(), **records}.items()
    return {name: value for name, value in fields if name == "initial" or value not in ((), None)}


def _is_literal(value) -> bool:
    return isinstance(value, bool) or (isinstance(value, int) and ex.INT_MIN <= value <= ex.INT_MAX)


def validate_scenario(scenario: Scenario, composition: Composition) -> None:
    """Check every referenced variable is declared with a matching kind,
    every value is a boolean or a 64-bit integer, no choice variable is
    declared twice or also set in `initial`, and no domain lists a value twice."""
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
    twice = [var for var, count in Counter(c.var for c in scenario.choices).items() if count > 1]
    if twice:
        raise ScenarioError(f"choice {twice[0]!r} is declared more than once")
    for choice in scenario.choices:
        if choice.var in scenario.initial:
            raise ScenarioError(f"choice {choice.var!r} is also set in initial")
        if not choice.domain:
            raise ScenarioError(f"choice {choice.var!r} has an empty domain")
        for i, value in enumerate(choice.domain):
            check(choice.var, value, f"choice {choice.var!r}")
            if value in choice.domain[:i]:
                raise ScenarioError(f"choice {choice.var!r} lists {value_text(value)} more than once")


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


class Trace(NamedTuple):
    initial_active: dict[str, str]
    initial_valuation: dict[str, int | bool]
    steps: tuple[StepReport, ...]  # steps[0] is the initialization report (t=0)


def trace_to_json(trace: Trace) -> str:
    """The trace document: the trace and each record in it an object of its fields, keys sorted."""
    return write_json(trace, sort_keys=True) + "\n"


def trace_from_dict(obj: dict) -> Trace:
    """The trace of a JSON object that `trace_to_json` wrote, each record
    rebuilt from its fields: `trace_from_dict(json.loads(trace_to_json(t))) == t`."""
    steps = tuple(
        _record(StepReport, {**step, "fires": tuple(_record(FireRecord, fire) for fire in step["fires"])})
        for step in obj["steps"]
    )
    return Trace(obj["initial_active"], obj["initial_valuation"], steps)


def _record(cls, fields: dict):
    """A `cls` of the named fields of a JSON object, each list in them read back as a tuple."""
    return cls(*(_tuples(fields[name]) for name in cls._fields))


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


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


class SimState:
    """Mutable execution context for one thread at a time, slotted because `macro_step` reads it every minute."""

    __slots__ = ("composition", "active", "valuation", "pending_events", "steps", "injections_by_time",
                 "minutes_skipped", "before", "wake", "waiting")

    def __init__(self, composition: Composition, active: dict[str, str], valuation: dict[str, int | bool],
                 pending_events: list[str], steps: list[StepReport], injections_by_time: dict[int, list[Injection]]):
        self.composition, self.active, self.valuation = composition, active, valuation
        self.pending_events, self.injections_by_time = pending_events, injections_by_time
        self.steps = steps  # steps[t] is the report of minute t; steps[0] is initialization
        self.minutes_skipped = 0  # minutes recorded by `skip_idle` without being run
        self.before: dict[str, int | bool] = {}  # old value per variable the last minute wrote
        self.wake: list[int | float] = [0] * len(composition.runtimes)  # per runtime, the first minute it runs again
        self.waiting: dict[str, set[int]] = {}  # name -> positions of runtimes that slept on it

    @property
    def curT(self) -> int:
        """The last minute executed."""
        return len(self.steps) - 1


def out_of_range(chart: str, minute: int, target: str) -> str:
    """Why a write of an integer outside 64 bits to `target` is refused."""
    return f"chart {chart!r} at minute {minute}: {target!r} would be set to a value outside the 64-bit range"


def _fire(state: SimState, runtime: _ChartIndex, index: int | None, fires: list) -> None:
    """Fire the transition declared at `index`, or enter the initial state when it is None, running
    the actions of `runtime.fire(index)` in order.

    A write that changes an integer to a value outside 64 bits raises SimulationError. The fire
    is recorded in `fires` unless it is a self-loop that set nothing and raised nothing.
    """
    name = runtime.chart.name
    source, target, actions = runtime.fire(index)
    valuation, events = state.valuation, state.pending_events
    sets: list[tuple[str, int | bool]] = []
    mark = len(events)
    for guard, variable, value in actions:
        if guard is not None and not guard(valuation):
            continue
        if variable is None:
            events.append(value)
            continue
        new = value(valuation)
        if valuation[variable] != new:
            if type(new) is int and not ex.INT_MIN <= new <= ex.INT_MAX:
                raise SimulationError(out_of_range(name, state.curT + 1, variable))
            sets.append((variable, new))
            state.before.setdefault(variable, valuation[variable])
            valuation[variable] = new
    state.active[name] = target
    if source != target or sets or len(events) > mark:
        fires.append(FireRecord(name, source, target, index, tuple(sets), tuple(events[mark:])))


def _chart_cycle(state: SimState, runtime: _ChartIndex, fires: list) -> None:
    valuation = state.valuation
    for index, event, guard in runtime.leaving(state.active[runtime.chart.name]):
        if (event is None or event in state.pending_events) and (guard is None or guard(valuation)):
            _fire(state, runtime, index, fires)
            return


def init_composition(composition: Composition, scenario: Scenario) -> SimState:
    """The state after minute 0, which `macro_step` runs from no state of any chart: the declaration
    defaults, then the scenario's initial values and its injections at t=0, then each chart's initial entry.

    The scenario must be fully resolved.
    """
    if not scenario.resolved:
        raise ScenarioError(f"scenario has unresolved choices: {[c.var for c in scenario.choices]}")
    validate_scenario(scenario, composition)

    # Initial values are applied as the first injections at t=0.
    injections_by_time = {0: [Injection(0, var, value) for var, value in scenario.initial.items()]}
    for injection in scenario.injections:
        injections_by_time.setdefault(injection.t, []).append(injection)
    state = SimState(
        composition=composition,
        active=dict.fromkeys(chart.name for chart in composition.charts),
        valuation={decl.name: decl.initial for decl in composition.variables},
        pending_events=[],
        steps=[],
        injections_by_time=injections_by_time,
    )
    macro_step(state)
    return state


def macro_step(state: SimState) -> StepReport:
    """Run the next minute and record it; see the module docstring for the in-step order.
    Each chart fires its first enabled transition; a chart asleep (see the module docstring) is not run."""
    steps, valuation, events = state.steps, state.valuation, state.pending_events
    t = len(steps)
    due = state.injections_by_time.get(t)
    # the value before this minute of each variable it writes: the injected ones here, the others as written
    before = state.before = {i.var: valuation[i.var] for i in due} if due else {}
    injected = tuple((injection.var, injection.value) for injection in due) if due else ()
    fires: list[FireRecord] = []
    runtimes, timer, active, waiting = state.composition.runtimes, state.composition.timer, state.active, state.waiting
    wake = state.wake
    timed = t > 0 and timer is not None  # from minute 1, the clock ticks before the injections
    if timed:  # the timer's one self-loop, run inline
        clock = before[CLOCK_VARIABLE] = valuation[CLOCK_VARIABLE]
        if clock == ex.INT_MAX:
            raise SimulationError(out_of_range(timer.name, t, CLOCK_VARIABLE))
        valuation[CLOCK_VARIABLE] = clock + 1
        fires.append(FireRecord(timer.name, timer.initial_state, timer.initial_state, 0, ((CLOCK_VARIABLE, clock + 1),), ()))
    if due:
        valuation.update(injected)
        _wake(state, [var for var, _ in injected], -1, t, t)
    for position in range(timed, len(runtimes)):
        if wake[position] > t:
            continue
        count = len(fires)
        runtime = runtimes[position]
        _chart_cycle(state, runtime, fires)
        if len(fires) > count:
            fire = fires[-1]
            _wake(state, [var for var, _ in fire.sets], position, t, t + 1)
            _wake(state, fire.raised, position, t, math.inf)
        else:  # it recorded nothing: asleep until its clock bound, or until `_wake`
            bound, waits = runtime.idle(active[runtime.chart.name])
            wake[position] = math.inf if bound is None else t + bound(valuation) - valuation[CLOCK_VARIABLE]
            for name in waits:
                waiting.setdefault(name, set()).add(position)
    deltas = {var: valuation[var] for var, value in before.items() if valuation[var] != value}
    report = StepReport(t, injected, tuple(fires), tuple(events), deltas)
    steps.append(report)
    events.clear()
    return report


def _wake(state: SimState, names, position: int, now: int, later: int | float) -> None:
    """Wake each chart asleep on one of `names`, which the runtime at `position` (-1 for an injection,
    before every chart) changed in minute `now`: to run in minute `now` if it runs after that one, else in `later`."""
    wake, active, runtimes = state.wake, state.active, state.composition.runtimes
    for name in names:
        for other in state.waiting.get(name, ()):
            minute = now if other > position else later
            if wake[other] > minute and name in runtimes[other].idle(active[runtimes[other].chart.name])[1]:
                wake[other] = minute


def skip_idle(state: SimState, horizon: int, watched=None) -> None:
    """After an idle minute, at whose end every chart but the timer sleeps,
    record the idle minutes that follow it without running them.

    The skip ends before the next injection, after the horizon, before the
    clock would leave 64 bits (that minute runs, and refuses the write), or
    at the first minute that a chart wakes or `watched` allows; `watched` is
    the clock bound (`ex.compile_bound`) of a check's properties, or None.
    """
    report = state.steps[-1]
    # The cheap early-out on busy minutes: testing only the wake times builds `stop` and the moving invariant
    # bound every minute, and slowed busy-ward's check loop from 131/143 to 189/177 ms (in process, 2-core box).
    if not report.t or report.injected or len(report.fires) != 1 or state.composition.timer is None:
        return
    t, valuation = report.t, state.valuation
    now = valuation[CLOCK_VARIABLE]
    # the first minute that must run; wake[0] is the timer's, which `macro_step` does not read
    stop = min([horizon + 1, t + ex.INT_MAX + 1 - now, *(due for due in state.injections_by_time if due > t),
                *state.wake[1:], *(() if watched is None else (t + watched(valuation) - now,))])
    chart, source, target, index = report.fires[0][:4]
    for minute in range(t + 1, stop):
        clock = now + minute - t
        fire = FireRecord(chart, source, target, index, ((CLOCK_VARIABLE, clock),), ())
        state.steps.append(StepReport(minute, (), (fire,), (), {CLOCK_VARIABLE: clock}))
    if stop > t + 1:
        valuation[CLOCK_VARIABLE] = now + stop - 1 - t
        state.minutes_skipped += stop - 1 - t


def trace_of(state: SimState) -> Trace:
    """Every step recorded since t=0, with the t=0 active states and valuation.

    Both are rebuilt from the initialization report: it holds one entry per
    chart, and its deltas are the changes from the declaration defaults.
    """
    init = state.steps[0]
    valuation = {decl.name: decl.initial for decl in state.composition.variables}
    valuation.update(init.deltas)
    return Trace({fire.chart: fire.target for fire in init.fires}, valuation, tuple(state.steps))


def run(state: SimState, horizon: int) -> Trace:
    """Execute macro-steps up to the horizon, skipping idle minutes; the trace starts at t=0."""
    while state.curT < horizon:
        macro_step(state)
        skip_idle(state, horizon)
    return trace_of(state)


def replay_trace(composition: Composition, trace: Trace) -> Trace:
    """The run of a trace's inputs up to its last minute: its injections, minute 0's starting
    with the scenario's initial values, and nothing of its fires.

    So the replay equals the trace exactly when the trace is this composition's run of them.
    """
    if not trace.steps:
        raise SimulationError("trace has no initialization step")
    injections = tuple(Injection(step.t, var, value) for step in trace.steps for var, value in step.injected)
    return run(init_composition(composition, Scenario(injections=injections)), trace.steps[-1].t)
