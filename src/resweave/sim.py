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
before the clock would leave 64 bits, and at the first minute at which the
clock bound of an active state (or of the invariants `check` still
observes) allows a change. An idle minute has no event pending and fires
only self-loops that record nothing, so a state's bound covers its
event-free leaving guards and the actions of its event-free self-loops. It
is solved from their comparisons linear in `curT`; any other use of `curT`
stops the skip at the next minute. A composition whose timer is not
`synthesize_timer()` runs every minute. `macro_step` is the only code that
runs a minute.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

from . import expr as ex
from .errors import ResweaveError
from .model import GuardedAction, ModelFormatError, Raise, StatechartModel, Transition, VariableDecl, is_tick_trigger
from .model import expect, expect_object, read_json
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
    """A chart's runtime: states and outgoing transitions by name, each state's
    compiled expressions, built the first time the chart is in it, and each
    state's clock bound, built the first time it ends an idle minute."""

    def __init__(self, chart: StatechartModel, composition: Composition):
        self.chart = chart
        # (declaration index, transition) per source state, in declaration order
        self.by_source: dict[str, list[tuple[int, Transition]]] = {}
        for index, transition in enumerate(chart.transitions):
            self.by_source.setdefault(transition.source, []).append((index, transition))
        self._composition = composition
        self._code: dict[str, _StateCode] = {}
        self._bounds: dict = {}  # state -> clock bound or None

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

    def bound(self, name: str):
        """`ex.compile_bound` over the clock of what an idle minute in state `name` may evaluate
        (see the module docstring): its event-free leaving guards, and the exit, transition and
        entry actions (guards and right-hand sides) of its event-free self-loops."""
        if name not in self._bounds:
            state, trees = self.chart.state(name), []
            for index, event, _ in self.code(name).leaving:
                transition = self.chart.transitions[index]
                if event is None:
                    trees.append(transition.guard)
                    if transition.target == name:
                        for ga in (*state.exit_actions, *map(GuardedAction, transition.actions), *state.entry_actions):
                            trees += (ga.guard,) if isinstance(ga.action, Raise) else (ga.guard, ga.action.value)
            self._bounds[name] = ex.compile_bound(trees, self._composition.kinds, CLOCK_VARIABLE)
        return self._bounds[name]

    def _guard(self, guard: ex.Expr):
        return None if guard == ex.TRUE else self._composition.compiled(guard)

    def _action(self, action, guard: ex.Expr) -> tuple:
        if isinstance(action, Raise):
            return self._guard(guard), None, action.event
        return self._guard(guard), action.target, self._composition.compiled(action.value)


class Composition:
    """Charts in execution order: timer, then resource charts, then guidelines.

    Checked and indexed once, when built: at least one chart, unique chart
    names, every chart valid (read from its kept `diagnostics`, so a chart
    `parse_model` returned is not validated again), and same-name
    declarations in agreement; one `_ChartIndex` per chart, in `runtimes` in
    execution order and in `indexes` by name. An expression is compiled the
    first time it is evaluated, and kept.
    """

    def __init__(self, timer: StatechartModel | None = None, resources=(), guidelines=()):
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
        # Whether idle minutes may be skipped: the timer is the synthesized clock.
        self.skips_idle = timer == synthesize_timer()
        self.runtimes = tuple(_ChartIndex(chart, self) for chart in self.charts)
        self.indexes = {runtime.chart.name: runtime for runtime in self.runtimes}

    def compiled(self, expr: ex.Expr):
        """`expr` as a function of the valuation (`ex.compile_expr` against the
        merged declarations), compiled on the first call for this tree."""
        entry = self._compiled.get(id(expr))
        if entry is None:
            entry = self._compiled[id(expr)] = (expr, ex.compile_expr(expr, self.kinds))
        return entry[1]


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
    """The scenario of a document. Only its shape is checked here; `validate_scenario` checks its values."""
    root = expect_object(read_json(text), {"initial", "injections", "choices", "horizon"}, "$")
    initial = expect(root.get("initial", {}), dict, "initial", "an object")
    injections = []
    for i, obj in enumerate(expect(root.get("injections", []), list, "injections", "a list")):
        path = f"injections[{i}]"
        expect_object(obj, {"t", "var", "value"}, path)
        t = expect(obj.get("t"), int, f"{path}.t", "an integer")
        var = expect(obj.get("var"), str, f"{path}.var", "a string")
        injections.append(Injection(t, var, obj.get("value")))
    choices = []
    for i, obj in enumerate(expect(root.get("choices", []), list, "choices", "a list")):
        path = f"choices[{i}]"
        expect_object(obj, {"var", "domain"}, path)
        var = expect(obj.get("var"), str, f"{path}.var", "a string")
        choices.append(Choice(var, expect(obj.get("domain"), list, f"{path}.domain", "a list")))
    horizon = root.get("horizon")
    if horizon is not None and expect(horizon, int, "horizon", "an integer") < 0:
        raise ModelFormatError(f"horizon: expected a nonnegative integer, found {horizon}")
    return Scenario(initial, tuple(injections), tuple(choices), horizon)


def scenario_to_dict(scenario: Scenario) -> dict:
    """The JSON object of a scenario: its fields, each record an object;
    `injections`, `choices` and `horizon` only when set."""
    fields = asdict(scenario).items()
    return {name: value for name, value in fields if name == "initial" or value not in ((), None)}


def _is_literal(value) -> bool:
    return isinstance(value, bool) or (isinstance(value, int) and ex.INT_MIN <= value <= ex.INT_MAX)


def validate_scenario(scenario: Scenario, composition: Composition) -> None:
    """Check every referenced variable is declared with a matching kind,
    every value is a boolean or a 64-bit integer, and no choice variable is
    declared twice or also set in `initial`."""
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
    """The JSON object of a trace, as `trace_to_json` writes it: the trace and
    each record in it an object of its fields (`json` writes tuples as lists)."""
    return _fields(dict(vars(trace)))


def _fields(fields: dict) -> dict:
    """`fields` with each tuple of records in it replaced by a list of their field objects."""
    for name, value in fields.items():
        if isinstance(value, tuple) and value and hasattr(value[0], "_asdict"):
            fields[name] = [_fields(item._asdict()) for item in value]
    return fields


def trace_to_json(trace: Trace) -> str:
    return json.dumps(trace_to_dict(trace), indent=2, sort_keys=True) + "\n"


def trace_from_dict(obj: dict) -> Trace:
    """The trace of a JSON object that `trace_to_dict` wrote, each record
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
                raise SimulationError(out_of_range(chart, state.curT + 1, target))
            sets.append((target, new))
            valuation[target] = new


def out_of_range(chart: str, minute: int, target: str) -> str:
    """Why a write of an integer outside 64 bits to `target` is refused."""
    return f"chart {chart!r} at minute {minute}: {target!r} would be set to a value outside the 64-bit range"


def _fire(state: SimState, runtime: _ChartIndex, index: int | None, fires: list) -> None:
    """Fire the transition declared at `index`, or enter the initial state when it is None.

    The fire is recorded in `fires` unless it is a self-loop that set
    nothing and raised nothing.
    """
    chart = runtime.chart
    sets: list[tuple[str, int | bool]] = []
    mark = len(state.pending_events)
    if index is None:
        source, target = None, chart.initial_state
    else:
        transition = chart.transitions[index]
        source, target = transition.source, transition.target
        code = runtime.code(source)
        _run_actions(state, chart.name, code.exit, sets)
        _run_actions(state, chart.name, code.actions[index], sets)
    state.active[chart.name] = target
    _run_actions(state, chart.name, runtime.code(target).entry, sets)
    if source != target or sets or len(state.pending_events) > mark:
        fires.append(FireRecord(chart.name, source, target, index, tuple(sets), tuple(state.pending_events[mark:])))


def _chart_cycle(state: SimState, runtime: _ChartIndex, fires: list, chosen: dict[str, int] | None) -> None:
    name = runtime.chart.name
    if chosen is None:
        valuation = state.valuation
        for index, event, guard in runtime.code(state.active[name]).leaving:
            if (event is None or event in state.pending_events) and (guard is None or guard(valuation)):
                _fire(state, runtime, index, fires)
                return
    elif name in chosen:
        _fire(state, runtime, chosen[name], fires)


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
        valuation={decl.name: decl.initial for decl in composition.variables},
        pending_events=[],
        steps=[],
        injections_by_time=injections_by_time,
    )
    # Baseline for init deltas is the declaration defaults.
    before = dict(state.valuation)
    injected: list[tuple[str, int | bool]] = []
    fires: list[FireRecord] = []
    _inject(state, 0, injected)
    for runtime in composition.runtimes:
        _fire(state, runtime, None, fires)
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
    runtimes = state.composition.runtimes
    timed = state.composition.timer is not None  # the timer runs before the injections
    if timed:
        _chart_cycle(state, runtimes[0], fires, chosen)
    _inject(state, t, injected)
    for runtime in runtimes[timed:]:
        _chart_cycle(state, runtime, fires, chosen)
    return _report(state, t, injected, fires, before)


def skip_idle(state: SimState, horizon: int, watched=None) -> None:
    """After an idle minute (see the module docstring), record the idle
    minutes that follow it without running them.

    The skip ends before the next injection, after the horizon, before the
    clock would leave 64 bits (that minute runs, and refuses the write), or
    at the first minute that the clock bound of an active state
    (`_ChartIndex.bound`) or `watched` allows; `watched` is the clock bound
    (`ex.compile_bound`) of the invariants a check still observes, or None.
    """
    report = state.steps[-1]
    composition = state.composition
    if not report.t or report.injected or len(report.fires) != 1 or not composition.skips_idle:
        return
    t, valuation = report.t, state.valuation
    now = valuation[CLOCK_VARIABLE]
    # skips_idle: runtimes[0] is the timer
    bounds = [watched, *(r.bound(state.active[r.chart.name]) for r in composition.runtimes[1:])]
    # the first minute that must run
    stop = min([horizon + 1, t + ex.INT_MAX + 1 - now, *(due for due in state.injections_by_time if due > t),
                *(t + bound(valuation) - now for bound in bounds if bound is not None)])
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
