"""Seeded random generators for the property suites.

Everything here is valid by construction: expressions are generated against
the declared variable kinds, raised events and triggers are declared, and
names are unique. Determinism comes from the caller-supplied Random.
"""

from __future__ import annotations

import random
from dataclasses import replace

from resweave import expr as ex
from resweave.model import (
    Annotation,
    Assign,
    GuardedAction,
    Raise,
    State,
    StatechartModel,
    Transition,
    VariableDecl,
)
from resweave.resources import (
    CLOCK_VARIABLE,
    ResourceMap,
    Window,
    interface_for_resources,
    synthesize_resource_chart,
    synthesize_timer,
)
from resweave.sim import Choice, Composition, Injection, Scenario
from resweave.verify import Invariant

INT_VARS = ("a", "b", "c")
BOOL_VARS = ("p", "q", "r")
EVENTS = ("E0", "E1", "E2")
RESOURCES = ("res0", "res1", "res2", "res3")

_CMP = ("<", "<=", ">", ">=", "==", "!=")
_ARITH = ("+", "-", "*")


def gen_int_expr(rng: random.Random, depth: int) -> ex.Expr:
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return ex.IntLit(rng.randint(-20, 200))
        return ex.Var(rng.choice(INT_VARS))
    return ex.BinOp(rng.choice(_ARITH), gen_int_expr(rng, depth - 1), gen_int_expr(rng, depth - 1))


def gen_bool_expr(rng: random.Random, depth: int) -> ex.Expr:
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.4:
            return ex.BoolLit(rng.random() < 0.5)
        return ex.Var(rng.choice(BOOL_VARS))
    if roll < 0.55:
        return ex.BinOp(rng.choice(_CMP), gen_int_expr(rng, depth - 1), gen_int_expr(rng, depth - 1))
    if roll < 0.7:
        return ex.Not(gen_bool_expr(rng, depth - 1))
    return ex.BinOp(
        rng.choice(("&&", "||")), gen_bool_expr(rng, depth - 1), gen_bool_expr(rng, depth - 1)
    )


def gen_expr(rng: random.Random, depth: int = 3) -> ex.Expr:
    return gen_bool_expr(rng, depth) if rng.random() < 0.5 else gen_int_expr(rng, depth)


def _variable_pool(rng: random.Random) -> tuple[VariableDecl, ...]:
    decls = [VariableDecl(name, ex.KIND_INTEGER, rng.randint(-5, 50)) for name in INT_VARS]
    decls += [VariableDecl(name, ex.KIND_BOOLEAN, rng.random() < 0.5) for name in BOOL_VARS]
    return tuple(decls)


def gen_action(rng: random.Random, events) -> Assign | Raise:
    roll = rng.random()
    if events and roll < 0.3:
        return Raise(rng.choice(events))
    if roll < 0.7:
        return Assign(rng.choice(INT_VARS), gen_int_expr(rng, 2))
    return Assign(rng.choice(BOOL_VARS), gen_bool_expr(rng, 1))


def gen_model(
    rng: random.Random,
    name: str = "M",
    max_states: int = 5,
    with_triggers: bool = False,
    variables: tuple[VariableDecl, ...] | None = None,
) -> StatechartModel:
    if variables is None:
        variables = _variable_pool(rng)
    events = tuple(EVENTS[: rng.randint(0, len(EVENTS))])
    n_states = rng.randint(1, max_states)
    state_names = [f"{name}_s{i}" for i in range(n_states)]
    states = []
    for state_name in state_names:
        entry = []
        for _ in range(rng.randint(0, 2)):
            guard = gen_bool_expr(rng, 1) if rng.random() < 0.4 else ex.TRUE
            entry.append(GuardedAction(gen_action(rng, events), guard))
        exit_ = []
        if rng.random() < 0.2:
            exit_.append(GuardedAction(gen_action(rng, events), ex.TRUE))
        states.append(State(state_name, tuple(entry), tuple(exit_)))
    transitions = []
    for _ in range(rng.randint(0, 2 * n_states)):
        trigger = None
        if with_triggers and events and rng.random() < 0.2:
            trigger = rng.choice(events)
        actions = tuple(gen_action(rng, events) for _ in range(rng.randint(0, 2)))
        transitions.append(
            Transition(
                source=rng.choice(state_names),
                target=rng.choice(state_names),
                guard=gen_bool_expr(rng, 2),
                trigger=trigger,
                actions=actions,
            )
        )
    return StatechartModel(
        name=name,
        variables=variables,
        events=events,
        states=tuple(states),
        transitions=tuple(transitions),
        initial_state=state_names[0],
    )


def gen_map(rng: random.Random) -> ResourceMap:
    entries = []
    for event in EVENTS:
        if rng.random() < 0.75:
            count = rng.randint(1, 3)
            entries.append((event, tuple(rng.choice(RESOURCES) for _ in range(count))))
    return ResourceMap(tuple(entries))


def gen_annotations(rng: random.Random, model: StatechartModel) -> StatechartModel:
    """Sprinkle explicit annotations onto a generated model (for round-trip tests)."""
    states = []
    for state in model.states:
        if rng.random() < 0.3:
            resources = tuple(rng.choice(RESOURCES) for _ in range(rng.randint(1, 3)))
            state = replace(state, annotations=(Annotation(resources),))
        states.append(state)
    transitions = []
    for transition in model.transitions:
        if rng.random() < 0.3:
            resources = tuple(rng.choice(RESOURCES) for _ in range(rng.randint(1, 2)))
            transition = replace(transition, annotations=(Annotation(resources),))
        transitions.append(transition)
    return replace(model, states=tuple(states), transitions=tuple(transitions))


def gen_windows(rng: random.Random, horizon: int) -> tuple[Window, ...]:
    windows = []
    t = -1
    while t < horizon and rng.random() < 0.7:
        start = rng.randint(t, min(t + horizon // 2, horizon))
        if rng.random() < 0.15:
            windows.append(Window(start, float("inf")))
            break
        end = rng.randint(start + 1, max(start + 1, min(start + horizon // 2, horizon)))
        windows.append(Window(start, end))
        t = end
    return tuple(windows)


def gen_composition(rng: random.Random, max_charts: int = 3) -> Composition:
    variables = _variable_pool(rng)
    n_charts = rng.randint(1, max_charts)
    guidelines = tuple(
        gen_model(rng, name=f"C{i}", with_triggers=True, variables=variables)
        for i in range(n_charts)
    )
    return Composition(timer=None, resources=(), guidelines=guidelines)


def gen_clock_comparison(rng: random.Random, horizon: int) -> ex.Expr:
    """A comparison that reads curT: mostly linear in it, alone or with another
    variable, sometimes not linear (curT*curT)."""
    clock = ex.Var(CLOCK_VARIABLE)
    roll = rng.random()
    if roll < 0.35:
        side = clock
    elif roll < 0.55:
        side = ex.BinOp(rng.choice("+-"), clock, ex.Var(rng.choice(INT_VARS)))
    elif roll < 0.7:
        side = ex.BinOp("*", ex.IntLit(rng.choice((-3, -2, 2, 3))), clock)
    elif roll < 0.8:
        side = ex.BinOp("*", ex.Var(rng.choice(INT_VARS)), clock)  # a slope read from a variable
    elif roll < 0.9:
        side = ex.BinOp("-", ex.Var(rng.choice(INT_VARS)), ex.BinOp("*", ex.IntLit(2), clock))
    else:
        side = ex.BinOp("*", clock, clock)
    bound = ex.IntLit(rng.randint(-10, 2 * horizon))
    sides = (side, bound) if rng.random() < 0.7 else (bound, side)
    return ex.BinOp(rng.choice(_CMP), *sides)


def gen_timed_guard(rng: random.Random, horizon: int, flags: tuple[str, ...]) -> ex.Expr:
    """A boolean expression built around clock comparisons and RES.* flags."""
    guard = gen_clock_comparison(rng, horizon)
    roll = rng.random()
    if roll < 0.3:
        guard = ex.BinOp("&&", guard, gen_bool_expr(rng, 1))
    elif roll < 0.45:
        guard = ex.BinOp("||", guard, gen_clock_comparison(rng, horizon))
    elif roll < 0.55:
        guard = ex.Not(guard)
    if flags and rng.random() < 0.4:
        guard = ex.BinOp("&&", guard, ex.Var(rng.choice(flags)))
    return guard


def gen_timed_composition(rng: random.Random, horizon: int, max_charts: int = 2) -> Composition:
    """The synthesized timer, resource charts from `gen_windows`,
    and guidelines whose guards and entry actions read curT: runs with idle
    minutes whose skips end at bounds of many kinds."""
    resources = tuple(rng.sample(RESOURCES, rng.randint(0, 3)))
    interface = interface_for_resources(resources)
    flags = tuple(decl.name for decl in interface)
    variables = _variable_pool(rng) + (VariableDecl(CLOCK_VARIABLE, ex.KIND_INTEGER, 0),) + interface
    guidelines = []
    for i in range(rng.randint(1, max_charts)):
        model = _additive(gen_model(rng, name=f"G{i}", max_states=4, with_triggers=True, variables=variables))
        transitions = tuple(
            replace(t, guard=gen_timed_guard(rng, horizon, flags)) if rng.random() < 0.75 else t
            for t in model.transitions
        )
        states = []
        for state in model.states:
            entry = [
                replace(ga, guard=gen_timed_guard(rng, horizon, flags)) if rng.random() < 0.5 else ga
                for ga in state.entry_actions
            ]
            if rng.random() < 0.2:  # an integer right-hand side that reads the clock
                entry.append(GuardedAction(Assign(rng.choice(INT_VARS), ex.Var(CLOCK_VARIABLE))))
            if rng.random() < 0.3:  # a boolean one, which keeps its value between breakpoints
                entry.append(GuardedAction(Assign(rng.choice(BOOL_VARS), gen_timed_guard(rng, horizon, flags))))
            states.append(replace(state, entry_actions=tuple(entry)))
            if rng.random() < 0.4:  # re-entered while nothing else fires, as a resource chart is
                guard = gen_timed_guard(rng, horizon, flags) if rng.random() < 0.5 else ex.TRUE
                transitions += (Transition(state.name, state.name, guard=guard),)
            if model.events and rng.random() < 0.3:  # first in line, but only when its event is raised
                target = rng.choice(model.states).name
                transitions = (Transition(state.name, target, trigger=rng.choice(model.events)),) + transitions
        guidelines.append(replace(model, states=tuple(states), transitions=transitions))
    return Composition(
        timer=synthesize_timer(),
        resources=tuple(synthesize_resource_chart(r, gen_windows(rng, horizon)) for r in resources),
        guidelines=tuple(guidelines),
    )


def _additive(model: StatechartModel) -> StatechartModel:
    """`model` with '+' for every '*' of its assignments: a product assigned
    every minute would double its integer's width each minute."""

    def expr(node: ex.Expr) -> ex.Expr:
        if isinstance(node, ex.BinOp):
            return ex.BinOp("+" if node.op == "*" else node.op, expr(node.left), expr(node.right))
        return node

    def action(a):
        return replace(a, value=expr(a.value)) if isinstance(a, Assign) else a

    def guarded(actions):
        return tuple(replace(ga, action=action(ga.action)) for ga in actions)

    states = tuple(
        replace(s, entry_actions=guarded(s.entry_actions), exit_actions=guarded(s.exit_actions)) for s in model.states
    )
    transitions = tuple(replace(t, actions=tuple(map(action, t.actions))) for t in model.transitions)
    return replace(model, states=states, transitions=transitions)


def gen_timed_invariants(rng: random.Random, composition: Composition, horizon: int) -> list[Invariant]:
    flags = tuple(v.name for v in composition.variables if v.name.startswith("RES."))
    invariants = gen_invariants(rng, composition)
    for i in range(len(invariants), len(invariants) + rng.randint(1, 3)):
        location = None
        if rng.random() < 0.4:
            chart = rng.choice(composition.guidelines)
            location = (chart.name, rng.choice(chart.states).name)
        invariants.append(Invariant(f"I{i}", location, gen_timed_guard(rng, horizon, flags)))
    return invariants


def gen_timed_scenario(rng: random.Random, horizon: int) -> Scenario:
    """`gen_scenario`, with an injection due at the horizon and sometimes a clock set ahead."""
    scenario = gen_scenario(rng, horizon)
    injections = scenario.injections + (Injection(horizon, rng.choice(BOOL_VARS), rng.random() < 0.5),)
    initial = dict(scenario.initial)
    if rng.random() < 0.2:
        initial[CLOCK_VARIABLE] = rng.randint(1, horizon)
    return replace(scenario, initial=initial, injections=injections)


def gen_scenario(rng: random.Random, horizon: int) -> Scenario:
    initial = {}
    if rng.random() < 0.5:
        initial[rng.choice(INT_VARS)] = rng.randint(0, 30)
    injections = []
    for _ in range(rng.randint(0, 3)):
        var = rng.choice(INT_VARS + BOOL_VARS)
        value = rng.randint(0, 50) if var in INT_VARS else rng.random() < 0.5
        injections.append(Injection(rng.randint(0, horizon), var, value))
    choices = []
    for var in rng.sample(BOOL_VARS + INT_VARS, rng.randint(0, 2)):
        if var in BOOL_VARS:
            choices.append(Choice(var, (False, True)))
        else:
            domain = tuple(rng.sample(range(0, 40), rng.randint(2, 4)))
            choices.append(Choice(var, domain))
    for choice in choices:  # a choice variable is not also set in `initial`
        initial.pop(choice.var, None)
    return Scenario(initial, tuple(injections), tuple(choices), horizon)


def gen_invariants(rng: random.Random, composition: Composition) -> list[Invariant]:
    invariants = []
    for i in range(rng.randint(1, 4)):
        location = None
        if rng.random() < 0.6:
            chart = rng.choice(composition.charts)
            state = rng.choice(chart.states)
            location = (chart.name, state.name)
        invariants.append(Invariant(f"I{i}", location, gen_bool_expr(rng, 2)))
    return invariants


# ---------------------------------------------------------------------------
# Erasure helpers for the weaver-algebra tests


def without_annotations(model: StatechartModel) -> StatechartModel:
    """The same model with every annotation removed."""
    states = tuple(replace(s, annotations=()) for s in model.states)
    transitions = tuple(replace(t, annotations=()) for t in model.transitions)
    return replace(model, states=states, transitions=transitions)


def without_guards(model: StatechartModel) -> StatechartModel:
    """The same model with every transition guard reset to literal true."""
    transitions = tuple(replace(t, guard=ex.TRUE) for t in model.transitions)
    return replace(model, transitions=transitions)
