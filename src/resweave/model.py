"""Flat statechart models: types, document format, validation.

A model document is UTF-8 JSON with top-level keys `name`, `variables`,
`events`, `states`, `transitions`, `initial`. Expressions, actions, and
annotations appear as strings:

    guard / predicate        "orderCT && RES.CT_machine"
    action                   "tpaT = curT"  |  "raise givetPA"
    entry action             "entry/ raise CTscan"  |  "entry[curT>200]/ RES.CT_machine = true"
    exit action              "exit/ x = 0"  |  "exit[guard]/ ..."
    annotation               "//@RES: CT_machine, CT_technician"

Charts are flat: no composite or history states. Hierarchy is expressed by
composing several charts in parallel (see `sim`). All types are immutable
values after construction; semantic invariants are checked by
`validate_model`. A model object is validated at most once: its
`diagnostics` are computed on first use and kept, and both `parse_model`
and `sim.Composition` read them. Within one document each distinct string
is parsed once, and so is each distinct expression text, so equal strings
share one tree.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Union

from . import expr as ex
from .errors import ResweaveError

KIND_INTEGER = ex.KIND_INTEGER
KIND_BOOLEAN = ex.KIND_BOOLEAN

TICK = "tick"

_EVERY_RE = re.compile(r"every (\d+)s\Z")
_ANNOTATION_RE = re.compile(r"//@RES:\s*(.*\S)\s*\Z")
_ON_ACTION_RE = re.compile(r"(entry|exit)(?:\[(.*)\])?/\s*(.*\S)\s*\Z")
_ASSIGN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_.]*)\s*=(?!=)\s*(.*\S)\s*\Z")
_RAISE_RE = re.compile(r"raise\s+([A-Za-z_][A-Za-z0-9_]*)\s*\Z")


class ModelFormatError(ResweaveError):
    """Syntactically malformed model document."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ModelSemanticsError(ResweaveError):
    """A structurally well-formed document that violates model invariants."""

    def __init__(self, diagnostics: list["Diagnostic"]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class Diagnostic:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class VariableDecl:
    name: str
    kind: str  # "integer" | "boolean"
    initial: int | bool


@dataclass(frozen=True)
class Annotation:
    """Required-resource marker; serializes to `//@RES: r1, r2`."""

    resources: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "resources", tuple(self.resources))


@dataclass(frozen=True)
class Assign:
    target: str
    value: ex.Expr


@dataclass(frozen=True)
class Raise:
    event: str


Action = Union[Assign, Raise]


@dataclass(frozen=True)
class GuardedAction:
    action: Action
    guard: ex.Expr = ex.TRUE


@dataclass(frozen=True)
class State:
    name: str
    entry_actions: tuple[GuardedAction, ...] = ()
    exit_actions: tuple[GuardedAction, ...] = ()
    annotations: tuple[Annotation, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entry_actions", tuple(self.entry_actions))
        object.__setattr__(self, "exit_actions", tuple(self.exit_actions))
        object.__setattr__(self, "annotations", tuple(self.annotations))


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    guard: ex.Expr = ex.TRUE
    trigger: str | None = None  # event name, "tick", or "every <N>s"
    actions: tuple[Action, ...] = ()
    annotations: tuple[Annotation, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "annotations", tuple(self.annotations))


@dataclass(frozen=True)
class StatechartModel:
    name: str
    variables: tuple[VariableDecl, ...] = ()
    events: tuple[str, ...] = ()
    states: tuple[State, ...] = ()
    transitions: tuple[Transition, ...] = ()
    initial_state: str = ""

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "transitions", tuple(self.transitions))

    def state(self, name: str) -> State:
        """The first state called `name`; KeyError if there is none."""
        return self._states_by_name[name]

    @cached_property
    def _states_by_name(self) -> dict[str, State]:
        # Built in reverse, so that of two states with one name the first is kept.
        return {state.name: state for state in reversed(self.states)}

    @cached_property
    def diagnostics(self) -> tuple[Diagnostic, ...]:
        """`validate_model(self)`, computed on first use and kept."""
        return tuple(validate_model(self))


def is_tick_trigger(trigger: str | None) -> bool:
    """True for the once-per-cycle triggers: "tick" or "every <N>s"."""
    return trigger is not None and (trigger == TICK or _EVERY_RE.match(trigger) is not None)


def list_raised_actions(element: State | Transition) -> tuple[str, ...]:
    """Events raised by a state's entry actions or a transition's actions.

    Declaration order, duplicates preserved; guards are not consulted (the
    collection is static).
    """
    if isinstance(element, State):
        actions = [ga.action for ga in element.entry_actions]
    else:
        actions = list(element.actions)
    return tuple(a.event for a in actions if isinstance(a, Raise))


# ---------------------------------------------------------------------------
# Text form of actions and annotations


def action_to_text(action: Action) -> str:
    if isinstance(action, Raise):
        return f"raise {action.event}"
    return f"{action.target} = {ex.to_text(action.value)}"


def parse_action(text: str, parse_expr=ex.parse_expr) -> Action:
    """The action of `text`; its right-hand side is read by `parse_expr`."""
    match = _RAISE_RE.match(text.strip())
    if match:
        return Raise(match.group(1))
    match = _ASSIGN_RE.match(text.strip())
    if match:
        return Assign(match.group(1), parse_expr(match.group(2)))
    raise ModelFormatError(f"cannot parse action {text!r}: expected 'var = expr' or 'raise Event'")


def guarded_action_to_text(ga: GuardedAction, keyword: str) -> str:
    # Literal-true guards use the short `entry/ action` form.
    if ga.guard == ex.TRUE:
        return f"{keyword}/ {action_to_text(ga.action)}"
    return f"{keyword}[{ex.to_text(ga.guard)}]/ {action_to_text(ga.action)}"


def parse_guarded_action(text: str, keyword: str, parse_expr=ex.parse_expr) -> GuardedAction:
    """The guarded action of `text`; its expressions are read by `parse_expr`."""
    match = _ON_ACTION_RE.match(text.strip())
    if not match or match.group(1) != keyword:
        raise ModelFormatError(
            f"cannot parse {keyword} action {text!r}: expected '{keyword}[guard]/ action'"
        )
    guard = parse_expr(match.group(2)) if match.group(2) is not None else ex.TRUE
    return GuardedAction(parse_action(match.group(3), parse_expr), guard)


def annotation_to_text(annotation: Annotation) -> str:
    return "//@RES: " + ", ".join(annotation.resources)


def parse_annotation(text: str) -> Annotation:
    match = _ANNOTATION_RE.match(text.strip())
    if not match:
        raise ModelFormatError(f"cannot parse annotation {text!r}: expected '//@RES: r1, r2'")
    resources = tuple(item.strip() for item in match.group(1).split(","))
    for resource in resources:
        if not ex.IDENT_RE.match(resource):
            raise ModelFormatError(f"bad resource identifier {resource!r} in annotation {text!r}")
    return Annotation(resources)


# ---------------------------------------------------------------------------
# Document parsing


def parse_model(text: str) -> StatechartModel:
    """Parse and validate a model document.

    Raises ModelFormatError for syntax problems (JSON errors carry the
    document line/column; string-level grammar errors carry the element
    path) and ModelSemanticsError for invariant violations.
    """
    try:
        root = json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelFormatError(err.msg, err.lineno, err.colno) from None
    except RecursionError:
        raise ModelFormatError("JSON nested too deeply") from None
    model = _model_from_obj(root)
    if model.diagnostics:
        raise ModelSemanticsError(list(model.diagnostics))
    return model


def _fail(path: str, message: str):
    raise ModelFormatError(f"{path}: {message}")


def _expect(obj, types, path: str, what: str):
    if not isinstance(obj, types):
        _fail(path, f"expected {what}, found {type(obj).__name__}")
    return obj


def _model_from_obj(root) -> StatechartModel:
    _expect(root, dict, "$", "an object")
    # This document's parsers, by the key its strings sit under; each parses a
    # distinct text once, and they go when the document is parsed.
    expr = cache(ex.parse_expr)
    parsers = {
        "guard": expr,
        "entry": cache(lambda text: parse_guarded_action(text, "entry", expr)),
        "exit": cache(lambda text: parse_guarded_action(text, "exit", expr)),
        "actions": cache(lambda text: parse_action(text, expr)),
        "annotations": cache(parse_annotation),
    }
    known = {"name", "variables", "events", "states", "transitions", "initial"}
    for key in root:
        if key not in known:
            _fail("$", f"unknown key {key!r}")
    name = _expect(root.get("name", ""), str, "name", "a string")
    variables = [
        _variable_from_obj(obj, f"variables[{i}]")
        for i, obj in enumerate(_expect(root.get("variables", []), list, "variables", "a list"))
    ]
    events = []
    for i, obj in enumerate(_expect(root.get("events", []), list, "events", "a list")):
        events.append(_expect(obj, str, f"events[{i}]", "a string"))
    states = [
        _state_from_obj(obj, f"states[{i}]", parsers)
        for i, obj in enumerate(_expect(root.get("states", []), list, "states", "a list"))
    ]
    transitions = [
        _transition_from_obj(obj, f"transitions[{i}]", parsers)
        for i, obj in enumerate(_expect(root.get("transitions", []), list, "transitions", "a list"))
    ]
    initial = _expect(root.get("initial", ""), str, "initial", "a string")
    return StatechartModel(name, tuple(variables), tuple(events), tuple(states), tuple(transitions), initial)


def _variable_from_obj(obj, path: str) -> VariableDecl:
    _expect(obj, dict, path, "an object")
    name = _expect(obj.get("name"), str, f"{path}.name", "a string")
    return VariableDecl(name, obj.get("kind"), obj.get("initial"))


def _parse_at(parse, text, path: str):
    """`parse(text)` for the string at `path`; grammar errors name that path."""
    _expect(text, str, path, "a string")
    try:
        return parse(text)
    except (ModelFormatError, ex.ExprSyntaxError) as err:
        raise ModelFormatError(f"{path}: {err}") from None


def _strings_at(obj, key: str, path: str, parsers) -> tuple:
    """Parse each string of the optional list `obj[key]` with `parsers[key]`."""
    items = _expect(obj.get(key, []), list, f"{path}.{key}", "a list")
    return tuple(_parse_at(parsers[key], item, f"{path}.{key}[{i}]") for i, item in enumerate(items))


def _state_from_obj(obj, path: str, parsers) -> State:
    _expect(obj, dict, path, "an object")
    known = {"name", "entry", "exit", "annotations"}
    for key in obj:
        if key not in known:
            _fail(path, f"unknown key {key!r}")
    name = _expect(obj.get("name"), str, f"{path}.name", "a string")
    entry = _strings_at(obj, "entry", path, parsers)
    exit_ = _strings_at(obj, "exit", path, parsers)
    return State(name, entry, exit_, _strings_at(obj, "annotations", path, parsers))


def _transition_from_obj(obj, path: str, parsers) -> Transition:
    _expect(obj, dict, path, "an object")
    known = {"source", "target", "trigger", "guard", "actions", "annotations"}
    for key in obj:
        if key not in known:
            _fail(path, f"unknown key {key!r}")
    source = _expect(obj.get("source"), str, f"{path}.source", "a string")
    target = _expect(obj.get("target"), str, f"{path}.target", "a string")
    trigger = obj.get("trigger")
    if trigger is not None:
        _expect(trigger, str, f"{path}.trigger", "a string")
    guard = ex.TRUE if "guard" not in obj else _parse_at(parsers["guard"], obj["guard"], f"{path}.guard")
    actions = _strings_at(obj, "actions", path, parsers)
    annotations = _strings_at(obj, "annotations", path, parsers)
    return Transition(source, target, guard, trigger, actions, annotations)


# ---------------------------------------------------------------------------
# Serialization


def serialize_model(model: StatechartModel) -> str:
    """Canonical document text; parse_model(serialize_model(m)) == m."""
    root: dict = {"name": model.name}
    root["variables"] = [
        {"name": v.name, "kind": v.kind, "initial": v.initial} for v in model.variables
    ]
    root["events"] = list(model.events)
    root["states"] = [_state_to_obj(s) for s in model.states]
    root["transitions"] = [_transition_to_obj(t) for t in model.transitions]
    root["initial"] = model.initial_state
    return json.dumps(root, indent=2, ensure_ascii=False) + "\n"


def _state_to_obj(state: State) -> dict:
    obj: dict = {"name": state.name}
    if state.entry_actions:
        obj["entry"] = [guarded_action_to_text(ga, "entry") for ga in state.entry_actions]
    if state.exit_actions:
        obj["exit"] = [guarded_action_to_text(ga, "exit") for ga in state.exit_actions]
    if state.annotations:
        obj["annotations"] = [annotation_to_text(a) for a in state.annotations]
    return obj


def _transition_to_obj(transition: Transition) -> dict:
    obj: dict = {"source": transition.source, "target": transition.target}
    if transition.trigger is not None:
        obj["trigger"] = transition.trigger
    if transition.guard != ex.TRUE:
        obj["guard"] = ex.to_text(transition.guard)
    if transition.actions:
        obj["actions"] = [action_to_text(a) for a in transition.actions]
    if transition.annotations:
        obj["annotations"] = [annotation_to_text(a) for a in transition.annotations]
    return obj


# ---------------------------------------------------------------------------
# Validation


def validate_model(model: StatechartModel) -> list[Diagnostic]:
    """All invariant violations as diagnostics; empty means the model is valid."""
    out: list[Diagnostic] = []

    if not model.name or not ex.IDENT_RE.match(model.name):
        out.append(Diagnostic("name", f"bad chart name {model.name!r}"))

    seen_vars: dict[str, int] = {}
    for i, decl in enumerate(model.variables):
        path = f"variables[{i}]"
        if not ex.DOTTED_IDENT_RE.match(decl.name) or ex.is_reserved_word(decl.name):
            out.append(Diagnostic(path, f"bad variable name {decl.name!r}"))
        if decl.name in seen_vars:
            out.append(
                Diagnostic(path, f"duplicate variable name {decl.name!r} (also variables[{seen_vars[decl.name]}])")
            )
        else:
            seen_vars[decl.name] = i
        if decl.kind not in (KIND_INTEGER, KIND_BOOLEAN):
            out.append(Diagnostic(path, f"unknown kind {decl.kind!r}"))
        elif decl.kind == KIND_BOOLEAN and not isinstance(decl.initial, bool):
            out.append(Diagnostic(path, f"initial {decl.initial!r} does not match kind boolean"))
        elif decl.kind == KIND_INTEGER and (
            isinstance(decl.initial, bool) or not isinstance(decl.initial, int)
        ):
            out.append(Diagnostic(path, f"initial {decl.initial!r} does not match kind integer"))
        elif decl.kind == KIND_INTEGER and not ex.INT_MIN <= decl.initial <= ex.INT_MAX:
            out.append(Diagnostic(path, f"initial {decl.initial!r} is out of 64-bit range"))

    seen_events: dict[str, int] = {}
    for i, event in enumerate(model.events):
        path = f"events[{i}]"
        if not ex.IDENT_RE.match(event) or ex.is_reserved_word(event):
            out.append(Diagnostic(path, f"bad event name {event!r}"))
        if event in seen_events:
            out.append(Diagnostic(path, f"duplicate event name {event!r} (also events[{seen_events[event]}])"))
        else:
            seen_events[event] = i

    kinds = {v.name: v.kind for v in model.variables}
    events = set(model.events)

    seen_states: dict[str, int] = {}
    for i, state in enumerate(model.states):
        path = f"states[{i}]({state.name})"
        if not ex.IDENT_RE.match(state.name) or ex.is_reserved_word(state.name):
            out.append(Diagnostic(path, f"bad state name {state.name!r}"))
        if state.name in seen_states:
            out.append(
                Diagnostic(path, f"duplicate state name {state.name!r} (also states[{seen_states[state.name]}])")
            )
        else:
            seen_states[state.name] = i
        for j, ga in enumerate(state.entry_actions):
            _check_guarded_action(ga, kinds, events, f"{path}.entry[{j}]", out)
        for j, ga in enumerate(state.exit_actions):
            _check_guarded_action(ga, kinds, events, f"{path}.exit[{j}]", out)
        _check_annotations(state.annotations, path, out)

    state_names = {s.name for s in model.states}
    if model.initial_state not in state_names:
        out.append(Diagnostic("initial", f"initial state {model.initial_state!r} is not a declared state"))

    for i, transition in enumerate(model.transitions):
        path = f"transitions[{i}]({transition.source}->{transition.target})"
        if transition.source not in state_names:
            out.append(Diagnostic(path, f"source names missing state {transition.source!r}"))
        if transition.target not in state_names:
            out.append(Diagnostic(path, f"target names missing state {transition.target!r}"))
        if transition.trigger is not None and not is_tick_trigger(transition.trigger):
            if transition.trigger not in events:
                out.append(Diagnostic(path, f"trigger names undeclared event {transition.trigger!r}"))
        _check_bool_expr(transition.guard, kinds, f"{path}.guard", out)
        for j, action in enumerate(transition.actions):
            _check_action(action, kinds, events, f"{path}.actions[{j}]", out)
        _check_annotations(transition.annotations, path, out)

    return out


def _check_bool_expr(guard: ex.Expr, kinds, path: str, out: list[Diagnostic]) -> None:
    try:
        kind = ex.type_of(guard, kinds)
    except ex.ExprTypeError as err:
        out.append(Diagnostic(path, str(err)))
        return
    if kind != KIND_BOOLEAN:
        out.append(Diagnostic(path, "guard must be boolean-typed"))


def _check_action(action: Action, kinds, events, path: str, out: list[Diagnostic]) -> None:
    if isinstance(action, Raise):
        if action.event not in events:
            out.append(Diagnostic(path, f"raised event {action.event!r} is not declared"))
        return
    declared = kinds.get(action.target)
    if declared is None:
        out.append(Diagnostic(path, f"assignment target {action.target!r} is not a declared variable"))
        return
    try:
        value_kind = ex.type_of(action.value, kinds)
    except ex.ExprTypeError as err:
        out.append(Diagnostic(path, str(err)))
        return
    if value_kind != declared:
        out.append(Diagnostic(path, f"assigning {value_kind} value to {declared} variable {action.target!r}"))


def _check_guarded_action(ga: GuardedAction, kinds, events, path: str, out: list[Diagnostic]) -> None:
    _check_bool_expr(ga.guard, kinds, f"{path}.guard", out)
    _check_action(ga.action, kinds, events, path, out)


def _check_annotations(annotations: tuple[Annotation, ...], path: str, out: list[Diagnostic]) -> None:
    for i, annotation in enumerate(annotations):
        if not annotation.resources:
            out.append(Diagnostic(f"{path}.annotations[{i}]", "annotation has an empty resource list"))
            continue
        for resource in annotation.resources:
            if not ex.IDENT_RE.match(resource):
                out.append(Diagnostic(f"{path}.annotations[{i}]", f"bad resource identifier {resource!r}"))
