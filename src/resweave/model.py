"""Flat statechart models: types, document format, validation.

A model document is UTF-8 JSON with top-level keys `name`, `variables`,
`events`, `states`, `transitions`, `initial`. Expressions, actions, and
annotations appear as strings:

    guard / predicate        "orderCT && RES.CT_machine"
    action                   "tpaT = curT"  |  "raise givetPA"
    entry action             "entry/ raise CTscan"  |  "entry[curT>200]/ RES.CT_machine = true"
    exit action              "exit/ x = 0"  |  "exit[guard]/ ..."
    trigger (optional)       "CTscan" (a declared event)  |  "tick" or "every 60s" (each minute)
    annotation               "//@RES: CT_machine, CT_technician"

Charts are flat: no composite or history states. Hierarchy is expressed by
composing several charts in parallel (see `sim`). Every type is a
`NamedTuple` record, an immutable value, and the readers build its
sequence fields as tuples; semantic invariants are checked by
`validate_model`. A model object is validated at most once: its
`diagnostics` are computed on first use and kept, and both `parse_model`
and `sim.Composition` read them. Within one document each distinct string
is parsed once, and so is each distinct expression text, so equal strings
share one tree; all its trees share one `Var` per name and one `IntLit`
per literal text. `validate_model` types each distinct tree once. A record's
shape is checked in one expression over exact JSON types; `expect` and
`expect_object`, and an element's path, serve only to name a refused fault.
"""

from __future__ import annotations

import json
import re
import sys
from functools import cache, cached_property
from typing import NamedTuple, Union

from . import expr as ex
from .errors import ResweaveError

KIND_INTEGER = ex.KIND_INTEGER
KIND_BOOLEAN = ex.KIND_BOOLEAN

TICK = "tick"
_TICKS = (TICK, "every 60s")  # one cycle is one minute
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


class Diagnostic(NamedTuple):
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class VariableDecl(NamedTuple):
    name: str
    kind: str  # "integer" | "boolean"
    initial: int | bool


class Annotation(NamedTuple):
    """Required-resource marker; serializes to `//@RES: r1, r2`."""

    resources: tuple[str, ...]


class Assign(NamedTuple):
    target: str
    value: ex.Expr


class Raise(NamedTuple):
    event: str


Action = Union[Assign, Raise]


class GuardedAction(NamedTuple):
    action: Action
    guard: ex.Expr = ex.TRUE


class State(NamedTuple):
    name: str
    entry_actions: tuple[GuardedAction, ...] = ()
    exit_actions: tuple[GuardedAction, ...] = ()
    annotations: tuple[Annotation, ...] = ()


class Transition(NamedTuple):
    source: str
    target: str
    guard: ex.Expr = ex.TRUE
    trigger: str | None = None  # event name, "tick", or "every 60s"
    actions: tuple[Action, ...] = ()
    annotations: tuple[Annotation, ...] = ()


class _Chart(NamedTuple):
    name: str
    variables: tuple[VariableDecl, ...] = ()
    events: tuple[str, ...] = ()
    states: tuple[State, ...] = ()
    transitions: tuple[Transition, ...] = ()
    initial_state: str = ""


class StatechartModel(_Chart):
    """A chart: the record of its fields, which also keeps the values below, each computed on first use."""

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
    """True for the once-per-cycle triggers: "tick" or "every 60s"."""
    return trigger in _TICKS


def fire_actions(chart: StatechartModel, transition: Transition) -> tuple[GuardedAction, ...]:
    """What firing `transition` of `chart` runs, in order: the source's exit actions, the
    transition's own actions (unguarded), then the target's entry actions."""
    return (*chart.state(transition.source).exit_actions, *map(GuardedAction, transition.actions),
            *chart.state(transition.target).entry_actions)


def list_raised_actions(element: State | Transition) -> tuple[str, ...]:
    """Events raised by a state's entry actions or a transition's actions.

    Declaration order, duplicates preserved; guards are not consulted (the
    collection is static).
    """
    actions = [ga.action for ga in element.entry_actions] if isinstance(element, State) else element.actions
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
    model = _model_from_obj(read_json(text))
    if model.diagnostics:
        raise ModelSemanticsError(list(model.diagnostics))
    return model


def read_json(text: str):
    """The value of a JSON document (a model, a scenario or a manifest); ModelFormatError if Python
    cannot read it. `expect` and `expect_object` check the shape of what it reads."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelFormatError(err.msg, err.lineno, err.colno) from None
    except RecursionError:
        raise ModelFormatError("JSON nested too deeply") from None
    except ValueError:  # an integer of more digits than Python converts
        raise ModelFormatError(f"JSON number of more than {sys.get_int_max_str_digits()} digits") from None


def write_json(value, sort_keys: bool = False, ensure_ascii: bool = True) -> str:
    """`json.dumps(value, indent=2, sort_keys=sort_keys, ensure_ascii=ensure_ascii)` for lists, tuples and dicts of
    exactly those types, str object keys and each `NamedTuple` record an object of its fields. Each container is
    joined once, where `json` indents chunk by chunk, and each record class's keys are written once per call."""
    string = json.encoder.encode_basestring_ascii if ensure_ascii else json.encoder.encode_basestring
    arrange = sorted if sort_keys else iter
    layouts: dict[type, tuple] = {}  # per record class, in this call: (written key, field position) in writing order

    def write(value, indent: str) -> str:
        cls = type(value)
        inner = indent + "  "
        if cls is tuple or cls is list:
            if not value:
                return "[]"
            items = [string(v) if type(v) is str else repr(v) if type(v) is int else write(v, inner) for v in value]
            return "[\n%s%s\n%s]" % (inner, f",\n{inner}".join(items), indent)
        if cls is dict:
            items = [f"{string(k)}: {string(v) if type(v) is str else repr(v) if type(v) is int else write(v, inner)}"
                     for k, v in arrange(value.items())]
        elif not isinstance(value, tuple):  # a scalar
            return string(value) if isinstance(value, str) else json.dumps(value)
        else:  # a record
            if cls not in layouts:
                layouts[cls] = tuple((string(k), i) for k, i in arrange(zip(cls._fields, range(len(value)))))
            items = [f"{k}: {string(v) if type(v) is str else repr(v) if type(v) is int else write(v, inner)}"
                     for k, i in layouts[cls] for v in (value[i],)]
        if not items:
            return "{}"
        return "{\n%s%s\n%s}" % (inner, f",\n{inner}".join(items), indent)

    return write(value, "")


def expect(obj, types, path: str, what: str):
    """`obj`, if it is of `types`; a boolean is not an `int` here."""
    if not isinstance(obj, types) or (types is int and isinstance(obj, bool)):
        raise ModelFormatError(f"{path}: expected {what}, found {type(obj).__name__}")
    return obj


def expect_object(obj, known, path: str, fields=()) -> dict:
    """`obj`, if it is an object whose keys are all in `known`, and whose field `key` is
    `expect`ed of `types` for each (key, types, what) of `fields`, in order."""
    expect(obj, dict, path, "an object")
    for key in obj:
        if key not in known:
            raise ModelFormatError(f"{path}: unknown key {key!r}")
    for key, types, what in fields:
        expect(obj.get(key), types, f"{path}.{key}", what)
    return obj


_STR_OR_NONE = (str, type(None))
_VARIABLE_KEYS = frozenset({"name", "kind", "initial"})
_VARIABLE_FIELDS = (("name", str, "a string"), ("kind", str, "a string"), ("initial", (bool, int), "a boolean or an integer"))
_STATE_KEYS = frozenset({"name", "entry", "exit", "annotations"})
_TRANSITION_KEYS = frozenset({"source", "target", "trigger", "guard", "actions", "annotations"})
_TRANSITION_FIELDS = (("source", str, "a string"), ("target", str, "a string"), ("trigger", _STR_OR_NONE, "a string"))


def _model_from_obj(root) -> StatechartModel:
    expect_object(root, {"name", "variables", "events", "states", "transitions", "initial"}, "$")
    # This document's parsers, by the key its strings sit under; each parses a
    # distinct text once, its trees share `leaves`, and they go when the
    # document is parsed.
    leaves: dict[str, ex.Expr] = {}
    expr = cache(lambda text: ex.parse_expr(text, leaves))
    parsers = {
        "guard": expr,
        "entry": cache(lambda text: parse_guarded_action(text, "entry", expr)),
        "exit": cache(lambda text: parse_guarded_action(text, "exit", expr)),
        "actions": cache(lambda text: parse_action(text, expr)),
        "annotations": cache(parse_annotation),
    }
    listed = lambda key: enumerate(expect(root.get(key, []), list, key, "a list"))  # noqa: E731
    name = expect(root.get("name", ""), str, "name", "a string")
    variables = tuple([variable_from_obj(obj, "variables", i) for i, obj in listed("variables")])
    events = tuple([e if type(e) is str else expect(e, str, f"events[{i}]", "a string") for i, e in listed("events")])
    states = tuple([_state_from_obj(obj, i, parsers) for i, obj in listed("states")])
    transitions = tuple([_transition_from_obj(obj, i, parsers) for i, obj in listed("transitions")])
    initial = expect(root.get("initial", ""), str, "initial", "a string")
    return StatechartModel(name, variables, events, states, transitions, initial)


def variable_from_obj(obj, record: str, i: int) -> VariableDecl:
    """The declaration of the variable object `{record}[{i}]` of a model or a manifest; `validate_model` checks it."""
    if not (type(obj) is dict and obj.keys() <= _VARIABLE_KEYS and type(obj.get("name")) is str
            and type(obj.get("kind")) is str and type(obj.get("initial")) in (bool, int)):
        expect_object(obj, _VARIABLE_KEYS, f"{record}[{i}]", _VARIABLE_FIELDS)
    return VariableDecl(obj["name"], obj["kind"], obj["initial"])


def _parse_at(parse, text, record: str, i: int, where: str):
    """`parse(text)` for the string at `{record}[{i}]{where}`; grammar errors name that path."""
    if type(text) is not str:
        expect(text, str, f"{record}[{i}]{where}", "a string")
    try:
        return parse(text)
    except (ModelFormatError, ex.ExprSyntaxError) as err:
        raise ModelFormatError(f"{record}[{i}]{where}: {err}") from None


def _strings_at(obj, key: str, record: str, i: int, parsers) -> tuple:
    """Each string of the optional list `obj[key]` of `{record}[{i}]`, parsed by `parsers[key]`: in one pass,
    unless an item is refused, which the second pass names."""
    items = obj.get(key, [])
    if type(items) is list:
        try:
            parsed = tuple([parsers[key](item) for item in items if type(item) is str])
            if len(parsed) == len(items):
                return parsed
        except (ModelFormatError, ex.ExprSyntaxError):
            pass  # refused below
    expect(items, list, f"{record}[{i}].{key}", "a list")
    return tuple(_parse_at(parsers[key], item, record, i, f".{key}[{j}]") for j, item in enumerate(items))


def _state_from_obj(obj, i: int, parsers) -> State:
    if not (type(obj) is dict and obj.keys() <= _STATE_KEYS and type(obj.get("name")) is str):
        expect_object(obj, _STATE_KEYS, f"states[{i}]", (("name", str, "a string"),))
    return State(obj["name"], _strings_at(obj, "entry", "states", i, parsers),
                 _strings_at(obj, "exit", "states", i, parsers), _strings_at(obj, "annotations", "states", i, parsers))


def _transition_from_obj(obj, i: int, parsers) -> Transition:
    if not (type(obj) is dict and obj.keys() <= _TRANSITION_KEYS and type(obj.get("source")) is str
            and type(obj.get("target")) is str and type(obj.get("trigger")) in _STR_OR_NONE):
        expect_object(obj, _TRANSITION_KEYS, f"transitions[{i}]", _TRANSITION_FIELDS)
    guard = ex.TRUE if "guard" not in obj else _parse_at(parsers["guard"], obj["guard"], "transitions", i, ".guard")
    return Transition(obj["source"], obj["target"], guard, obj.get("trigger"),
                      _strings_at(obj, "actions", "transitions", i, parsers),
                      _strings_at(obj, "annotations", "transitions", i, parsers))


# ---------------------------------------------------------------------------
# Serialization


def serialize_model(model: StatechartModel) -> str:
    """Canonical document text; parse_model(serialize_model(m)) == m."""
    root = {"name": model.name, "variables": model.variables, "events": model.events,
            "states": list(map(_state_to_obj, model.states)),
            "transitions": list(map(_transition_to_obj, model.transitions)), "initial": model.initial_state}
    return write_json(root, ensure_ascii=False) + "\n"


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

    first: dict[str, int] = {}
    for i, decl in enumerate(model.variables):
        path = f"variables[{i}]"
        _check_name(decl.name, ex.DOTTED_IDENT_RE, "variable", i, path, first, out)
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

    first = {}
    for i, event in enumerate(model.events):
        _check_name(event, ex.IDENT_RE, "event", i, f"events[{i}]", first, out)

    kinds = {v.name: v.kind for v in model.variables}
    kind_of = _typer(kinds)
    events = set(model.events)

    first = {}
    for i, state in enumerate(model.states):
        path = f"states[{i}]({state.name})"
        _check_name(state.name, ex.IDENT_RE, "state", i, path, first, out)
        for j, ga in enumerate(state.entry_actions):
            _check_guarded_action(ga, kinds, kind_of, events, f"{path}.entry[{j}]", out)
        for j, ga in enumerate(state.exit_actions):
            _check_guarded_action(ga, kinds, kind_of, events, f"{path}.exit[{j}]", out)
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
        trigger = transition.trigger
        if trigger is not None and not is_tick_trigger(trigger) and trigger not in events:
            if trigger.startswith("every "):
                out.append(Diagnostic(path, f"trigger {trigger!r} is not one minute: use 'tick' or 'every 60s'"))
            else:
                out.append(Diagnostic(path, f"trigger names undeclared event {trigger!r}"))
        _check_bool_expr(transition.guard, kind_of, f"{path}.guard", out)
        for j, action in enumerate(transition.actions):
            _check_action(action, kinds, kind_of, events, f"{path}.actions[{j}]", out)
        _check_annotations(transition.annotations, path, out)

    return out


def _check_name(name: str, pattern, what: str, i: int, path: str, first: dict[str, int], out) -> None:
    """Diagnose the name of `what`s[i]: not matching `pattern`, reserved, or
    already taken (`first` maps each name to the index that first took it)."""
    if not pattern.match(name) or ex.is_reserved_word(name):
        out.append(Diagnostic(path, f"bad {what} name {name!r}"))
    taken = first.setdefault(name, i)
    if taken != i:
        out.append(Diagnostic(path, f"duplicate {what} name {name!r} (also {what}s[{taken}])"))


def _typer(kinds):
    """`ex.type_of` against `kinds` for each distinct tree once, by identity: a function of a
    tree giving its kind, or the ExprTypeError typing it raised, as a value."""
    typed: dict[int, str | ex.ExprTypeError] = {}

    def kind_of(tree: ex.Expr) -> str | ex.ExprTypeError:
        kind = typed.get(id(tree))
        if kind is None:
            try:
                kind = ex.type_of(tree, kinds)
            except ex.ExprTypeError as err:
                kind = err
            typed[id(tree)] = kind
        return kind

    return kind_of


def _check_bool_expr(guard: ex.Expr, kind_of, path: str, out: list[Diagnostic]) -> None:
    kind = kind_of(guard)
    if isinstance(kind, ex.ExprTypeError):
        out.append(Diagnostic(path, str(kind)))
    elif kind != KIND_BOOLEAN:
        out.append(Diagnostic(path, "guard must be boolean-typed"))


def _check_action(action: Action, kinds, kind_of, events, path: str, out: list[Diagnostic]) -> None:
    if isinstance(action, Raise):
        if action.event not in events:
            out.append(Diagnostic(path, f"raised event {action.event!r} is not declared"))
        return
    declared = kinds.get(action.target)
    if declared is None:
        out.append(Diagnostic(path, f"assignment target {action.target!r} is not a declared variable"))
        return
    value_kind = kind_of(action.value)
    if isinstance(value_kind, ex.ExprTypeError):
        out.append(Diagnostic(path, str(value_kind)))
    elif value_kind != declared:
        out.append(Diagnostic(path, f"assigning {value_kind} value to {declared} variable {action.target!r}"))


def _check_guarded_action(ga: GuardedAction, kinds, kind_of, events, path: str, out: list[Diagnostic]) -> None:
    _check_bool_expr(ga.guard, kind_of, f"{path}.guard", out)
    _check_action(ga.action, kinds, kind_of, events, path, out)


def _check_annotations(annotations: tuple[Annotation, ...], path: str, out: list[Diagnostic]) -> None:
    for i, annotation in enumerate(annotations):
        if not annotation.resources:
            out.append(Diagnostic(f"{path}.annotations[{i}]", "annotation has an empty resource list"))
            continue
        for resource in annotation.resources:
            if not ex.IDENT_RE.match(resource):
                out.append(Diagnostic(f"{path}.annotations[{i}]", f"bad resource identifier {resource!r}"))
