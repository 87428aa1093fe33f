"""A reference reader and validator for the model documents of `resweave.model`.

It reads a document field by field: every field goes through `expect` or
`expect_object`, and every element's path is formatted as the element is
read, whether or not it is refused. Its expressions are read by the
reference parser of `tests/reference_parser.py`, and it types every tree as
often as it is written. `tests/test_model.py` feeds generated documents to
it and to `model._model_from_obj` and `model.validate_model`, and requires
an equal model with the same diagnostics in the same order, or the
identical refusal text.

pytest does not collect this file.
"""

from __future__ import annotations

import reference_parser
from resweave import expr as ex
from resweave.model import (KIND_BOOLEAN, KIND_INTEGER, Annotation, Diagnostic, GuardedAction, ModelFormatError,
                            Raise, State, StatechartModel, Transition, VariableDecl, is_tick_trigger, parse_action,
                            parse_annotation, parse_guarded_action)


def expect(obj, types, path: str, what: str):
    if not isinstance(obj, types) or (types is int and isinstance(obj, bool)):
        raise ModelFormatError(f"{path}: expected {what}, found {type(obj).__name__}")
    return obj


def expect_object(obj, known, path: str) -> dict:
    expect(obj, dict, path, "an object")
    for key in obj:
        if key not in known:
            raise ModelFormatError(f"{path}: unknown key {key!r}")
    return obj


def model_from_obj(root) -> StatechartModel:
    """The model of a JSON value, every sequence field a tuple; ModelFormatError names the first fault."""
    expect_object(root, {"name", "variables", "events", "states", "transitions", "initial"}, "$")
    parse_expr = reference_parser.parse_expr
    parsers = {
        "guard": parse_expr,
        "entry": lambda text: parse_guarded_action(text, "entry", parse_expr),
        "exit": lambda text: parse_guarded_action(text, "exit", parse_expr),
        "actions": lambda text: parse_action(text, parse_expr),
        "annotations": parse_annotation,
    }
    name = expect(root.get("name", ""), str, "name", "a string")
    variables = [
        _variable_from_obj(obj, f"variables[{i}]")
        for i, obj in enumerate(expect(root.get("variables", []), list, "variables", "a list"))
    ]
    events = []
    for i, obj in enumerate(expect(root.get("events", []), list, "events", "a list")):
        events.append(expect(obj, str, f"events[{i}]", "a string"))
    states = [
        _state_from_obj(obj, f"states[{i}]", parsers)
        for i, obj in enumerate(expect(root.get("states", []), list, "states", "a list"))
    ]
    transitions = [
        _transition_from_obj(obj, f"transitions[{i}]", parsers)
        for i, obj in enumerate(expect(root.get("transitions", []), list, "transitions", "a list"))
    ]
    initial = expect(root.get("initial", ""), str, "initial", "a string")
    return StatechartModel(name, tuple(variables), tuple(events), tuple(states), tuple(transitions), initial)


def _variable_from_obj(obj, path: str) -> VariableDecl:
    expect_object(obj, {"name", "kind", "initial"}, path)
    name = expect(obj.get("name"), str, f"{path}.name", "a string")
    kind = expect(obj.get("kind"), str, f"{path}.kind", "a string")
    initial = expect(obj.get("initial"), (bool, int), f"{path}.initial", "a boolean or an integer")
    return VariableDecl(name, kind, initial)


def _parse_at(parse, text, path: str):
    expect(text, str, path, "a string")
    try:
        return parse(text)
    except (ModelFormatError, ex.ExprSyntaxError) as err:
        raise ModelFormatError(f"{path}: {err}") from None


def _strings_at(obj, key: str, path: str, parsers) -> tuple:
    items = expect(obj.get(key, []), list, f"{path}.{key}", "a list")
    return tuple(_parse_at(parsers[key], item, f"{path}.{key}[{i}]") for i, item in enumerate(items))


def _state_from_obj(obj, path: str, parsers) -> State:
    expect_object(obj, {"name", "entry", "exit", "annotations"}, path)
    name = expect(obj.get("name"), str, f"{path}.name", "a string")
    entry = _strings_at(obj, "entry", path, parsers)
    exit_ = _strings_at(obj, "exit", path, parsers)
    return State(name, entry, exit_, _strings_at(obj, "annotations", path, parsers))


def _transition_from_obj(obj, path: str, parsers) -> Transition:
    expect_object(obj, {"source", "target", "trigger", "guard", "actions", "annotations"}, path)
    source = expect(obj.get("source"), str, f"{path}.source", "a string")
    target = expect(obj.get("target"), str, f"{path}.target", "a string")
    trigger = expect(obj.get("trigger"), (str, type(None)), f"{path}.trigger", "a string")
    guard = ex.TRUE if "guard" not in obj else _parse_at(parsers["guard"], obj["guard"], f"{path}.guard")
    actions = _strings_at(obj, "actions", path, parsers)
    annotations = _strings_at(obj, "annotations", path, parsers)
    return Transition(source, target, guard, trigger, actions, annotations)


def validate_model(model: StatechartModel) -> list[Diagnostic]:
    """Every invariant violation of `model`, in the order `model.validate_model` reports them."""
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
        elif decl.kind == KIND_INTEGER and (isinstance(decl.initial, bool) or not isinstance(decl.initial, int)):
            out.append(Diagnostic(path, f"initial {decl.initial!r} does not match kind integer"))
        elif decl.kind == KIND_INTEGER and not ex.INT_MIN <= decl.initial <= ex.INT_MAX:
            out.append(Diagnostic(path, f"initial {decl.initial!r} is out of 64-bit range"))

    first = {}
    for i, event in enumerate(model.events):
        _check_name(event, ex.IDENT_RE, "event", i, f"events[{i}]", first, out)

    kinds = {v.name: v.kind for v in model.variables}
    events = set(model.events)

    first = {}
    for i, state in enumerate(model.states):
        path = f"states[{i}]({state.name})"
        _check_name(state.name, ex.IDENT_RE, "state", i, path, first, out)
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
        trigger = transition.trigger
        if trigger is not None and not is_tick_trigger(trigger) and trigger not in events:
            if trigger.startswith("every "):
                out.append(Diagnostic(path, f"trigger {trigger!r} is not one minute: use 'tick' or 'every 60s'"))
            else:
                out.append(Diagnostic(path, f"trigger names undeclared event {trigger!r}"))
        _check_bool_expr(transition.guard, kinds, f"{path}.guard", out)
        for j, action in enumerate(transition.actions):
            _check_action(action, kinds, events, f"{path}.actions[{j}]", out)
        _check_annotations(transition.annotations, path, out)

    return out


def _check_name(name: str, pattern, what: str, i: int, path: str, first: dict[str, int], out) -> None:
    if not pattern.match(name) or ex.is_reserved_word(name):
        out.append(Diagnostic(path, f"bad {what} name {name!r}"))
    taken = first.setdefault(name, i)
    if taken != i:
        out.append(Diagnostic(path, f"duplicate {what} name {name!r} (also {what}s[{taken}])"))


def _kind(tree: ex.Expr, kinds) -> str | ex.ExprTypeError:
    try:
        return ex.type_of(tree, kinds)
    except ex.ExprTypeError as err:
        return err


def _check_bool_expr(guard: ex.Expr, kinds, path: str, out: list[Diagnostic]) -> None:
    kind = _kind(guard, kinds)
    if isinstance(kind, ex.ExprTypeError):
        out.append(Diagnostic(path, str(kind)))
    elif kind != KIND_BOOLEAN:
        out.append(Diagnostic(path, "guard must be boolean-typed"))


def _check_action(action, kinds, events, path: str, out: list[Diagnostic]) -> None:
    if isinstance(action, Raise):
        if action.event not in events:
            out.append(Diagnostic(path, f"raised event {action.event!r} is not declared"))
        return
    declared = kinds.get(action.target)
    if declared is None:
        out.append(Diagnostic(path, f"assignment target {action.target!r} is not a declared variable"))
        return
    value_kind = _kind(action.value, kinds)
    if isinstance(value_kind, ex.ExprTypeError):
        out.append(Diagnostic(path, str(value_kind)))
    elif value_kind != declared:
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
