"""Timed-automata text export (.xta plus .q query sidecar).

Each chart becomes one process template: states map to locations and
transitions to edges. Guarded entry actions have no direct counterpart, so
every incoming edge is split per non-trivially-guarded entry action of its
target, carrying the unguarded entry actions along; the guard families
synthesized for resource charts are mutually exclusive and exhaustive, which
keeps the split behavior-preserving. A one-state chart whose only transition
is a tick self-loop is exported as a clock process (invariant `x<=1`, reset
edge) so the shared clock advances once per minute. Raised events become
broadcast channel emissions.

Variable initializers are the values after composition initialization, which
bakes the t=0 entry effects of initial states into the declarations.

The exportable subset excludes event-triggered transitions, guarded exit
actions, and edges that would carry more than one raise.
"""

from __future__ import annotations

import re

from . import expr as ex
from .errors import ResweaveError
from .model import Assign, Raise, StatechartModel, Transition, is_tick_trigger
# perfbench/tracer.py wraps `xta.init_composition` by name, so the name stays importable here.
from .sim import Composition, init_composition, value_text  # noqa: F401


class ExportError(ResweaveError):
    pass


def _flat(name: str) -> str:
    """Timed-automata identifiers have no dots: `RES.tPA` becomes `RES_tPA`."""
    return name.replace(".", "_")


def _check_injective(names, what: str) -> None:
    mapped: dict[str, str] = {}
    for name in names:
        flat = _flat(name)
        if flat in mapped and mapped[flat] != name:
            raise ExportError(
                f"name flattening collides in {what}: {mapped[flat]!r} and {name!r} both map to {flat!r}"
            )
        mapped[flat] = name


def _is_clock_chart(chart: StatechartModel) -> bool:
    return (
        len(chart.states) == 1
        and not chart.states[0].entry_actions
        and not chart.states[0].exit_actions
        and len(chart.transitions) == 1
        and chart.transitions[0].source == chart.transitions[0].target
        and is_tick_trigger(chart.transitions[0].trigger)
        and all(isinstance(a, Assign) for a in chart.transitions[0].actions)
    )


def _pick_clock_name(taken: set[str]) -> str:
    name = "x"
    while name in taken:
        name += "_"
    return name


def _assign_text(action: Assign) -> str:
    value = action.value
    # Compact self-increment, matching the usual clock-process idiom.
    if (
        isinstance(value, ex.BinOp)
        and value.op == "+"
        and value.left == ex.Var(action.target)
        and value.right == ex.IntLit(1)
    ):
        return f"{_flat(action.target)}++"
    return f"{_flat(action.target)} = {ex.to_text(value, _flat)}"


def _combine_guards(transition_guard: ex.Expr, branch_guard: ex.Expr) -> ex.Expr:
    if transition_guard == ex.TRUE:
        return branch_guard
    if branch_guard == ex.TRUE:
        return transition_guard
    return ex.conjoin(transition_guard, branch_guard)


def entry_branches(entry_actions) -> list[tuple[ex.Expr, list]]:
    """The per-entry-branch split of a state's entry actions.

    One branch per non-trivially-guarded entry action, each carrying the
    unguarded actions in declaration order; a single unconditional branch
    when no guarded entry actions exist.
    """
    conditional = [i for i, ga in enumerate(entry_actions) if ga.guard != ex.TRUE]
    if not conditional:
        return [(ex.TRUE, [ga.action for ga in entry_actions])]
    branches = []
    for chosen in conditional:
        actions = [ga.action for i, ga in enumerate(entry_actions) if ga.guard == ex.TRUE or i == chosen]
        branches.append((entry_actions[chosen].guard, actions))
    return branches


def _edge_label(guard_text: str, sync: str | None, assigns: list[str]) -> str:
    parts = []
    if guard_text:
        parts.append(f"guard {guard_text};")
    if sync:
        parts.append(f"sync {sync}!;")
    if assigns:
        parts.append("assign " + ", ".join(assigns) + ";")
    return "{ " + " ".join(parts) + " }" if parts else "{ }"


def _export_edge(chart, transition: Transition, branch, lines) -> None:
    branch_guard, entry_actions = branch
    where = f"chart {chart.name!r} transition {transition.source}->{transition.target}"
    if transition.trigger is not None and not is_tick_trigger(transition.trigger):
        raise ExportError(f"{where}: event-triggered transitions are not exportable")
    source_state = chart.state(transition.source)
    for ga in source_state.exit_actions:
        if ga.guard != ex.TRUE:
            raise ExportError(f"{where}: guarded exit actions are not exportable")
    actions = [ga.action for ga in source_state.exit_actions]
    actions.extend(transition.actions)
    actions.extend(entry_actions)
    assigns = []
    sync = None
    for action in actions:
        if isinstance(action, Raise):
            if sync is not None:
                raise ExportError(f"{where}: more than one raised event on a single edge")
            sync = _flat(action.event)
        else:
            assigns.append(_assign_text(action))
    guard = _combine_guards(transition.guard, branch_guard)
    guard_text = "" if guard == ex.TRUE else ex.to_text(guard, _flat)
    lines.append(
        f"        {_flat(transition.source)} -> {_flat(transition.target)} "
        + _edge_label(guard_text, sync, assigns)
    )


def _export_process(chart: StatechartModel, globals_taken: set[str]) -> list[str]:
    identifiers = {chart.name}
    identifiers.update(v.name for v in chart.variables)
    identifiers.update(chart.events)
    identifiers.update(s.name for s in chart.states)
    _check_injective(sorted(identifiers), f"chart {chart.name!r}")

    lines = [f"process {_flat(chart.name)}() {{"]
    if _is_clock_chart(chart):
        clock = _pick_clock_name(globals_taken | {_flat(s.name) for s in chart.states})
        loop = chart.transitions[0]
        state_name = _flat(chart.states[0].name)
        assigns = [f"{clock} = 0"]
        assigns.extend(_assign_text(a) for a in loop.actions if isinstance(a, Assign))
        guard = f"{clock} >= 1"
        if loop.guard != ex.TRUE:
            guard += f" && {ex.to_text(loop.guard, _flat)}"
        lines.append(f"    clock {clock};")
        lines.append(f"    state {state_name} {{ {clock} <= 1 }};")
        lines.append(f"    init {state_name};")
        lines.append("    trans")
        lines.append(f"        {state_name} -> {state_name} {{ guard {guard}; assign " + ", ".join(assigns) + "; };")
        lines.append("}")
        return lines

    state_names = ", ".join(_flat(s.name) for s in chart.states)
    lines.append(f"    state {state_names};")
    lines.append(f"    init {_flat(chart.initial_state)};")
    edges: list[str] = []
    for transition in chart.transitions:
        target = chart.state(transition.target)
        for branch in entry_branches(target.entry_actions):
            _export_edge(chart, transition, branch, edges)
    if edges:
        lines.append("    trans")
        lines.extend(f"{edge}," for edge in edges[:-1])
        lines.append(f"{edges[-1]};")
    lines.append("}")
    return lines


def export_xta(composition: Composition) -> str:
    """Deterministic timed-automata document for the composition."""
    variables = composition.merged_variables()
    events = composition.merged_events()
    chart_names = [chart.name for chart in composition.charts]

    global_names = sorted({v.name for v in variables} | set(events) | set(chart_names))
    _check_injective(global_names, "the global declarations")

    # Bake the t=0 entry effects of initial states into the initializers, in
    # the order `sim.init_composition` runs them, evaluated without compiling.
    initial_valuation = {decl.name: decl.initial for decl in variables}
    for chart in composition.charts:
        for guarded in chart.state(chart.initial_state).entry_actions:
            action = guarded.action
            if isinstance(action, Assign) and ex.eval_expr(guarded.guard, initial_valuation):
                initial_valuation[action.target] = ex.eval_expr(action.value, initial_valuation)

    lines: list[str] = []
    for decl in variables:
        keyword = "bool" if decl.kind == ex.KIND_BOOLEAN else "int"
        lines.append(f"{keyword} {_flat(decl.name)} = {value_text(initial_valuation[decl.name])};")
    for event in events:
        lines.append(f"broadcast chan {_flat(event)};")
    taken = {_flat(name) for name in global_names}
    for chart in composition.charts:
        lines.append("")
        lines.extend(_export_process(chart, taken))
    lines.append("")
    lines.append("system " + ", ".join(_flat(name) for name in chart_names) + ";")
    return "\n".join(lines) + "\n"


def export_queries(invariants) -> str:
    """Query sidecar: one `A[] ...` line per invariant, name as a comment."""
    lines = []
    for invariant in invariants:
        lines.append(f"//{invariant.name}")
        predicate = ex.to_text(invariant.predicate, _flat)
        if invariant.location is not None:
            chart, state = invariant.location
            lines.append(f"A[] {_flat(chart)}.{_flat(state)} imply {predicate}")
        else:
            lines.append(f"A[] {predicate}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Self-validation

_DECL_RE = re.compile(r"(int|bool)\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+);\Z")
_CHAN_RE = re.compile(r"broadcast\s+chan\s+([A-Za-z_][A-Za-z0-9_]*);\Z")
_PROCESS_RE = re.compile(r"process\s+([A-Za-z_][A-Za-z0-9_]*)\(\)\s*\{\Z")
_CLOCK_RE = re.compile(r"clock\s+([A-Za-z_][A-Za-z0-9_]*);\Z")
_STATE_RE = re.compile(r"state\s+(.+);\Z")
_INIT_RE = re.compile(r"init\s+([A-Za-z_][A-Za-z0-9_]*);\Z")
_EDGE_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*->\s*([A-Za-z_][A-Za-z0-9_]*)\s*\{(.*)\}[,;]\Z")
_SYSTEM_RE = re.compile(r"system\s+(.+);\Z")
_IDENT_SCAN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_XTA_KEYWORDS = {"guard", "sync", "assign", "true", "false"}


def scan_xta(text: str) -> list[str]:
    """Well-formedness problems in a produced document; empty when clean.

    Checks balanced braces, section shape, and that every identifier used in
    an edge label or invariant is declared (global variable/channel, local
    clock, or location where appropriate).
    """
    problems: list[str] = []
    if text.count("{") != text.count("}"):
        problems.append("unbalanced braces")

    globals_seen: set[str] = set()
    process_names: list[str] = []
    in_process = False
    locations: set[str] = set()
    locals_seen: set[str] = set()
    saw_system = False

    def check_expr_idents(fragment: str, where: str) -> None:
        for ident in _IDENT_SCAN.findall(fragment):
            if ident in _XTA_KEYWORDS:
                continue
            if ident not in globals_seen and ident not in locals_seen:
                problems.append(f"{where}: undeclared identifier {ident!r}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if not in_process:
            if match := _DECL_RE.match(line):
                globals_seen.add(match.group(2))
                check_expr_idents(match.group(3), f"line {lineno}")
                continue
            if match := _CHAN_RE.match(line):
                globals_seen.add(match.group(1))
                continue
            if match := _PROCESS_RE.match(line):
                in_process = True
                process_names.append(match.group(1))
                locations = set()
                locals_seen = set()
                continue
            if match := _SYSTEM_RE.match(line):
                saw_system = True
                for ident in match.group(1).split(","):
                    if ident.strip() not in process_names:
                        problems.append(f"line {lineno}: system instantiates unknown process {ident.strip()!r}")
                continue
            problems.append(f"line {lineno}: unrecognized global line {line!r}")
        else:
            if line == "}":
                in_process = False
                continue
            if line == "trans":
                continue
            if match := _CLOCK_RE.match(line):
                locals_seen.add(match.group(1))
                continue
            if match := _STATE_RE.match(line):
                for item in match.group(1).split(","):
                    name = item.strip()
                    if "{" in name:  # invariant attached
                        name, _, invariant = name.partition("{")
                        check_expr_idents(invariant.rstrip("} "), f"line {lineno}")
                    locations.add(name.strip())
                continue
            if match := _INIT_RE.match(line):
                if match.group(1) not in locations:
                    problems.append(f"line {lineno}: init references unknown location {match.group(1)!r}")
                continue
            if match := _EDGE_RE.match(line):
                source, target, label = match.groups()
                for endpoint in (source, target):
                    if endpoint not in locations:
                        problems.append(f"line {lineno}: edge references unknown location {endpoint!r}")
                label = label.replace("!", "")
                check_expr_idents(label, f"line {lineno}")
                continue
            problems.append(f"line {lineno}: unrecognized process line {line!r}")

    if in_process:
        problems.append("unterminated process block")
    if not saw_system:
        problems.append("missing system line")
    return problems
