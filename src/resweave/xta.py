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

Names are written flat: a dot becomes `_` (`RES.tPA` is `RES_tPA`), and a
name spelled like a word the language reserves (`RESERVED`) gets a `_`
appended (`urgent` is `urgent_`). Two names written alike are refused.

The exportable subset excludes event-triggered transitions, guarded exit
actions, edges that would carry more than one raise, one name used for more
than one of a variable, an event and a chart (the document declares them in
one namespace), and t=0 entry effects that set an integer outside 64 bits.
"""

from __future__ import annotations

import re

from . import expr as ex
from .errors import ResweaveError
from .model import Assign, Raise, StatechartModel, Transition, is_tick_trigger
# perfbench/tracer.py wraps `xta.init_composition` by name, so the name stays importable here.
from .sim import Composition, init_composition, out_of_range, value_text  # noqa: F401


class ExportError(ResweaveError):
    pass


# The words of the timed-automata language, which no identifier may spell:
# those this module writes, and the rest of the language's keywords.
RESERVED = frozenset({
    "int", "bool", "broadcast", "chan", "process", "clock", "state", "init", "trans", "guard", "sync",
    "assign", "system", "true", "false", "imply", "urgent", "commit", "const", "select", "and", "or",
    "not", "forall", "exists", "void", "return", "if", "else", "for", "while", "do", "break",
    "continue", "switch", "case", "default", "struct", "typedef", "meta", "priority", "progress",
    "deadlock", "scalar", "double",
})


def _flat(name: str) -> str:
    """Timed-automata identifiers have no dots and spell no reserved word:
    `RES.tPA` becomes `RES_tPA`, and `urgent` becomes `urgent_`."""
    flat = name.replace(".", "_")
    return flat + "_" if flat in RESERVED else flat


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


def _edge(transition: Transition, guard_text: str, sync: str | None, assigns: list[str]) -> str:
    parts = []
    if guard_text:
        parts.append(f"guard {guard_text};")
    if sync:
        parts.append(f"sync {sync}!;")
    if assigns:
        parts.append("assign " + ", ".join(assigns) + ";")
    label = "{ " + " ".join(parts) + " }" if parts else "{ }"
    return f"        {_flat(transition.source)} -> {_flat(transition.target)} {label}"


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
    lines.append(_edge(transition, guard_text, sync, assigns))


def _export_process(chart: StatechartModel, globals_taken: set[str]) -> list[str]:
    identifiers = {chart.name}
    identifiers.update(v.name for v in chart.variables)
    identifiers.update(chart.events)
    identifiers.update(s.name for s in chart.states)
    _check_injective(sorted(identifiers), f"chart {chart.name!r}")

    lines = [f"process {_flat(chart.name)}() {{"]
    edges: list[str] = []
    if _is_clock_chart(chart):
        clock = _pick_clock_name(globals_taken | {_flat(s.name) for s in chart.states})
        loop = chart.transitions[0]
        guard = f"{clock} >= 1"
        if loop.guard != ex.TRUE:  # the clock test as a leaf, so a `||` guard is bracketed
            guard = ex.to_text(ex.conjoin(ex.Var(guard), loop.guard), _flat)
        assigns = [f"{clock} = 0", *(_assign_text(a) for a in loop.actions)]
        edges.append(_edge(loop, guard, None, assigns))
        lines.append(f"    clock {clock};")
        states = f"{_flat(loop.source)} {{ {clock} <= 1 }}"
    else:
        for transition in chart.transitions:
            target = chart.state(transition.target)
            for branch in entry_branches(target.entry_actions):
                _export_edge(chart, transition, branch, edges)
        states = ", ".join(_flat(s.name) for s in chart.states)
    lines.append(f"    state {states};")
    lines.append(f"    init {_flat(chart.initial_state)};")
    if edges:
        lines.append("    trans")
        lines.extend(f"{edge}," for edge in edges[:-1])
        lines.append(f"{edges[-1]};")
    lines.append("}")
    return lines


def export_xta(composition: Composition) -> str:
    """Deterministic timed-automata document for the composition."""
    variables = composition.variables
    events = dict.fromkeys(event for chart in composition.charts for event in chart.events)  # first-seen order
    chart_names = [chart.name for chart in composition.charts]

    # Variables, channels and processes share one namespace.
    kinds: dict[str, str] = {}
    for kind, names in (("variable", [v.name for v in variables]), ("event", events), ("chart", chart_names)):
        for name in names:
            if kinds.setdefault(name, kind) != kind:
                raise ExportError(f"{name!r} names both a {kinds[name]} and a {kind}, which share one namespace")
    global_names = sorted(kinds)
    _check_injective(global_names, "the global declarations")

    # Bake the t=0 entry effects of initial states into the initializers, in
    # the order `sim.init_composition` runs them, evaluated without compiling.
    initial_valuation = {decl.name: decl.initial for decl in variables}
    for chart in composition.charts:
        for guarded in chart.state(chart.initial_state).entry_actions:
            action = guarded.action
            if isinstance(action, Assign) and ex.eval_expr(guarded.guard, initial_valuation):
                value = ex.eval_expr(action.value, initial_valuation)
                if not ex.INT_MIN <= value <= ex.INT_MAX:
                    raise ExportError(out_of_range(chart.name, 0, action.target))
                initial_valuation[action.target] = value

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


def scan_xta(text: str) -> list[str]:
    """Well-formedness problems in a produced document; empty when clean.

    Checks balanced braces, section shape, that no global identifier
    (variable, channel or process) is declared twice, that no declared
    identifier spells a reserved word, and that every identifier used in an
    edge label or invariant is declared (global variable/channel, local
    clock, or location where appropriate).
    """
    problems: list[str] = []
    if text.count("{") != text.count("}"):
        problems.append("unbalanced braces")

    globals_seen: set[str] = set()  # variables and channels
    process_names: list[str] = []
    in_process = False
    locations: set[str] = set()
    locals_seen: set[str] = set()
    saw_system = False

    def reserved(name: str, lineno: int) -> None:
        if name in RESERVED:
            problems.append(f"line {lineno}: reserved word {name!r} declared as an identifier")

    def declare(name: str, lineno: int) -> None:
        reserved(name, lineno)
        if name in globals_seen or name in process_names:  # one namespace
            problems.append(f"line {lineno}: global identifier {name!r} declared twice")

    def check_expr_idents(fragment: str, where: str) -> None:
        for ident in _IDENT_SCAN.findall(fragment):
            if ident in RESERVED:
                continue
            if ident not in globals_seen and ident not in locals_seen:
                problems.append(f"{where}: undeclared identifier {ident!r}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if not in_process:
            if match := _DECL_RE.match(line):
                declare(match.group(2), lineno)
                globals_seen.add(match.group(2))
                check_expr_idents(match.group(3), f"line {lineno}")
                continue
            if match := _CHAN_RE.match(line):
                declare(match.group(1), lineno)
                globals_seen.add(match.group(1))
                continue
            if match := _PROCESS_RE.match(line):
                declare(match.group(1), lineno)
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
                reserved(match.group(1), lineno)
                locals_seen.add(match.group(1))
                continue
            if match := _STATE_RE.match(line):
                for item in match.group(1).split(","):
                    name = item.strip()
                    if "{" in name:  # invariant attached
                        name, _, invariant = name.partition("{")
                        check_expr_idents(invariant.rstrip("} "), f"line {lineno}")
                    reserved(name.strip(), lineno)
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
