"""Timed-automata text export (.xta plus .q query sidecar).

Each chart becomes one process template: states map to locations and
transitions to edges carrying their `model.fire_actions`. Guarded actions
have no direct counterpart, so each edge is split per non-trivially-guarded
action of the fire (an entry action: guarded exit actions are refused),
carrying the unguarded actions along; the guard families synthesized for
resource charts are mutually exclusive and exhaustive, which keeps the split
behavior-preserving. Raised events become broadcast channel emissions.

What the export keeps, and what it does not:

- Only the composition's timer (`Composition.timer`) is timed: its process
  alone declares the clock, with the invariant `x <= 1` on its location and
  the test `x >= 1` and the reset `x = 0` on its edge, so `curT` counts minutes.
- Every other chart is untimed, its tick transitions included, so a
  guideline's guarded tick loop cannot stop time.
- Not exported: the macro-step's order (timer, injections, resource charts,
  guidelines), so a location may idle forever; scenario injections and
  choices; the 64-bit range of integers (`int` keeps the language's default).

Variable initializers are the valuation after minute 0, as
`sim.init_composition` runs it for an empty scenario: it bakes in the t=0 entry
effects of initial states, and refuses one that sets an integer outside 64 bits.

Names are written flat: a dot becomes `_` (`RES.tPA` is `RES_tPA`), and a
name spelled like a word the language reserves (`RESERVED`) gets a `_`
appended (`urgent` is `urgent_`). Two names written alike are refused.

The exportable subset excludes event-triggered transitions, guarded exit
actions, edges that would carry more than one raise, one name used for more
than one of a variable, an event and a chart (the document declares them in
one namespace).
"""

from __future__ import annotations

import functools
import re

from . import expr as ex
from .errors import ResweaveError
from .model import Assign, Raise, StatechartModel, Transition, fire_actions, is_tick_trigger
from .sim import Composition, Scenario, init_composition, value_text


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


def entry_branches(actions) -> list[tuple[ex.Expr, list]]:
    """The per-branch split of a fire's guarded actions (`fire_actions`) or a state's entry actions.

    One branch per non-trivially-guarded action, each carrying the
    unguarded actions in declaration order; a single unconditional branch
    when no guarded actions exist.
    """
    conditional = [i for i, ga in enumerate(actions) if ga.guard != ex.TRUE]
    if not conditional:
        return [(ex.TRUE, [ga.action for ga in actions])]
    branches = []
    for chosen in conditional:
        branch = [ga.action for i, ga in enumerate(actions) if ga.guard == ex.TRUE or i == chosen]
        branches.append((actions[chosen].guard, branch))
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


def _export_edges(chart, transition: Transition, clock: str | None, lines) -> None:
    """One edge per branch of the transition's `fire_actions`; with a clock,
    each edge waits for it to reach a minute and resets it."""
    where = f"chart {chart.name!r} transition {transition.source}->{transition.target}"
    if transition.trigger is not None and not is_tick_trigger(transition.trigger):
        raise ExportError(f"{where}: event-triggered transitions are not exportable")
    if any(ga.guard != ex.TRUE for ga in chart.state(transition.source).exit_actions):
        raise ExportError(f"{where}: guarded exit actions are not exportable")
    for branch_guard, actions in entry_branches(fire_actions(chart, transition)):
        assigns = [] if clock is None else [f"{clock} = 0"]
        sync = None
        for action in actions:
            if isinstance(action, Raise):
                if sync is not None:
                    raise ExportError(f"{where}: more than one raised event on a single edge")
                sync = _flat(action.event)
            else:
                assigns.append(_assign_text(action))
        guards = [guard for guard in (transition.guard, branch_guard) if guard != ex.TRUE]
        if clock is not None:  # the clock test as a leaf, so a `||` guard is bracketed
            guards.insert(0, ex.Var(f"{clock} >= 1"))
        guard_text = ex.to_text(functools.reduce(ex.conjoin, guards), _flat) if guards else ""
        lines.append(_edge(transition, guard_text, sync, assigns))


def _export_process(chart: StatechartModel, clock: str | None) -> list[str]:
    identifiers = {chart.name}
    identifiers.update(v.name for v in chart.variables)
    identifiers.update(chart.events)
    identifiers.update(s.name for s in chart.states)
    _check_injective(sorted(identifiers), f"chart {chart.name!r}")

    lines = [f"process {_flat(chart.name)}() {{"]
    if clock is not None:
        lines.append(f"    clock {clock};")
    invariant = "" if clock is None else f" {{ {clock} <= 1 }}"
    lines.append("    state " + ", ".join(_flat(s.name) + invariant for s in chart.states) + ";")
    lines.append(f"    init {_flat(chart.initial_state)};")
    edges: list[str] = []
    for transition in chart.transitions:
        _export_edges(chart, transition, clock, edges)
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

    initial_valuation = init_composition(composition, Scenario()).valuation

    lines: list[str] = []
    for decl in variables:
        keyword = "bool" if decl.kind == ex.KIND_BOOLEAN else "int"
        lines.append(f"{keyword} {_flat(decl.name)} = {value_text(initial_valuation[decl.name])};")
    for event in events:
        lines.append(f"broadcast chan {_flat(event)};")
    taken = {_flat(name) for name in global_names}
    for chart in composition.charts:
        clock = None
        if chart is composition.timer:  # the one clock, counting the minutes that `curT` counts
            clock = _pick_clock_name(taken | {_flat(s.name) for s in chart.states})
        lines.append("")
        lines.extend(_export_process(chart, clock))
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
