"""Resource maps, availability schedules, and synthesized charts.

Map format (UTF-8 lines, `#` comments):

    CTscan: CT_machine, CT_technician
    givetPA: tPA

Schedule format (UTF-8 lines, `#` comments, at most one `horizon: N`, which bounds the windows, default 720):

    CT_machine: (200, inf)
    CT_technician: (60, 120), (240, 480)

A window `(s, e)` makes the resource available for exactly the minutes
`s < t <= e`; `inf` leaves the window open-ended and a start of `-1` means
available from t=0. A resource absent from a schedule is never available.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, reduce
from typing import NamedTuple

from . import expr as ex
from .errors import ResweaveError
from .model import Assign, GuardedAction, State, StatechartModel, Transition, VariableDecl

RES_PREFIX = "RES."
CLOCK_VARIABLE = "curT"
DEFAULT_HORIZON = 720

_WINDOW_RE = re.compile(r"\(\s*(-?[0-9]+)\s*,\s*(inf|-?[0-9]+)\s*\)")


class MapFormatError(ResweaveError):
    pass


class ScheduleFormatError(ResweaveError):
    pass


class Window(NamedTuple):
    """Availability interval with exclusive start and inclusive end."""

    start_exclusive: int
    end_inclusive: int | float  # math.inf for an unbounded right end


ALWAYS = (Window(-1, math.inf),)


class _Entries(NamedTuple):
    entries: tuple[tuple[str, tuple[str, ...]], ...]


class ResourceMap(_Entries):
    """Ordered mapping from medical action (event name) to resource list; the record of its
    `entries`, which also keeps its index by action, built on first use."""

    def get(self, action: str) -> tuple[str, ...] | None:
        """The resources of the first entry for `action`, or None."""
        return self._by_action.get(action)

    @cached_property
    def _by_action(self) -> dict[str, tuple[str, ...]]:
        # Built in reverse, so that of two entries for one action the first is kept.
        return dict(reversed(self.entries))

    def unique_resources(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(r for _, resources in self.entries for r in resources))


class AvailabilitySchedule(NamedTuple):
    entries: dict[str, tuple[Window, ...]]
    horizon: int = DEFAULT_HORIZON

    def windows_for(self, resource: str) -> tuple[Window, ...]:
        return self.entries.get(resource, ())


def content_lines(text: str):
    """(line number, line) for each line left non-empty once its `#` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_resource_map(text: str) -> ResourceMap:
    entries: list[tuple[str, tuple[str, ...]]] = []
    seen: set[str] = set()
    for lineno, line in content_lines(text):
        action, sep, rest = line.partition(":")
        action = action.strip()
        if not sep:
            raise MapFormatError(f"line {lineno}: expected 'action: r1, r2, ...'")
        if not ex.IDENT_RE.match(action):
            raise MapFormatError(f"line {lineno}: bad action name {action!r}")
        if action in seen:
            raise MapFormatError(f"line {lineno}: duplicate action {action!r}")
        seen.add(action)
        items = [item.strip() for item in rest.split(",")] if rest.strip() else []
        if not items:
            raise MapFormatError(f"line {lineno}: action {action!r} has an empty resource list")
        for item in items:
            if " " in item:
                raise MapFormatError(
                    f"line {lineno}: resource name {item!r} contains a space; use underscores"
                )
            if not ex.IDENT_RE.match(item):
                raise MapFormatError(f"line {lineno}: bad resource name {item!r}")
        entries.append((action, tuple(items)))
    return ResourceMap(tuple(entries))


def parse_schedule(text: str) -> AvailabilitySchedule:
    entries: dict[str, tuple[Window, ...]] = {}
    horizon = None
    for lineno, line in content_lines(text):
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep:
            raise ScheduleFormatError(f"line {lineno}: expected 'resource: (s, e), ...'")
        if key == "horizon":
            if horizon is not None:
                raise ScheduleFormatError(f"line {lineno}: duplicate horizon")
            horizon = ex.parse_int(rest.strip())
            if horizon is None or horizon <= 0:
                raise ScheduleFormatError(f"line {lineno}: horizon {rest.strip()!r} is not a positive 64-bit integer")
            continue
        if not ex.IDENT_RE.match(key):
            raise ScheduleFormatError(f"line {lineno}: bad resource name {key!r}")
        if key in entries:
            raise ScheduleFormatError(f"line {lineno}: duplicate resource {key!r}")
        windows = []
        for match in _WINDOW_RE.finditer(rest):
            start = ex.parse_int(match.group(1))
            end = math.inf if match.group(2) == "inf" else ex.parse_int(match.group(2))
            if start is None or end is None:
                raise ScheduleFormatError(f"line {lineno}: window bound outside 64 bits in {rest.strip()!r}")
            windows.append(Window(start, end))
        leftovers = _WINDOW_RE.sub("", rest).replace(",", "").strip()
        if not windows or leftovers:
            raise ScheduleFormatError(f"line {lineno}: cannot parse window list {rest.strip()!r}")
        entries[key] = _normalize_windows(windows, lineno, key)
    schedule = AvailabilitySchedule(entries, horizon or DEFAULT_HORIZON)
    for resource, windows in entries.items():
        for window in windows:
            if window.start_exclusive > schedule.horizon or (
                not math.isinf(window.end_inclusive) and window.end_inclusive > schedule.horizon
            ):
                raise ScheduleFormatError(
                    f"resource {resource!r}: window bound beyond horizon {schedule.horizon}"
                )
    return schedule


def _normalize_windows(windows: list[Window], lineno: int, resource: str) -> tuple[Window, ...]:
    for window in windows:
        if window.start_exclusive < -1:
            raise ScheduleFormatError(
                f"line {lineno}: resource {resource!r} has negative bound {window.start_exclusive}"
            )
        if not window.start_exclusive < window.end_inclusive:
            raise ScheduleFormatError(
                f"line {lineno}: resource {resource!r} window start {window.start_exclusive} "
                f"is not below end {window.end_inclusive}"
            )
    ordered = sorted(windows, key=lambda w: w.start_exclusive)
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.start_exclusive < prev.end_inclusive:
            raise ScheduleFormatError(
                f"line {lineno}: resource {resource!r} has overlapping windows"
            )
    return tuple(ordered)


def is_available(windows: tuple[Window, ...] | list[Window], t: int) -> bool:
    """True iff some window contains t (strict-start membership)."""
    return any(w.start_exclusive < t <= w.end_inclusive for w in windows)


# ---------------------------------------------------------------------------
# Chart synthesis


def synthesize_timer() -> StatechartModel:
    """One-state chart whose self-loop advances the shared clock each minute."""
    loop = Transition(
        source="timer",
        target="timer",
        trigger="every 60s",
        actions=(Assign(CLOCK_VARIABLE, ex.BinOp("+", ex.Var(CLOCK_VARIABLE), ex.IntLit(1))),),
    )
    return StatechartModel(
        name="Timer",
        variables=(VariableDecl(CLOCK_VARIABLE, ex.KIND_INTEGER, 0),),
        states=(State("timer"),),
        transitions=(loop,),
        initial_state="timer",
    )


def resource_variable(resource: str) -> str:
    return RES_PREFIX + resource


def interface_for_resources(resources) -> tuple[VariableDecl, ...]:
    """One boolean RES.<r> per unique resource, first-occurrence order, default false."""
    return tuple(VariableDecl(resource_variable(r), ex.KIND_BOOLEAN, False) for r in dict.fromkeys(resources))


def availability_regions(windows) -> list[tuple[int | float, int | float, bool]]:
    """Partition of all clock values into (lo_exclusive, hi_inclusive, available) runs.

    Regions are returned in time order and cover every integer exactly once.
    Windows must be disjoint.
    """
    ordered = sorted(windows, key=lambda w: w.start_exclusive)
    for earlier, later in zip(ordered, ordered[1:]):
        if later.start_exclusive < earlier.end_inclusive:
            raise ValueError("windows overlap")
    regions: list[tuple[int | float, int | float, bool]] = []
    prev: int | float = -1
    for window in ordered:
        if window.start_exclusive > prev:
            regions.append((prev, window.start_exclusive, False))
        regions.append((max(window.start_exclusive, prev), window.end_inclusive, True))
        prev = window.end_inclusive
    if not math.isinf(prev):
        regions.append((prev, math.inf, False))
    return regions


def _region_guard(lo: int | float, hi: int | float, first: bool) -> ex.Expr:
    # The first region's lower bound is open so the family stays exhaustive
    # for every integer clock value, not just nonnegative ones.
    clock = ex.Var(CLOCK_VARIABLE)
    conjuncts: list[ex.Expr] = []
    if not first:
        conjuncts.append(ex.BinOp(">", clock, ex.IntLit(int(lo))))
    if not math.isinf(hi):
        conjuncts.append(ex.BinOp("<=", clock, ex.IntLit(int(hi))))
    return reduce(ex.conjoin, conjuncts) if conjuncts else ex.TRUE


def synthesize_resource_chart(resource: str, windows) -> StatechartModel:
    """One-state chart refreshing RES.<resource> from the clock every cycle.

    The single state re-enters through a guard-true self-loop; its entry
    actions are a complementary guarded family (available regions first)
    that assigns the availability flag exactly once per entry.
    """
    regions = availability_regions(windows)
    flag = resource_variable(resource)
    entry: list[GuardedAction] = []
    for want_available in (True, False):
        for i, (lo, hi, available) in enumerate(regions):
            if available != want_available:
                continue
            guard = _region_guard(lo, hi, first=(i == 0))
            entry.append(GuardedAction(Assign(flag, ex.BoolLit(available)), guard))
    loop = Transition(source=resource, target=resource, guard=ex.TRUE)
    return StatechartModel(
        name=resource,
        variables=(
            VariableDecl(CLOCK_VARIABLE, ex.KIND_INTEGER, 0),
            VariableDecl(flag, ex.KIND_BOOLEAN, False),
        ),
        states=(State(resource, entry_actions=tuple(entry)),),
        transitions=(loop,),
        initial_state=resource,
    )
