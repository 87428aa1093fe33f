"""Weave resource availability into executable statechart guideline models.

The pipeline: annotate required resources onto a guideline chart from a
resource map, synthesize a timer chart, availability charts, and the RES.*
variable interface from a schedule, strengthen transition guards so actions
block while their resources are unavailable, then simulate the composition
on a discrete minute clock, check safety invariants over all enumerated
scenarios, and export the composition as timed-automata text.
"""

from .verify import (
    Counterexample,
    Invariant,
    Verdict,
    check,
    enumerate_scenarios,
    eval_invariant,
    parse_properties,
)
from .errors import ResweaveError
from .expr import eval_expr, parse_expr, to_text
from .model import (
    Annotation,
    Assign,
    Diagnostic,
    GuardedAction,
    Raise,
    State,
    StatechartModel,
    Transition,
    VariableDecl,
    list_raised_actions,
    parse_model,
    serialize_model,
    validate_model,
)
from .resources import (
    AvailabilitySchedule,
    ResourceMap,
    Window,
    is_available,
    parse_resource_map,
    parse_schedule,
    synthesize_resource_chart,
    synthesize_timer,
)
from .sim import (
    Composition,
    Scenario,
    SimState,
    StepReport,
    Trace,
    init_composition,
    macro_step,
    replay_trace,
    run,
    trace_lines,
    trace_to_json,
)
from .weave import annotate, collect_annotations, integrate, strengthen_guard
from .xta import export_queries, export_xta, scan_xta

__version__ = "0.1.0"
