"""Annotation and guard strengthening.

`annotate` attaches `//@RES:` annotations to states and transitions whose
raised actions appear in a resource map. `integrate` then strengthens
transition guards with the matching RES.* availability variables: first
every annotated state strengthens all of its incoming transitions, then
every annotated transition strengthens itself. Both passes change nothing
else; annotations survive integration.
"""

from __future__ import annotations

from . import expr as ex
from .errors import ResweaveError
from .model import (
    Annotation,
    Diagnostic,
    State,
    StatechartModel,
    Transition,
    list_raised_actions,
)
from .resources import ResourceMap, resource_variable


class IntegrationError(ResweaveError):
    pass


def annotate(model: StatechartModel, resource_map: ResourceMap) -> StatechartModel:
    """Attach one concatenated-resource annotation per matching element.

    Resources are concatenated in raised-action order, duplicates preserved.
    Elements whose computed annotation is already present are left alone, so
    re-running the pass is a no-op.
    """
    states = tuple(_annotate_element(s, resource_map) for s in model.states)
    transitions = tuple(_annotate_element(t, resource_map) for t in model.transitions)
    return model._replace(states=states, transitions=transitions)


def _annotate_element(element, resource_map: ResourceMap):
    gathered = [r for action in list_raised_actions(element) for r in resource_map.get(action) or ()]
    if not gathered:
        return element
    annotation = Annotation(tuple(gathered))
    if annotation in element.annotations:
        return element
    return element._replace(annotations=element.annotations + (annotation,))


def collect_annotations(element: State | Transition) -> tuple[str, ...]:
    """All annotated resources on the element, concatenated in order."""
    return tuple(r for annotation in element.annotations for r in annotation.resources)


def strengthen_guard(guard: ex.Expr, resources) -> ex.Expr:
    """`G && RES.r1 && ... && RES.rn`, left-associated; empty list returns G."""
    for resource in resources:
        guard = ex.conjoin(guard, ex.Var(resource_variable(resource)))
    return guard


def integrate(model: StatechartModel) -> StatechartModel:
    """Strengthen guards from annotations; only guards change.

    Requires a declared RES.* variable for every annotated resource (the
    resource interface must be merged into the model first), and no
    strengthened guard may be nested deeper than `ex.MAX_DEPTH`.
    """
    declared = {v.name for v in model.variables}
    for element in (*model.states, *model.transitions):
        for resource in collect_annotations(element):
            if resource_variable(resource) not in declared:
                raise IntegrationError(
                    f"annotation references resource {resource!r} but variable "
                    f"{resource_variable(resource)!r} is not declared; synthesize the interface first"
                )

    incoming: dict[str, list[int]] = {}
    for index, transition in enumerate(model.transitions):
        incoming.setdefault(transition.target, []).append(index)
    added: list[tuple[str, ...]] = [() for _ in model.transitions]  # state resources, then transition ones
    for state in model.states:
        resources = collect_annotations(state)
        for index in incoming.get(state.name, ()):
            added[index] += resources
    for index, transition in enumerate(model.transitions):
        added[index] += collect_annotations(transition)

    transitions = []
    for index, (transition, resources) in enumerate(zip(model.transitions, added)):
        if resources:
            if ex.depth(transition.guard) + len(resources) > ex.MAX_DEPTH:
                raise IntegrationError(
                    f"transitions[{index}]({transition.source}->{transition.target}): the guard "
                    f"strengthened with {len(resources)} resources is nested deeper than "
                    f"{ex.MAX_DEPTH} levels"
                )
            transition = transition._replace(guard=strengthen_guard(transition.guard, resources))
        transitions.append(transition)
    return model._replace(transitions=tuple(transitions))


def integration_warnings(model: StatechartModel) -> list[Diagnostic]:
    """Non-fatal findings: an annotated initial state has no incoming guard to strengthen."""
    out: list[Diagnostic] = []
    for state in model.states:
        if state.name == model.initial_state and collect_annotations(state):
            out.append(
                Diagnostic(
                    f"states({state.name})",
                    "initial state is annotated; there is no incoming transition to strengthen",
                )
            )
    return out

