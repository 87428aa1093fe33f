"""Annotate required resources from a map, then strengthen guards with them.

Annotation concatenates the resource arrays of every medical action an
element raises and attaches a single `//@RES:` marker. Integration then
conjoins `RES.*` availability flags onto guards: each annotated state
strengthens all of its incoming transitions, each annotated transition
strengthens itself. Nothing else changes.
"""

from pathlib import Path

from resweave import annotate, integrate, parse_model, parse_resource_map, to_text
from resweave.resources import interface_for_resources
from resweave.weave import collect_annotations

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

model = parse_model((FIXTURES / "stroke_simple.json").read_text())
resource_map = parse_resource_map((FIXTURES / "stroke_simple.map").read_text())
print("resource map:")
for action, resources in resource_map.entries:
    print(f"  {action} -> {', '.join(resources)}")

annotated = annotate(model, resource_map)
print("\nannotations attached:")
for state in annotated.states:
    for annotation in state.annotations:
        print(f"  state {state.name}: //@RES: {', '.join(annotation.resources)}")
for transition in annotated.transitions:
    for annotation in transition.annotations:
        print(f"  transition {transition.source}->{transition.target}: //@RES: {', '.join(annotation.resources)}")

# guards can only reference declared variables, so merge the RES interface first
resources = sorted(
    {r for e in (*annotated.states, *annotated.transitions) for r in collect_annotations(e)}
)
prepared = annotated._replace(variables=annotated.variables + interface_for_resources(resources))
integrated = integrate(prepared)

print("\nguards before -> after integration:")
for before, after in zip(model.transitions, integrated.transitions):
    if before.guard != after.guard:
        print(f"  {before.source}->{before.target}:")
        print(f"    {to_text(before.guard)}")
        print(f"    {to_text(after.guard)}")
