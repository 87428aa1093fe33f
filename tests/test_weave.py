import random

import pytest

from resweave import expr as ex
from resweave import weave
from resweave.model import (
    Annotation,
    GuardedAction,
    Raise,
    State,
    StatechartModel,
    Transition,
    VariableDecl,
    serialize_model,
)
from resweave.resources import ResourceMap, interface_for_resources

from generators import gen_map, gen_model, without_annotations, without_guards


def test_annotate_stroke_model(simple_model, simple_map):
    annotated = weave.annotate(simple_model, simple_map)
    ct = annotated.state("CT")
    assert ct.annotations == (Annotation(("CT_machine", "CT_technician")),)
    give = next(t for t in annotated.transitions if t.target == "tPA")
    assert give.annotations == (Annotation(("tPA",)),)
    others = [s for s in annotated.states if s.name != "CT"]
    assert all(not s.annotations for s in others)
    document = serialize_model(annotated)
    assert "//@RES: CT_machine, CT_technician" in document
    assert "//@RES: tPA" in document


def test_annotate_empty_map_is_identity(simple_model):
    assert weave.annotate(simple_model, ResourceMap(())) == simple_model


def test_annotate_concatenates_in_raised_order():
    model = StatechartModel(
        name="Two",
        events=("CTscan", "givetPA"),
        states=(
            State(
                "s",
                entry_actions=(
                    GuardedAction(Raise("CTscan")),
                    GuardedAction(Raise("givetPA")),
                ),
            ),
        ),
        initial_state="s",
    )
    rmap = ResourceMap((("CTscan", ("CT_machine", "CT_technician")), ("givetPA", ("tPA",))))
    annotated = weave.annotate(model, rmap)
    assert annotated.state("s").annotations == (
        Annotation(("CT_machine", "CT_technician", "tPA")),
    )


def test_annotate_skips_unmatched_actions():
    model = StatechartModel(
        name="Unmatched",
        events=("other",),
        states=(State("s", entry_actions=(GuardedAction(Raise("other")),)),),
        initial_state="s",
    )
    rmap = ResourceMap((("CTscan", ("CT_machine",)),))
    assert weave.annotate(model, rmap) == model


def test_annotate_is_idempotent(simple_model, simple_map):
    once = weave.annotate(simple_model, simple_map)
    assert weave.annotate(once, simple_map) == once


def test_annotate_changes_only_annotations(simple_model, simple_map):
    annotated = weave.annotate(simple_model, simple_map)
    assert without_annotations(annotated) == without_annotations(simple_model)
    assert without_annotations(annotated) == simple_model  # fixture starts bare


def test_collect_annotations():
    state = State("s", annotations=(Annotation(("a",)), Annotation(("b",))))
    assert weave.collect_annotations(state) == ("a", "b")
    assert weave.collect_annotations(State("t")) == ()


def test_strengthen_guard_surface():
    strengthened = weave.strengthen_guard(ex.Var("tPAad"), ["tPA"])
    assert ex.to_text(strengthened) == "tPAad && RES.tPA"
    strengthened = weave.strengthen_guard(ex.Var("orderCT"), ["CT_machine", "CT_technician"])
    assert ex.to_text(strengthened) == "orderCT && RES.CT_machine && RES.CT_technician"
    # left-associated: ((orderCT && RES.CT_machine) && RES.CT_technician)
    assert strengthened.right == ex.Var("RES.CT_technician")
    assert strengthened.left == ex.BinOp("&&", ex.Var("orderCT"), ex.Var("RES.CT_machine"))
    untouched = ex.Var("x")
    assert weave.strengthen_guard(untouched, []) is untouched


def test_strengthen_guard_keeps_duplicates():
    strengthened = weave.strengthen_guard(ex.TRUE, ["r", "r"])
    assert ex.to_text(strengthened) == "true && RES.r && RES.r"


def _with_interface(model, resources):
    return model._replace(variables=model.variables + interface_for_resources(resources))


def test_integrate_stroke_guards(simple_model, simple_map):
    annotated = weave.annotate(simple_model, simple_map)
    annotated = _with_interface(annotated, ("CT_machine", "CT_technician", "tPA"))
    integrated = weave.integrate(annotated)
    by_pair = {(t.source, t.target): t for t in integrated.transitions}
    assert ex.to_text(by_pair[("NeuAss", "CT")].guard) == (
        "orderCT && RES.CT_machine && RES.CT_technician"
    )
    assert ex.to_text(by_pair[("tPAcheck", "tPA")].guard) == "tPAad && RES.tPA"
    # everything else untouched
    assert ex.to_text(by_pair[("Start", "NeuAss")].guard) == "true"
    assert ex.to_text(by_pair[("tPAcheck", "noTPA")].guard) == "!tPAad"
    # annotations are retained on the output
    assert integrated.state("CT").annotations == (Annotation(("CT_machine", "CT_technician")),)


def test_integrate_without_annotations_is_identity(simple_model):
    assert weave.integrate(simple_model) == simple_model


def test_integrate_changes_only_guards(simple_model, simple_map):
    annotated = _with_interface(
        weave.annotate(simple_model, simple_map), ("CT_machine", "CT_technician", "tPA")
    )
    integrated = weave.integrate(annotated)
    assert without_guards(integrated) == without_guards(annotated)


def test_integrate_requires_interface(simple_model, simple_map):
    annotated = weave.annotate(simple_model, simple_map)
    with pytest.raises(weave.IntegrationError, match="CT_machine"):
        weave.integrate(annotated)


def _diamond() -> StatechartModel:
    return StatechartModel(
        name="Diamond",
        variables=(VariableDecl("p", "boolean", False), VariableDecl("RES.r", "boolean", False)),
        states=(
            State("top"),
            State("left"),
            State("right"),
            State("low", annotations=(Annotation(("r",)),)),
        ),
        transitions=(
            Transition("top", "left"),
            Transition("top", "right"),
            Transition("left", "low", guard=ex.Var("p")),
            Transition("right", "low", guard=ex.Not(ex.Var("p"))),
        ),
        initial_state="top",
    )


def test_state_annotation_strengthens_every_incoming_transition():
    integrated = weave.integrate(_diamond())
    incoming = [t for t in integrated.transitions if t.target == "low"]
    assert [ex.to_text(t.guard) for t in incoming] == ["p && RES.r", "!p && RES.r"]
    untouched = [t for t in integrated.transitions if t.target != "low"]
    assert all(t.guard == ex.TRUE for t in untouched)


def test_self_loop_counts_as_incoming():
    model = StatechartModel(
        name="Loop",
        variables=(VariableDecl("RES.r", "boolean", False),),
        states=(State("s", annotations=(Annotation(("r",)),)),),
        transitions=(Transition("s", "s"),),
        initial_state="s",
    )
    integrated = weave.integrate(model)
    assert ex.to_text(integrated.transitions[0].guard) == "true && RES.r"


def test_state_conjuncts_precede_transition_conjuncts():
    model = StatechartModel(
        name="Both",
        variables=(
            VariableDecl("RES.state_r", "boolean", False),
            VariableDecl("RES.trans_r", "boolean", False),
        ),
        states=(
            State("a"),
            State("b", annotations=(Annotation(("state_r",)),)),
        ),
        transitions=(Transition("a", "b", annotations=(Annotation(("trans_r",)),)),),
        initial_state="a",
    )
    integrated = weave.integrate(model)
    assert ex.to_text(integrated.transitions[0].guard) == "true && RES.state_r && RES.trans_r"


def test_annotated_initial_state_warns():
    model = StatechartModel(
        name="W",
        variables=(VariableDecl("RES.r", "boolean", False),),
        states=(State("s", annotations=(Annotation(("r",)),)), State("t")),
        transitions=(Transition("s", "t"),),
        initial_state="s",
    )
    warnings = weave.integration_warnings(model)
    assert len(warnings) == 1
    assert "initial state" in warnings[0].message
    # and integrate still succeeds, leaving the unreachable annotation alone
    integrated = weave.integrate(model)
    assert integrated.transitions[0].guard == ex.TRUE


def test_added_conjuncts_reference_annotated_resources_only():
    rng = random.Random(97)
    for _ in range(100):
        model = weave.annotate(gen_model(rng), gen_map(rng))
        resources = set()
        for element in (*model.states, *model.transitions):
            resources.update(weave.collect_annotations(element))
        model = _with_interface(model, sorted(resources))
        integrated = weave.integrate(model)
        for before, after in zip(model.transitions, integrated.transitions):
            allowed = set(weave.collect_annotations(before))
            allowed.update(weave.collect_annotations(integrated.state(before.target)))
            added = _added_conjuncts(before.guard, after.guard)
            for conjunct in added:
                assert isinstance(conjunct, ex.Var)
                assert conjunct.name.startswith("RES.")
                assert conjunct.name.removeprefix("RES.") in allowed


def _added_conjuncts(original, strengthened):
    added = []
    node = strengthened
    while node != original:
        assert isinstance(node, ex.BinOp) and node.op == "&&"
        added.append(node.right)
        node = node.left
    return added
