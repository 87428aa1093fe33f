import random

import pytest

from resweave import expr as ex
from resweave import model as m

from generators import gen_annotations, gen_model

MINIMAL = """
{
  "name": "Tiny",
  "states": [{"name": "only"}],
  "initial": "only"
}
"""


def test_parse_stroke_fixture(simple_model):
    assert simple_model.name == "Stroke"
    assert {s.name for s in simple_model.states} == {
        "Start", "NeuAss", "CT", "BPCheck", "tPAcheck", "tPA", "noTPA",
    }
    assert {v.name for v in simple_model.variables} == {
        "curT", "onsetT", "tpaT", "tPAad", "orderCT", "systolicBP", "diastolicBP", "hemorrhage",
    }
    assert simple_model.events == ("CTscan", "givetPA")
    assert simple_model.initial_state == "Start"
    assert m.validate_model(simple_model) == []


def test_parse_minimal_model():
    model = m.parse_model(MINIMAL)
    assert model.states == (m.State("only"),)
    assert model.transitions == ()
    assert model.variables == ()


def test_dangling_target_is_semantic_error():
    text = MINIMAL.replace(
        '"states": [{"name": "only"}],',
        '"states": [{"name": "only"}], "transitions": [{"source": "only", "target": "gone"}],',
    )
    with pytest.raises(m.ModelSemanticsError) as err:
        m.parse_model(text)
    assert "only->gone" in str(err.value)
    assert "gone" in str(err.value)


def test_json_syntax_error_carries_line_and_column():
    with pytest.raises(m.ModelFormatError) as err:
        m.parse_model('{\n  "name": "X",\n  "oops"\n}')
    assert err.value.line is not None and err.value.line > 1
    assert err.value.column is not None
    assert "line" in str(err.value)


def test_unknown_keys_rejected():
    with pytest.raises(m.ModelFormatError, match="unknown key"):
        m.parse_model('{"name": "X", "states": [{"name": "s"}], "initial": "s", "extra": 1}')


def test_roundtrip_minimal_and_fixtures(simple_model, extended_model):
    for model in (m.parse_model(MINIMAL), simple_model, extended_model):
        assert m.parse_model(m.serialize_model(model)) == model


def test_entry_action_surface_forms():
    ga = m.parse_guarded_action("entry/ raise CTscan", "entry")
    assert ga == m.GuardedAction(m.Raise("CTscan"), ex.TRUE)
    ga = m.parse_guarded_action("entry[curT>200]/ RES.CT_machine = true", "entry")
    assert ga.guard == ex.parse_expr("curT>200")
    assert ga.action == m.Assign("RES.CT_machine", ex.TRUE)
    # an explicit [true] guard parses to the same structure as the short form
    assert m.parse_guarded_action("entry[true]/ raise CTscan", "entry") == m.parse_guarded_action(
        "entry/ raise CTscan", "entry"
    )
    assert m.guarded_action_to_text(ga, "entry") == "entry[curT>200]/ RES.CT_machine = true"


def test_serialized_document_contains_guarded_entry_surface():
    model = m.StatechartModel(
        name="Charted",
        variables=(
            m.VariableDecl("curT", "integer", 0),
            m.VariableDecl("RES.CT_machine", "boolean", False),
        ),
        states=(
            m.State(
                "CT_machine",
                entry_actions=(
                    m.GuardedAction(m.Assign("RES.CT_machine", ex.TRUE), ex.parse_expr("curT>200")),
                ),
            ),
        ),
        initial_state="CT_machine",
    )
    document = m.serialize_model(model)
    assert "entry[curT>200]/ RES.CT_machine = true" in document
    assert m.parse_model(document) == model


def test_serialized_document_contains_annotation_lines():
    annotation = m.Annotation(("CT_machine", "CT_technician"))
    model = m.StatechartModel(
        name="Annotated",
        states=(m.State("CT", annotations=(annotation,)),),
        initial_state="CT",
    )
    document = m.serialize_model(model)
    assert "//@RES: CT_machine, CT_technician" in document
    assert m.parse_model(document) == model


def test_annotation_text_roundtrip():
    annotation = m.parse_annotation("//@RES: CT_machine, CT_technician")
    assert annotation.resources == ("CT_machine", "CT_technician")
    assert m.annotation_to_text(annotation) == "//@RES: CT_machine, CT_technician"
    with pytest.raises(m.ModelFormatError):
        m.parse_annotation("//RES: x")
    with pytest.raises(m.ModelFormatError):
        m.parse_annotation("//@RES: two words")


def test_validate_duplicate_state_cites_both():
    model = m.StatechartModel(
        name="Dup",
        states=(m.State("s"), m.State("s")),
        initial_state="s",
    )
    diagnostics = m.validate_model(model)
    assert len(diagnostics) == 1
    assert "states[0]" in diagnostics[0].message and "s" in diagnostics[0].path


def test_validate_type_mismatch_in_guard():
    model = m.StatechartModel(
        name="Typed",
        variables=(m.VariableDecl("p", "boolean", False),),
        states=(m.State("s"),),
        transitions=(m.Transition("s", "s", guard=ex.parse_expr("p < 1")),),
        initial_state="s",
    )
    diagnostics = m.validate_model(model)
    assert any("integer operands" in d.message for d in diagnostics)
    assert any("guard" in d.path for d in diagnostics)


def test_validate_assignment_kind_and_undeclared_target():
    model = m.StatechartModel(
        name="Typed",
        variables=(m.VariableDecl("x", "integer", 0),),
        states=(
            m.State("s", entry_actions=(m.GuardedAction(m.Assign("x", ex.TRUE)),)),
        ),
        initial_state="s",
    )
    assert any("boolean value to integer" in d.message for d in m.validate_model(model))
    model = m.StatechartModel(
        name="Typed",
        states=(m.State("s", entry_actions=(m.GuardedAction(m.Assign("y", ex.IntLit(1))),)),),
        initial_state="s",
    )
    assert any("not a declared variable" in d.message for d in m.validate_model(model))


def test_validate_initial_state_and_events():
    model = m.StatechartModel(name="X", states=(m.State("s"),), initial_state="nope")
    assert any(d.path == "initial" for d in m.validate_model(model))
    model = m.StatechartModel(
        name="X",
        states=(m.State("s", entry_actions=(m.GuardedAction(m.Raise("E")),)),),
        initial_state="s",
    )
    assert any("not declared" in d.message for d in m.validate_model(model))


def test_list_raised_actions(simple_model):
    ct = simple_model.state("CT")
    assert m.list_raised_actions(ct) == ("CTscan",)
    give = next(t for t in simple_model.transitions if t.target == "tPA")
    assert m.list_raised_actions(give) == ("givetPA",)
    assert m.list_raised_actions(simple_model.state("Start")) == ()


def test_list_raised_actions_preserves_order_and_duplicates():
    state = m.State(
        "s",
        entry_actions=(
            m.GuardedAction(m.Raise("E1")),
            m.GuardedAction(m.Assign("x", ex.IntLit(1))),
            m.GuardedAction(m.Raise("E0")),
            m.GuardedAction(m.Raise("E1")),
        ),
    )
    assert m.list_raised_actions(state) == ("E1", "E0", "E1")


def test_raised_actions_are_declared_events():
    rng = random.Random(11)
    for _ in range(100):
        model = gen_model(rng)
        declared = set(model.events)
        for state in model.states:
            assert set(m.list_raised_actions(state)) <= declared
        for transition in model.transitions:
            assert set(m.list_raised_actions(transition)) <= declared


def test_trigger_forms():
    assert m.is_tick_trigger("tick")
    assert m.is_tick_trigger("every 60s")
    assert not m.is_tick_trigger("CTscan")
    assert not m.is_tick_trigger(None)


def test_roundtrip_generated_models():
    rng = random.Random(23)
    for _ in range(200):
        model = gen_annotations(rng, gen_model(rng, with_triggers=True))
        assert m.parse_model(m.serialize_model(model)) == model


def test_valid_generated_models_pass_validation():
    rng = random.Random(5)
    for _ in range(100):
        assert m.validate_model(gen_model(rng, with_triggers=True)) == []
