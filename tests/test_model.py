import json
import random
from typing import NamedTuple, get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resweave import expr as ex
from resweave import model as m
from resweave import resources as res
from resweave import sim
from resweave.errors import ResweaveError

import reference_model
from conftest import fixture_text
from generators import gen_annotations, gen_model
from test_fuzz import _json_text, _json_values, _keys_edited, edited

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


@pytest.mark.parametrize(
    "document, message",
    [
        ({"extra": 1}, "$: unknown key 'extra'"),
        ({"states": [{"name": "s", "entry": [], "guard": "true"}]}, "states[0]: unknown key 'guard'"),
        ({"transitions": [{"source": "s", "target": "s", "entry": []}]}, "transitions[0]: unknown key 'entry'"),
    ],
)
def test_unknown_key_messages_name_the_element(document, message):
    with pytest.raises(m.ModelFormatError) as err:
        m.parse_model(json.dumps({"name": "X", "states": [{"name": "s"}], "initial": "s", **document}))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "document, message",
    [
        ({"variables": [{"name": "x", "kind": "integer", "initial": 0, "value": 1}]},
         "variables[0]: unknown key 'value'"),
        ({"variables": [{"name": "x", "kind": 1, "initial": 0}]},
         "variables[0].kind: expected a string, found int"),
        ({"variables": [{"name": "x", "kind": "integer"}]},
         "variables[0].initial: expected a boolean or an integer, found NoneType"),
        ({"transitions": [{"source": "s", "target": "s", "trigger": 1}]},
         "transitions[0].trigger: expected a string, found int"),
    ],
)
def test_shape_messages_name_the_element(document, message):
    with pytest.raises(m.ModelFormatError) as err:
        m.parse_model(json.dumps({"name": "X", "states": [{"name": "s"}], "initial": "s", **document}))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "document, message",
    [
        ({"transitions": [{"source": "s", "target": "s", "actions": ["go now"]}]},
         "transitions[0].actions[0]: cannot parse action 'go now': expected 'var = expr' or 'raise Event'"),
        ({"states": [{"name": "s", "entry": ["exit/ raise E"]}]},
         "states[0].entry[0]: cannot parse entry action 'exit/ raise E': expected 'entry[guard]/ action'"),
        ({"states": [{"name": "s", "exit": ["exit[x > 1] raise E"]}]},
         "states[0].exit[0]: cannot parse exit action 'exit[x > 1] raise E': expected 'exit[guard]/ action'"),
    ],
    ids=["action", "entry-as-exit", "exit-without-slash"],
)
def test_action_grammar_messages_name_the_element(document, message):
    with pytest.raises(m.ModelFormatError) as err:
        m.parse_model(json.dumps({"name": "X", "states": [{"name": "s"}], "initial": "s", **document}))
    assert str(err.value) == message


def test_json_number_of_thousands_of_digits_is_a_format_error():
    with pytest.raises(m.ModelFormatError) as err:
        m.parse_model('{"name": ' + "1" * 5000 + "}")
    assert str(err.value) == "JSON number of more than 4300 digits"


class _Record(NamedTuple):
    """A record whose fields are not in sorted order."""

    zeta: object
    alpha: object


class _Reversed(NamedTuple):
    """A record with `_Record`'s field names in the other order, and one more, not ASCII."""

    alpha: object
    zeta: object
    café: object = None


class _Empty(NamedTuple):
    pass


def _plain(value):
    """`value` as `json` would be given it: each record an object of its fields."""
    if hasattr(value, "_fields"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return list(map(_plain, value)) if isinstance(value, (list, tuple)) else value


_TEXTS = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\U0001f600'), max_size=8)
_SCALARS = (st.none() | st.booleans() | st.floats() | _TEXTS | st.integers(min_value=-2**63, max_value=2**63 - 1)
            | st.sampled_from([-2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1]))
_VALUES = st.recursive(_SCALARS, lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                                                | st.dictionaries(_TEXTS, inner, max_size=4)
                                                | st.builds(_Record, inner, inner)
                                                | st.builds(_Reversed, inner, inner, inner)
                                                | st.just(_Empty())), max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_VALUES, st.booleans(), st.booleans())
@example({"b": [1, {"d": None, "c": True}], "a": _Record(2, "x")}, True, True)
@example(["caf\u00e9", {"\u00e9": "\U0001f600"}], False, False)
@example({"list": [], "tuple": (), "dict": {}, "in": [[], {}]}, False, True)
@example([_Record(1, _Reversed(2, 3)), _Reversed("caf\u00e9", 4)], False, False)  # the classes above, unsorted
def test_write_json_is_indented_json_dumps(value, sort_keys, ensure_ascii):
    """`write_json` writes what `json.dumps(..., indent=2)` writes, each record as the object of its
    fields; with `sort_keys` a record's fields are sorted too."""
    expected = json.dumps(_plain(value), indent=2, sort_keys=sort_keys, ensure_ascii=ensure_ascii)
    assert m.write_json(value, sort_keys=sort_keys, ensure_ascii=ensure_ascii) == expected


def test_write_json_orders_and_writes_each_record_class_in_each_call():
    """Records of two classes that share field names in different orders, nested in dicts nested in
    records, and empty records and containers, written in consecutive calls that switch `sort_keys`
    and `ensure_ascii`: what one call learns of a class does not carry into the next."""
    value = {
        "z": _Record(_Reversed({"b": _Record(1, _Empty()), "a": [_Reversed((), {}, "\u00e9")]}, _Empty()), {}),
        "a": [_Reversed(2, 3), _Record(4, 5), _Empty(), {"y": _Reversed({}, [])}],
        "empty": [[], {}, (), _Empty(), [_Empty()]],
    }
    for sort_keys, ensure_ascii in [(True, True), (False, True), (True, False), (False, False), (True, True)]:
        expected = json.dumps(_plain(value), indent=2, sort_keys=sort_keys, ensure_ascii=ensure_ascii)
        assert m.write_json(value, sort_keys=sort_keys, ensure_ascii=ensure_ascii) == expected
    assert m.write_json(_Empty()) == "{}"


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


@pytest.mark.parametrize(
    "fields, expected",
    [
        ({"variables": (m.VariableDecl("1x", "integer", 0),)}, ["variables[0]: bad variable name '1x'"]),
        ({"variables": (m.VariableDecl("true", "boolean", False),)}, ["variables[0]: bad variable name 'true'"]),
        (
            {"variables": (m.VariableDecl("x", "integer", 0), m.VariableDecl("y", "integer", 0),
                           m.VariableDecl("x", "integer", 0))},
            ["variables[2]: duplicate variable name 'x' (also variables[0])"],
        ),
        (
            # a name both bad and taken is diagnosed in that order, and before the kind
            {"variables": (m.VariableDecl("1x", "integer", 0), m.VariableDecl("1x", "real", 0))},
            ["variables[0]: bad variable name '1x'", "variables[1]: bad variable name '1x'",
             "variables[1]: duplicate variable name '1x' (also variables[0])", "variables[1]: unknown kind 'real'"],
        ),
        ({"events": ("a.b",)}, ["events[0]: bad event name 'a.b'"]),
        ({"events": ("tick",)}, ["events[0]: bad event name 'tick'"]),
        ({"events": ("E", "F", "E", "E")},
         ["events[2]: duplicate event name 'E' (also events[0])",
          "events[3]: duplicate event name 'E' (also events[0])"]),
        ({"states": (m.State("s"), m.State("exit"))}, ["states[1](exit): bad state name 'exit'"]),
        ({"states": (m.State("s"), m.State("t"), m.State("s"))},
         ["states[2](s): duplicate state name 's' (also states[0])"]),
        ({"transitions": (m.Transition("s", "s", trigger="Go"),)},
         ["transitions[0](s->s): trigger names undeclared event 'Go'"]),
        # one cycle is one minute: no other period is read as a cycle
        ({"transitions": (m.Transition("s", "s", trigger="every 600s"),)},
         ["transitions[0](s->s): trigger 'every 600s' is not one minute: use 'tick' or 'every 60s'"]),
        ({"transitions": (m.Transition("s", "s", trigger="every 1s"),)},
         ["transitions[0](s->s): trigger 'every 1s' is not one minute: use 'tick' or 'every 60s'"]),
        ({"transitions": (m.Transition("s", "s", trigger="every 060s"),)},
         ["transitions[0](s->s): trigger 'every 060s' is not one minute: use 'tick' or 'every 60s'"]),
        ({"transitions": (m.Transition("s", "s", trigger="tick"), m.Transition("s", "s", trigger="every 60s"))}, []),
        ({"transitions": (m.Transition("s", "s", guard=ex.IntLit(1)),)},
         ["transitions[0](s->s).guard: guard must be boolean-typed"]),
        ({"states": (m.State("s", annotations=(m.Annotation(()),)),)},
         ["states[0](s).annotations[0]: annotation has an empty resource list"]),
        ({"transitions": (m.Transition("s", "s", annotations=(m.Annotation(("ok", "no way")),)),)},
         ["transitions[0](s->s).annotations[0]: bad resource identifier 'no way'"]),
        ({"variables": (m.VariableDecl("b", "boolean", 0),)}, ["variables[0]: initial 0 does not match kind boolean"]),
        ({"transitions": (m.Transition("gone", "s"),)}, ["transitions[0](gone->s): source names missing state 'gone'"]),
        ({"variables": (m.VariableDecl("x", "integer", 0),),
          "transitions": (m.Transition("s", "s", actions=(m.Assign("x", ex.parse_expr("1 + true")),)),)},
         ["transitions[0](s->s).actions[0]: '+' requires integer operands"]),
    ],
)
def test_validate_model_messages(fields, expected):
    model = m.StatechartModel(**{"name": "M", "states": (m.State("s"),), "initial_state": "s", **fields})
    assert [str(d) for d in m.validate_model(model)] == expected


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
    assert not m.is_tick_trigger("every 600s")
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


def test_state_lookup_by_name():
    model = m.StatechartModel(
        "Dup", states=(m.State("s", exit_actions=(m.GuardedAction(m.Raise("e")),)), m.State("s"), m.State("t")),
        initial_state="s",
    )
    assert model.state("s") is model.states[0]
    assert model.state("t") is model.states[2]
    with pytest.raises(KeyError):
        model.state("u")
    assert model._replace(states=(m.State("u"),)).state("u") == m.State("u")


_LEAVES_DOCUMENT = json.dumps({
    "name": "Leaves",
    "variables": [{"name": "n", "kind": "integer", "initial": 0}, {"name": "RES.r", "kind": "boolean", "initial": False}],
    "states": [
        {"name": "a", "entry": ["entry[n > 5]/ n = -5", "entry[RES.r]/ n = n + 5"], "exit": ["exit/ n = 0 - 5"]},
        {"name": "b", "exit": ["exit[n > 5]/ n = n * 5"]},
    ],
    "transitions": [
        {"source": "a", "target": "b", "guard": "n == -5 && RES.r", "actions": ["n = n * 5"]},
        {"source": "b", "target": "a", "guard": "!RES.r || n < 5"},
        {"source": "b", "target": "b", "guard": "n > 5"},
    ],
    "initial": "a",
})


def _trees(model: m.StatechartModel) -> list[ex.Expr]:
    """Every guard and assigned value of `model`, one entry per place it is written."""
    guarded = [ga for state in model.states for ga in (*state.entry_actions, *state.exit_actions)]
    actions = [*(ga.action for ga in guarded), *(a for t in model.transitions for a in t.actions)]
    return [*(ga.guard for ga in guarded), *(t.guard for t in model.transitions),
            *(a.value for a in actions if isinstance(a, m.Assign))]


def _leaves(tree: ex.Expr):
    if isinstance(tree, ex.Not):
        yield from _leaves(tree.operand)
    elif isinstance(tree, ex.BinOp):
        yield from _leaves(tree.left)
        yield from _leaves(tree.right)
    else:
        yield tree


def test_a_document_has_one_leaf_per_name_and_literal_text():
    """Every occurrence of a name in one document is one `Var`, and of a literal one `IntLit`;
    `-5` is a literal of its own, not the `5` read before it."""
    model = m.parse_model(_LEAVES_DOCUMENT)
    objects: dict[str, set[int]] = {}
    for leaf in (leaf for tree in _trees(model) for leaf in _leaves(tree)):
        objects.setdefault(ex.to_text(leaf), set()).add(id(leaf))
    assert {text: len(ids) for text, ids in objects.items()} == {"true": 1, "n": 1, "5": 1, "-5": 1, "RES.r": 1, "0": 1}
    assert m.parse_model(_LEAVES_DOCUMENT) == model


def test_validation_types_each_distinct_tree_once(monkeypatch):
    typed = []
    type_of = ex.type_of
    monkeypatch.setattr(ex, "type_of", lambda tree, kinds: typed.append(id(tree)) or type_of(tree, kinds))
    model = m.parse_model(_LEAVES_DOCUMENT)
    roots = [tree for tree in _trees(model) if isinstance(tree, (ex.BinOp, ex.Not))]  # no tree holds another
    assert len(roots) > len({id(tree) for tree in roots})  # some text is written twice
    assert sorted(filter({id(tree) for tree in roots}.__contains__, typed)) == sorted({id(tree) for tree in roots})


def test_each_distinct_expression_text_is_parsed_once(monkeypatch):
    texts = []

    class CountingParser(ex._Parser):
        def __init__(self, text, leaves):
            texts.append(text)
            super().__init__(text, leaves)

    monkeypatch.setattr(ex, "_Parser", CountingParser)
    model = m.parse_model(json.dumps({
        "name": "Shared",
        "variables": [{"name": "n", "kind": "integer", "initial": 0}],
        "states": [
            {"name": "a", "entry": ["entry/ n = n + 1", "entry[n > 1]/ n = n + 1"], "exit": ["exit/ n = n + 1"]},
            {"name": "b", "entry": ["entry/ n = n + 1"]},
        ],
        "transitions": [
            {"source": "a", "target": "b", "guard": "n > 1", "actions": ["n = n + 1"]},
            {"source": "b", "target": "a", "guard": "n > 1"},
            {"source": "b", "target": "b", "guard": "n>1"},
        ],
        "initial": "a",
    }))
    assert sorted(texts) == ["n + 1", "n > 1", "n>1"]
    a, b = model.states
    guards = [t.guard for t in model.transitions]
    assert a.entry_actions[0] is b.entry_actions[0]
    assert guards[0] is guards[1] is a.entry_actions[1].guard
    assert guards[2] == guards[0]
    assert model.transitions[0].actions[0].value is a.exit_actions[0].action.value


def _large_document(states: int) -> dict:
    """A valid document of `states` states, each with two entry actions and two outgoing transitions, that uses
    every kind of field."""
    rng = random.Random(states)
    names = [f"S{i:04d}" for i in range(states)]
    guard = lambda: f"n > {rng.randint(-9, 90)} && (flag || RES.r{rng.randrange(7)}) || !flag"  # noqa: E731
    return {
        "name": "Big",
        "variables": [{"name": "n", "kind": "integer", "initial": 0}, {"name": "flag", "kind": "boolean",
                      "initial": False}, *({"name": f"RES.r{k}", "kind": "boolean", "initial": True} for k in range(7))],
        "events": ["go", "stop"],
        "states": [{"name": name, "entry": [f"entry[{guard()}]/ n = n + {i % 5}", "entry/ raise go"],
                    **({"exit": ["exit/ flag = !flag"]} if i % 3 else {}), "annotations": [f"//@RES: r{i % 7}"]}
                   for i, name in enumerate(names)],
        "transitions": [{"source": names[i % states], "target": names[(i * 7 + 1) % states], "guard": guard(),
                         "trigger": [None, "go", "tick", "every 60s"][i % 4], "actions": [f"n = n * {i % 3} - 1"],
                         "annotations": [f"//@RES: r{i % 7}, r{(i + 1) % 7}"]} for i in range(2 * states)],
        "initial": names[0],
    }


def test_a_valid_document_is_read_without_refusal_work(monkeypatch):
    """Reading a valid 2,000-state document checks its elements in one pass each: `expect` and `expect_object` see
    only the document's own fields, and no expression's column is computed. Both are work for a refusal."""
    checked, rescanned = [], []
    expect, expect_object, refuse = m.expect, m.expect_object, ex._Parser.refuse
    monkeypatch.setattr(m, "expect", lambda obj, *args: checked.append(args[1]) or expect(obj, *args))
    monkeypatch.setattr(m, "expect_object", lambda obj, *args: checked.append(args[1]) or expect_object(obj, *args))
    monkeypatch.setattr(ex._Parser, "refuse", lambda parser, *args: rescanned.append(args) or refuse(parser, *args))
    document = _large_document(2000)
    model = m.parse_model(json.dumps(document))
    assert (len(model.states), len(model.transitions), model.diagnostics) == (2000, 4000, ())
    assert checked == ["$", "$", "name", "variables", "events", "states", "transitions", "initial"]
    assert rescanned == []
    document["transitions"][-1]["guard"] = "n )"
    with pytest.raises(m.ModelFormatError, match=r"^transitions\[3999\]\.guard: unexpected '\)' \(column 3\)$"):
        m.parse_model(json.dumps(document))
    assert rescanned == [("unexpected ')'", 1)]


# The keys of each record kind, and one that no record has.
_RECORD_KEYS = {
    "variables": ("name", "kind", "initial", "unknown"),
    "states": ("name", "entry", "exit", "annotations", "unknown"),
    "transitions": ("source", "target", "trigger", "guard", "actions", "annotations", "unknown"),
}
# Strings that a model field may hold, good and bad, and the same cut and spliced.
_FIELD_TEXTS = st.sampled_from([
    "x", "tick", "every 60s", "every 5m", "CTscan", "curT > 1 && RES.CT", "curT >", "1 @ 2", "(a", "-x", "a < b < c",
    "entry/ raise CTscan", "entry[curT > 200]/ orderCT = true", "exit/ x = ", "orderCT = 99999999999999999999",
    "raise", "raise CTscan", "//@RES: CT, 1x", "//@RES: CT_machine", "", "integer", "boolean", "Start",
]).flatmap(lambda text: st.just(text) | edited(text))


@st.composite
def _elements_edited(draw, text: str) -> str:
    """A model document with one to three of its elements edited: a key set to a model-like string, to a list of
    them, or to any JSON value, or removed; or the whole element replaced by a JSON value."""
    document = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        record = draw(st.sampled_from(sorted(_RECORD_KEYS)))
        elements = document[record]
        i = draw(st.integers(0, len(elements) - 1))
        value = draw(_FIELD_TEXTS | st.lists(_FIELD_TEXTS | _json_values, max_size=3) | _json_values)
        if draw(st.integers(0, 9)) == 0:
            elements[i] = value
        elif isinstance(elements[i], dict):
            key = draw(st.sampled_from(_RECORD_KEYS[record]))
            if draw(st.booleans()):
                elements[i][key] = value
            else:
                elements[i].pop(key, None)
    return _json_text(document)


def _read_with(reader, validate, text: str):
    try:
        model = reader(m.read_json(text))
    except ResweaveError as err:
        return "refused", str(err)
    return "read", model, repr(model), validate(model)


_READER_INPUTS = st.one_of(
    *(edited(fixture_text(name)) | _keys_edited(fixture_text(name)) | _elements_edited(fixture_text(name))
      for name in ("stroke_simple.json", "stroke_extended.json")),
)


def _with_transition(**fields) -> str:
    return json.dumps({"name": "X", "states": [{"name": "s"}], "initial": "s",
                       "transitions": [{"source": "s", "target": "s", **fields}]})


@settings(max_examples=400, deadline=None)
@given(_READER_INPUTS)
@example(_with_transition(trigger=1))
@example(_with_transition(trigger=["tick"], guard="(x"))
@example(_with_transition(guard="true && (x < 1"))
@example(_with_transition(guard="x < 1 y"))
@example(_with_transition(actions=["x = 1", "x = (1", 2]))
def test_reader_agrees_with_the_reference_reader(text):
    """Each document gives an equal model and the same diagnostics in the same order, or the identical refusal
    text, through `model` and through the field-by-field reader and validator of `tests/reference_model.py`."""
    assert _read_with(m._model_from_obj, m.validate_model, text) == _read_with(
        reference_model.model_from_obj, reference_model.validate_model, text)


def test_diagnostics_are_computed_once_per_model(monkeypatch):
    calls = []
    original = m.validate_model
    monkeypatch.setattr(m, "validate_model", lambda model: calls.append(model) or original(model))
    model = m.parse_model(MINIMAL)
    assert model.diagnostics == () and calls == [model]
    bad = model._replace(initial_state="gone")
    expected = (m.Diagnostic("initial", "initial state 'gone' is not a declared state"),)
    assert bad.diagnostics == bad.diagnostics == expected
    assert calls == [model, bad]


def _records(value):
    """Each record reachable from `value` through record fields and sequences: a `NamedTuple`, or
    an expression node, which names its fields in `_fields` too."""
    if hasattr(value, "_fields"):
        yield value
        for name in value._fields:
            yield from _records(getattr(value, name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _records(item)


@pytest.mark.parametrize(
    "name",
    ["simple_model", "extended_model", "simple_map", "extended_map", "simple_scenario", "extended_scenario",
     "delayed_composition"],
)
def test_readers_build_every_sequence_field_as_a_tuple(request, name):
    # The records do not convert what they are given, so each reader and each
    # weaving step must hand them tuples; a list anywhere would also make
    # `hash()` raise TypeError.
    value = request.getfixturevalue(name)
    records = list(_records(value.charts if isinstance(value, sim.Composition) else value))
    assert records
    for record in records:
        types = get_type_hints(type(record))
        for name in record._fields:
            where = f"{type(record).__name__}.{name}"
            assert not isinstance(getattr(record, name), list), where
            if str(types.get(name)).startswith("tuple["):
                assert isinstance(getattr(record, name), tuple), where
        if not isinstance(record, sim.Scenario):  # its `initial` is a dict
            hash(record)
    assert any(isinstance(r, (m.StatechartModel, res.ResourceMap, sim.Choice, sim.Injection)) for r in records)


def test_record_kinds_stay_distinct():
    """An expression node equals, and hashes as, only a node of its own kind, though `1 == True`:
    a `NamedTuple` node would equal every tuple of the same values, a node of another kind too."""
    assert ex.IntLit(1) != ex.BoolLit(True) and not ex.IntLit(1) == ex.BoolLit(True)
    assert ex.Var("x") != m.Raise("x") and m.Raise("x") != ex.Var("x")
    assert len({ex.IntLit(1), ex.BoolLit(True)}) == 2
    others = (ex.IntLit(1), (True,), ex.Var("true"), ex.Not(ex.FALSE), ex.BoolLit(False))
    assert ex.BoolLit(True) == ex.TRUE and not any(other == ex.TRUE for other in others)
    first, second = sim.Scenario(), sim.Scenario()
    assert first.initial == second.initial == {} and first.initial is not second.initial
    assert repr(ex.IntLit(1)) == "IntLit(value=1)"
    assert repr(ex.parse_expr("x + 1")) == "BinOp(op='+', left=Var(name='x'), right=IntLit(value=1))"
