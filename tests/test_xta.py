import json
import random
import re

import pytest

from resweave import expr as ex
from resweave import verify
from resweave.expr import compile_expr
from resweave.model import (
    Assign,
    GuardedAction,
    Raise,
    State,
    StatechartModel,
    Transition,
    VariableDecl,
    parse_model,
)
from resweave.resources import synthesize_timer
from resweave.sim import Composition
from resweave.xta import ExportError, entry_branches, export_queries, export_xta, scan_xta

from generators import gen_timed_composition


def single_state_chart(name="Lone") -> StatechartModel:
    return StatechartModel(name, states=(State("only"),), initial_state="only")


def test_single_state_chart_exports_one_location_no_edges():
    document = export_xta(Composition(guidelines=(single_state_chart(),)))
    assert "process Lone() {" in document
    assert "    state only;" in document
    assert "    init only;" in document
    assert "trans" not in document
    assert "system Lone;" in document
    assert scan_xta(document) == []


def test_timer_exports_as_clock_process():
    document = export_xta(Composition(timer=synthesize_timer()))
    assert "clock x;" in document
    assert "state timer { x <= 1 };" in document
    assert "timer -> timer { guard x >= 1; assign x = 0, curT++; };" in document
    assert scan_xta(document) == []


def test_simplified_stroke_export(delayed_composition):
    document = export_xta(delayed_composition)
    for name in ("RES_CT_machine", "RES_CT_technician", "RES_tPA"):
        assert f"bool {name} = " in document
    assert "tPAcheck -> tPA { guard tPAad && RES_tPA; sync givetPA!; }" in document
    assert "guard orderCT && RES_CT_machine && RES_CT_technician; sync CTscan!;" in document
    assert "." not in document.split("system ")[1].split(";")[0]
    assert scan_xta(document) == []


def test_initializers_reflect_time_zero_entries(delayed_composition, ideal_composition):
    # CT resources are offline at t=0, the tPA stock is on hand
    document = export_xta(delayed_composition)
    assert "bool RES_CT_machine = false;" in document
    assert "bool RES_tPA = true;" in document
    document = export_xta(ideal_composition)
    assert "bool RES_CT_machine = true;" in document


def test_structure_preservation_counts(delayed_composition, extended_composition):
    for composition in (delayed_composition, extended_composition):
        document = export_xta(composition)
        for chart in composition.charts:
            body = process_body(document, chart)
            assert bool(CLOCK_LINE.search(body)) == (chart is composition.timer)
            state_line = next(line for line in body.splitlines() if line.strip().startswith("state "))
            locations = state_line.count(",") + 1
            edges = body.count("->")
            assert locations == len(chart.states)
            expected_edges = sum(
                len(entry_branches(chart.state(t.target).entry_actions))
                for t in chart.transitions
            )
            assert edges == expected_edges


def test_entry_branch_splitting():
    guarded = (
        GuardedAction(Assign("x", ex.IntLit(1))),
        GuardedAction(Assign("y", ex.IntLit(2)), ex.parse_expr("x>0")),
        GuardedAction(Assign("y", ex.IntLit(3)), ex.parse_expr("x<=0")),
    )
    branches = entry_branches(guarded)
    assert len(branches) == 2
    for guard, actions in branches:
        assert actions[0] == Assign("x", ex.IntLit(1))
        assert len(actions) == 2
    assert branches[0][0] == ex.parse_expr("x>0")
    chart = StatechartModel(
        "Split",
        variables=(VariableDecl("x", "integer", 0), VariableDecl("y", "integer", 0)),
        states=(State("a"), State("b", entry_actions=guarded)),
        transitions=(Transition("a", "b", guard=ex.parse_expr("x==0")),),
        initial_state="a",
    )
    document = export_xta(Composition(guidelines=(chart,)))
    assert "a -> b { guard x==0 && x>0; assign x = 1, y = 2; }" in document
    assert "a -> b { guard x==0 && x<=0; assign x = 1, y = 3; }" in document
    assert scan_xta(document) == []


def test_identical_guarded_entries_split_once_each():
    # Equal strings of one document parse to one shared object, so the split
    # must tell the two entries apart by position, not by identity.
    chart = parse_model(json.dumps({
        "name": "Twice",
        "variables": [{"name": "a", "kind": "integer", "initial": 0}],
        "states": [{"name": "A"}, {"name": "B", "entry": ["entry[a>1]/ a = a + 1"] * 2}],
        "transitions": [{"source": "A", "target": "B"}],
        "initial": "A",
    }))
    first, second = chart.state("B").entry_actions
    assert first is second
    assert export_xta(Composition(guidelines=(chart,))) == (
        "int a = 0;\n"
        "\n"
        "process Twice() {\n"
        "    state A, B;\n"
        "    init A;\n"
        "    trans\n"
        "        A -> B { guard a>1; assign a++; },\n"
        "        A -> B { guard a>1; assign a++; };\n"
        "}\n"
        "\n"
        "system Twice;\n"
    )


def test_event_trigger_is_rejected():
    chart = StatechartModel(
        "Trig",
        events=("go",),
        states=(State("a"), State("b")),
        transitions=(Transition("a", "b", trigger="go"),),
        initial_state="a",
    )
    with pytest.raises(ExportError, match="a->b"):
        export_xta(Composition(guidelines=(chart,)))


def test_guarded_exit_action_is_rejected():
    chart = StatechartModel(
        "Gex",
        variables=(VariableDecl("x", "integer", 0),),
        states=(
            State("a", exit_actions=(GuardedAction(Assign("x", ex.IntLit(1)), ex.parse_expr("x>0")),)),
            State("b"),
        ),
        transitions=(Transition("a", "b"),),
        initial_state="a",
    )
    with pytest.raises(ExportError, match="exit"):
        export_xta(Composition(guidelines=(chart,)))


def test_double_raise_on_edge_is_rejected():
    chart = StatechartModel(
        "TwoRaise",
        events=("e1", "e2"),
        states=(State("a"), State("b")),
        transitions=(Transition("a", "b", actions=(Raise("e1"), Raise("e2"))),),
        initial_state="a",
    )
    with pytest.raises(ExportError, match="more than one raised event"):
        export_xta(Composition(guidelines=(chart,)))


def test_name_flattening_collision_is_rejected():
    chart = StatechartModel(
        "Coll",
        variables=(
            VariableDecl("RES.tPA", "boolean", False),
            VariableDecl("RES_tPA", "boolean", False),
        ),
        states=(State("s"),),
        initial_state="s",
    )
    with pytest.raises(ExportError, match="RES"):
        export_xta(Composition(guidelines=(chart,)))


def test_flatten_names_flag():
    chart = StatechartModel(
        "Dots",
        variables=(VariableDecl("RES.r", "boolean", False),),
        states=(State("s"),),
        initial_state="s",
    )
    flat = export_xta(Composition(guidelines=(chart,)))
    assert "RES_r" in flat and "RES.r" not in flat


def test_deterministic_output(delayed_composition):
    assert export_xta(delayed_composition) == export_xta(delayed_composition)


def test_export_queries_mirror_property_shapes(delayed_composition):
    properties = verify.parse_properties(
        "P1: A[] Stroke.tPA imply systolicBP<=185 && diastolicBP<=110 && !hemorrhage\n"
        "P2: A[] Stroke.tPAcheck imply tpaT-onsetT<=180\n"
        "Q: A[] RES.tPA || curT>=0\n",
        delayed_composition,
    )
    sidecar = export_queries(properties)
    assert "//P1\nA[] Stroke.tPA imply systolicBP<=185 && diastolicBP<=110 && !hemorrhage\n" in sidecar
    assert "//P2\nA[] Stroke.tPAcheck imply tpaT-onsetT<=180\n" in sidecar
    assert "A[] RES_tPA || curT>=0" in sidecar


def test_scanner_flags_problems():
    assert scan_xta("int x = 0;\nsystem P;\n")  # unknown process
    broken = "int x = 0;\n\nprocess P() {\n    state s;\n    init s;\n    trans\n        s -> s { guard ghost>1; };\n}\n\nsystem P;\n"
    assert any("ghost" in p for p in scan_xta(broken))
    assert any("brace" in p for p in scan_xta("process P() {\nsystem P;\n"))
    assert any("system" in p for p in scan_xta("int x = 0;\n"))


SCANNED = "process P() {\n    state s;\n    init s;\n    trans\n        s -> s { };\n}\n\nsystem P;\n"


@pytest.mark.parametrize("document, problem", [
    (SCANNED, None),
    ("wat;\n" + SCANNED, "line 1: unrecognized global line 'wat;'"),
    (SCANNED.replace("init s;", "init t;"), "line 3: init references unknown location 't'"),
    (SCANNED.replace("s -> s", "s -> t"), "line 5: edge references unknown location 't'"),
    (SCANNED.replace("s -> s", "u -> s"), "line 5: edge references unknown location 'u'"),
], ids=["clean", "global-line", "init", "edge-target", "edge-source"])
def test_scanner_names_each_structural_problem(document, problem):
    assert scan_xta(document) == ([problem] if problem else [])


def test_clock_name_steps_past_a_taken_x():
    guideline = StatechartModel(
        "G", variables=(VariableDecl("x", "integer", 0),), states=(State("s"),), initial_state="s",
    )
    document = export_xta(Composition(timer=synthesize_timer(), guidelines=(guideline,)))
    assert "    clock x_;\n    state timer { x_ <= 1 };\n" in document
    assert "timer -> timer { guard x_ >= 1; assign x_ = 0, curT++; }" in document
    assert scan_xta(document) == []


def test_export_compiles_no_expression(monkeypatch, extended_composition):
    compiled = []

    def counted(expr, kinds):
        compiled.append(expr)
        return compile_expr(expr, kinds)

    monkeypatch.setattr(ex, "compile_expr", counted)
    fresh = Composition(extended_composition.timer, extended_composition.resources, extended_composition.guidelines)
    assert export_xta(fresh) == export_xta(extended_composition)
    assert compiled == []


def test_flattening_collision_keeps_its_message():
    chart = StatechartModel(
        "Coll",
        variables=(VariableDecl("RES.a", "boolean", False),),
        events=("RES_a",),
        states=(State("s"),),
        initial_state="s",
    )
    with pytest.raises(ExportError) as err:
        export_xta(Composition(guidelines=(chart,)))
    assert str(err.value) == (
        "name flattening collides in the global declarations: 'RES.a' and 'RES_a' both map to 'RES_a'"
    )


@pytest.mark.parametrize(
    "declarations, problem",
    [
        ("bool go = false;\nbroadcast chan go;\n", "line 2: global identifier 'go' declared twice"),
        ("int n = 0;\nint n = 1;\n", "line 2: global identifier 'n' declared twice"),
        ("int P = 0;\n", "line 3: global identifier 'P' declared twice"),
        ("broadcast chan P;\n", "line 3: global identifier 'P' declared twice"),
        ("int n = 0;\nbroadcast chan go;\n", None),
    ],
    ids=["variable-channel", "variable-twice", "variable-process", "channel-process", "distinct"],
)
def test_scanner_flags_a_global_declared_twice(declarations, problem):
    document = declarations + "\nprocess P() {\n    state s;\n    init s;\n}\n\nsystem P;\n"
    assert scan_xta(document) == ([problem] if problem else [])


def pump(guard: str | None) -> StatechartModel:
    """A guideline of one state whose tick self-loop counts doses, shaped like a timer."""
    loop = {"source": "s", "target": "s", "trigger": "tick", "actions": ["doses = doses + 1"]}
    return parse_model(json.dumps({
        "name": "Pump",
        "variables": [{"name": "on", "kind": "boolean", "initial": False},
                      {"name": "doses", "kind": "integer", "initial": 0}],
        "states": [{"name": "s"}],
        "transitions": [loop if guard is None else {**loop, "guard": guard}],
        "initial": "s",
    }))


CLOCK_LINE = re.compile(r"^    clock \w+;$", re.MULTILINE)


def process_body(document: str, chart: StatechartModel) -> str:
    return document.split(f"process {chart.name}() {{\n")[1].split("\n}")[0]


@pytest.mark.parametrize("timer", [synthesize_timer(), None], ids=["timer", "no-timer"])
@pytest.mark.parametrize("guard, edge", [("on", "s -> s { guard on; assign doses++; }"),
                                         (None, "s -> s { assign doses++; }")], ids=["guarded", "unguarded"])
def test_a_guideline_tick_loop_is_exported_untimed(timer, guard, edge):
    # Timed, a guarded loop would timelock: while `on` is false no edge leaves
    # `s` at x = 1, and the invariant x <= 1 forbids any delay.
    document = export_xta(Composition(timer, guidelines=(pump(guard),)))
    assert process_body(document, pump(guard)) == f"    state s;\n    init s;\n    trans\n        {edge};"
    assert len(CLOCK_LINE.findall(document)) == (timer is not None)
    assert scan_xta(document) == []


def test_only_the_timer_declares_a_clock(delayed_composition, extended_composition, ideal_composition):
    rng = random.Random(24)
    compositions = [delayed_composition, extended_composition, ideal_composition]
    compositions += [gen_timed_composition(rng, 40) for _ in range(40)]
    exported = 0
    for composition in compositions:
        for guidelines in (composition.guidelines, composition.guidelines + (pump("on"),)):
            for timer in (composition.timer, None):
                try:
                    document = export_xta(Composition(timer, composition.resources, guidelines))
                except ExportError:  # an event trigger or a second raise on an edge
                    continue
                exported += 1
                assert len(CLOCK_LINE.findall(document)) == (timer is not None)
                if timer is not None:
                    assert CLOCK_LINE.search(process_body(document, timer))
                assert scan_xta(document) == []
    assert exported >= 50


def test_reserved_words_are_written_with_an_underscore():
    chart = parse_model(json.dumps({
        "name": "Words",
        "variables": [{"name": "urgent", "kind": "boolean", "initial": False},
                      {"name": "clock", "kind": "integer", "initial": 0}],
        "states": [{"name": "S"}, {"name": "init"}],
        "transitions": [{"source": "S", "target": "init", "guard": "!urgent && clock<3",
                         "actions": ["clock = clock + 1"]}],
        "initial": "S",
    }))
    composition = Composition(guidelines=(chart,))
    document = export_xta(composition)
    assert document == (
        "bool urgent_ = false;\n"
        "int clock_ = 0;\n"
        "\n"
        "process Words() {\n"
        "    state S, init_;\n"
        "    init S;\n"
        "    trans\n"
        "        S -> init_ { guard !urgent_ && clock_<3; assign clock_++; };\n"
        "}\n"
        "\n"
        "system Words;\n"
    )
    assert scan_xta(document) == []
    properties = verify.parse_properties("P: A[] Words.init imply !urgent || clock>=0\n", composition)
    assert export_queries(properties) == "//P\nA[] Words.init_ imply !urgent_ || clock_>=0\n"


def test_a_name_written_like_a_renamed_reserved_word_is_refused():
    chart = StatechartModel(
        "Coll",
        variables=(VariableDecl("urgent", "boolean", False), VariableDecl("urgent_", "boolean", False)),
        states=(State("s"),),
        initial_state="s",
    )
    with pytest.raises(ExportError) as err:
        export_xta(Composition(guidelines=(chart,)))
    assert str(err.value) == (
        "name flattening collides in the global declarations: 'urgent' and 'urgent_' both map to 'urgent_'"
    )


@pytest.mark.parametrize(
    "declarations, state, problems",
    [
        ("bool urgent = false;\n", "s", ["line 1: reserved word 'urgent' declared as an identifier"]),
        ("broadcast chan select;\n", "s", ["line 1: reserved word 'select' declared as an identifier"]),
        ("", "s, init", ["line 3: reserved word 'init' declared as an identifier"]),
        ("bool urgent_ = false;\n", "s, init_", []),
    ],
    ids=["variable", "channel", "location", "renamed"],
)
def test_scanner_flags_a_reserved_word_declared_as_an_identifier(declarations, state, problems):
    document = f"{declarations}\nprocess P() {{\n    state {state};\n    init s;\n}}\n\nsystem P;\n"
    assert scan_xta(document) == problems
