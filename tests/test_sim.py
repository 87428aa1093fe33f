import gc
import json
import random
import re

import pytest

from resweave import expr as ex
from resweave import sim
from resweave.model import (
    Assign,
    GuardedAction,
    ModelFormatError,
    Raise,
    State,
    StatechartModel,
    Transition,
    VariableDecl,
)
from resweave.resources import Window, is_available, parse_schedule, synthesize_resource_chart, synthesize_timer

from generators import gen_composition, gen_scenario


def timer_only() -> sim.Composition:
    return sim.Composition(timer=synthesize_timer(), resources=(), guidelines=())


def test_init_timer_only():
    state = sim.init_composition(timer_only(), sim.Scenario())
    assert state.curT == 0
    assert state.active == {"Timer": "timer"}
    assert state.valuation == {"curT": 0}


def test_timer_alone_counts_steps():
    state = sim.init_composition(timer_only(), sim.Scenario())
    for _ in range(10):
        sim.macro_step(state)
    assert state.curT == 10
    assert state.valuation["curT"] == 10


def test_init_resource_flags_match_availability(delayed_composition, simple_scenario):
    resolved = simple_scenario.resolve(
        {"hemorrhage": False, "systolicBP": 150, "diastolicBP": 100}
    )
    state = sim.init_composition(delayed_composition, resolved)
    assert state.curT == 0
    schedule = {
        "CT_machine": (Window(200, float("inf")),),
        "CT_technician": (Window(200, float("inf")),),
        "tPA": (Window(-1, float("inf")),),
    }
    for resource, windows in schedule.items():
        assert state.valuation[f"RES.{resource}"] == is_available(windows, 0)


def test_init_rejects_undeclared_variable(delayed_composition):
    with pytest.raises(sim.ScenarioError, match="nonesuch"):
        sim.init_composition(delayed_composition, sim.Scenario(initial={"nonesuch": 1}))


def test_init_rejects_unresolved_choices(delayed_composition, simple_scenario):
    with pytest.raises(sim.ScenarioError, match="hemorrhage"):
        sim.init_composition(delayed_composition, simple_scenario)


def test_inconsistent_declarations_rejected():
    a = StatechartModel(
        "A", variables=(VariableDecl("x", "integer", 0),), states=(State("s"),), initial_state="s"
    )
    b = StatechartModel(
        "B", variables=(VariableDecl("x", "boolean", False),), states=(State("s"),), initial_state="s"
    )
    with pytest.raises(sim.SimulationError, match="'x'"):
        sim.init_composition(sim.Composition(guidelines=(a, b)), sim.Scenario())


def test_duplicate_chart_names_rejected():
    a = StatechartModel("A", states=(State("s"),), initial_state="s")
    with pytest.raises(sim.SimulationError, match="duplicate"):
        sim.init_composition(sim.Composition(guidelines=(a, a)), sim.Scenario())


def test_hand_built_invalid_chart_rejected():
    bad = StatechartModel("Bad", states=(State("s"),), initial_state="gone")
    message = "chart 'Bad' is invalid: initial: initial state 'gone' is not a declared state"
    with pytest.raises(sim.SimulationError, match=re.escape(message)):
        sim.Composition(guidelines=(bad,))


def test_a_composition_builds_one_runtime_per_chart_in_execution_order(delayed_composition, monkeypatch):
    built = []

    class Counted(sim._ChartIndex):
        def __init__(self, chart, composition):
            built.append(chart.name)
            super().__init__(chart, composition)

    monkeypatch.setattr(sim, "_ChartIndex", Counted)
    charts = (delayed_composition.timer, delayed_composition.resources, delayed_composition.guidelines)
    composition = sim.Composition(*charts)
    assert built == ["Timer", "CT_machine", "CT_technician", "tPA", "Stroke"]
    assert [runtime.chart for runtime in composition.runtimes] == list(composition.charts)


def test_quiet_chart_reports_no_fires():
    chart = StatechartModel("Quiet", states=(State("s"),), initial_state="s")
    state = sim.init_composition(sim.Composition(guidelines=(chart,)), sim.Scenario())
    report = sim.macro_step(state)
    assert report.fires == ()
    assert report.deltas == {}


def _delayed_state(delayed_composition, simple_scenario, **choices):
    assignment = {"hemorrhage": False, "systolicBP": 150, "diastolicBP": 100}
    assignment.update(choices)
    resolved = simple_scenario.resolve(assignment)
    return sim.init_composition(delayed_composition, resolved)


def test_blocked_until_resources_appear(delayed_composition, simple_scenario):
    state = _delayed_state(delayed_composition, simple_scenario)
    entered_ct_at = None
    for _ in range(210):
        report = sim.macro_step(state)
        if state.curT <= 200:
            assert state.active["Stroke"] in ("Start", "NeuAss")
        stroke_fires = [f for f in report.fires if f.chart == "Stroke"]
        if any(f.target == "CT" for f in stroke_fires):
            entered_ct_at = state.curT
            assert "CTscan" in report.raised
    assert entered_ct_at == 201


def test_run_ideal_reaches_tpa_within_window(ideal_composition, simple_scenario):
    resolved = simple_scenario.resolve(
        {"hemorrhage": False, "systolicBP": 150, "diastolicBP": 100}
    )
    state = sim.init_composition(ideal_composition, resolved)
    trace = sim.run(state, 720)
    assert state.active["Stroke"] == "tPA"
    assert state.valuation["tpaT"] - state.valuation["onsetT"] <= 180
    fired = [(s.t, f.source, f.target) for s in trace.steps for f in s.fires if f.chart == "Stroke"]
    assert (20, "NeuAss", "CT") in fired
    assert (23, "tPAcheck", "tPA") in fired


def test_run_delayed_misses_window(delayed_composition, simple_scenario):
    state = _delayed_state(delayed_composition, simple_scenario)
    trace = sim.run(state, 720)
    fired = [(s.t, f.source, f.target) for s in trace.steps for f in s.fires if f.chart == "Stroke"]
    assert (203, "BPCheck", "tPAcheck") in fired
    assert state.valuation["tpaT"] - state.valuation["onsetT"] > 180


def test_run_horizon_zero_is_initialization_only(delayed_composition, simple_scenario):
    state = _delayed_state(delayed_composition, simple_scenario)
    trace = sim.run(state, 0)
    assert len(trace.steps) == 1
    assert trace.steps[0].t == 0


def test_clock_soundness_and_resource_coherence(delayed_composition, simple_scenario):
    state = _delayed_state(delayed_composition, simple_scenario)
    schedule = parse_schedule(
        "CT_machine: (200, inf)\nCT_technician: (200, inf)\ntPA: (-1, inf)\n"
    )
    for k in range(1, 301):
        sim.macro_step(state)
        assert state.curT == k
        assert state.valuation["curT"] == k
        for resource in ("CT_machine", "CT_technician", "tPA"):
            expected = is_available(schedule.windows_for(resource), k)
            assert state.valuation[f"RES.{resource}"] == expected


def test_single_fire_per_chart_per_step(delayed_composition, simple_scenario):
    state = _delayed_state(delayed_composition, simple_scenario)
    for _ in range(250):
        report = sim.macro_step(state)
        charts = [f.chart for f in report.fires]
        assert len(charts) == len(set(charts))


def test_determinism_byte_identical(delayed_composition, simple_scenario):
    resolved = simple_scenario.resolve(
        {"hemorrhage": True, "systolicBP": 190, "diastolicBP": 120}
    )
    traces = []
    for _ in range(2):
        state = sim.init_composition(delayed_composition, resolved)
        traces.append(sim.trace_to_json(sim.run(state, 400)))
    assert traces[0] == traces[1]


def test_replay_reproduces_trace(delayed_composition, simple_scenario):
    resolved = simple_scenario.resolve(
        {"hemorrhage": False, "systolicBP": 150, "diastolicBP": 100}
    )
    state = sim.init_composition(delayed_composition, resolved)
    trace = sim.run(state, 300)
    replayed = sim.replay_trace(delayed_composition, trace)
    assert sim.trace_to_json(replayed) == sim.trace_to_json(trace)


def test_replay_builds_its_injections_as_a_tuple(delayed_composition, simple_scenario, monkeypatch):
    resolved = simple_scenario.resolve({"hemorrhage": False, "systolicBP": 150, "diastolicBP": 100})
    trace = sim.run(sim.init_composition(delayed_composition, resolved), 300)
    scenarios = []
    original = sim.init_composition
    monkeypatch.setattr(sim, "init_composition", lambda c, s: scenarios.append(s) or original(c, s))
    replayed = sim.replay_trace(delayed_composition, trace)
    assert sim.trace_to_json(replayed) == sim.trace_to_json(trace)
    (scenario,) = scenarios
    assert isinstance(scenario.injections, tuple) and len(scenario.injections) == len(resolved.initial) + 1
    hash(scenario.injections)


def test_injection_visible_same_minute():
    chart = StatechartModel(
        "G",
        variables=(VariableDecl("go", "boolean", False),),
        states=(State("a"), State("b")),
        transitions=(Transition("a", "b", guard=ex.Var("go")),),
        initial_state="a",
    )
    scenario = sim.Scenario(injections=(sim.Injection(3, "go", True),))
    state = sim.init_composition(sim.Composition(guidelines=(chart,)), scenario)
    for _ in range(2):
        assert sim.macro_step(state).fires == ()
    report = sim.macro_step(state)
    assert [(f.source, f.target) for f in report.fires] == [("a", "b")]
    assert report.injected == (("go", True),)


@pytest.mark.parametrize("role", ["guideline", "resource"])
def test_injection_at_time_zero_applies_before_entry(role):
    """Minute 0 runs no chart ahead of its injections, whatever its role; only from minute 1 does the clock tick first."""
    chart = StatechartModel(
        "G",
        variables=(
            VariableDecl("seen", "integer", 0),
            VariableDecl("x", "integer", 0),
        ),
        states=(State("a", entry_actions=(GuardedAction(Assign("seen", ex.Var("x"))),),),),
        initial_state="a",
    )
    scenario = sim.Scenario(injections=(sim.Injection(0, "x", 9),))
    composition = sim.Composition(resources=(chart,)) if role == "resource" else sim.Composition(guidelines=(chart,))
    state = sim.init_composition(composition, scenario)
    assert state.valuation["seen"] == 9


def test_event_visible_downstream_within_step_only():
    raiser = StatechartModel(
        "Raiser",
        events=("ping",),
        states=(State("a"), State("b")),
        transitions=(Transition("a", "b", actions=(Raise("ping"),)),),
        initial_state="a",
    )
    # Its counting self-loop records every minute it does not hear `ping`, so it never sleeps and runs every minute.
    listener = StatechartModel(
        "Listener",
        variables=(VariableDecl("n", "integer", 0),),
        events=("ping",),
        states=(State("idle"), State("heard")),
        transitions=(
            Transition("idle", "heard", trigger="ping"),
            Transition("idle", "idle", actions=(Assign("n", ex.BinOp("+", ex.Var("n"), ex.IntLit(1))),)),
        ),
        initial_state="idle",
    )
    # listener after raiser: hears the event in the same macro-step
    state = sim.init_composition(sim.Composition(guidelines=(raiser, listener)), sim.Scenario())
    report = sim.macro_step(state)
    assert state.active == {"Raiser": "b", "Listener": "heard"}
    assert report.raised == ("ping",)
    # listener before raiser: the event is cleared at the step boundary
    state = sim.init_composition(sim.Composition(guidelines=(listener, raiser)), sim.Scenario())
    sim.macro_step(state)
    assert state.active["Listener"] == "idle"
    sim.macro_step(state)
    assert (state.active["Listener"], state.valuation["n"]) == ("idle", 2)


def test_priority_is_declaration_order():
    chart = StatechartModel(
        "P",
        states=(State("a"), State("b"), State("c")),
        transitions=(Transition("a", "b"), Transition("a", "c")),
        initial_state="a",
    )
    state = sim.init_composition(sim.Composition(guidelines=(chart,)), sim.Scenario())
    report = sim.macro_step(state)
    assert state.active["P"] == "b"
    assert report.fires[0].index == 0


def test_exit_then_actions_then_entry_order():
    chart = StatechartModel(
        "Order",
        variables=(VariableDecl("x", "integer", 0),),
        states=(
            State(
                "a",
                exit_actions=(GuardedAction(Assign("x", ex.IntLit(1))),),
            ),
            State(
                "b",
                entry_actions=(GuardedAction(Assign("x", ex.parse_expr("x*10"))),),
            ),
        ),
        transitions=(
            Transition("a", "b", actions=(Assign("x", ex.parse_expr("x+1")),)),
        ),
        initial_state="a",
    )
    state = sim.init_composition(sim.Composition(guidelines=(chart,)), sim.Scenario())
    sim.macro_step(state)
    # exit sets 1, transition makes 2, entry multiplies to 20
    assert state.valuation["x"] == 20


def test_self_loop_reexecutes_entry_actions():
    chart = StatechartModel(
        "Refresh",
        variables=(VariableDecl("n", "integer", 0),),
        states=(State("s", entry_actions=(GuardedAction(Assign("n", ex.parse_expr("n+1"))),),),),
        transitions=(Transition("s", "s"),),
        initial_state="s",
    )
    state = sim.init_composition(sim.Composition(guidelines=(chart,)), sim.Scenario())
    assert state.valuation["n"] == 1  # initial entry
    for _ in range(4):
        sim.macro_step(state)
    assert state.valuation["n"] == 5


def test_a_fire_is_compiled_the_first_time_it_runs(monkeypatch):
    guard, value = ex.parse_expr("n > 5"), ex.parse_expr("n + 7")
    chart = StatechartModel(
        "Waits",
        variables=(VariableDecl("n", "integer", 0),),
        states=(State("a"), State("b")),
        transitions=(Transition("a", "b", guard=guard, actions=(Assign("n", value),)),),
        initial_state="a",
    )
    compiled, compile_expr = [], ex.compile_expr

    def counted(expr, kinds):
        compiled.append(expr)
        return compile_expr(expr, kinds)

    monkeypatch.setattr(ex, "compile_expr", counted)
    state = sim.init_composition(sim.Composition(guidelines=(chart,)), sim.Scenario())
    for _ in range(3):
        sim.macro_step(state)
    assert state.active["Waits"] == "a"
    # the guard, tested every minute, is compiled once; the assignment never runs, so it is not
    assert compiled == [guard]


@pytest.mark.parametrize("charts", ["delayed_composition", "extended_composition"])
def test_minute_0_compiles_nothing(monkeypatch, request, charts):
    charts = request.getfixturevalue(charts)
    composition = sim.Composition(charts.timer, charts.resources, charts.guidelines)
    compiled, compile_expr = [], ex.compile_expr

    def counted(expr, kinds):
        compiled.append(expr)
        return compile_expr(expr, kinds)

    monkeypatch.setattr(ex, "compile_expr", counted)
    state = sim.init_composition(composition, sim.Scenario())
    assert compiled == []
    sim.macro_step(state)
    # each resource chart's self-loop re-enters its one state, whose entry actions minute 0 evaluated
    entries = [ga for chart in composition.resources for ga in chart.states[0].entry_actions]
    assert entries and all(isinstance(ga.action, Assign) for ga in entries)
    trees = {id(tree) for ga in entries for tree in (ga.guard, ga.action.value) if tree != ex.TRUE}
    assert trees <= {id(tree) for tree in compiled}


def test_guard_monotonicity_under_integration(delayed_composition, simple_model, simple_scenario):
    resolved = simple_scenario.resolve(
        {"hemorrhage": False, "systolicBP": 150, "diastolicBP": 100}
    )
    integrated = delayed_composition.guidelines[0]
    original = {(t.source, t.target): t.guard for t in simple_model.transitions}
    state = sim.init_composition(delayed_composition, resolved)
    for _ in range(300):
        sim.macro_step(state)
        for transition in integrated.transitions:
            if ex.eval_expr(transition.guard, state.valuation):
                assert ex.eval_expr(original[(transition.source, transition.target)], state.valuation)


def test_timerless_run_reaches_horizon():
    chart = StatechartModel(
        "Once",
        states=(State("a"), State("b")),
        transitions=(Transition("a", "b"),),
        initial_state="a",
    )
    state = sim.init_composition(sim.Composition(guidelines=(chart,)), sim.Scenario())
    trace = sim.run(state, 500)
    assert len(trace.steps) == 501
    # without a timer chart the minute is still counted, by the step record
    assert state.curT == trace.steps[-1].t == 500
    with pytest.raises(AttributeError):
        state.curT = 0


def test_run_from_stepped_state_matches_fresh_run(delayed_composition, simple_scenario):
    fresh = sim.run(_delayed_state(delayed_composition, simple_scenario), 250)
    stepped = _delayed_state(delayed_composition, simple_scenario)
    for _ in range(5):
        sim.macro_step(stepped)
    assert sim.run(stepped, 250) == fresh


def test_replay_follows_records_not_guards(delayed_composition, ideal_composition, simple_scenario):
    resolved = simple_scenario.resolve(
        {"hemorrhage": False, "systolicBP": 150, "diastolicBP": 100}
    )
    trace = sim.run(sim.init_composition(delayed_composition, resolved), 250)
    # With every resource available, live selection would fire NeuAss->CT at t=20.
    replayed = sim.replay_trace(ideal_composition, trace)

    def stroke_fires(t):
        return [(s.t, f.target) for s in t.steps[1:] for f in s.fires if f.chart == "Stroke"]

    assert stroke_fires(replayed) == stroke_fires(trace)
    assert (201, "CT") in stroke_fires(replayed)


def test_replay_on_generated_compositions():
    rng = random.Random(41)
    for _ in range(25):
        composition = gen_composition(rng)
        scenario = gen_scenario(rng, horizon=40)
        for resolved in _small_resolutions(scenario):
            state = sim.init_composition(composition, resolved)
            trace = sim.run(state, 40)
            replayed = sim.replay_trace(composition, trace)
            assert sim.trace_to_json(replayed) == sim.trace_to_json(trace)


def test_trace_reads_back_from_its_json_on_generated_compositions():
    rng = random.Random(47)
    for _ in range(25):
        composition = gen_composition(rng)
        scenario = gen_scenario(rng, horizon=40)
        assert sim.parse_scenario(json.dumps(sim.scenario_to_dict(scenario))) == scenario
        for resolved in _small_resolutions(scenario):
            try:
                trace = sim.run(sim.init_composition(composition, resolved), 40)
            except sim.SimulationError:  # a generated chart may write an integer outside 64 bits
                continue
            assert sim.trace_from_dict(json.loads(sim.trace_to_json(trace))) == trace


def test_trace_with_every_field_kind_reads_back_from_its_json():
    """Initial entries (no source, no index), fires with and without writes and events, integer
    and boolean values in injections, writes and deltas, events raised, and a step with none."""
    init = sim.FireRecord("Stroke", None, "Start", None, (("onsetT", 5), ("orderCT", True)), ("go",))
    fire = sim.FireRecord("Stroke", "Start", "CT", 3, (("curT", -2**63), ("hemorrhage", False)), ())
    steps = (
        sim.StepReport(0, (("onsetT", 5),), (init,), ("go",), {"onsetT": 5, "orderCT": True}),
        sim.StepReport(1, (("hemorrhage", False), ("tpaT", 2**63 - 1)), (fire,), (),
                       {"curT": -2**63, "tpaT": 2**63 - 1}),
        sim.StepReport(2, (), (), (), {}),
    )
    trace = sim.Trace({"Stroke": "Start"}, {"onsetT": 5, "orderCT": True, "curT": 0}, steps)
    text = sim.trace_to_json(trace)
    assert sim.trace_from_dict(json.loads(text)) == trace
    assert text.startswith('{\n  "initial_active": {\n    "Stroke": "Start"\n  },\n  "initial_valuation": {\n    "curT"')


def test_a_chart_runtime_adds_four_gc_tracked_objects():
    """A `_ChartIndex` of a one-transition chart adds four GC-tracked objects: itself, its
    `by_source` dict, and that dict's list and (index, transition) pair; its caches add none until
    they are filled. Each tracked object counts toward CPython's full collections: at 21 more per
    runtime, exporting a composition of 200 resource charts runs one."""
    timer = synthesize_timer()
    charts = tuple(synthesize_resource_chart(f"r{i}", (Window(0, 5),)) for i in range(40))
    sim.Composition(timer, charts)  # each chart validates once, and keeps its diagnostics

    def tracked(count: int) -> int:
        gc.collect()
        before = len(gc.get_objects())
        composition = sim.Composition(timer, charts[:count])
        gc.collect()
        assert len(composition.runtimes) == count + 1
        return len(gc.get_objects()) - before

    assert round((tracked(40) - tracked(20)) / 20) == 4


def test_no_op_self_loops_are_not_recorded(monkeypatch):
    fire, dropped = sim._fire, []

    def watched(state, charts, index, fires):
        before = (len(fires), dict(state.valuation), len(state.pending_events))
        fire(state, charts, index, fires)
        if len(fires) == before[0]:
            transition = charts.chart.transitions[index]
            dropped.append(transition.source == transition.target
                           and before[1:] == (state.valuation, len(state.pending_events)))

    monkeypatch.setattr(sim, "_fire", watched)
    rng = random.Random(43)
    for _ in range(25):
        composition = gen_composition(rng)
        scenario = gen_scenario(rng, horizon=40)
        for resolved in _small_resolutions(scenario):
            trace = sim.run(sim.init_composition(composition, resolved), 40)
            assert not [
                f for step in trace.steps for f in step.fires
                if f.source == f.target and not f.sets and not f.raised
            ]
    # every fire left out was a self-loop that changed nothing, and some were
    assert dropped and all(dropped)


def _small_resolutions(scenario):
    if scenario.resolved:
        return [scenario]
    first = {c.var: c.domain[0] for c in scenario.choices}
    last = {c.var: c.domain[-1] for c in scenario.choices}
    return [scenario.resolve(first), scenario.resolve(last)]


def test_trace_lines_format(delayed_composition, simple_scenario):
    state = _delayed_state(delayed_composition, simple_scenario)
    trace = sim.run(state, 205)
    lines = sim.trace_lines(trace)
    assert "t=20 inject orderCT=true" in lines
    assert any(line.startswith("t=201 chart=Stroke fire=NeuAss->CT") for line in lines)
    ct_line = next(line for line in lines if "fire=NeuAss->CT" in line)
    assert "raise CTscan" in ct_line


def test_scenario_roundtrip(simple_scenario):
    text = json.dumps(sim.scenario_to_dict(simple_scenario), indent=2, sort_keys=True)
    assert sim.parse_scenario(text) == simple_scenario


@pytest.mark.parametrize(
    "document, message",
    [
        ([], "$: expected an object, found list"),
        ({"inital": {}}, "$: unknown key 'inital'"),
        ({"initial": [1]}, "initial: expected an object, found list"),
        ({"injections": {}}, "injections: expected a list, found dict"),
        ({"injections": [{"t": True, "var": "a", "value": 1}]},
         "injections[0].t: expected an integer, found bool"),
        ({"injections": [{"t": 1, "var": 2, "value": 1}]}, "injections[0].var: expected a string, found int"),
        ({"injections": [{"t": 1, "var": "a", "value": 1, "at": 2}]}, "injections[0]: unknown key 'at'"),
        ({"choices": [{"var": "a", "domain": True}]}, "choices[0].domain: expected a list, found bool"),
        ({"horizon": 2.5}, "horizon: expected an integer, found float"),
        ({"horizon": False}, "horizon: expected an integer, found bool"),
        ({"horizon": -1}, "horizon: expected a nonnegative integer, found -1"),
    ],
)
def test_parse_scenario_checks_the_shape(document, message):
    with pytest.raises(ModelFormatError) as err:
        sim.parse_scenario(json.dumps(document))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "document, message",
    [
        ({"initial": {"systolicBP": 2**63}},
         "initial: value 9223372036854775808 of 'systolicBP' is not a boolean or a 64-bit integer"),
        ({"injections": [{"t": 5, "var": "orderCT"}]},
         "injection at t=5: value None of 'orderCT' is not a boolean or a 64-bit integer"),
        ({"choices": [{"var": "hemorrhage", "domain": []}]}, "choice 'hemorrhage' has an empty domain"),
        ({"choices": [{"var": "hemorrhage", "domain": [[True]]}]},
         "choice 'hemorrhage': value [True] of 'hemorrhage' is not a boolean or a 64-bit integer"),
    ],
)
def test_validate_scenario_alone_checks_the_values(delayed_composition, document, message):
    scenario = sim.parse_scenario(json.dumps(document))
    with pytest.raises(sim.ScenarioError) as err:
        sim.validate_scenario(scenario, delayed_composition)
    assert str(err.value) == message


def test_resolve_rejects_unknown_choice_variable(simple_scenario):
    assignment = {"hemorrhage": False, "systolicBP": 150, "diastolicBP": 100, "typo": 1}
    with pytest.raises(sim.ScenarioError, match="typo"):
        simple_scenario.resolve(assignment)


def test_resolve_names_each_choice_left_out(simple_scenario):
    with pytest.raises(sim.ScenarioError) as err:
        simple_scenario.resolve({"systolicBP": 150})
    assert str(err.value) == "unresolved choice variables: ['hemorrhage', 'diastolicBP']"


@pytest.mark.parametrize(
    "scenario, message",
    [
        (sim.Scenario(initial={"hemorrhage": 1}), "initial: value 1 does not match boolean variable 'hemorrhage'"),
        (sim.Scenario(injections=(sim.Injection(5, "systolicBP", True),)),
         "injection at t=5: value True does not match integer variable 'systolicBP'"),
        (sim.Scenario(choices=(sim.Choice("orderCT", (False, 0)),)),
         "choice 'orderCT': value 0 does not match boolean variable 'orderCT'"),
        (sim.Scenario(injections=(sim.Injection(-1, "orderCT", True),)), "injection time -1 outside [0, horizon]"),
        (sim.Scenario(injections=(sim.Injection(31, "orderCT", True),), horizon=30),
         "injection time 31 outside [0, horizon]"),
        (sim.Scenario(choices=(sim.Choice("hemorrhage", (False, False)),)),
         "choice 'hemorrhage' lists false more than once"),
        (sim.Scenario(choices=(sim.Choice("systolicBP", (150, 190, 150)),)),
         "choice 'systolicBP' lists 150 more than once"),
        (sim.Scenario(choices=(sim.Choice("systolicBP", (150, [150])),)),
         "choice 'systolicBP': value [150] of 'systolicBP' is not a boolean or a 64-bit integer"),
    ],
)
def test_validate_scenario_messages(delayed_composition, scenario, message):
    with pytest.raises(sim.ScenarioError) as err:
        sim.validate_scenario(scenario, delayed_composition)
    assert str(err.value) == message


def test_injection_at_the_horizon_is_valid(delayed_composition):
    scenario = sim.Scenario(injections=(sim.Injection(30, "orderCT", True),), horizon=30)
    sim.validate_scenario(scenario, delayed_composition)


def test_replay_of_a_trace_without_steps_is_refused(delayed_composition):
    with pytest.raises(sim.SimulationError) as err:
        sim.replay_trace(delayed_composition, sim.Trace({}, {}, ()))
    assert str(err.value) == "trace has no initialization step"
