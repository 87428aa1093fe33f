import random

import pytest

from resweave import expr as ex
from resweave import sim
from resweave import verify
from resweave.model import State, StatechartModel, VariableDecl
from generators import gen_composition, gen_invariants, gen_scenario
from oracle import oracle_check


def test_parse_property_with_location(delayed_composition):
    (inv,) = verify.parse_properties(
        "P2: A[] Stroke.tPAcheck imply tpaT-onsetT<=180", delayed_composition
    )
    assert inv.name == "P2"
    assert inv.location == ("Stroke", "tPAcheck")
    assert inv.predicate == ex.parse_expr("tpaT-onsetT<=180")


def test_parse_property_p3_shape(extended_composition):
    (inv,) = verify.parse_properties("P3: A[] Stroke.IAtPA imply tpaT-onsetT<=360", extended_composition)
    assert inv.location == ("Stroke", "IAtPA")
    assert inv.predicate == ex.parse_expr("tpaT-onsetT<=360")


def test_parse_bare_property(delayed_composition):
    (inv,) = verify.parse_properties("Q: A[] true", delayed_composition)
    assert inv.location is None
    assert inv.predicate == ex.TRUE


def test_parse_properties_comments_and_errors(delayed_composition):
    parsed = verify.parse_properties("# note\nA: A[] true\n\nB: A[] curT>=0", delayed_composition)
    assert [p.name for p in parsed] == ["A", "B"]
    with pytest.raises(verify.PropertyError, match="duplicate"):
        verify.parse_properties("A: A[] true\nA: A[] true", delayed_composition)
    with pytest.raises(verify.PropertyError, match="expected"):
        verify.parse_properties("just text", delayed_composition)
    with pytest.raises(verify.PropertyError, match="Nowhere"):
        verify.parse_properties("P: A[] Nowhere.x imply true", delayed_composition)
    with pytest.raises(verify.PropertyError, match="'missing'"):
        verify.parse_properties("P: A[] Stroke.missing imply true", delayed_composition)
    with pytest.raises(verify.PropertyError, match="'ghost'"):
        verify.parse_properties("P: A[] ghost>0", delayed_composition)
    with pytest.raises(verify.PropertyError, match="boolean"):
        verify.parse_properties("P: A[] curT+1", delayed_composition)


def test_enumerate_single_choice():
    scenario = sim.Scenario(choices=(sim.Choice("hemorrhage", (False, True)),))
    resolved = verify.enumerate_scenarios(scenario)
    assert [s.initial["hemorrhage"] for s in resolved] == [False, True]
    assert all(s.resolved for s in resolved)


def test_enumerate_no_choices_returns_input():
    scenario = sim.Scenario(initial={"x": 1})
    assert verify.enumerate_scenarios(scenario) == [scenario]


def test_enumerate_product_is_lexicographic():
    scenario = sim.Scenario(
        choices=(sim.Choice("a", (1, 2)), sim.Choice("b", (10, 20, 30)))
    )
    resolved = verify.enumerate_scenarios(scenario)
    assert [(s.initial["a"], s.initial["b"]) for s in resolved] == [
        (1, 10), (1, 20), (1, 30), (2, 10), (2, 20), (2, 30),
    ]


def test_enumerate_cap():
    scenario = sim.Scenario(choices=(sim.Choice("a", tuple(range(200))),))
    with pytest.raises(verify.ScenarioCapError, match="cap"):
        verify.enumerate_scenarios(scenario, cap=100)
    assert len(verify.enumerate_scenarios(scenario, cap=200)) == 200


def _observer(composition, active, valuation):
    return sim.SimState(
        composition=composition, active=active, valuation=valuation,
        pending_events=[], steps=[], injections_by_time={},
    )


def test_eval_invariant_implication(delayed_composition):
    p1 = verify.Invariant(
        "P1",
        ("Stroke", "tPA"),
        ex.parse_expr("systolicBP<=185 && diastolicBP<=110 && !hemorrhage"),
    )
    bad = {"systolicBP": 190, "diastolicBP": 100, "hemorrhage": False}
    # antecedent false: holds regardless of the blood pressure values
    assert verify.eval_invariant(p1, _observer(delayed_composition, {"Stroke": "NeuAss"}, bad)) is True
    assert verify.eval_invariant(p1, _observer(delayed_composition, {"Stroke": "tPA"}, bad)) is False
    p2 = verify.Invariant("P2", ("Stroke", "tPAcheck"), ex.parse_expr("tpaT-onsetT<=180"))
    ok = {"tpaT": 100, "onsetT": 0}
    assert verify.eval_invariant(p2, _observer(delayed_composition, {"Stroke": "tPAcheck"}, ok)) is True


def _props(composition, fixtures_dir, name):
    return verify.parse_properties((fixtures_dir / name).read_text(), composition)


def test_check_delayed_ct(delayed_composition, simple_scenario, fixtures_dir):
    properties = _props(delayed_composition, fixtures_dir, "props_simple.txt")
    verdicts = verify.check(delayed_composition, simple_scenario, properties, 720)
    assert [(v.property, v.holds) for v in verdicts] == [("P1", True), ("P2", False)]
    cx = verdicts[1].counterexample
    assert cx is not None
    assert cx.step_index == 203
    assert cx.scenario_index == 0
    fired = [
        (s.t, f.source, f.target)
        for s in cx.trace.steps
        for f in s.fires
        if f.chart == "Stroke" and f.source
    ]
    assert (201, "NeuAss", "CT") in fired


def test_check_ideal(ideal_composition, simple_scenario, fixtures_dir):
    properties = _props(ideal_composition, fixtures_dir, "props_simple.txt")
    verdicts = verify.check(ideal_composition, simple_scenario, properties, 720)
    assert all(v.holds for v in verdicts)
    assert all(v.counterexample is None for v in verdicts)


def test_check_extended(extended_composition, extended_scenario, fixtures_dir):
    properties = _props(extended_composition, fixtures_dir, "props_extended.txt")
    verdicts = verify.check(extended_composition, extended_scenario, properties, 720)
    assert [(v.property, v.holds) for v in verdicts] == [
        ("P1", True), ("P2", False), ("P3", True),
    ]


def test_counterexample_replays_to_violation(delayed_composition, simple_scenario, fixtures_dir):
    properties = _props(delayed_composition, fixtures_dir, "props_simple.txt")
    verdicts = verify.check(delayed_composition, simple_scenario, properties, 720)
    cx = verdicts[1].counterexample
    state = sim.init_composition(delayed_composition, cx.scenario)
    violated_at = None
    assert verify.eval_invariant(properties[1], state)
    while state.curT < 720 and violated_at is None:
        sim.macro_step(state)
        if not verify.eval_invariant(properties[1], state):
            violated_at = state.curT
    assert violated_at == cx.step_index


def test_failure_is_monotone_in_horizon(delayed_composition, simple_scenario, fixtures_dir):
    properties = _props(delayed_composition, fixtures_dir, "props_simple.txt")
    failing_horizons = []
    for horizon in (250, 400, 720):
        verdicts = verify.check(delayed_composition, simple_scenario, properties, horizon)
        failing_horizons.append([v.property for v in verdicts if not v.holds])
    assert failing_horizons == [["P2"], ["P2"], ["P2"]]
    # below the violating step the property still holds at that bound
    verdicts = verify.check(delayed_composition, simple_scenario, properties, 200)
    assert all(v.holds for v in verdicts)


def test_verdicts_independent_of_property_order(delayed_composition, simple_scenario, fixtures_dir):
    properties = _props(delayed_composition, fixtures_dir, "props_simple.txt")
    forward = verify.check(delayed_composition, simple_scenario, properties, 300)
    backward = verify.check(delayed_composition, simple_scenario, properties[::-1], 300)
    assert {v.property: v.holds for v in forward} == {v.property: v.holds for v in backward}
    fw = {v.property: v.counterexample for v in forward}
    bw = {v.property: v.counterexample for v in backward}
    for name in fw:
        if fw[name] is not None:
            assert (fw[name].scenario_index, fw[name].step_index) == (
                bw[name].scenario_index,
                bw[name].step_index,
            )


def test_check_matches_oracle_on_random_compositions():
    rng = random.Random(101)
    for _ in range(20):
        composition = gen_composition(rng)
        scenario = gen_scenario(rng, horizon=30)
        properties = gen_invariants(rng, composition)
        verdicts = verify.check(composition, scenario, properties, 30)
        expected = oracle_check(composition, scenario, properties, 30)
        assert {v.property: v.holds for v in verdicts} == {
            name: holds for name, (holds, _) in expected.items()
        }
        for verdict in verdicts:
            holds, first = expected[verdict.property]
            if not holds:
                cx = verdict.counterexample
                assert (cx.scenario_index, cx.step_index) == first
                assert cx.trace == sim.run(sim.init_composition(composition, cx.scenario), 30)


@pytest.mark.parametrize(
    "composition, scenario, properties",
    [
        ("delayed_composition", "simple_scenario", "props_simple.txt"),
        ("extended_composition", "extended_scenario", "props_extended.txt"),
    ],
)
def test_counterexample_trace_is_a_recorded_run(request, fixtures_dir, composition, scenario, properties):
    composition = request.getfixturevalue(composition)
    verdicts = verify.check(
        composition, request.getfixturevalue(scenario), _props(composition, fixtures_dir, properties), 720
    )
    failed = [v.counterexample for v in verdicts if not v.holds]
    assert failed
    for cx in failed:
        assert cx.trace == sim.run(sim.init_composition(composition, cx.scenario), 720)


@pytest.mark.parametrize(
    "composition, properties, explored",
    [
        ("ideal_composition", "P1: A[] true\n", 8),  # all hold: every scenario
        ("delayed_composition", "P1: A[] true\nP2: A[] Stroke.tPAcheck imply tpaT-onsetT<=180\n", 8),
        ("delayed_composition", "P1: A[] curT<5\n", 1),  # violated in the first scenario
    ],
    ids=["ideal-all-hold", "delayed-p2-fails", "delayed-fails-at-once"],
)
def test_check_runs_each_scenario_once(monkeypatch, request, simple_scenario, composition, properties, explored):
    composition = request.getfixturevalue(composition)
    calls = []

    def counted(composition, scenario):
        calls.append(scenario)
        return sim.init_composition(composition, scenario)

    monkeypatch.setattr(verify, "init_composition", counted)
    verdicts = verify.check(composition, simple_scenario, verify.parse_properties(properties, composition), 720)
    assert calls == verify.enumerate_scenarios(simple_scenario)[:explored]
    for verdict in verdicts:
        if not verdict.holds:
            assert verdict.counterexample.scenario == calls[verdict.counterexample.scenario_index]


def test_work_budget():
    # the default scenario cap at the default horizon fits
    verify.check_work(verify.DEFAULT_SCENARIO_CAP, 720)
    verify.check_work(1, verify.WORK_BUDGET - 1)
    with pytest.raises(verify.WorkBudgetError, match="work budget"):
        verify.check_work(1, verify.WORK_BUDGET)
    with pytest.raises(verify.WorkBudgetError, match="work budget"):
        verify.check_work(2, verify.WORK_BUDGET // 2)


def test_check_refuses_work_over_budget_before_stepping(monkeypatch, delayed_composition, simple_scenario, fixtures_dir):
    properties = _props(delayed_composition, fixtures_dir, "props_simple.txt")
    monkeypatch.setattr(verify, "init_composition", None)  # never reached
    with pytest.raises(verify.WorkBudgetError):
        verify.check(delayed_composition, simple_scenario, properties, 99_999_999_999)


def test_work_budget_is_checked_before_any_scenario_is_built(monkeypatch):
    chart = StatechartModel(
        "C", variables=(VariableDecl("a", "integer", 0), VariableDecl("b", "integer", 0)),
        states=(State("s"),), initial_state="s",
    )
    composition = sim.Composition(guidelines=(chart,))
    scenario = sim.Scenario(choices=(sim.Choice("a", tuple(range(200))), sim.Choice("b", tuple(range(200)))))
    resolves = []
    resolve = sim.Scenario.resolve
    monkeypatch.setattr(sim.Scenario, "resolve", lambda self, choice: resolves.append(1) or resolve(self, choice))
    with pytest.raises(verify.WorkBudgetError, match="40000 scenario"):
        verify.check(composition, scenario, [], 1000, cap=10**6)
    with pytest.raises(verify.ScenarioCapError, match="cap of 1000;"):  # the cap is checked first
        verify.check(composition, scenario, [], 1000, cap=1000)
    assert resolves == []


def test_check_refuses_an_empty_choice_domain(delayed_composition):
    scenario = sim.Scenario(choices=(sim.Choice("hemorrhage", ()),))
    assert verify.enumerate_scenarios(scenario) == []  # no scenario, so every property would hold
    with pytest.raises(sim.ScenarioError) as err:
        verify.check(delayed_composition, scenario, verify.parse_properties("P: A[] false\n", delayed_composition), 5)
    assert str(err.value) == "choice 'hemorrhage' has an empty domain"
