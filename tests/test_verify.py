import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resweave import expr as ex
from resweave import sim
from resweave import verify
from resweave.model import Assign, State, StatechartModel, Transition, VariableDecl
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


def _reached(composition, scenario, horizon):
    """(active states, valuation) after every minute of `scenario` up to the horizon, or up to a
    write that a generated integer expression would take outside 64 bits."""
    state = sim.init_composition(composition, scenario)
    while True:
        yield dict(state.active), dict(state.valuation)
        if state.curT == horizon:
            return
        try:
            sim.macro_step(state)
        except sim.SimulationError:
            return


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
@example(0)
def test_observer_returns_exactly_the_properties_eval_invariant_refutes(seed):
    """On generated compositions, at every minute a run reaches, and with each located property's
    state made active there too, the observer names exactly the properties whose invariant
    `eval_invariant` finds false, in property order."""
    rng = random.Random(seed)
    composition = gen_composition(rng)
    properties = gen_invariants(rng, composition) + gen_invariants(rng, composition)
    chart = rng.choice(composition.charts)
    predicate = ex.parse_expr("!(a < b) || p && q && c * 2 >= a - 3 || !r")  # every operator the observer prints
    properties += [verify.Invariant("X", at, predicate) for at in ((chart.name, rng.choice(chart.states).name), None)]
    properties = [p._replace(name=f"P{i}") for i, p in enumerate(properties)]  # unique names
    observe = verify.observer(properties, composition.kinds)
    scenario = verify.enumerate_scenarios(gen_scenario(rng, horizon=12))[0]
    for active, valuation in _reached(composition, scenario, 12):
        for moved in [None, *(p.location for p in properties if p.location is not None)]:
            at = {**active, moved[0]: moved[1]} if moved else active
            state = _observer(composition, at, valuation)
            assert observe(at, valuation) == [p.name for p in properties if not verify.eval_invariant(p, state)]


def _counter_chart(choices: int) -> tuple[sim.Composition, sim.Scenario]:
    """A chart whose one self-loop counts the minutes in `n`, and a scenario choosing `k` from 0 to `choices - 1`."""
    chart = StatechartModel(
        "C", variables=(VariableDecl("n", "integer", 0), VariableDecl("k", "integer", 0)),
        states=(State("s"),), initial_state="s",
        transitions=(Transition("s", "s", actions=(Assign("n", ex.parse_expr("n + 1")),)),),
    )
    return sim.Composition(guidelines=(chart,)), sim.Scenario(choices=(sim.Choice("k", tuple(range(choices))),))


_COUNTER_PROPERTIES = "P1: A[] n < 1\nP2: A[] C.s imply k < 3 || n < 5\nP3: A[] !(n < 0)\n"


def test_an_observer_is_built_only_when_a_property_fails(monkeypatch):
    composition, scenario = _counter_chart(200)
    properties = verify.parse_properties(_COUNTER_PROPERTIES, composition)
    built = []
    observer = verify.observer

    def counting(properties, kinds):
        built.append([p.name for p in properties])
        return observer(properties, kinds)

    monkeypatch.setattr(verify, "observer", counting)
    verdicts = verify.check(composition, scenario, properties, 10)
    assert [v.holds for v in verdicts] == [False, False, True]  # P3 holds, so all 200 scenarios run
    assert len(built) <= len(properties) + 1
    assert built == [["P1", "P2", "P3"], ["P2", "P3"], ["P3"]]


def test_a_failed_property_keeps_its_first_counterexample():
    """P1 fails at minute 1 of every scenario, and P2 first at minute 5 of scenario 3: once failed, a
    property is observed no more, so later failures do not move its counterexample."""
    composition, scenario = _counter_chart(8)
    properties = verify.parse_properties(_COUNTER_PROPERTIES, composition)
    verdicts = verify.check(composition, scenario, properties, 10)
    found = {v.property: (v.counterexample.scenario_index, v.counterexample.step_index) for v in verdicts if not v.holds}
    assert found == {"P1": (0, 1), "P2": (3, 5)}
    expected = oracle_check(composition, scenario, properties, 10)
    assert found == {name: first for name, (holds, first) in expected.items() if not holds}
