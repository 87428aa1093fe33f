"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest report.
"""

import random
import re
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from resweave import expr as ex
from resweave import sim, verify, weave
from resweave.model import parse_model, serialize_model
from resweave.resources import (
    interface_for_resources,
    is_available,
    synthesize_resource_chart,
    synthesize_timer,
)
from resweave.xta import entry_branches, export_queries, export_xta, scan_xta

from conftest import FIXTURES, GOLDEN
from generators import (
    gen_annotations,
    gen_composition,
    gen_invariants,
    gen_map,
    gen_model,
    gen_scenario,
    gen_windows,
    without_annotations,
    without_guards,
)
from oracle import oracle_check


@contextmanager
def criterion(number: int, title: str, budget_seconds: float | None = None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    elapsed = time.monotonic() - started
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"
    print(f"ACCEPTANCE {number} ({title}): PASS ({elapsed:.2f}s)")


def _fixture_properties(composition, name):
    return verify.parse_properties((FIXTURES / name).read_text(), composition)


def test_criterion_1_ideal_resources(ideal_composition, simple_scenario):
    with criterion(1, "ideal-resource reproduction", budget_seconds=5.0):
        properties = _fixture_properties(ideal_composition, "props_simple.txt")
        verdicts = verify.check(ideal_composition, simple_scenario, properties, 720)
        assert [(v.property, v.holds) for v in verdicts] == [("P1", True), ("P2", True)]
        assert all(v.counterexample is None for v in verdicts)


def test_criterion_2_delayed_ct(delayed_composition, simple_scenario):
    with criterion(2, "delayed-CT reproduction", budget_seconds=5.0):
        properties = _fixture_properties(delayed_composition, "props_simple.txt")
        verdicts = verify.check(delayed_composition, simple_scenario, properties, 720)
        assert [(v.property, v.holds) for v in verdicts] == [("P1", True), ("P2", False)]
        cx = verdicts[1].counterexample
        # the CT state is entered exactly at minute 201
        ct_entries = [
            step.t
            for step in cx.trace.steps
            for fire in step.fires
            if fire.chart == "Stroke" and fire.target == "CT" and fire.source is not None
        ]
        assert ct_entries == [201]
        # and at the violating step the treatment window is blown
        valuation = dict(cx.trace.initial_valuation)
        for step in cx.trace.steps[1 : cx.step_index + 1]:
            valuation.update(step.deltas)
        assert valuation["tpaT"] - valuation["onsetT"] > 180


def test_criterion_3_extended_case(extended_composition, extended_scenario):
    with criterion(3, "extended case reproduction", budget_seconds=10.0):
        properties = _fixture_properties(extended_composition, "props_extended.txt")
        verdicts = verify.check(extended_composition, extended_scenario, properties, 720)
        assert [(v.property, v.holds) for v in verdicts] == [
            ("P1", True),
            ("P2", False),
            ("P3", True),
        ]


def test_criterion_4_weaver_algebra():
    with criterion(4, "weaver algebra on 1000 generated pairs"):
        rng = random.Random(2024)
        pairs = 0
        while pairs < 1000:
            model = gen_model(rng)
            resource_map = gen_map(rng)
            pairs += 1

            annotated = weave.annotate(model, resource_map)
            # annotation-only delta
            assert without_annotations(annotated) == model
            # idempotence under the dedup rule
            assert weave.annotate(annotated, resource_map) == annotated

            resources = sorted(
                {
                    r
                    for element in (*annotated.states, *annotated.transitions)
                    for r in weave.collect_annotations(element)
                }
            )
            prepared = replace(
                annotated, variables=annotated.variables + interface_for_resources(resources)
            )
            integrated = weave.integrate(prepared)
            # guard-only delta
            assert without_guards(integrated) == without_guards(prepared)

            variables = [v.name for v in prepared.variables]
            for before, after in zip(prepared.transitions, integrated.transitions):
                if after.guard == before.guard:
                    continue
                for _ in range(100):
                    valuation = _random_valuation(rng, prepared.variables)
                    # strengthening: integrated enabledness implies original
                    if ex.eval_expr(after.guard, valuation):
                        assert ex.eval_expr(before.guard, valuation)
                    # ideal resources: guards coincide when every RES.* is true
                    ideal = {
                        name: True if name.startswith("RES.") else valuation[name]
                        for name in variables
                    }
                    assert ex.eval_expr(after.guard, ideal) == ex.eval_expr(before.guard, ideal)


def _random_valuation(rng, decls):
    valuation = {}
    for decl in decls:
        if decl.kind == "boolean":
            valuation[decl.name] = rng.random() < 0.5
        else:
            valuation[decl.name] = rng.randint(-30, 230)
    return valuation


def test_criterion_5_resource_coherence():
    with criterion(5, "resource coherence on 100 random schedules"):
        rng = random.Random(77)
        for _ in range(100):
            horizon = rng.randint(20, 1000)
            resources = {
                f"r{i}": gen_windows(rng, horizon) for i in range(rng.randint(1, 3))
            }
            charts = tuple(
                synthesize_resource_chart(name, windows) for name, windows in resources.items()
            )
            composition = sim.Composition(synthesize_timer(), charts, ())
            state = sim.init_composition(composition, sim.Scenario())
            for name, windows in resources.items():
                assert state.valuation[f"RES.{name}"] == is_available(windows, 0)
            run_to = min(horizon, rng.randint(20, 400))
            for t in range(1, run_to + 1):
                sim.macro_step(state)
                for name, windows in resources.items():
                    assert state.valuation[f"RES.{name}"] == is_available(windows, t), (
                        name,
                        windows,
                        t,
                    )


def test_criterion_6_checker_vs_oracle():
    with criterion(6, "checker matches brute-force oracle on 50 compositions"):
        rng = random.Random(4242)
        refused = 0
        for _ in range(50):
            composition = gen_composition(rng)
            horizon = rng.randint(10, 100)
            scenario = gen_scenario(rng, horizon)
            assert _product_size(scenario) <= 64
            properties = gen_invariants(rng, composition)
            try:
                verdicts = verify.check(composition, scenario, properties, horizon)
            except sim.SimulationError as err:
                # An integer written outside 64 bits: the oracle, stepping the
                # same scenarios, stops at the same write.
                refused += 1
                with pytest.raises(sim.SimulationError, match=re.escape(str(err))):
                    oracle_check(composition, scenario, properties, horizon)
                continue
            expected = oracle_check(composition, scenario, properties, horizon)
            for verdict in verdicts:
                holds, first = expected[verdict.property]
                assert verdict.holds == holds
                if holds:
                    assert verdict.counterexample is None
                    continue
                cx = verdict.counterexample
                assert (cx.scenario_index, cx.step_index) == first
                # the counterexample replays to a violation at the reported step
                prop = next(p for p in properties if p.name == verdict.property)
                state = sim.init_composition(composition, cx.scenario)
                for _ in range(cx.step_index):
                    sim.macro_step(state)
                assert state.curT == cx.step_index
                assert not verify.eval_invariant(prop, state)
        assert refused == 1  # its `a` passes 2**63 at minute 7


def _product_size(scenario):
    size = 1
    for choice in scenario.choices:
        size *= len(choice.domain)
    return size


def test_criterion_7_exporter_stability(
    delayed_composition, ideal_composition, extended_composition
):
    with criterion(7, "exporter golden stability and structure counts"):
        for stem, composition in (
            ("stroke_simple", delayed_composition),
            ("stroke_extended", extended_composition),
        ):
            document = export_xta(composition)
            assert document == (GOLDEN / f"{stem}.xta").read_text(), f"{stem}.xta drifted"
            properties = _fixture_properties(
                composition,
                "props_simple.txt" if stem == "stroke_simple" else "props_extended.txt",
            )
            assert export_queries(properties) == (GOLDEN / f"{stem}.q").read_text()
        for composition in (delayed_composition, ideal_composition, extended_composition):
            document = export_xta(composition)
            assert scan_xta(document) == []
            for chart in composition.charts:
                body = document.split(f"process {chart.name}() {{")[1].split("\n}")[0]
                if "clock" in body:
                    assert len(chart.states) == 1
                    assert body.count("->") == 1
                    continue
                state_line = next(
                    line for line in body.splitlines() if line.strip().startswith("state ")
                )
                assert state_line.count(",") + 1 == len(chart.states)
                expected_edges = sum(
                    len(entry_branches(chart.state(t.target).entry_actions))
                    for t in chart.transitions
                )
                assert body.count("->") == expected_edges


def test_criterion_8_roundtrip():
    with criterion(8, "parse/serialize round-trip on fixtures and 1000 models"):
        for name in ("stroke_simple.json", "stroke_extended.json"):
            text = (FIXTURES / name).read_text()
            model = parse_model(text)
            assert parse_model(serialize_model(model)) == model
            assert serialize_model(model) == text  # fixtures are canonical
        rng = random.Random(888)
        for _ in range(1000):
            model = gen_annotations(rng, gen_model(rng, with_triggers=True))
            assert parse_model(serialize_model(model)) == model
