import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from resweave import cli, sim
from resweave.errors import ResweaveError
from resweave.model import parse_model, serialize_model, validate_model
from resweave.resources import parse_resource_map, parse_schedule, synthesize_timer

from conftest import FIXTURES, GOLDEN


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def test_annotate_stroke(tmp_path, capsys):
    code = run_cli(
        "annotate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map",
        "--out", tmp_path,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "state CT: //@RES: CT_machine, CT_technician" in out
    assert "transition tPAcheck->tPA: //@RES: tPA" in out
    written = (tmp_path / "stroke_simple.annotated.json").read_text()
    assert "//@RES: CT_machine, CT_technician" in written


def test_annotate_empty_map_is_byte_identical(tmp_path):
    empty_map = tmp_path / "empty.map"
    empty_map.write_text("# nothing\n")
    code = run_cli("annotate", FIXTURES / "stroke_simple.json", empty_map, "--out", tmp_path)
    assert code == 0
    original = (FIXTURES / "stroke_simple.json").read_text()
    assert (tmp_path / "stroke_simple.annotated.json").read_text() == original


def test_missing_file_exits_2(tmp_path, capsys):
    code = run_cli("annotate", tmp_path / "nope.json", FIXTURES / "stroke_simple.map")
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_non_utf8_file_exits_2(tmp_path, capsys):
    model = tmp_path / "binary.json"
    model.write_bytes(b"\xff\xfe{}")
    assert run_cli("annotate", model, FIXTURES / "stroke_simple.map", "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "binary.json" in err


def test_integrate_produces_composition(tmp_path):
    code = run_cli(
        "integrate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map",
        "--schedule", FIXTURES / "schedule_delayed_ct.txt", "--out", tmp_path,
    )
    assert code == 0
    manifest = json.loads((tmp_path / "composition.json").read_text())
    assert manifest["timer"] == "Timer.json"
    assert manifest["resources"] == ["CT_machine.json", "CT_technician.json", "tPA.json"]
    assert manifest["guidelines"] == ["stroke_simple.integrated.json"]
    timer = parse_model((tmp_path / "Timer.json").read_text())
    assert timer == synthesize_timer()
    integrated = parse_model((tmp_path / "stroke_simple.integrated.json").read_text())
    guards = {(t.source, t.target): t for t in integrated.transitions}
    from resweave import expr as ex

    assert ex.to_text(guards[("NeuAss", "CT")].guard) == (
        "orderCT && RES.CT_machine && RES.CT_technician"
    )
    ct_machine = parse_model((tmp_path / "CT_machine.json").read_text())
    assert len(ct_machine.states[0].entry_actions) == 2


def test_integrate_unannotated_model_synthesizes_only_timer(tmp_path):
    empty_map = tmp_path / "empty.map"
    empty_map.write_text("")
    code = run_cli(
        "integrate", FIXTURES / "stroke_simple.json", empty_map, "--out", tmp_path,
    )
    assert code == 0
    manifest = json.loads((tmp_path / "composition.json").read_text())
    assert manifest["resources"] == []
    assert manifest["timer"] == "Timer.json"
    integrated = (tmp_path / "stroke_simple.integrated.json").read_text()
    assert integrated == (FIXTURES / "stroke_simple.json").read_text()


def test_integrate_warns_on_unscheduled_resource(tmp_path, capsys):
    code = run_cli(
        "integrate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map",
        "--out", tmp_path,
    )
    assert code == 0  # warnings never change the exit code
    err = capsys.readouterr().err
    assert "never available" in err
    # the unscheduled guard is permanently false: CT is never entered
    manifest = tmp_path / "composition.json"
    chk_out = tmp_path / "chk"
    code = run_cli(
        "check", "--manifest", manifest,
        "--scenario", FIXTURES / "scenario_simple.json",
        "--properties", FIXTURES / "props_simple.txt",
        "--out", chk_out, "--horizon", "300",
    )
    assert code == 0
    trace_rows = json.loads((chk_out / "verdicts.json").read_text())
    assert all(row["holds"] for row in trace_rows)


def test_check_delayed_exit_code_and_table(tmp_path, capsys):
    code = run_cli(
        "check",
        "--model", FIXTURES / "stroke_simple.json",
        "--map", FIXTURES / "stroke_simple.map",
        "--schedule", FIXTURES / "schedule_delayed_ct.txt",
        "--scenario", FIXTURES / "scenario_simple.json",
        "--properties", FIXTURES / "props_simple.txt",
        "--out", tmp_path,
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "P1  holds" in out
    assert "P2  FAILS" in out
    verdicts = json.loads((tmp_path / "verdicts.json").read_text())
    assert [(v["property"], v["holds"]) for v in verdicts] == [("P1", True), ("P2", False)]
    cx = json.loads((tmp_path / "P2.counterexample.json").read_text())
    assert cx["step_index"] == 203
    assert Path(verdicts[1]["counterexample_path"]).exists()
    trace_txt = (tmp_path / "P2.trace.txt").read_text()
    assert "t=201 chart=Stroke fire=NeuAss->CT" in trace_txt


def test_check_assume_available_passes(tmp_path):
    code = run_cli(
        "check",
        "--model", FIXTURES / "stroke_simple.json",
        "--map", FIXTURES / "stroke_simple.map",
        "--assume-available",
        "--scenario", FIXTURES / "scenario_simple.json",
        "--properties", FIXTURES / "props_simple.txt",
        "--out", tmp_path,
    )
    assert code == 0


def test_check_extended_case(tmp_path):
    code = run_cli(
        "check",
        "--model", FIXTURES / "stroke_extended.json",
        "--map", FIXTURES / "stroke_extended.map",
        "--schedule", FIXTURES / "schedule_extended.txt",
        "--scenario", FIXTURES / "scenario_extended.json",
        "--properties", FIXTURES / "props_extended.txt",
        "--out", tmp_path,
    )
    assert code == 1
    verdicts = json.loads((tmp_path / "verdicts.json").read_text())
    assert [(v["property"], v["holds"]) for v in verdicts] == [
        ("P1", True), ("P2", False), ("P3", True),
    ]


def test_simulate_delayed_log_shows_ct_entry(tmp_path, capsys):
    code = run_cli(
        "simulate",
        "--model", FIXTURES / "stroke_simple.json",
        "--map", FIXTURES / "stroke_simple.map",
        "--schedule", FIXTURES / "schedule_delayed_ct.txt",
        "--scenario", FIXTURES / "scenario_simple.json",
        "--choice", "hemorrhage=false",
        "--choice", "systolicBP=150",
        "--choice", "diastolicBP=100",
        "--out", tmp_path,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert any(line.startswith("t=201 chart=Stroke fire=NeuAss->CT") for line in out.splitlines())
    assert (tmp_path / "trace.json").exists()
    assert (tmp_path / "trace.txt").exists()


def test_simulate_unresolved_choices_exit_2(tmp_path, capsys):
    code = run_cli(
        "simulate",
        "--model", FIXTURES / "stroke_simple.json",
        "--map", FIXTURES / "stroke_simple.map",
        "--scenario", FIXTURES / "scenario_simple.json",
        "--out", tmp_path,
    )
    assert code == 2
    assert "hemorrhage" in capsys.readouterr().err


def test_simulate_timer_only_manifest(tmp_path, capsys):
    (tmp_path / "Timer.json").write_text(serialize_model(synthesize_timer()))
    manifest = {"timer": "Timer.json", "resources": [], "guidelines": [],
                "variables": [{"name": "curT", "kind": "integer", "initial": 0}]}
    (tmp_path / "composition.json").write_text(json.dumps(manifest))
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"horizon": 5}')
    code = run_cli(
        "simulate", "--manifest", tmp_path / "composition.json",
        "--scenario", scenario, "--out", tmp_path / "out",
    )
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "fire=" in l]
    assert len(lines) == 5
    assert lines[-1] == "t=5 chart=Timer fire=timer->timer set curT=5"


def test_horizon_defaults_to_720_without_scenario_or_flag(tmp_path, capsys):
    manifest = _integrate_delayed(tmp_path / "setup")
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"initial": {"hemorrhage": false, "systolicBP": 150, "diastolicBP": 100}}')
    assert run_cli("simulate", "--manifest", manifest, "--scenario", scenario, "--out", tmp_path / "out") == 0
    capsys.readouterr()
    steps = json.loads((tmp_path / "out" / "trace.json").read_text())["steps"]
    assert [step["t"] for step in steps] == list(range(721))


def test_simulate_replay_roundtrip(tmp_path):
    args = [
        "simulate",
        "--model", FIXTURES / "stroke_simple.json",
        "--map", FIXTURES / "stroke_simple.map",
        "--schedule", FIXTURES / "schedule_delayed_ct.txt",
        "--scenario", FIXTURES / "scenario_simple.json",
        "--choice", "hemorrhage=true",
        "--choice", "systolicBP=150",
        "--choice", "diastolicBP=100",
        "--horizon", "250",
        "--out", tmp_path,
    ]
    assert run_cli(*args) == 0
    assert run_cli(*args, "--replay", tmp_path / "trace.json") == 0


def test_export_writes_xta_and_queries(tmp_path):
    code = run_cli(
        "export",
        "--model", FIXTURES / "stroke_simple.json",
        "--map", FIXTURES / "stroke_simple.map",
        "--schedule", FIXTURES / "schedule_delayed_ct.txt",
        "--properties", FIXTURES / "props_simple.txt",
        "--out", tmp_path,
    )
    assert code == 0
    document = (tmp_path / "stroke_simple.xta").read_text()
    assert "process Stroke()" in document
    queries = (tmp_path / "stroke_simple.q").read_text()
    assert "A[] Stroke.tPAcheck imply tpaT-onsetT<=180" in queries


def test_export_event_trigger_exit_2(tmp_path, capsys):
    model = tmp_path / "trig.json"
    model.write_text(
        json.dumps(
            {
                "name": "Trig",
                "events": ["go"],
                "states": [{"name": "a"}, {"name": "b"}],
                "transitions": [{"source": "a", "target": "b", "trigger": "go"}],
                "initial": "a",
            }
        )
    )
    empty_map = tmp_path / "empty.map"
    empty_map.write_text("")
    code = run_cli("export", "--model", model, "--map", empty_map, "--out", tmp_path)
    assert code == 2
    assert "a->b" in capsys.readouterr().err


def test_pipeline_composability(tmp_path):
    # CLI: annotate, then integrate the annotated file
    anno_dir = tmp_path / "anno"
    assert run_cli(
        "annotate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map",
        "--out", anno_dir,
    ) == 0
    integ_dir = tmp_path / "integ"
    assert run_cli(
        "integrate", anno_dir / "stroke_simple.annotated.json", FIXTURES / "stroke_simple.map",
        "--schedule", FIXTURES / "schedule_delayed_ct.txt", "--out", integ_dir,
    ) == 0
    # library: one in-process annotate + integrate pass
    model = parse_model((FIXTURES / "stroke_simple.json").read_text())
    rmap = parse_resource_map((FIXTURES / "stroke_simple.map").read_text())
    schedule = parse_schedule((FIXTURES / "schedule_delayed_ct.txt").read_text())
    composition, _ = cli.build_composition(model, rmap, schedule)
    expected = serialize_model(composition.guidelines[0])
    written = (integ_dir / "stroke_simple.annotated.integrated.json").read_text()
    assert written == expected


def test_json_diagnostics_error_shape(tmp_path, capsys):
    code = run_cli(
        "annotate", tmp_path / "nope.json", FIXTURES / "stroke_simple.map",
        "--json-diagnostics",
    )
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert "nope.json" in payload["error"]


def test_usage_error_exits_2(capsys):
    assert run_cli("simulate") == 2  # missing required --scenario
    capsys.readouterr()


USAGE_ERRORS = [
    (("annotate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map", "--horizon", "5"),
     "resweave: unrecognized arguments: --horizon 5"),
    (("check", "--manifest", "x"), "resweave check: the following arguments are required: --scenario, --properties"),
    (("export", "--model", FIXTURES / "stroke_simple.json", "--map", FIXTURES / "stroke_simple.map",
      "--no-flatten-names"), "resweave: unrecognized arguments: --no-flatten-names"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_error_is_one_line(tmp_path, capsys, argv, message):
    assert run_cli(*argv, "--out", tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_error_json_diagnostics(tmp_path, capsys, argv, message):
    assert run_cli(*argv, "--out", tmp_path, "--json-diagnostics") == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"error": message}


def test_help_exits_0(capsys):
    assert run_cli("check", "-h") == 0
    assert capsys.readouterr().out.startswith("usage: resweave check")


def test_manifest_roundtrip_matches_in_memory(tmp_path, delayed_composition):
    out = tmp_path / "integ"
    assert run_cli(
        "integrate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map",
        "--schedule", FIXTURES / "schedule_delayed_ct.txt", "--out", out,
    ) == 0
    loaded = cli.load_manifest(str(out / "composition.json"))
    assert loaded.timer == delayed_composition.timer
    assert loaded.resources == delayed_composition.resources
    assert loaded.guidelines == delayed_composition.guidelines


def test_simulate_unknown_choice_exits_2(tmp_path, capsys):
    code = run_cli(
        "simulate",
        "--model", FIXTURES / "stroke_simple.json",
        "--map", FIXTURES / "stroke_simple.map",
        "--scenario", FIXTURES / "scenario_simple.json",
        "--choice", "hemorrhage=false",
        "--choice", "systolicBP=150",
        "--choice", "diastolicBP=100",
        "--choice", "typo=1",
        "--out", tmp_path,
    )
    assert code == 2
    assert "typo" in capsys.readouterr().err


def test_integrate_annotation_missing_from_map_and_schedule(tmp_path, capsys):
    model = {
        "name": "Mini",
        "variables": [{"name": "go", "kind": "boolean", "initial": True}],
        "states": [
            {"name": "a"},
            {"name": "b", "annotations": ["//@RES: ghost_kit"]},
        ],
        "transitions": [{"source": "a", "target": "b", "guard": "go"}],
        "initial": "a",
    }
    model_path = tmp_path / "mini.json"
    model_path.write_text(json.dumps(model))
    empty_map = tmp_path / "empty.map"
    empty_map.write_text("")
    code = run_cli("integrate", model_path, empty_map, "--out", tmp_path)
    assert code == 0  # warnings only
    err = capsys.readouterr().err
    assert "ghost_kit" in err and "resource map" in err
    assert "never available" in err
    # the strengthened guard is permanently false: b is never entered
    from resweave.sim import Scenario, init_composition, run as sim_run

    composition = cli.load_manifest(str(tmp_path / "composition.json"))
    state = init_composition(composition, Scenario())
    sim_run(state, 50)
    assert state.active["Mini"] == "a"


DELAYED_CHECK = (
    "check",
    "--model", FIXTURES / "stroke_simple.json",
    "--map", FIXTURES / "stroke_simple.map",
    "--schedule", FIXTURES / "schedule_delayed_ct.txt",
    "--scenario", FIXTURES / "scenario_simple.json",
    "--properties", FIXTURES / "props_simple.txt",
)


def test_negative_horizon_exits_2(tmp_path, capsys):
    assert run_cli(*DELAYED_CHECK, "--horizon", "-5", "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--horizon" in err
    assert not (tmp_path / "verdicts.json").exists()


@pytest.mark.parametrize(
    "manifest",
    [
        {"variables": [{"nam": "x"}]},
        {"resources": [5]},
        {"resources": ["a\u0000b.json"]},
        {"timer": 5},
        {"guidelines": "Stroke.json"},
        {"variables": [{"name": "x", "kind": "integer", "initial": [0]}]},
    ],
)
def test_malformed_manifest_exits_2(tmp_path, capsys, manifest):
    path = tmp_path / "composition.json"
    path.write_text(json.dumps(manifest))
    scenario = tmp_path / "scenario.json"
    scenario.write_text("{}")
    code = run_cli("simulate", "--manifest", path, "--scenario", scenario, "--out", tmp_path / "out")
    assert code == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_counterexample_trace_matches_simulate(tmp_path):
    assert run_cli(*DELAYED_CHECK, "--out", tmp_path / "check") == 1
    cx = json.loads((tmp_path / "check" / "P2.counterexample.json").read_text())
    resolution = []
    for choice in json.loads((FIXTURES / "scenario_simple.json").read_text())["choices"]:
        value = cx["scenario"]["initial"][choice["var"]]
        resolution += ["--choice", f"{choice['var']}={json.dumps(value)}"]
    simulate = ("simulate", *DELAYED_CHECK[1:9], *resolution, "--out", tmp_path / "sim")
    assert run_cli(*simulate) == 0
    assert cx["trace"] == json.loads((tmp_path / "sim" / "trace.json").read_text())


@pytest.mark.parametrize(
    "argv",
    [
        ("annotate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map", "--horizon", "5"),
        ("annotate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map", "--assume-available"),
        ("integrate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map", "--scenario-cap", "5"),
        ("export", "--model", FIXTURES / "stroke_simple.json", "--map", FIXTURES / "stroke_simple.map",
         "--horizon", "5"),
    ],
)
def test_unread_flag_exits_2(tmp_path, capsys, argv):
    assert run_cli(*argv, "--out", tmp_path) == 2
    capsys.readouterr()
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", [("--assume-available",), ("--schedule", FIXTURES / "schedule_delayed_ct.txt")])
def test_manifest_rejects_schedule_flags(tmp_path, capsys, flag):
    assert run_cli(
        "integrate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map",
        "--schedule", FIXTURES / "schedule_delayed_ct.txt", "--out", tmp_path / "integ",
    ) == 0
    capsys.readouterr()
    code = run_cli(
        "check", "--manifest", tmp_path / "integ" / "composition.json",
        "--scenario", FIXTURES / "scenario_simple.json",
        "--properties", FIXTURES / "props_simple.txt",
        *flag, "--out", tmp_path / "check",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag[0] in err
    assert not (tmp_path / "check").exists()


@pytest.mark.parametrize(
    "variable",
    [
        {"name": "x", "kind": "float", "initial": 0},
        {"name": "x", "kind": "integer", "initial": True},
        {"name": "x", "kind": "integer", "initial": 2**63},
    ],
)
def test_bad_variable_declaration_exits_2(tmp_path, capsys, variable):
    document = {"name": "Bad", "variables": [variable], "states": [{"name": "s"}], "initial": "s"}
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(document))
    with pytest.raises(ResweaveError, match=r"variables\[0\]"):
        parse_model(model.read_text())
    assert run_cli("annotate", model, FIXTURES / "stroke_simple.map", "--out", tmp_path) == 2
    assert capsys.readouterr().err.count("\n") == 1


EXTENDED_CHECK = (
    "check",
    "--model", FIXTURES / "stroke_extended.json",
    "--map", FIXTURES / "stroke_extended.map",
    "--schedule", FIXTURES / "schedule_extended.txt",
    "--scenario", FIXTURES / "scenario_extended.json",
    "--properties", FIXTURES / "props_extended.txt",
)

DELAYED_SIMULATE = (
    "simulate", *DELAYED_CHECK[1:9],
    "--choice", "hemorrhage=false", "--choice", "systolicBP=150", "--choice", "diastolicBP=100",
)

# sha256 of each output file; a new digest means the written bytes changed.
PINNED_OUTPUTS = [
    pytest.param(DELAYED_CHECK, 1, {
        "P2.counterexample.json": "4cbd732839607b0fcd0363d664c82785bb13f9928878659d2f3267dae59b7c57",
        "P2.trace.txt": "9c001e831fe9323f27c284e01d6eec6b3a6f31b8c1746e43f598278af6b8c10b",
    }, id="check-delayed"),
    pytest.param(EXTENDED_CHECK, 1, {
        "P2.counterexample.json": "d747f30ded2c33f49168f45259008ce7a124d6951155dfde89774da9f74b942a",
        "P2.trace.txt": "459b4bb3ea3544f4cf8bcd51eff20497508d5e600a05b2bbd2f48650e2e21214",
    }, id="check-extended"),
    pytest.param(DELAYED_SIMULATE, 0, {
        "trace.json": "8e7b534709c2acc576ed252c213f73e7c65c3a89d28d257b29dff5791fe31a49",
        "trace.txt": "9c001e831fe9323f27c284e01d6eec6b3a6f31b8c1746e43f598278af6b8c10b",
    }, id="simulate-delayed"),
]


@pytest.mark.parametrize("argv, exit_code, digests", PINNED_OUTPUTS)
def test_output_bytes_are_pinned(tmp_path, capsys, argv, exit_code, digests):
    assert run_cli(*argv, "--out", tmp_path) == exit_code
    capsys.readouterr()
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def _deep_inputs(tmp_path) -> dict:
    """One over-deep input of each kind, keyed by the flag that reads it."""
    deep_json = "[" * 100_000
    model = json.loads((FIXTURES / "stroke_simple.json").read_text())
    model["transitions"][0]["guard"] = "curT" + "+1" * 3000 + ">=0"
    files = {
        "parens.props": "P: A[] " + "(" * 3000 + "curT>=0" + ")" * 3000 + "\n",
        "chain.props": "P: A[] curT" + "+1" * 3000 + ">=0\n",
        "model.json": deep_json,
        "guard.json": json.dumps(model),
        "scenario.json": deep_json,
        "composition.json": deep_json,
        "wide.map": "CTscan: " + ", ".join(f"r{i}" for i in range(150)) + "\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return {name: tmp_path / name for name in files}


@pytest.mark.parametrize(
    "replace",
    [
        {"--properties": "parens.props"},
        {"--properties": "chain.props"},
        {"--model": "model.json"},
        {"--model": "guard.json"},
        {"--scenario": "scenario.json"},
        {"--map": "wide.map"},
        {"--manifest": "composition.json", "--model": None, "--map": None, "--schedule": None},
    ],
    ids=["properties-brackets", "properties-chain", "model-json", "model-guard", "scenario-json",
         "map-conjunction", "manifest-json"],
)
def test_deep_nesting_exits_2(tmp_path, capsys, replace):
    deep = _deep_inputs(tmp_path)
    argv = list(DELAYED_CHECK)
    for flag, name in replace.items():
        if flag in argv:
            at = argv.index(flag)
            del argv[at:at + 2]
        if name is not None:
            argv += [flag, deep[name]]
    assert run_cli(*argv, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "deeper than" in err or "nested too deeply" in err


@pytest.mark.parametrize("argv", [DELAYED_CHECK, DELAYED_SIMULATE], ids=["check", "simulate"])
def test_horizon_over_work_budget_exits_2(tmp_path, capsys, argv):
    assert run_cli(*argv, "--horizon", "99999999999", "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "work budget" in err
    assert not any(tmp_path.iterdir())


def test_integrate_refuses_chart_named_like_the_manifest(tmp_path, capsys):
    resource_map = tmp_path / "clash.map"
    resource_map.write_text("CTscan: composition\ngivetPA: tPA\n")
    out = tmp_path / "out"
    argv = ("integrate", FIXTURES / "stroke_simple.json", resource_map, "--assume-available", "--out", out)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "composition.json" in err
    assert not out.exists()


@pytest.mark.parametrize("value, exit_code", [(2**63 - 1, 0), (2**63, 2)])
def test_choice_is_range_checked(tmp_path, capsys, value, exit_code):
    argv = [*DELAYED_SIMULATE, "--horizon", "5", "--out", tmp_path]
    argv[argv.index("systolicBP=150")] = f"systolicBP={value}"
    assert run_cli(*argv) == exit_code
    err = capsys.readouterr().err
    if exit_code:
        assert err.startswith("error: ") and err.count("\n") == 1 and str(value) in err
    else:
        assert json.loads((tmp_path / "trace.json").read_text())["initial_valuation"]["systolicBP"] == value


def test_trace_with_no_op_fires_replays_to_simulate_bytes(tmp_path, capsys, delayed_composition):
    # Written before no-op self-loop re-entries were left out of trace.json;
    # replaying it fires them again, and they are not recorded.
    old = (GOLDEN / "delayed_ct_h25_with_noops.trace.json").read_text(encoding="utf-8")
    assert run_cli(*DELAYED_SIMULATE, "--horizon", "25", "--out", tmp_path) == 0
    capsys.readouterr()
    written = (tmp_path / "trace.json").read_text(encoding="utf-8")
    assert len(written) < len(old)
    replayed = sim.replay_trace(delayed_composition, sim.trace_from_dict(json.loads(old)))
    assert sim.trace_to_json(replayed) == written


@pytest.mark.parametrize(
    "model, map_name, schedule, scenario, choices",
    [
        ("stroke_simple.json", "stroke_simple.map", "schedule_delayed_ct.txt", "scenario_simple.json",
         ("hemorrhage=false", "systolicBP=150", "diastolicBP=100")),
        ("stroke_extended.json", "stroke_extended.map", "schedule_extended.txt", "scenario_extended.json",
         ("hemorrhage=false", "systolicBP=150", "bpControlled=false")),
    ],
    ids=["delayed", "extended"],
)
def test_simulated_trace_replays_on_the_manifest(tmp_path, capsys, model, map_name, schedule, scenario, choices):
    setup, out = tmp_path / "setup", tmp_path / "simulate"
    assert run_cli("integrate", FIXTURES / model, FIXTURES / map_name,
                   "--schedule", FIXTURES / schedule, "--out", setup) == 0
    manifest = setup / "composition.json"
    argv = ["simulate", "--manifest", manifest, "--scenario", FIXTURES / scenario, "--out", out]
    for choice in choices:
        argv += ["--choice", choice]
    assert run_cli(*argv) == 0
    capsys.readouterr()
    text = (out / "trace.json").read_text(encoding="utf-8")
    replayed = sim.replay_trace(cli.load_manifest(str(manifest)), sim.trace_from_dict(json.loads(text)))
    assert sim.trace_to_json(replayed) == text


def test_load_manifest_validates_each_chart_once(tmp_path, capsys, monkeypatch):
    assert run_cli("integrate", FIXTURES / "stroke_extended.json", FIXTURES / "stroke_extended.map",
                   "--schedule", FIXTURES / "schedule_extended.txt", "--out", tmp_path) == 0
    capsys.readouterr()
    validated = []
    for name in ("resweave.model.validate_model", "resweave.sim.validate_model"):  # every name it is called by
        monkeypatch.setattr(name, lambda chart: validated.append(chart) or validate_model(chart))
    composition = cli.load_manifest(str(tmp_path / "composition.json"))
    assert len(composition.charts) == 11
    assert sorted(map(id, validated)) == sorted(map(id, composition.charts))


GROWING = {
    "name": "Grow",
    "variables": [{"name": "a", "kind": "integer", "initial": 2}, {"name": "b", "kind": "integer", "initial": 2}],
    "states": [{"name": "s"}],
    "transitions": [{"source": "s", "target": "s", "actions": ["a = a * b"]}],
    "initial": "s",
}


@pytest.mark.parametrize("command", ["simulate", "check"])
def test_integer_written_outside_64_bits_exits_2(tmp_path, capsys, command):
    files = {"grow.json": json.dumps(GROWING), "empty.map": "", "scenario.json": "{}", "grow.props": "P: A[] a > 0\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [command, "--model", tmp_path / "grow.json", "--map", tmp_path / "empty.map",
            "--scenario", tmp_path / "scenario.json", "--horizon", "100", "--out", tmp_path / "out"]
    if command == "check":
        argv += ["--properties", tmp_path / "grow.props"]
    assert run_cli(*argv) == 2
    # `a` is 2**(t+1) after minute t, so minute 62 would write 2**63.
    assert capsys.readouterr().err == (
        "error: chart 'Grow' at minute 62: 'a' would be set to a value outside the 64-bit range\n"
    )


def _workload_digests(tmp_path, name: str) -> dict[str, str]:
    """sha256 of each file that `integrate`, `check`, `simulate` and `export` write for the benchmark
    workload `name` at seed 1000, but `verdicts.json`, which holds the paths under `tmp_path`;
    "integrate" is taken over the name and bytes of each file it wrote, in name order."""
    sys.path.insert(0, str(FIXTURES.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(FIXTURES.parent / "perfbench"))
    (config,) = workloads.build(name, 1000, tmp_path / "in", FIXTURES.parent)
    setup, out = tmp_path / "integrate", tmp_path / "out"
    assert run_cli("integrate", config["model"], config["map"], "--schedule", config["schedule"], "--out", setup) == 0
    manifest = ("--manifest", setup / "composition.json")
    assert run_cli("check", *manifest, "--scenario", config["scenario"], "--properties", config["properties"],
                   "--out", out) == config["expected"]["exit"]
    choices = [arg for var, value in config["simulate"].items() for arg in ("--choice", f"{var}={json.dumps(value)}")]
    assert run_cli("simulate", *manifest, "--scenario", config["scenario"], *choices, "--out", out) == 0
    assert run_cli("export", *manifest, "--properties", config["properties"], "--out", out) == 0
    written = hashlib.sha256()
    for path in sorted(setup.iterdir()):
        written.update(path.name.encode("utf-8"))
        written.update(path.read_bytes())
    return {"integrate": written.hexdigest(),
            **{path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.iterdir()) if path.name != "verdicts.json"}}


# sha256 of the outputs for the benchmark's large-guideline workload at seed 1000:
# 2,000 states, 3,998 transitions, 200 resource charts.
LARGE_GUIDELINE_DIGESTS = {
    "integrate": "4e9248088418f36044e9082dcd28414bd0e0e2e64d9788d8eac54f816046cbc6",
    "composition.xta": "8edee7499091d5c8e700797b0567d1a83daa2f05c645c6d1975be0ff1f17bce7",
    "composition.q": "d628baa1ed952403343cf2223fb3c91426845615a6bd460c02925877e7e468a8",
    "P2.counterexample.json": "1531c0dcbc8e228acee64ce5a877abc440c8f0aba513da8452f76a28e73d115a",
    "trace.json": "f4b9a93b7c15ec1da151a42bbf492b06af771ba6bc62c01bbf808e67b7049f09",
}


def test_large_guideline_outputs_are_pinned(tmp_path, capsys):
    digests = _workload_digests(tmp_path, "large-guideline")
    capsys.readouterr()
    # the manifest, the timer, 200 resource charts, the guideline
    assert len(list((tmp_path / "integrate").iterdir())) == 203
    assert {name: digests[name] for name in LARGE_GUIDELINE_DIGESTS} == LARGE_GUIDELINE_DIGESTS


# sha256 of every output for the two benchmark workloads whose minutes are spent firing
# (busy-ward: a guideline that fires every minute) and skipping (shift-roster: idle minutes).
WORKLOAD_DIGESTS = {
    "busy-ward": {
        "integrate": "661cb2c6359502ab1143f13e5684b37dcef95105629bd544f4493f1113a3fd07",
        "P1.counterexample.json": "25be3087010852e4d580d6378358e21444af6aa4a11bfc6077803a5f5beb3ab7",
        "P1.trace.txt": "901644768045f81f14e75642d51968e2eb718f244dc4e0ac46d1e51c7c20a979",
        "composition.q": "681426336032022b94e20e8ba517a4cb0b8015966c04c9e014e752d1f38913fe",
        "composition.xta": "ddb70cd7d81fc26e66986b18928d7e9068e007762112238c60ef6f028bf1e90e",
        "trace.json": "62185fc5b2d37f81389b3449e7802ca856a821842c15e92343efe17e221b04eb",
        "trace.txt": "c4eaf84b1e7819b30758aaf8a3972ed3fc24ad00b98df91045b981d682837424",
    },
    "shift-roster": {
        "integrate": "fcead5a39ec4e713ade36ffccfe95c33ee9656e116a4ae2caf9e9a49c977bf96",
        "P2.counterexample.json": "0df114bd62d5244b5b8cd7f9a8b7a0c34a1d9ae69144dec43ac8486ca0b47770",
        "P2.trace.txt": "551755d67dca05af2232fe21ed91e1bffdf00c872d4a2c2aae875f18b288ea2e",
        "composition.q": "435affb9b4cb183e0bb896cc2aaaa2b4431952206fdcd977f4bf53edd8d2fac5",
        "composition.xta": "1c6815391d66e158968def85f7d553a159e8c9ebbad0a8879371361d64aea8a4",
        "trace.json": "fa3307733038e74b77011649ce85c2b84f1c74d9ae82295de207b365fc944b25",
        "trace.txt": "551755d67dca05af2232fe21ed91e1bffdf00c872d4a2c2aae875f18b288ea2e",
    },
}


@pytest.mark.parametrize("name", WORKLOAD_DIGESTS)
def test_fire_and_skip_workload_outputs_are_pinned(tmp_path, capsys, name):
    digests = _workload_digests(tmp_path, name)
    capsys.readouterr()
    assert digests == WORKLOAD_DIGESTS[name]


GROWING_AT_ENTRY = {
    "name": "Grow",
    "variables": [{"name": "a", "kind": "integer", "initial": 2**62}],
    "states": [{"name": "s", "entry": ["entry/ a = a * 4"]}],
    "transitions": [],
    "initial": "s",
}


@pytest.mark.parametrize("command", ["simulate", "export"])
def test_integer_set_outside_64_bits_at_time_zero_exits_2(tmp_path, capsys, command):
    files = {"grow.json": json.dumps(GROWING_AT_ENTRY), "empty.map": "", "scenario.json": "{}"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [command, "--model", tmp_path / "grow.json", "--map", tmp_path / "empty.map", "--out", tmp_path / "out"]
    if command == "simulate":
        argv += ["--scenario", tmp_path / "scenario.json", "--horizon", "5"]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == (
        "error: chart 'Grow' at minute 0: 'a' would be set to a value outside the 64-bit range\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, other", [("orderCT", "variable"), ("CTscan", "event")])
def test_export_refuses_a_chart_named_like_a_global(tmp_path, capsys, name, other):
    model = json.loads((FIXTURES / "stroke_simple.json").read_text(encoding="utf-8"))
    model["name"] = name
    (tmp_path / "renamed.json").write_text(json.dumps(model))
    argv = ("export", "--model", tmp_path / "renamed.json", "--map", FIXTURES / "stroke_simple.map",
            "--assume-available", "--out", tmp_path / "out")
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == (
        f"error: {name!r} names both a {other} and a chart, which share one namespace\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "choices, message",
    [
        (["systolicBP=150", "systolicBP=190"], "--choice gives 'systolicBP' more than one value"),
        (["systolicBP=150", "systolicBP=150"], "--choice gives 'systolicBP' more than one value"),
        (["systolicBP=1_50"], "--choice value '1_50' is not an int or true/false"),
        (["systolicBP= +150"], "--choice value ' +150' is not an int or true/false"),
        (["systolicBP=+150"], "--choice value '+150' is not an int or true/false"),
        (["systolicBP=150 "], "--choice value '150 ' is not an int or true/false"),
    ],
    ids=["twice", "twice-alike", "underscore", "space-plus", "plus", "trailing-space"],
)
def test_choice_is_one_integer_literal_per_variable(tmp_path, capsys, choices, message):
    argv = [*DELAYED_SIMULATE, "--horizon", "5", "--out", tmp_path / "out"]
    index = argv.index("systolicBP=150")
    argv[index - 1:index + 1] = [arg for choice in choices for arg in ("--choice", choice)]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_choice_takes_a_negative_integer_literal(tmp_path):
    argv = [*DELAYED_SIMULATE, "--horizon", "5", "--out", tmp_path]
    argv[argv.index("systolicBP=150")] = "systolicBP=-7"
    assert run_cli(*argv) == 0
    assert json.loads((tmp_path / "trace.json").read_text())["initial_valuation"]["systolicBP"] == -7


def test_integrate_warnings_as_json_diagnostics(tmp_path, capsys):
    argv = ("integrate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map", "--out", tmp_path)
    assert run_cli(*argv, "--json-diagnostics") == 0
    captured = capsys.readouterr()
    never = "has no schedule entry and defaults to never available"
    assert captured.err == ""
    assert captured.out == json.dumps({"warnings": [
        f"resource 'CT_machine' {never}", f"resource 'CT_technician' {never}", f"resource 'tPA' {never}",
    ]}) + "\n"


def test_check_rows_as_json_diagnostics(tmp_path, capsys):
    assert run_cli(*DELAYED_CHECK, "--out", tmp_path, "--json-diagnostics") == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [
        {"property": "P1", "holds": True, "counterexample_path": None},
        {"property": "P2", "holds": False, "counterexample_path": str(tmp_path / "P2.counterexample.json")},
    ]
    assert captured.out == json.dumps(rows) + "\n"
    assert json.loads((tmp_path / "verdicts.json").read_text()) == rows


def test_replay_against_a_differing_file_exits_2(tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text("{}\n")
    assert run_cli(*DELAYED_SIMULATE, "--horizon", "5", "--replay", other, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: replayed trace differs from {other}\n"


def test_start_up_imports_no_dataclasses():
    """`import resweave.cli` loads neither `dataclasses` nor the modules it imports, which cost
    each process about 20 ms: every record is a `NamedTuple` or a slotted class."""
    code = "import sys; before = set(sys.modules); import resweave.cli; print(*sorted(set(sys.modules) - before))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert "resweave.cli" in loaded.split()
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(loaded.split())


def test_simulate_reads_its_replay_file_before_it_writes(tmp_path, capsys):
    """An unreadable `--replay` file is refused before the scenario runs: no trace line, no output."""
    manifest, missing, out = _integrate_delayed(tmp_path / "manifest"), tmp_path / "missing.json", tmp_path / "out"
    capsys.readouterr()
    code = run_cli("simulate", "--manifest", manifest, "--scenario", FIXTURES / "scenario_simple.json",
                   *DELAYED_SIMULATE[9:], "--replay", missing, "--out", out)
    assert (code, capsys.readouterr()) == (2, ("", f"error: cannot read {missing}: No such file or directory\n"))
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("simulate", "--model", FIXTURES / "stroke_simple.json", "--scenario", FIXTURES / "scenario_simple.json"),
         "either --manifest or both --model and --map are required"),
        ((*DELAYED_SIMULATE, "--choice", "systolicBP"), "--choice expects var=value, got 'systolicBP'"),
    ],
    ids=["model-without-map", "choice-without-equals"],
)
def test_incomplete_arguments_exit_2(tmp_path, capsys, argv, message):
    assert run_cli(*argv, "--horizon", "5", "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda root: {("resorces" if key == "resources" else key): value for key, value in root.items()},
         "unknown key 'resorces'"),
        (lambda root: {**root, "variables": [{**root["variables"][0], "value": 1}, *root["variables"][1:]]},
         "variables[0]: unknown key 'value'"),
    ],
    ids=["top-level", "variable"],
)
def test_manifest_refuses_a_key_it_does_not_read(tmp_path, capsys, edit, message):
    setup = tmp_path / "setup"
    assert run_cli("integrate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map",
                   "--schedule", FIXTURES / "schedule_delayed_ct.txt", "--out", setup) == 0
    manifest = setup / "composition.json"
    argv = ("check", "--manifest", manifest, *DELAYED_CHECK[7:], "--out", tmp_path / "out")
    assert run_cli(*argv) == 1  # P2 fails with the resource charts loaded
    capsys.readouterr()
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {manifest}: {message}\n"


@pytest.mark.parametrize("edit, exit_code", [
    (lambda root: {**root, "variables": []}, 2),
    (lambda root: {**root, "variables": root["variables"][1:]}, 2),
    (lambda root: {key: value for key, value in root.items() if key != "variables"}, 1),
    (lambda root: {**root, "variables": [{**v, "initial": False} if v["name"] == "curT" else v
                                         for v in root["variables"]]}, 2),
], ids=["empty", "one-dropped", "absent", "false-for-integer-0"])
def test_manifest_variables_must_agree_whenever_given(tmp_path, capsys, edit, exit_code):
    """A `variables` list, even an empty one, is compared with the chart declarations, kind for kind:
    `false` is not the integer 0. Without the key the charts' declarations are used as they are."""
    manifest = _integrate_delayed(tmp_path / "setup")
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    capsys.readouterr()
    assert run_cli("check", "--manifest", manifest, *DELAYED_CHECK[7:], "--out", tmp_path / "out") == exit_code
    err = capsys.readouterr().err
    if exit_code == 2:
        assert err == f"error: {manifest}: manifest variables disagree with the chart declarations\n"
        assert not (tmp_path / "out").exists()
    else:
        assert err == ""


@pytest.mark.parametrize("command", ["check", "simulate", "export"])
def test_a_manifest_that_declares_a_variable_twice_is_refused(tmp_path, capsys, command):
    """`variables` is compared with the chart declarations as a multiset: a second, equal declaration of
    `curT` disagrees with the charts, which declare it once, and no output is written."""
    manifest = _integrate_delayed(tmp_path / "setup")
    root = json.loads(manifest.read_text())
    root["variables"].append(next(v for v in root["variables"] if v["name"] == "curT"))
    manifest.write_text(json.dumps(root))
    capsys.readouterr()
    argv = {"check": DELAYED_CHECK[7:], "simulate": DELAYED_SIMULATE[7:], "export": ()}[command]
    assert run_cli(command, "--manifest", manifest, *argv, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {manifest}: manifest variables disagree with the chart declarations\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("json_diagnostics", [False, True], ids=["text", "json"])
def test_check_refuses_a_property_file_without_a_property(tmp_path, capsys, json_diagnostics):
    empty = tmp_path / "empty.props"
    empty.write_text("# nothing\n")
    flags = ("--json-diagnostics",) if json_diagnostics else ()
    assert run_cli(*DELAYED_CHECK[:9], "--properties", empty, *flags, "--out", tmp_path / "out") == 2
    captured = capsys.readouterr()
    message = f"{empty}: no property to check"
    if json_diagnostics:
        assert (captured.out, captured.err) == (json.dumps({"error": message}) + "\n", "")
    else:
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()
    # `export` still writes the empty sidecar.
    assert run_cli("export", *DELAYED_CHECK[1:7], "--properties", empty, "--out", tmp_path / "out") == 0
    assert (tmp_path / "out" / "stroke_simple.q").read_text() == "\n"


@pytest.mark.parametrize(
    "flag, value, minimum",
    [
        ("--horizon", "1_0", 0), ("--horizon", "+5", 0), ("--horizon", " 7", 0), ("--horizon", "7 ", 0),
        ("--scenario-cap", "0", 1), ("--scenario-cap", "-3", 1), ("--scenario-cap", "1_0", 1),
        ("--scenario-cap", "+8", 1),
    ],
)
def test_integer_flags_take_one_integer_literal(tmp_path, capsys, flag, value, minimum):
    assert run_cli(*DELAYED_CHECK, f"{flag}={value}", "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        f"error: resweave check: argument {flag}: expected a 64-bit integer >= {minimum}, got {value!r}\n"
    )
    assert not (tmp_path / "out").exists()


def test_scenario_cap_of_one_caps_the_choice_product(tmp_path, capsys):
    assert run_cli(*DELAYED_CHECK, "--scenario-cap", "1", "--out", tmp_path) == 2
    assert capsys.readouterr().err == (
        "error: choice product has 8 scenarios, above the cap of 1; reduce the choice domains or raise --scenario-cap\n"
    )


def test_integrate_refuses_a_schedule_horizon_outside_64_bits(tmp_path, capsys):
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("horizon: 99999999999999999999\nCT_machine: (200, 99999999999999999999)\n")
    argv = ("integrate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map", "--schedule", schedule)
    assert run_cli(*argv, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == "error: line 1: horizon '99999999999999999999' is not a positive 64-bit integer\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", ["--horizon=", "--choice=systolicBP="], ids=["horizon", "choice"])
def test_an_integer_of_thousands_of_digits_exits_2(tmp_path, capsys, option):
    assert run_cli(*DELAYED_SIMULATE, option + "1" * 5000, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("prop, message", [
    ("P: A[] Strok.tPAcheck imply false", "line 1: unknown chart 'Strok'"),
    ("Q: A[] Stroke.tPAchek imply false", "line 1: unknown state 'tPAchek' in chart 'Stroke'"),
], ids=["chart", "state"])
def test_a_misspelled_property_location_exits_2(tmp_path, capsys, prop, message):
    properties = tmp_path / "p.txt"
    properties.write_text(prop + "\n")
    assert run_cli(*DELAYED_CHECK[:-1], properties, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_export_reads_its_properties_before_it_writes(tmp_path, capsys):
    """A property file that `export` refuses leaves no `.xta` behind, as `check` leaves no output."""
    properties, out = tmp_path / "p.txt", tmp_path / "out"
    properties.write_text("Q: A[] Stroke.tPAchek imply false\n")
    code = run_cli("export", "--model", FIXTURES / "stroke_simple.json", "--map", FIXTURES / "stroke_simple.map",
                   "--schedule", FIXTURES / "schedule_delayed_ct.txt", "--properties", properties, "--out", out)
    assert (code, capsys.readouterr()) == (2, ("", "error: line 1: unknown state 'tPAchek' in chart 'Stroke'\n"))
    assert not out.exists()


# 150 in Arabic-Indic digits: `\d` in a `str` pattern matches them as decimal digits, `[0-9]` does not.
NON_ASCII_150 = "\u0661\u0665\u0660"


@pytest.mark.parametrize("case", ["choice", "horizon", "property", "schedule"])
def test_an_integer_in_non_ascii_digits_exits_2(tmp_path, capsys, case):
    properties, schedule = tmp_path / "p.txt", tmp_path / "s.txt"
    properties.write_text(f"P: A[] tpaT-onsetT<={NON_ASCII_150}\n", encoding="utf-8")
    schedule.write_text(f"CT_machine: ({NON_ASCII_150}, inf)\n", encoding="utf-8")
    simulate = [*DELAYED_SIMULATE, "--horizon", "5"]
    argv, message = {
        "choice": ([f"systolicBP={NON_ASCII_150}" if arg == "systolicBP=150" else arg for arg in simulate],
                   f"--choice value '{NON_ASCII_150}' is not an int or true/false"),
        "horizon": ([*DELAYED_SIMULATE, "--horizon", NON_ASCII_150],
                    f"resweave simulate: argument --horizon: expected a 64-bit integer >= 0, got '{NON_ASCII_150}'"),
        "property": ([*DELAYED_CHECK[:-1], properties], f"line 1: unexpected character '{NON_ASCII_150[0]}' (column 14)"),
        "schedule": (["integrate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map", "--schedule", schedule],
                     f"line 1: cannot parse window list '({NON_ASCII_150}, inf)'"),
    }[case]
    assert run_cli(*argv, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def _integrate_delayed(out: Path) -> Path:
    """The manifest that `integrate` writes for the delayed-CT case into `out`."""
    assert run_cli("integrate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map",
                   "--schedule", FIXTURES / "schedule_delayed_ct.txt", "--out", out) == 0
    return out / "composition.json"


LONG_INTEGER = "1" * 5000  # above Python's 4,300 digits for reading an int


@pytest.mark.parametrize("command, document", [
    (command, document) for command in ("check", "simulate", "export")
    for document in ("model", "scenario", "manifest", "chart") if (command, document) != ("export", "scenario")
])
def test_a_json_integer_of_thousands_of_digits_exits_2(tmp_path, capsys, command, document):
    manifest = _integrate_delayed(tmp_path / "setup")
    capsys.readouterr()
    argv = {"check": DELAYED_CHECK, "simulate": DELAYED_SIMULATE}.get(command, ("export", *DELAYED_CHECK[1:7]))
    if document in ("manifest", "chart"):
        argv = (command, "--manifest", manifest, *argv[7:])
    source = {"model": FIXTURES / "stroke_simple.json", "scenario": FIXTURES / "scenario_simple.json",
              "manifest": manifest, "chart": manifest.parent / "CT_machine.json"}[document]
    broken = source if source.parent == manifest.parent else tmp_path / source.name
    broken.write_text(source.read_text().replace("{", '{"n": ' + LONG_INTEGER + ", ", 1))
    assert run_cli(*(broken if arg == source else arg for arg in argv), "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "JSON number of more than 4300 digits" in err
    if document in ("manifest", "chart"):
        assert err.startswith(f"error: {broken}: ")


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("CT_machine.json", lambda text: text.replace('"name": "CT_machine"', '"name": 5'),
         "{file}: name: expected a string, found int"),
        ("CT_machine.json", lambda text: text.replace('"initial": "CT_machine"', '"initial": "gone"'),
         "{file}: initial: initial state 'gone' is not a declared state"),
        ("CT_machine.json", lambda text: text[:-3], "{file}: Expecting ',' delimiter (line 31, column 26)"),
        ("composition.json", lambda text: text.replace('"tPA.json"', '"tPA.json", "tPA.json"'),
         "{file}: duplicate chart names in composition: ['tPA']"),
        ("composition.json", lambda text: text.replace('"tPA.json"', '"nowhere.json"'),
         "cannot read {dir}/nowhere.json: No such file or directory"),
        ("composition.json", lambda text: text.replace('"tPA.json"', "5"),
         "{file}: resources[2]: expected a chart file name, found int"),
        ("composition.json", lambda text: text.replace('"Timer.json"', '""'),
         "{file}: timer: expected a chart file name, found an empty string"),
        ("composition.json", lambda text: text.replace('"CT_machine.json"', '""'),
         "{file}: resources[0]: expected a chart file name, found an empty string"),
        ("composition.json", lambda text: text.replace('"stroke_simple.integrated.json"', '""'),
         "{file}: guidelines[0]: expected a chart file name, found an empty string"),
    ],
    ids=["chart-shape", "chart-semantics", "chart-json", "manifest-duplicate-chart", "manifest-missing-chart",
         "manifest-shape", "manifest-empty-timer", "manifest-empty-resource", "manifest-empty-guideline"],
)
def test_a_refusal_under_a_manifest_starts_with_its_file(tmp_path, capsys, name, edit, message):
    manifest = _integrate_delayed(tmp_path)
    capsys.readouterr()
    broken = tmp_path / name
    text = broken.read_text()
    assert edit(text) != text
    broken.write_text(edit(text))
    assert run_cli("export", "--manifest", manifest, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == "error: " + message.format(file=broken, dir=tmp_path) + "\n"


@pytest.mark.parametrize("argv, exit_code, written", [
    (DELAYED_SIMULATE, 0, ("trace.json", "trace.txt")),
    (DELAYED_CHECK, 1, ("verdicts.json", "P2.counterexample.json", "P2.trace.txt")),
    ((*DELAYED_CHECK, "--json-diagnostics"), 1, ("verdicts.json",)),
], ids=["simulate", "check", "check-json"])
def test_a_closed_stdout_stops_the_echo_not_the_command(tmp_path, argv, exit_code, written):
    with _resweave_process(*argv, "--out", tmp_path) as process:
        process.stdout.close()  # the reader goes before the first line is written
        err = process.stderr.read()
        assert process.wait(timeout=120) == exit_code and err == b""
    assert all((tmp_path / name).stat().st_size for name in written)


def test_a_reader_that_leaves_mid_trace_stops_the_echo_not_the_command(tmp_path):
    with _resweave_process(*DELAYED_SIMULATE, "--horizon", "5000", "--out", tmp_path) as process:
        assert process.stdout.readline().startswith(b"t=0 ")
        process.stdout.close()  # the reader goes with most of the step log unread
        err = process.stderr.read()
        assert process.wait(timeout=120) == 0 and err == b""
    assert all((tmp_path / name).stat().st_size for name in ("trace.json", "trace.txt"))
    assert (tmp_path / "trace.txt").stat().st_size > 1 << 16  # more than a pipe buffer holds


def _resweave_process(*argv) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(FIXTURES.parent / "src"),
                                                                     os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-W", "error", "-X", "dev", "-m", "resweave", *map(str, argv)]
    return subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("json_diagnostics", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv, first", [
    (("annotate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map"), "stroke_simple.annotated.json"),
    (("integrate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map", "--assume-available"), "Timer.json"),
    (DELAYED_SIMULATE, "trace.json"),
    (DELAYED_CHECK, "P2.counterexample.json"),
    (("export", *DELAYED_CHECK[1:7]), "stroke_simple.xta"),
], ids=["annotate", "integrate", "simulate", "check", "export"])
def test_an_out_that_is_a_file_exits_2(tmp_path, capsys, argv, first, json_diagnostics):
    out = tmp_path / "afile"
    out.write_text("")
    flags = ("--json-diagnostics",) if json_diagnostics else ()
    assert run_cli(*argv, *flags, "--out", out) == 2  # for check, in place of its verdict's 1
    captured = capsys.readouterr()
    message = f"cannot write {out / first}: File exists"
    if json_diagnostics:
        assert (captured.out, captured.err) == (json.dumps({"error": message}) + "\n", "")
    else:
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", [DELAYED_CHECK, DELAYED_SIMULATE], ids=["check", "simulate"])
def test_a_choice_variable_declared_twice_exits_2(tmp_path, capsys, argv):
    scenario = json.loads((FIXTURES / "scenario_simple.json").read_text())
    scenario["choices"].append({"var": "hemorrhage", "domain": [True, False]})
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(scenario))
    argv = list(argv)
    argv[argv.index("--scenario") + 1] = path
    assert run_cli(*argv, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == "error: choice 'hemorrhage' is declared more than once\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [DELAYED_CHECK, DELAYED_SIMULATE], ids=["check", "simulate"])
def test_a_choice_domain_listing_a_value_twice_exits_2(tmp_path, capsys, argv):
    scenario = json.loads((FIXTURES / "scenario_simple.json").read_text())
    scenario["choices"][0]["domain"] = [False, False]
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(scenario))
    argv = list(argv)
    argv[argv.index("--scenario") + 1] = path
    assert run_cli(*argv, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == "error: choice 'hemorrhage' lists false more than once\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [DELAYED_CHECK, DELAYED_SIMULATE], ids=["check", "simulate"])
def test_a_choice_variable_also_set_in_initial_exits_2(tmp_path, capsys, argv):
    scenario = json.loads((FIXTURES / "scenario_simple.json").read_text())
    scenario["initial"]["hemorrhage"] = True
    path = tmp_path / "set-and-chosen.json"
    path.write_text(json.dumps(scenario))
    argv = list(argv)
    argv[argv.index("--scenario") + 1] = path
    assert run_cli(*argv, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == "error: choice 'hemorrhage' is also set in initial\n"
    assert not (tmp_path / "out").exists()


def test_a_choice_product_over_the_work_budget_is_refused_before_building(tmp_path, capsys, monkeypatch):
    names = ["a", "b", "c", "d"]
    model = {"name": "M", "variables": [{"name": n, "kind": "integer", "initial": 0} for n in names],
             "states": [{"name": "s"}], "initial": "s"}
    scenario = {"choices": [{"var": n, "domain": list(range(1000))} for n in names]}
    (tmp_path / "m.json").write_text(json.dumps(model))
    (tmp_path / "s.json").write_text(json.dumps(scenario))
    (tmp_path / "p.txt").write_text("Q: A[] true\n")
    monkeypatch.setattr(sim.Scenario, "resolve", None)  # never reached: 10**12 scenarios would not fit in memory
    code = run_cli(
        "check", "--model", tmp_path / "m.json", "--map", FIXTURES / "stroke_simple.map",
        "--scenario", tmp_path / "s.json", "--properties", tmp_path / "p.txt",
        "--scenario-cap", "1000000000000", "--horizon", "0", "--out", tmp_path / "out",
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: 1000000000000 scenario(s) x 1 minutes is above the work budget of 10000000 "
        "scenario-minutes; lower the horizon or narrow the choices\n"
    )
    assert not (tmp_path / "out").exists()


CHECK_RUN = ("--scenario", FIXTURES / "scenario_simple.json", "--properties", FIXTURES / "props_simple.txt")
COMBINED = "--manifest cannot be combined with --model/--map/--schedule/--assume-available"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("check", "--manifest", "x", "--model", "", "--schedule", "", *CHECK_RUN), COMBINED),
        (("check", "--manifest", "x", "--map", "", *CHECK_RUN), COMBINED),
        (("check", "--manifest", "", *CHECK_RUN), "cannot read "),
        (("check", "--model", FIXTURES / "stroke_simple.json", "--map", FIXTURES / "stroke_simple.map",
          "--schedule", "", *CHECK_RUN), "cannot read "),
        (("integrate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map", "--schedule", ""),
         "cannot read "),
    ],
    ids=["manifest-with-empty-model-and-schedule", "manifest-with-empty-map", "empty-manifest",
         "check-empty-schedule", "integrate-empty-schedule"],
)
def test_an_empty_composition_source_flag_is_used_as_given(tmp_path, capsys, argv, message):
    assert run_cli(*argv, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "choices, unresolved",
    [
        ((), "'hemorrhage', 'systolicBP', 'diastolicBP'"),
        (("hemorrhage=false",), "'systolicBP', 'diastolicBP'"),
        (("hemorrhage=false", "systolicBP=150"), "'diastolicBP'"),
    ],
    ids=["none", "one", "two"],
)
def test_an_unresolved_choice_is_refused_with_one_message(tmp_path, capsys, choices, unresolved):
    choice_flags = [arg for choice in choices for arg in ("--choice", choice)]
    assert run_cli(*DELAYED_SIMULATE[:9], *choice_flags, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        f"error: scenario has unresolved choices [{unresolved}]; pass --choice var=value for each\n"
    )
    assert not (tmp_path / "out").exists()
