import hashlib
import json
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
    manifest = {"timer": "Timer.json", "resources": [], "guidelines": [], "variables": []}
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


def _trace_from_json(text: str):
    """Rebuild a `Trace` from `trace.json` text, field by field."""
    root = json.loads(text)
    steps = tuple(
        sim.StepReport(
            t=step["t"],
            injected=tuple(tuple(pair) for pair in step["injected"]),
            fires=tuple(
                sim.FireRecord(f["chart"], f["source"], f["target"], f["index"],
                               tuple(tuple(pair) for pair in f["sets"]), tuple(f["raised"]))
                for f in step["fires"]
            ),
            raised=tuple(step["raised"]),
            deltas=step["deltas"],
        )
        for step in root["steps"]
    )
    return sim.Trace(root["initial_active"], root["initial_valuation"], steps)


def test_trace_with_no_op_fires_replays_to_simulate_bytes(tmp_path, capsys, delayed_composition):
    # Written before no-op self-loop re-entries were left out of trace.json;
    # replaying it fires them again, and they are not recorded.
    old = (GOLDEN / "delayed_ct_h25_with_noops.trace.json").read_text(encoding="utf-8")
    assert run_cli(*DELAYED_SIMULATE, "--horizon", "25", "--out", tmp_path) == 0
    capsys.readouterr()
    written = (tmp_path / "trace.json").read_text(encoding="utf-8")
    assert len(written) < len(old)
    replayed = sim.replay_trace(delayed_composition, _trace_from_json(old))
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
    replayed = sim.replay_trace(cli.load_manifest(str(manifest)), _trace_from_json(text))
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


# sha256 of the outputs for the benchmark's large-guideline workload at seed 1000:
# 2,000 states, 3,998 transitions, 200 resource charts. "integrate" is taken over
# the name and bytes of each file it wrote, in name order.
LARGE_GUIDELINE_DIGESTS = {
    "integrate": "4e9248088418f36044e9082dcd28414bd0e0e2e64d9788d8eac54f816046cbc6",
    "composition.xta": "8edee7499091d5c8e700797b0567d1a83daa2f05c645c6d1975be0ff1f17bce7",
    "composition.q": "d628baa1ed952403343cf2223fb3c91426845615a6bd460c02925877e7e468a8",
    "P2.counterexample.json": "1531c0dcbc8e228acee64ce5a877abc440c8f0aba513da8452f76a28e73d115a",
    "trace.json": "f4b9a93b7c15ec1da151a42bbf492b06af771ba6bc62c01bbf808e67b7049f09",
}


def test_large_guideline_outputs_are_pinned(tmp_path, capsys):
    sys.path.insert(0, str(FIXTURES.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(FIXTURES.parent / "perfbench"))
    (config,) = workloads.build("large-guideline", 1000, tmp_path / "in", FIXTURES.parent)
    setup = tmp_path / "integrate"
    assert run_cli("integrate", config["model"], config["map"], "--schedule", config["schedule"], "--out", setup) == 0
    manifest = ("--manifest", setup / "composition.json")
    assert run_cli("check", *manifest, "--scenario", config["scenario"], "--properties", config["properties"],
                   "--out", tmp_path) == 1
    choices = [arg for var, value in config["simulate"].items() for arg in ("--choice", f"{var}={json.dumps(value)}")]
    assert run_cli("simulate", *manifest, "--scenario", config["scenario"], *choices, "--out", tmp_path) == 0
    assert run_cli("export", *manifest, "--properties", config["properties"], "--out", tmp_path) == 0
    capsys.readouterr()
    assert len(list(setup.iterdir())) == 203  # the manifest, the timer, 200 resource charts, the guideline
    written = hashlib.sha256()
    for path in sorted(setup.iterdir()):
        written.update(path.name.encode("utf-8"))
        written.update(path.read_bytes())
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in LARGE_GUIDELINE_DIGESTS if name != "integrate"}
    assert {"integrate": written.hexdigest(), **digests} == LARGE_GUIDELINE_DIGESTS
