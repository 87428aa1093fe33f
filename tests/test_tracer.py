"""Smoke test of `perfbench/tracer.py`, which wraps functions of `resweave` by
module and name: it holds those names importable where the tracer looks."""

import json
import os
import subprocess
import sys

from conftest import FIXTURES

ROOT = FIXTURES.parent
MANIFEST = "integrate/composition.json"
COMMANDS = {
    "integrate": (0, ["integrate", FIXTURES / "stroke_simple.json", FIXTURES / "stroke_simple.map",
                      "--schedule", FIXTURES / "schedule_delayed_ct.txt", "--out", "integrate"]),
    "check": (1, ["check", "--manifest", MANIFEST, "--scenario", FIXTURES / "scenario_simple.json",
                  "--properties", FIXTURES / "props_simple.txt", "--out", "check"]),
    "simulate": (0, ["simulate", "--manifest", MANIFEST, "--scenario", FIXTURES / "scenario_simple.json",
                     "--choice", "hemorrhage=false", "--choice", "systolicBP=150", "--choice", "diastolicBP=100",
                     "--out", "simulate"]),
    "export": (0, ["export", "--manifest", MANIFEST, "--properties", FIXTURES / "props_simple.txt",
                   "--out", "export"]),
}


def test_tracer_runs_each_command_on_delayed_ct(tmp_path):
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    spans, aggregates = set(), set()
    for command, (exit_code, argv) in COMMANDS.items():
        dump = tmp_path / f"{command}.json"
        result = subprocess.run(
            [sys.executable, "-W", "error", "-X", "dev", str(ROOT / "perfbench" / "tracer.py"), str(dump), "--",
             *map(str, argv)],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert result.returncode == exit_code, (command, result.stderr)
        payload = json.loads(dump.read_text(encoding="utf-8"))
        spans.update(span[0] for span in payload["spans"])
        aggregates.update(aggregate[0] for aggregate in payload["aggs"])
    assert {"cli.cmd_check", "verify.check", "sim.run", "xta.export_xta"} <= spans
    assert "model.validate_model" in aggregates
