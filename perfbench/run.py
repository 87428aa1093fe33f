"""End-to-end and per-layer benchmark of the `resweave` CLI.

    python3 perfbench/run.py --workload casestudy --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree (it needs `src/`, `fixtures/` and
`tests/golden/`). It writes only under `.perfbench_work/` in that tree.

One client, closed loop: one CLI process runs at a time and is waited for
before the next starts. Set-up generates the workload's inputs from
`--seed` and runs `resweave integrate` for every configuration in several
rounds. Then cycles run for `--seconds` (a cycle starts only if it should
end in time, and there is always one): each runs `check`, `simulate` (one
resolved scenario) and `export` for every configuration. End-to-end
metrics are taken with tracing off (`--trace 0`); times are medians over
rounds or cycles, each command's wall time relative to a run of
`reference.py` just before it (see `measure`).

With `--trace 1` the same cycles run each command under `tracer.py`, plus
one lightly traced `check` per configuration, and the per-layer metrics
are printed instead (medians over cycles).

Every invocation's exit code and outputs are checked against the
workload's expected answers; see `workloads.py`. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Set-up repeats `integrate` at least SETUP_ROUNDS[0] times and keeps going,
# up to SETUP_ROUNDS[1], until SETUP_SECONDS have passed.
SETUP_ROUNDS = (5, 25)
SETUP_SECONDS = 3.0
# A cycle repeats `export` (every configuration once a batch) until its batches
# add up to EXPORT_SECONDS: a lone export of a small model lasts about as long
# as one reference run and is as noisy.
EXPORT_SECONDS = 0.5
# End-to-end times are reported for a host on which `reference.py` takes this long.
REFERENCE_SECONDS = 0.2
PIPELINE_LAYERS = ("model", "weave", "xta")


def units(spec: dict, kind: str) -> dict:
    """Metric name -> unit for `kind` ("end_to_end" or "per_layer") of BENCHMARK.json."""
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class Failure(Exception):
    pass


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Bench:
    def __init__(self, root: Path, work: Path, configs: list[dict], seconds: float):
        self.root = root
        self.work = work
        self.configs = configs
        self.seconds = seconds
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.seen = {}  # output identity -> digest, verified in depth on first sight
        self._resweave = None
        self.last_reference = None  # seconds of the latest `reference.py` run

    # -- processes -----------------------------------------------------------

    def invoke(self, args: list[str], trace: str | None = None, light: bool = False):
        """Run one CLI command; return (seconds, exit code, peak RSS in KiB or None when traced)."""
        peak = self.work / "peak.txt"
        if trace is None:
            peak.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "peak.py"), str(peak), "--", *args]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), trace, *(["--light"] if light else []), "--", *args]
        with open(self.work / "stderr.txt", "wb") as err:
            env = dict(self.env, PERFBENCH_T0=repr(time.monotonic()))
            start = time.perf_counter()
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=err, cwd=self.root, env=env, check=False)
            elapsed = time.perf_counter() - start
        rss = int(peak.read_text(encoding="ascii")) if trace is None and peak.exists() else None
        return elapsed, proc.returncode, rss

    def reference(self) -> float:
        """Wall time of one `reference.py` process: how fast the host runs Python now."""
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "reference.py")], stdout=subprocess.DEVNULL,
                       cwd=self.root, env=self.env, check=True)
        return time.perf_counter() - start

    def attempt(self, check):
        """Count one CLI invocation and whether its outputs were right."""
        self.attempted += 1
        try:
            check()
        except (Failure, OSError, ValueError, KeyError) as err:
            self.failed += 1
            detail = (self.work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
            print(f"incorrect: {err} {detail}", file=sys.stderr)

    def once(self, key: str, path: Path, verify_first) -> None:
        """Verify an output in depth the first time; afterwards require the same bytes."""
        digest = _sha(path)
        if key not in self.seen:
            verify_first()
            self.seen[key] = digest
        elif self.seen[key] != digest:
            raise Failure(f"{path.name} differs from the first run's bytes")

    def resweave(self):
        if self._resweave is None:
            sys.path.insert(0, str(self.root / "src"))
            import resweave.cli
            import resweave.sim
            import resweave.xta

            self._resweave = resweave
        return self._resweave

    # -- commands ------------------------------------------------------------

    def _dir(self, config, kind):
        return self.work / config["name"] / kind

    def manifest(self, config) -> str:
        return str(self._dir(config, "setup") / "composition.json")

    def integrate(self, config, trace=None):
        out = _fresh(self._dir(config, "setup-traced" if trace else "setup"))
        args = ["integrate", config["model"], config["map"], "--out", str(out)]
        if config.get("schedule"):
            args += ["--schedule", config["schedule"]]
        if config.get("assume_available"):
            args.append("--assume-available")
        elapsed, code, _ = self.invoke(args, trace)

        def check():
            if code != 0:
                raise Failure(f"{config['name']} integrate exited {code}")
            self.once(f"{config['name']}/manifest", out / "composition.json", lambda: None)

        self.attempt(check)
        return elapsed

    def check(self, config, trace=None, light=False):
        out = _fresh(self._dir(config, "check"))
        args = ["check", "--manifest", self.manifest(config), "--scenario", config["scenario"],
                "--properties", config["properties"], "--out", str(out)]
        elapsed, code, rss = self.invoke(args, trace, light)
        expected = config["expected"]
        written = 0

        def check():
            nonlocal written
            if code != expected["exit"]:
                raise Failure(f"{config['name']} check exited {code}, expected {expected['exit']}")
            rows = json.loads((out / "verdicts.json").read_text(encoding="utf-8"))
            got = [[r["property"], r["holds"]] for r in rows]
            if got != [v[:2] for v in expected["verdicts"]]:
                raise Failure(f"{config['name']} verdicts {got}")
            for name, holds, scenario_index, step_index in expected["verdicts"]:
                if holds:
                    continue
                cx = out / f"{name}.counterexample.json"
                text = out / f"{name}.trace.txt"

                def verify_cx(cx=cx, want=(scenario_index, step_index)):
                    payload = json.loads(cx.read_text(encoding="utf-8"))
                    if (payload["scenario_index"], payload["step_index"]) != want:
                        raise Failure(f"{cx.name} at {payload['scenario_index']}/{payload['step_index']}")
                    facts = expected["resolutions"][scenario_index]
                    initial = payload["scenario"]["initial"]
                    if any(initial.get(var) != value for var, value in facts["choices"].items()):
                        raise Failure(f"{cx.name} scenario {initial} is not resolution {facts['choices']}")
                    self.shows(config, cx.name, payload["trace"], facts)

                self.once(f"{config['name']}/{name}.cx", cx, verify_cx)
                self.once(f"{config['name']}/{name}.txt", text, lambda: None)
                written += cx.stat().st_size + text.stat().st_size

        self.attempt(check)
        return elapsed, rss, written

    def simulate(self, config, trace=None):
        out = _fresh(self._dir(config, "simulate"))
        args = ["simulate", "--manifest", self.manifest(config), "--scenario", config["scenario"],
                "--out", str(out)]
        for var, value in config["simulate"].items():
            args += ["--choice", f"{var}={json.dumps(value)}"]
        elapsed, code, _ = self.invoke(args, trace)
        written = 0

        def check():
            nonlocal written
            if code != 0:
                raise Failure(f"{config['name']} simulate exited {code}")
            trace_json = out / "trace.json"
            self.once(f"{config['name']}/trace.json", trace_json, lambda: self.verify_trace(config, trace_json))
            self.once(f"{config['name']}/trace.txt", out / "trace.txt", lambda: None)
            written = trace_json.stat().st_size + (out / "trace.txt").stat().st_size

        self.attempt(check)
        return elapsed, written

    def shows(self, config, what: str, trace: dict, facts: dict) -> None:
        """A trace must cover the whole horizon and show its resolution's facts."""
        problem = workloads.facts_mismatch(trace, config["horizon"], facts)
        if problem:
            raise Failure(f"{config['name']} {what}: {problem}")

    def verify_trace(self, config, trace_json: Path) -> None:
        """The simulated trace must show the facts of the resolution asked for
        and reproduce byte for byte under `sim.replay_trace`."""
        rs = self.resweave()
        sim = rs.sim
        text = trace_json.read_text(encoding="utf-8")
        root = json.loads(text)
        facts = next(f for f in config["expected"]["resolutions"] if f["choices"] == config["simulate"])
        self.shows(config, trace_json.name, root, facts)
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
        trace = sim.Trace(root["initial_active"], root["initial_valuation"], steps)
        composition = rs.cli.load_manifest(self.manifest(config))
        if sim.trace_to_json(sim.replay_trace(composition, trace)) != text:
            raise Failure(f"{config['name']} trace.json does not reproduce under replay_trace")

    def export(self, config, trace=None):
        out = _fresh(self._dir(config, "export"))
        args = ["export", "--manifest", self.manifest(config), "--properties", config["properties"],
                "--out", str(out)]
        elapsed, code, _ = self.invoke(args, trace)

        def check():
            if code != 0:
                raise Failure(f"{config['name']} export exited {code}")
            golden = config.get("golden") or {}
            for suffix in ("xta", "q"):
                path = out / f"composition.{suffix}"
                if suffix in golden:
                    if path.read_bytes() != Path(golden[suffix]).read_bytes():
                        raise Failure(f"{config['name']} {path.name} differs from {golden[suffix]}")
                    continue
                self.once(f"{config['name']}/{suffix}", path, lambda path=path, suffix=suffix: self.wellformed(config, path, suffix))

        self.attempt(check)
        return elapsed

    def wellformed(self, config, path: Path, suffix: str) -> None:
        text = path.read_text(encoding="utf-8")
        if suffix == "xta":
            problems = self.resweave().xta.scan_xta(text)
            if problems:
                raise Failure(f"{path.name}: {problems[0]}")
        elif text.count("A[] ") != len(config["expected"]["verdicts"]):
            raise Failure(f"{path.name} does not hold one query per property")

    # -- loops ---------------------------------------------------------------

    def cycles(self):
        """Yield once per cycle until the next cycle would end after `--seconds` (at least once)."""
        deadline = time.perf_counter() + self.seconds
        while True:
            started = time.perf_counter()
            yield
            now = time.perf_counter()
            if now + (now - started) > deadline:
                return

    def between_references(self, command, config):
        """Run `command(config)` and then `reference.py`; return (the command's
        result, mean of the reference runs just before and just after it)."""
        if self.last_reference is None:
            self.last_reference = self.reference()
        result = command(config)
        before, self.last_reference = self.last_reference, self.reference()
        return result, (before + self.last_reference) / 2

    def integrate_all(self, configs) -> float:
        return sum(self.integrate(c) for c in configs)

    def measure(self) -> tuple[dict, dict]:
        # The host's speed drifts by up to a third within seconds and for
        # minutes at a time. `reference.py` slows with the host and with
        # nothing else, so reference runs alternate with the timed commands
        # (set-up rounds), and a time is reported as the command's wall time
        # relative to the mean of the reference runs on either side of it,
        # times REFERENCE_SECONDS: the time it would take on a host where the
        # reference takes REFERENCE_SECONDS.
        setup, started = [], time.perf_counter()
        while len(setup) < SETUP_ROUNDS[0] or (
            len(setup) < SETUP_ROUNDS[1] and time.perf_counter() - started < SETUP_SECONDS
        ):
            setup.append([list(self.between_references(self.integrate_all, self.configs))])
        cycles = []
        for _ in self.cycles():
            checks = [self.between_references(self.check, c) for c in self.configs]
            sims = [self.between_references(self.simulate, c) for c in self.configs]
            batches = []
            while sum(elapsed for batch in batches for elapsed, _ in batch) < EXPORT_SECONDS:
                batches.append([self.between_references(self.export, c) for c in self.configs])
            cycles.append({
                "check_s": [[elapsed, ref] for (elapsed, _, _), ref in checks],
                "simulate_s": [[elapsed, ref] for (elapsed, _), ref in sims],
                "export_s": [[[elapsed, ref] for elapsed, ref in batch] for batch in batches],
                "rss_kib": max(rss or 0 for (_, rss, _), _ in checks),
                "output_bytes": sum(w for (_, _, w), _ in checks) + sum(w for (_, w), _ in sims),
            })
        (self.work / "samples.json").write_text(json.dumps({"setup_s": setup, "cycles": cycles}, indent=1))

        timed = {
            "setup_s": setup,
            "check_s": [c["check_s"] for c in cycles],
            "simulate_s": [c["simulate_s"] for c in cycles],
            "export_s": [batch for c in cycles for batch in c["export_s"]],
        }
        times = {
            key: statistics.median(sum(s / r for s, r in pairs) for pairs in samples) * REFERENCE_SECONDS
            for key, samples in timed.items()
        }
        minutes = sum(c["scenarios"] * c["horizon"] for c in self.configs)
        values = {
            "setup_s": times["setup_s"],
            "check_s": times["check_s"],
            "check_minutes_per_s": minutes / times["check_s"],
            "simulate_s": times["simulate_s"],
            "export_s": times["export_s"],
            "check_peak_rss_mb": statistics.median(c["rss_kib"] for c in cycles) / 1024,
            "output_bytes": statistics.median(c["output_bytes"] for c in cycles),
            "correct_share": (self.attempted - self.failed) / self.attempted,
        }
        notes = {key: f"median of {len(cycles)} cycles" for key in values}
        for key, samples in timed.items():
            wall = statistics.median(sum(s for s, _ in pairs) for pairs in samples)
            ref = statistics.median(r for pairs in samples for _, r in pairs)
            unit = {"setup_s": "rounds", "export_s": "batches"}.get(key, "cycles")
            notes[key] = (f"median of {len(samples)} {unit}, relative to "
                          f"reference.py x {REFERENCE_SECONDS} s; measured wall time {wall:.6g} s, "
                          f"reference {ref:.4g} s")
        notes["check_minutes_per_s"] = f"{minutes} scenario-minutes / check_s"
        notes["correct_share"] = f"{self.attempted - self.failed} of {self.attempted} invocations"
        return values, notes

    def measure_layers(self, metrics: dict) -> tuple[dict, dict]:
        for config in self.configs:
            self.integrate(config)
        cycles = []
        tdir = _fresh(self.work / "trace")
        for _ in self.cycles():
            records, light, walls = [], [], {"integrate": 0.0, "export": 0.0}
            for config in self.configs:
                name = config["name"]
                walls["integrate"] += self.integrate(config, trace=str(tdir / f"{name}.integrate.json"))
                self.check(config, trace=str(tdir / f"{name}.check.json"))
                self.check(config, trace=str(tdir / f"{name}.check-light.json"), light=True)
                self.simulate(config, trace=str(tdir / f"{name}.simulate.json"))
                walls["export"] += self.export(config, trace=str(tdir / f"{name}.export.json"))
                for kind in ("integrate", "check", "simulate", "export"):
                    record = json.loads((tdir / f"{name}.{kind}.json").read_text(encoding="utf-8"))
                    record["kind"] = kind
                    records.append(record)
                light.append(json.loads((tdir / f"{name}.check-light.json").read_text(encoding="utf-8")))
            cycles.append(layer_metrics(records, light, walls))
        values = {key: statistics.median(c[key] for c in cycles) for key in metrics if key in cycles[0]}
        notes = {key: f"median of {len(cycles)} cycles" for key in values}
        values["trace.overhead_s"] = values["verify.check_s"] - statistics.median(c["light.check_s"] for c in cycles)
        notes["trace.overhead_s"] = f"median traced minus median lightly traced verify.check_s, {len(cycles)} cycles"
        return values, notes


def layer_metrics(records: list[dict], light: list[dict], walls: dict) -> dict:
    """Per-layer values of one cycle from the tracer records of its commands."""
    aggs = [a for r in records for a in r["aggs"]]
    counts = {}
    for r in records:
        for key, value in r["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def span_s(*names, within=records):
        return sum(s[2] - s[1] for r in within for s in r["spans"] if s[0] in names)

    def span_n(name):
        return sum(1 for r in records for s in r["spans"] if s[0] == name)

    def agg(name, parent=None, field=3):
        return sum(a[field] for a in aggs if a[0] == name and (parent is None or a[1] == parent))

    def share(part, whole):
        return counts.get(part, 0) / counts[whole] if counts.get(whole) else 0.0

    fires = sum(counts.get(f"sim.fires.{k}", 0) for k in ("timer", "resource", "guideline"))
    pipeline = [r for r in records if r["kind"] in ("integrate", "export")]
    layer_s = 0.0
    for r in pipeline:
        names = [s[0] for s in r["spans"]]
        for name, start, end, parent in r["spans"]:
            outer = parent is None or names[parent].split(".")[0] not in PIPELINE_LAYERS
            if name.split(".")[0] in PIPELINE_LAYERS and outer:
                layer_s += end - start
        for name, parent, _, seconds in r["aggs"]:
            if name.split(".")[0] in PIPELINE_LAYERS and (parent or "").split(".")[0] not in PIPELINE_LAYERS:
                layer_s += seconds
    check_s = span_s("verify.check")
    return {
        "cli.import_s": statistics.median(r["import_s"] for r in records),
        "cli.load_manifest_s": span_s("cli.load_manifest"),
        "cli.write_outputs_s": sum(r["write_outputs_s"] for r in records),
        "model.parse_s": span_s("model.parse_model") - agg("model.validate_model", "model.parse_model"),
        "model.validate_s": agg("model.validate_model"),
        "model.serialize_s": span_s("model.serialize_model"),
        "model.states": counts.get("model.states", 0),
        "model.transitions": counts.get("model.transitions", 0),
        "resources.parse_s": span_s("resources.parse_resource_map", "resources.parse_schedule"),
        "resources.synthesize_s": span_s("resources.synthesize_resource_chart", "resources.synthesize_timer",
                                         "resources.interface_for_resources"),
        "resources.region_guards": counts.get("resources.region_guards", 0),
        "weave.annotate_s": span_s("weave.annotate"),
        "weave.integrate_s": span_s("weave.integrate"),
        "weave.strengthened_transitions": counts.get("weave.strengthened_transitions", 0),
        "sim.init_s": span_s("sim.init_composition") + agg("sim.init_composition"),
        "sim.inits": span_n("sim.init_composition") + agg("sim.init_composition", field=2),
        "sim.macro_steps": agg("sim.macro_step", field=2),
        "sim.macro_step_s": agg("sim.macro_step"),
        "sim.fires.timer": counts.get("sim.fires.timer", 0),
        "sim.fires.resource": counts.get("sim.fires.resource", 0),
        "sim.fires.guideline": counts.get("sim.fires.guideline", 0),
        "sim.noop_fire_share": counts.get("sim.noop_fires", 0) / fires if fires else 0.0,
        "sim.idle_minute_share": share("sim.idle_minutes", "sim.minutes"),
        "sim.run_s": span_s("sim.run"),
        "sim.trace_to_json_s": span_s("sim.trace_to_json"),
        "sim.trace_json_bytes": counts.get("sim.trace_json_bytes", 0),
        "sim.trace_lines_s": span_s("sim.trace_lines"),
        "verify.parse_properties_s": span_s("verify.parse_properties"),
        "verify.check_s": check_s,
        "verify.scenarios": counts.get("verify.scenarios", 0),
        "verify.scenarios_explored": counts.get("verify.scenarios_explored", 0),
        "verify.invariant_evals": agg("verify.eval_invariant", field=2),
        "verify.invariant_s": agg("verify.eval_invariant"),
        "verify.discarded_steps": counts.get("verify.discarded_steps", 0),
        "verify.shared_prefix_share": share("verify.shared_minutes", "verify.scenario_minutes"),
        "xta.export_s": span_s("xta.export_xta"),
        "xta.queries_s": span_s("xta.export_queries"),
        "xta.bytes": counts.get("xta.bytes", 0),
        "light.check_s": span_s("verify.check", within=light),
        "setup_export.layer_share": layer_s / (walls["integrate"] + walls["export"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/resweave/__init__.py", "fixtures", "tests/golden") if not (root / p).exists()]
    if missing:
        print(f"error: run from the root of a resweave source tree; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = _fresh(root / ".perfbench_work" / args.workload)
    configs = workloads.build(args.workload, args.seed, work / "inputs", root)
    bench = Bench(root, work, configs, args.seconds)
    if args.trace:
        metrics = units(spec, "per_layer")
        values, notes = bench.measure_layers(metrics)
    else:
        metrics = units(spec, "end_to_end")
        values, notes = bench.measure()
    if set(values) != set(metrics):
        print(f"error: measured {sorted(set(values) ^ set(metrics))} not as BENCHMARK.json lists them",
              file=sys.stderr)
        return 2
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {metrics[name]}  ({notes.get(name, '')})")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": metrics[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
