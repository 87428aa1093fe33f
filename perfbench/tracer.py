"""Run one `resweave` CLI command with per-layer tracing and dump what it saw.

    PERFBENCH_T0=<time.monotonic() at spawn> \\
        python3 perfbench/tracer.py OUT.json [--light] -- <resweave arguments>

Coarse calls (commands, parsing, weaving, synthesis, whole runs, checks,
serialization, export) become spans: name, start, end, parent span. Calls
made once per scenario, minute or invariant inside a check or a run
(`init_composition`, `macro_step`, `eval_invariant`, `validate_model`) are
aggregated into a count and a total time keyed by the enclosing span, so
tracing does not add one record per minute.

Every wrapper replaces the name the caller resolves at call time: a global
of the calling module (`resweave.verify.macro_step` for `verify.check`), or
an attribute of a module the caller imported under an alias (`sim.run` for
`cli`). Nothing under `src/` changes. `--light` wraps only `verify.check`,
so the difference between the two modes is the tracing overhead.

`PERFBENCH_T0` is read on the system-wide monotonic clock, so `import_s`
covers interpreter start-up plus `import resweave.cli`.
"""

import json
import os
import sys
import time
from collections import Counter

import resweave.cli as cli

IMPORT_S = time.monotonic() - float(os.environ.get("PERFBENCH_T0", "nan"))

from resweave import model, resources, sim, verify, weave  # noqa: E402  (already imported by cli)

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.stack = []  # indexes of open spans
        self.aggs = {}  # (name, enclosing span name) -> [count, seconds]
        self.counts = Counter()
        self.kinds = {}  # id(composition) -> {chart name: "timer" | "resource"}
        self.scenario_steps = []  # macro-steps per scenario of the running check
        self.first_reports = []  # step reports of the running check's first scenario
        self.diverge = None  # first macro-step index at which two scenarios differ

    def span(self, owner, attr, name, before=None, after=None):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if before:
                before()
            record = [name, clock(), None, self.stack[-1] if self.stack else None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                self.stack.pop()
            if after:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    def aggregate(self, owner, attr, name, after=None):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            elapsed = clock() - start
            key = (name, self.spans[self.stack[-1]][0] if self.stack else None)
            entry = self.aggs.setdefault(key, [0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            if after:
                after(args, result)
            return result

        setattr(owner, attr, counted)

    # -- hooks ---------------------------------------------------------------

    def count(self, key, measure):
        def hook(args, result):
            self.counts[key] += measure(args, result)

        return hook

    def on_annotate(self, args, result):
        self.counts["model.states"] += len(args[0].states)
        self.counts["model.transitions"] += len(args[0].transitions)

    def on_step(self, args, report):
        composition = args[0].composition
        kinds = self.kinds.get(id(composition))
        if kinds is None:
            kinds = {chart.name: "resource" for chart in composition.resources}
            if composition.timer is not None:
                kinds[composition.timer.name] = "timer"
            self.kinds[id(composition)] = kinds
        guideline_fired = False
        for fire in report.fires:
            kind = kinds.get(fire.chart, "guideline")
            self.counts[f"sim.fires.{kind}"] += 1
            guideline_fired = guideline_fired or kind == "guideline"
            if not fire.sets and not fire.raised:
                self.counts["sim.noop_fires"] += 1
        self.counts["sim.minutes"] += 1
        if not guideline_fired and not report.injected and set(report.deltas) <= {"curT"}:
            self.counts["sim.idle_minutes"] += 1

    def on_check_begin(self):
        self.scenario_steps, self.first_reports, self.diverge = [], [], None

    def on_scenario(self, args, state):
        self.scenario_steps.append(0)

    def on_check_step(self, args, report):
        self.on_step(args, report)
        index = self.scenario_steps[-1]
        self.scenario_steps[-1] += 1
        if len(self.scenario_steps) == 1:
            self.first_reports.append(report)
        elif self.diverge is None or index < self.diverge:
            if index >= len(self.first_reports) or report != self.first_reports[index]:
                self.diverge = index

    def on_check_end(self, args, verdicts):
        kept = {v.counterexample.scenario_index for v in verdicts if v.counterexample is not None}
        steps = self.scenario_steps
        shared = self.diverge if self.diverge is not None else max(steps, default=0)
        self.counts["verify.scenarios_explored"] += len(steps)
        self.counts["verify.scenario_minutes"] += sum(steps)
        self.counts["verify.shared_minutes"] += sum(min(s, shared) for s in steps)
        self.counts["verify.discarded_steps"] += sum(s for i, s in enumerate(steps) if i not in kept)
        self.first_reports = []

    # -- installation --------------------------------------------------------

    def install(self):
        size = lambda args, text: len(text.encode("utf-8"))  # noqa: E731
        span, agg = self.span, self.aggregate
        for cmd in ("cmd_integrate", "cmd_check", "cmd_simulate", "cmd_export"):
            span(cli, cmd, f"cli.{cmd}")
        span(cli, "load_manifest", "cli.load_manifest")
        span(cli, "parse_model", "model.parse_model")
        span(cli, "serialize_model", "model.serialize_model")
        agg(model, "validate_model", "model.validate_model")
        agg(sim, "validate_model", "model.validate_model")
        span(resources, "parse_resource_map", "resources.parse_resource_map")
        span(resources, "parse_schedule", "resources.parse_schedule")
        span(resources, "interface_for_resources", "resources.interface_for_resources")
        span(resources, "synthesize_timer", "resources.synthesize_timer")
        span(resources, "synthesize_resource_chart", "resources.synthesize_resource_chart",
             after=self.count("resources.region_guards",
                              lambda args, chart: sum(len(s.entry_actions) for s in chart.states)))
        span(weave, "annotate", "weave.annotate", after=self.on_annotate)
        span(weave, "integrate", "weave.integrate",
             after=self.count("weave.strengthened_transitions",
                              lambda args, out: sum(a.guard != b.guard
                                                    for a, b in zip(args[0].transitions, out.transitions))))
        span(sim, "init_composition", "sim.init_composition")
        span(sim, "run", "sim.run")
        agg(sim, "macro_step", "sim.macro_step", after=self.on_step)
        span(sim, "trace_to_json", "sim.trace_to_json", after=self.count("sim.trace_json_bytes", size))
        span(sim, "trace_lines", "sim.trace_lines")
        span(verify, "parse_properties", "verify.parse_properties")
        span(verify, "check", "verify.check", before=self.on_check_begin, after=self.on_check_end)
        span(verify, "enumerate_scenarios", "verify.enumerate_scenarios",
             after=self.count("verify.scenarios", lambda args, out: len(out)))
        agg(verify, "init_composition", "sim.init_composition", after=self.on_scenario)
        agg(verify, "macro_step", "sim.macro_step", after=self.on_check_step)
        agg(verify, "eval_invariant", "verify.eval_invariant")
        xta = sys.modules["resweave.xta"]
        span(xta, "init_composition", "sim.init_composition")
        span(cli, "export_xta", "xta.export_xta", after=self.count("xta.bytes", size))
        span(cli, "export_queries", "xta.export_queries", after=self.count("xta.bytes", size))

    def write_outputs_s(self) -> float:
        """Time a check or simulate command spends after its result is computed."""
        total = 0.0
        for command, result in (("cli.cmd_check", "verify.check"), ("cli.cmd_simulate", "sim.run")):
            for index, (name, _, end, _) in enumerate(self.spans):
                if name != command:
                    continue
                done = max((s[2] for s in self.spans if s[0] == result and s[3] == index), default=None)
                if done is not None:
                    total += end - done
        return total

    def dump(self, path: str) -> None:
        payload = {
            "import_s": IMPORT_S,
            "write_outputs_s": self.write_outputs_s(),
            "spans": self.spans,
            "aggs": [[name, parent, n, seconds] for (name, parent), (n, seconds) in self.aggs.items()],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def main(argv) -> int:
    out_path, *rest = argv
    light = rest[:1] == ["--light"]
    if "--" not in rest:
        print("usage: tracer.py OUT.json [--light] -- <resweave arguments>", file=sys.stderr)
        return 2
    cli_args = rest[rest.index("--") + 1:]
    tracer = Tracer()
    if light:
        tracer.span(verify, "check", "verify.check")
    else:
        tracer.install()
    code = cli.main(cli_args)
    tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
