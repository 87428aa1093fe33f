"""Command-line front end: annotate, integrate, simulate, check, export.

Exit codes: 0 success (all properties hold), 1 property violation,
2 usage/parse/validation error. Warnings never change the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import expr as ex
from . import verify as chk
from . import resources as res
from . import sim
from . import weave
from .errors import ResweaveError
from .model import StatechartModel, expect, expect_object, parse_model, read_json, serialize_model
from .model import variable_from_obj, write_json
from .xta import export_queries, export_xta


class _CommandError(ResweaveError):
    pass


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise _CommandError(f"cannot read {path}: {err.strerror}") from None
    except ValueError as err:  # a NUL byte in the path, or text that is not UTF-8
        raise _CommandError(f"cannot read {path!r}: {err}") from None


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as err:
        raise _CommandError(f"cannot write {path}: {err.strerror}") from None


def _print(text: str) -> None:
    """Write a line to stdout, the only writer to it. Once its reader has gone,
    stdout is sent to os.devnull: the command still writes its files and
    returns its exit code, and the flush at exit has nothing to fail on."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(args, message: str) -> None:
    if not args.json_diagnostics:
        _print(message)


def _warn(args, warnings: list[str]) -> None:
    if args.json_diagnostics:
        if warnings:
            _print(json.dumps({"warnings": warnings}))
    else:
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Pipeline assembly


def build_composition(
    model: StatechartModel,
    resource_map: res.ResourceMap,
    schedule: res.AvailabilitySchedule,
    assume_available: bool = False,
) -> tuple[sim.Composition, list[str]]:
    """Annotate, synthesize, and integrate into a runnable composition.

    Returns the composition plus warning messages. Resource charts and RES
    variables are synthesized only for resources named by the model's
    annotations; an unannotated model yields just the timer and the model.
    """
    annotated = weave.annotate(model, resource_map)
    elements = (*annotated.states, *annotated.transitions)
    resources = tuple(dict.fromkeys(r for element in elements for r in weave.collect_annotations(element)))
    warnings = [str(d) for d in weave.integration_warnings(annotated)]
    mapped = set(resource_map.unique_resources())
    for resource in resources:
        if resource not in mapped:
            warnings.append(f"annotated resource {resource!r} does not appear in the resource map")
        if resource not in schedule.entries and not assume_available:
            warnings.append(
                f"resource {resource!r} has no schedule entry and defaults to never available"
            )
    interface = res.interface_for_resources(resources)
    declared = {v.name for v in annotated.variables}
    missing = tuple(decl for decl in interface if decl.name not in declared)
    if missing:
        annotated = annotated._replace(variables=annotated.variables + missing)
    integrated = weave.integrate(annotated)
    unscheduled = res.ALWAYS if assume_available else ()
    charts = tuple(res.synthesize_resource_chart(r, schedule.entries.get(r, unscheduled)) for r in resources)
    return sim.Composition(res.synthesize_timer(), charts, (integrated,)), warnings


def _load_composition(args) -> tuple[sim.Composition, list[str], str]:
    """Composition from --manifest, or built from --model/--map/--schedule."""
    if args.manifest is not None:
        if args.assume_available or any(flag is not None for flag in (args.model, args.map, args.schedule)):
            raise _CommandError(
                "--manifest cannot be combined with --model/--map/--schedule/--assume-available"
            )
        composition = load_manifest(args.manifest)
        return composition, [], Path(args.manifest).stem
    if args.model is None or args.map is None:
        raise _CommandError("either --manifest or both --model and --map are required")
    model = parse_model(_read_text(args.model))
    resource_map = res.parse_resource_map(_read_text(args.map))
    schedule = res.AvailabilitySchedule({})
    if args.schedule is not None:
        schedule = res.parse_schedule(_read_text(args.schedule))
    composition, warnings = build_composition(model, resource_map, schedule, args.assume_available)
    return composition, warnings, Path(args.model).stem


def write_manifest(composition: sim.Composition, out_dir: Path, guideline_names: dict[str, str]) -> Path:
    """Write the composition charts plus the manifest listing them in execution order.

    Nothing is written when a chart's file name is the manifest's own.
    """
    names = {chart.name: guideline_names.get(chart.name, f"{chart.name}.json") for chart in composition.charts}
    for chart, name in names.items():
        if name == "composition.json":
            raise _CommandError(f"chart {chart!r} would overwrite the manifest composition.json")
    for chart in composition.charts:
        _write_text(out_dir / names[chart.name], serialize_model(chart))
    manifest = {
        "timer": names[composition.timer.name] if composition.timer is not None else None,
        "resources": [names[chart.name] for chart in composition.resources],
        "guidelines": [names[chart.name] for chart in composition.guidelines],
        "variables": composition.variables,
    }
    path = out_dir / "composition.json"
    _write_text(path, write_json(manifest) + "\n")
    return path


def load_manifest(path: str) -> sim.Composition:
    """The composition of the manifest at `path`. A refusal starts with the
    path of the file it is about: the manifest's, or a chart file's."""
    root = _naming(path, read_json, _read_text(path))
    expect_object(root, {"timer", "resources", "guidelines", "variables"}, path)
    base = Path(path).parent

    def chart(name, key: str) -> StatechartModel:
        """The chart of the file `name` that the manifest gives under `key`."""
        if not expect(name, str, f"{path}: {key}", "a chart file name"):
            raise _CommandError(f"{path}: {key}: expected a chart file name, found an empty string")
        chart_path = str(base / name)
        return _naming(chart_path, parse_model, _read_text(chart_path))

    timer = expect(root.get("timer"), (str, type(None)), f"{path}: timer", "a chart file name or null")
    charts = [None if timer is None else chart(timer, "timer")]
    for key in ("resources", "guidelines"):
        names = expect(root.get(key, []), list, f"{path}: {key}", "a list of chart file names")
        charts.append(tuple(chart(name, f"{key}[{i}]") for i, name in enumerate(names)))
    composition = _naming(path, sim.Composition, *charts)
    variables = expect(root.get("variables", []), list, f"{path}: variables", "a list")
    # With its initial value's type: `false` and `0` are equal in Python, and only one is an integer.
    exact = lambda decl: (*decl, type(decl.initial))  # noqa: E731
    declared = {exact(variable_from_obj(obj, f"{path}: variables[{i}]")) for i, obj in enumerate(variables)}
    if "variables" in root and declared != set(map(exact, composition.variables)):
        raise _CommandError(f"{path}: manifest variables disagree with the chart declarations")
    return composition


def _naming(path: str, function, *args):
    """`function(*args)`, with a refusal it raises starting with `path`."""
    try:
        return function(*args)
    except ResweaveError as err:
        raise _CommandError(f"{path}: {err}") from None


def _load_scenario(args, composition: sim.Composition) -> sim.Scenario:
    scenario = sim.parse_scenario(_read_text(args.scenario))
    sim.validate_scenario(scenario, composition)
    return scenario


def _effective_horizon(args, scenario: sim.Scenario) -> int:
    """--horizon, else the scenario's, else the default."""
    return next(h for h in (args.horizon, scenario.horizon, res.DEFAULT_HORIZON) if h is not None)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_annotate(args) -> int:
    model = parse_model(_read_text(args.model))
    resource_map = res.parse_resource_map(_read_text(args.map))
    annotated = weave.annotate(model, resource_map)
    out_path = Path(args.out) / f"{Path(args.model).stem}.annotated.json"
    _write_text(out_path, serialize_model(annotated))
    for state in annotated.states:
        for annotation in state.annotations:
            _emit(args, f"state {state.name}: //@RES: {', '.join(annotation.resources)}")
    for transition in annotated.transitions:
        for annotation in transition.annotations:
            _emit(
                args,
                f"transition {transition.source}->{transition.target}: "
                f"//@RES: {', '.join(annotation.resources)}",
            )
    _emit(args, f"wrote {out_path}")
    return 0


def cmd_integrate(args) -> int:
    composition, warnings, stem = _load_composition(args)
    _warn(args, warnings)
    guideline = composition.guidelines[0]
    manifest_path = write_manifest(composition, Path(args.out), {guideline.name: f"{stem}.integrated.json"})
    _emit(args, f"wrote {manifest_path}")
    return 0


def cmd_simulate(args) -> int:
    composition, warnings, _ = _load_composition(args)
    _warn(args, warnings)
    scenario = _load_scenario(args, composition)
    assignment: dict[str, int | bool] = {}
    for item in args.choice:
        var, value = _parse_choice(item)
        if var in assignment:
            raise _CommandError(f"--choice gives {var!r} more than one value")
        assignment[var] = value
    unresolved = [c.var for c in scenario.choices if c.var not in assignment]
    if unresolved:
        raise _CommandError(
            f"scenario has unresolved choices {unresolved}; pass --choice var=value for each"
        )
    scenario = scenario.resolve(assignment)
    horizon = _effective_horizon(args, scenario)
    chk.check_work(1, horizon)
    expected = _read_text(args.replay) if args.replay else None  # read before anything is written
    trace = sim.run(sim.init_composition(composition, scenario), horizon)
    trace_json = sim.trace_to_json(trace)
    out_dir = Path(args.out)
    lines = sim.trace_lines(trace)
    _write_text(out_dir / "trace.json", trace_json)
    _write_text(out_dir / "trace.txt", "\n".join(lines) + "\n")
    for line in lines:
        _emit(args, line)
    if args.replay:
        if expected != trace_json:
            raise _CommandError(f"replayed trace differs from {args.replay}")
        _emit(args, f"trace matches {args.replay}")
    return 0


def _parse_choice(item: str) -> tuple[str, int | bool]:
    var, sep, raw = item.partition("=")
    if not sep:
        raise _CommandError(f"--choice expects var=value, got {item!r}")
    if raw in ("true", "false"):
        return var, raw == "true"
    value = ex.parse_int(raw)
    if value is None:
        raise _CommandError(f"--choice value {raw!r} is not an int or true/false")
    return var, value


def cmd_check(args) -> int:
    composition, warnings, _ = _load_composition(args)
    _warn(args, warnings)
    scenario = _load_scenario(args, composition)
    properties = chk.parse_properties(_read_text(args.properties), composition)
    if not properties:
        raise _CommandError(f"{args.properties}: no property to check")
    horizon = _effective_horizon(args, scenario)
    verdicts = chk.check(composition, scenario, properties, horizon, args.scenario_cap)
    out_dir = Path(args.out)
    rows = []
    for verdict in verdicts:
        entry = {"property": verdict.property, "holds": verdict.holds, "counterexample_path": None}
        if verdict.counterexample is not None:
            cx = verdict.counterexample
            cx_path = out_dir / f"{verdict.property}.counterexample.json"
            payload = {
                "property": verdict.property,
                "scenario_index": cx.scenario_index,
                "step_index": cx.step_index,
                "scenario": sim.scenario_to_dict(cx.scenario),
                "trace": cx.trace,
            }
            _write_text(cx_path, write_json(payload, sort_keys=True) + "\n")
            _write_text(
                out_dir / f"{verdict.property}.trace.txt",
                "\n".join(sim.trace_lines(cx.trace)) + "\n",
            )
            entry["counterexample_path"] = str(cx_path)
        rows.append(entry)
    _write_text(out_dir / "verdicts.json", write_json(rows) + "\n")
    width = max(len(r["property"]) for r in rows)
    for row in rows:
        status = "holds" if row["holds"] else "FAILS"
        suffix = f"  {row['counterexample_path']}" if row["counterexample_path"] else ""
        _emit(args, f"{row['property']:<{width}}  {status}{suffix}")
    if args.json_diagnostics:
        _print(json.dumps(rows))
    return 0 if all(r["holds"] for r in rows) else 1


def cmd_export(args) -> int:
    composition, warnings, stem = _load_composition(args)
    _warn(args, warnings)
    out_dir = Path(args.out)
    documents = {out_dir / f"{stem}.xta": export_xta(composition)}
    if args.properties:  # read before anything is written, so that a refused property file leaves no output
        properties = chk.parse_properties(_read_text(args.properties), composition)
        documents[out_dir / f"{stem}.q"] = export_queries(properties)
    for path, text in documents.items():
        _write_text(path, text)
        _emit(args, f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_outputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--json-diagnostics", action="store_true",
                        help="machine-readable diagnostics on stdout")


def _add_schedule(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--schedule", help="availability schedule file")
    parser.add_argument("--assume-available", action="store_true",
                        help="resources missing from the schedule default to always available")


def _add_composition_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest", help="composition manifest from 'integrate'")
    parser.add_argument("--model", help="guideline model document")
    parser.add_argument("--map", help="resource map file")
    _add_schedule(parser)


def _integer(minimum: int):
    """An argument type: a 64-bit integer written `-?[0-9]+` (`ex.parse_int`), at least `minimum`."""

    def parse(text: str) -> int:
        value = ex.parse_int(text)
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"expected a 64-bit integer >= {minimum}, got {text!r}")
        return value

    return parse


def _add_run(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--horizon", type=_integer(0), default=None,
                        help="minutes to explore (default: scenario's, else 720)")


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors for `main` to report instead of printing usage; subparsers inherit it."""

    def error(self, message):
        raise _CommandError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="resweave",
        description="Weave resource availability into statechart guideline models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="attach //@RES: annotations from a resource map")
    p.add_argument("model")
    p.add_argument("map")
    _add_outputs(p)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("integrate", help="synthesize charts and strengthen guards")
    p.add_argument("model")
    p.add_argument("map")
    _add_schedule(p)
    _add_outputs(p)
    p.set_defaults(func=cmd_integrate, manifest=None)

    p = sub.add_parser("simulate", help="run one resolved scenario and write traces")
    _add_composition_source(p)
    _add_run(p)
    p.add_argument("--choice", action="append", default=[], metavar="VAR=VALUE")
    p.add_argument("--replay", help="compare the produced trace bytes against this file")
    _add_outputs(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="verify invariants over all enumerated scenarios")
    _add_composition_source(p)
    _add_run(p)
    p.add_argument("--properties", required=True)
    p.add_argument("--scenario-cap", type=_integer(1), default=chk.DEFAULT_SCENARIO_CAP,
                   help="largest allowed choice product (default: %(default)s)")
    _add_outputs(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("export", help="emit timed-automata text and query sidecar")
    _add_composition_source(p)
    p.add_argument("--properties")
    _add_outputs(p)
    p.set_defaults(func=cmd_export)

    return parser


def _fail(err: ResweaveError, json_diagnostics: bool) -> int:
    if json_diagnostics:
        _print(json.dumps({"error": str(err)}))
    else:
        print(f"error: {err}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:  # -h printed the help
        return 0
    except ResweaveError as err:
        return _fail(err, "--json-diagnostics" in argv)
    try:
        return args.func(args)
    except ResweaveError as err:
        return _fail(err, args.json_diagnostics)


if __name__ == "__main__":
    sys.exit(main())
