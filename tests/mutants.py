"""Mutants of the program that the test suite must catch.

Each mutant names a file, an exact text that occurs once in it, the text that
replaces it, and the tests that must fail. The script copies the repository
into a temporary directory, checks that every listed test passes there, then
for each mutant applies it to a fresh copy and runs its tests with pytest. The
checkout itself is never changed. A mutant survives when one of its tests
passes; the script exits 1 if one survives or if a mutant's text does not
occur exactly once.

    python tests/mutants.py                      # every mutant
    python tests/mutants.py last-enabled-fires   # the named mutants

pytest does not collect this file. A change that removes a mutant's text
updates or retires the mutant. The idea is mutation adequacy (DeMillo,
Lipton and Sayward, "Hints on Test Data Selection", IEEE Computer, 1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SIM = "src/resweave/sim.py"
DIFFERENTIAL = "tests/test_oracle.py::test_oracle_steps_as_sim_minute_by_minute"
WRITER = "tests/test_model.py::test_write_json_is_indented_json_dumps"
WAKE_ORDER = "tests/test_oracle.py::test_charts_sleep_and_wake_in_execution_order"
OBSERVER = "tests/test_verify.py::test_observer_returns_exactly_the_properties_eval_invariant_refutes"
EXPR = "src/resweave/expr.py"
PARSERS_AGREE = "tests/test_expr.py::test_parser_agrees_with_the_reference_parser"
READERS_AGREE = "tests/test_model.py::test_reader_agrees_with_the_reference_reader"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    text: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids that must each fail


MUTANTS = (
    Mutant(
        "entry-before-exit",
        "src/resweave/model.py",
        "return (*chart.state(transition.source).exit_actions, *map(GuardedAction, transition.actions),\n"
        "            *chart.state(transition.target).entry_actions)",
        "return (*chart.state(transition.target).entry_actions, *map(GuardedAction, transition.actions),\n"
        "            *chart.state(transition.source).exit_actions)",
        ("tests/test_sim.py::test_exit_then_actions_then_entry_order", f"{DIFFERENTIAL}[untimed]",
         f"{DIFFERENTIAL}[timed]", "tests/test_acceptance.py::test_criterion_6_checker_vs_oracle"),
    ),
    Mutant(
        "timer-after-injections",
        SIM,
        "    if timed:  # the timer's one self-loop, run inline\n"
        "        clock = before[CLOCK_VARIABLE] = valuation[CLOCK_VARIABLE]\n"
        "        if clock == ex.INT_MAX:\n"
        "            raise SimulationError(out_of_range(timer.name, t, CLOCK_VARIABLE))\n"
        "        valuation[CLOCK_VARIABLE] = clock + 1\n"
        "        fires.append(FireRecord(timer.name, timer.initial_state, timer.initial_state, 0, "
        "((CLOCK_VARIABLE, clock + 1),), ()))\n"
        "    if due:\n"
        "        valuation.update(injected)\n"
        "        _wake(state, [var for var, _ in injected], -1, t, t)\n",
        "    if due:\n"
        "        valuation.update(injected)\n"
        "        _wake(state, [var for var, _ in injected], -1, t, t)\n"
        "    if timed:  # the timer's one self-loop, run inline\n"
        "        clock = valuation[CLOCK_VARIABLE]\n"
        "        before.setdefault(CLOCK_VARIABLE, clock)  # an injected clock keeps its old value here\n"
        "        if clock == ex.INT_MAX:\n"
        "            raise SimulationError(out_of_range(timer.name, t, CLOCK_VARIABLE))\n"
        "        valuation[CLOCK_VARIABLE] = clock + 1\n"
        "        fires.append(FireRecord(timer.name, timer.initial_state, timer.initial_state, 0, "
        "((CLOCK_VARIABLE, clock + 1),), ()))\n",
        (f"{DIFFERENTIAL}[timed]",),
    ),
    Mutant(
        "events-kept-across-steps",
        SIM,
        "    events.clear()\n    return report\n",
        "    return report\n",
        ("tests/test_sim.py::test_event_visible_downstream_within_step_only", f"{DIFFERENTIAL}[untimed]",
         f"{DIFFERENTIAL}[timed]"),
    ),
    Mutant(
        "last-enabled-fires",
        SIM,
        "for index, event, guard in runtime.leaving(state.active[runtime.chart.name]):",
        "for index, event, guard in reversed(runtime.leaving(state.active[runtime.chart.name])):",
        ("tests/test_sim.py::test_priority_is_declaration_order", f"{DIFFERENTIAL}[untimed]",
         f"{DIFFERENTIAL}[timed]", "tests/test_verify.py::test_check_matches_oracle_on_random_compositions"),
    ),
    Mutant(
        "minute-0-skips-a-chart",
        SIM,
        "[0] * len(composition.runtimes)",
        "[0] * (len(composition.runtimes) - 1) + [1]",
        ("tests/test_sim.py::test_minute_0_runs_each_chart_cycle_once_from_no_state", f"{DIFFERENTIAL}[untimed]",
         f"{DIFFERENTIAL}[timed]", "tests/test_cli.py::test_output_bytes_are_pinned[simulate-delayed]"),
    ),
    Mutant(
        "replay-one-minute-short",
        SIM,
        "trace.steps[-1].t)",
        "trace.steps[-1].t - 1)",
        ("tests/test_sim.py::test_replay_reproduces_trace", "tests/test_sim.py::test_replay_on_generated_compositions",
         "tests/test_sim.py::test_replay_is_the_run_of_the_trace_injections",
         "tests/test_cli.py::test_simulated_trace_replays_on_the_manifest[delayed]",
         "tests/test_cli.py::test_simulated_trace_replays_on_the_manifest[extended]"),
    ),
    Mutant(
        "raising-self-loop-not-recorded",
        SIM,
        "if source != target or sets or len(events) > mark:",
        "if source != target or sets:",
        ("tests/test_sim.py::test_no_op_self_loops_are_not_recorded", f"{DIFFERENTIAL}[timed]"),
    ),
    Mutant(
        "int-max-plus-one-written",
        SIM,
        "not ex.INT_MIN <= new <= ex.INT_MAX:",
        "not ex.INT_MIN <= new <= ex.INT_MAX + 1:",
        ("tests/test_cli.py::test_integer_written_outside_64_bits_exits_2[simulate]",
         "tests/test_cli.py::test_integer_written_outside_64_bits_exits_2[check]"),
    ),
    Mutant(
        "clock-ticks-past-int-max",
        SIM,
        "if clock == ex.INT_MAX:",
        "if clock > ex.INT_MAX:",
        ("tests/test_skip.py::test_clock_leaving_64_bits_is_refused_at_plain_steppings_minute[15]",
         "tests/test_skip.py::test_clock_leaving_64_bits_is_refused_at_plain_steppings_minute[720]"),
    ),
    Mutant(
        "export-bakes-declaration-defaults",
        "src/resweave/xta.py",
        "initial_valuation = init_composition(composition, Scenario()).valuation",
        "initial_valuation = {decl.name: decl.initial for decl in variables}",
        ("tests/test_xta.py::test_initializers_reflect_time_zero_entries",
         "tests/test_cli.py::test_integer_set_outside_64_bits_at_time_zero_exits_2[export]"),
    ),
    Mutant(
        "clock-picked-by-shape",
        "src/resweave/xta.py",
        "if chart is composition.timer:",
        "if len(chart.states) == 1:",
        ("tests/test_xta.py::test_a_guideline_tick_loop_is_exported_untimed[guarded-timer]",
         "tests/test_xta.py::test_a_guideline_tick_loop_is_exported_untimed[unguarded-no-timer]",
         "tests/test_xta.py::test_only_the_timer_declares_a_clock",
         "tests/test_xta.py::test_structure_preservation_counts"),
    ),
    Mutant(
        "initial-entry-compiled",
        SIM,
        "function = functools.partial(functools.partial, ex.eval_expr)",
        "function = self._composition.compiled",
        ("tests/test_sim.py::test_minute_0_compiles_nothing[delayed_composition]",
         "tests/test_sim.py::test_minute_0_compiles_nothing[extended_composition]",
         "tests/test_xta.py::test_export_compiles_no_expression"),
    ),
    Mutant(
        "write-wakes-only-later-readers",
        SIM,
        "_wake(state, [var for var, _ in fire.sets], position, t, t + 1)",
        "_wake(state, [var for var, _ in fire.sets], position, t, math.inf)",
        (WAKE_ORDER, f"{DIFFERENTIAL}[timed]"),
    ),
    Mutant(
        "idle-writes-not-waited-on",
        SIM,
        "(ga.guard, action.value, ex.Var(action.target))",
        "(ga.guard, action.value)",
        ("tests/test_skip.py::test_an_injected_flag_is_overwritten_by_its_sleeping_resource_chart",
         "tests/test_skip.py::test_a_no_op_self_loop_that_writes_the_clock_runs_every_minute",
         f"{DIFFERENTIAL}[timed]"),
    ),
    Mutant(
        "raised-event-wakes-nobody",
        SIM,
        "            _wake(state, fire.raised, position, t, math.inf)\n",
        "",
        (WAKE_ORDER, f"{DIFFERENTIAL}[timed]"),
    ),
    Mutant(
        "properties-unresolved",
        "src/resweave/verify.py",
        "        _check_invariant_names(invariant, composition, lineno)\n",
        "",
        ("tests/test_verify.py::test_parse_properties_comments_and_errors",
         "tests/test_cli.py::test_a_misspelled_property_location_exits_2[chart]",
         "tests/test_cli.py::test_a_misspelled_property_location_exits_2[state]"),
    ),
    Mutant(
        "observer-ignores-location",
        "src/resweave/verify.py",
        'where = "" if location is None else f"a.get({location[0]!r}) == {location[1]!r} and "',
        'where = ""',
        (OBSERVER, "tests/test_verify.py::test_check_matches_oracle_on_random_compositions",
         "tests/test_verify.py::test_check_delayed_ct"),
    ),
    Mutant(
        "observer-built-once-per-check",
        "src/resweave/verify.py",
        "                observe = observer(open_properties, composition.kinds)\n",
        "",
        ("tests/test_verify.py::test_a_failed_property_keeps_its_first_counterexample",
         "tests/test_verify.py::test_an_observer_is_built_only_when_a_property_fails",
         "tests/test_verify.py::test_check_delayed_ct"),
    ),
    Mutant(
        "invariant-bound-dropped",
        "src/resweave/verify.py",
        "watched = ex.compile_bound([p.predicate for p in properties], composition.kinds, CLOCK_VARIABLE)",
        "watched = None",
        ("tests/test_skip.py::test_check_is_plain_stepping_on_timed_compositions",
         "tests/test_skip.py::test_each_bound_is_built_once"),
    ),
    Mutant(
        "depth-check-off-by-one",
        EXPR,
        "            depth = max(depth, right_depth)\n            if depth == MAX_DEPTH:\n",
        "            depth = max(depth, right_depth)\n            if depth > MAX_DEPTH:\n",
        ("tests/test_expr.py::test_depth_bound[<lambda>0]", "tests/test_expr.py::test_depth_bound[<lambda>1]",
         PARSERS_AGREE),
    ),
    Mutant(
        "comparisons-chain",
        EXPR,
        "max_precedence = spec.precedence if _chains(spec) else spec.precedence - 1",
        "max_precedence = spec.precedence",
        ("tests/test_expr.py::test_comparisons_do_not_chain[a<b<c-unexpected '<' (column 4)]", PARSERS_AGREE),
    ),
    Mutant(
        "negative-literal-cached-under-its-digits",
        EXPR,
        "        leaf = self.leaves.get(token)\n        if leaf is None:\n"
        "            if token[:1] in _NAME_START:\n"
        "                leaf = TRUE if token == \"true\" else FALSE if token == \"false\" else Var(token)\n"
        "            else:\n                value = parse_int(token)\n                if value is None:\n"
        "                    raise self.refuse(\"integer literal out of 64-bit range\", at)\n"
        "                leaf = IntLit(value)\n            self.leaves[token] = leaf\n",
        "        leaf = self.leaves.get(token.lstrip(\"-\"))\n        if leaf is None:\n"
        "            if token[:1] in _NAME_START:\n"
        "                leaf = TRUE if token == \"true\" else FALSE if token == \"false\" else Var(token)\n"
        "            else:\n                value = parse_int(token)\n                if value is None:\n"
        "                    raise self.refuse(\"integer literal out of 64-bit range\", at)\n"
        "                leaf = IntLit(value)\n            self.leaves[token.lstrip(\"-\")] = leaf\n",
        ("tests/test_expr.py::test_leaves_parsed_with_one_map_are_shared",
         "tests/test_model.py::test_a_document_has_one_leaf_per_name_and_literal_text", PARSERS_AGREE),
    ),
    Mutant(
        "refusal-column-of-the-neighbouring-token",
        EXPR,
        "return ExprSyntaxError(message, matches[index].start() + 1 if index < len(matches) else len(self.text) + 1)",
        "return ExprSyntaxError(message, matches[index - 1].start() + 1 if index < len(matches) else len(self.text) + 1)",
        ("tests/test_expr.py::test_comparisons_do_not_chain[a<b<c-unexpected '<' (column 4)]",
         "tests/test_expr.py::test_redundant_brackets_count_toward_the_bound", PARSERS_AGREE, READERS_AGREE),
    ),
    Mutant(
        "transition-shape-skips-the-trigger",
        "src/resweave/model.py",
        "and type(obj.get(\"target\")) is str and type(obj.get(\"trigger\")) in _STR_OR_NONE):",
        "and type(obj.get(\"target\")) is str):",
        ("tests/test_model.py::test_shape_messages_name_the_element"
         "[document3-transitions[0].trigger: expected a string, found int]", READERS_AGREE),
    ),
    Mutant(
        "writer-keys-unsorted",
        "src/resweave/model.py",
        "arrange = sorted if sort_keys else iter",
        "arrange = iter",
        (WRITER, "tests/test_sim.py::test_trace_with_every_field_kind_reads_back_from_its_json",
         "tests/test_cli.py::test_output_bytes_are_pinned[check-delayed]"),
    ),
    Mutant(
        "writer-layouts-kept-across-calls",
        "src/resweave/model.py",
        "    layouts: dict[type, tuple] = {}",
        '    layouts = write_json.__dict__.setdefault("layouts", {})',
        (WRITER, "tests/test_model.py::test_write_json_orders_and_writes_each_record_class_in_each_call"),
    ),
    Mutant(
        "writer-ignores-ensure-ascii",
        "src/resweave/model.py",
        "string = json.encoder.encode_basestring_ascii if ensure_ascii else json.encoder.encode_basestring",
        "string = json.encoder.encode_basestring_ascii",
        (WRITER,),
    ),
    Mutant(
        "writer-empty-list-on-two-lines",
        "src/resweave/model.py",
        '            if not value:\n                return "[]"\n',
        '            if not value:\n                return "[\\n%s]" % indent\n',
        (WRITER, "tests/test_cli.py::test_output_bytes_are_pinned[simulate-delayed]"),
    ),
)


def copy_repository(into: Path) -> Path:
    target = into / "repo"
    shutil.copytree(ROOT, target, ignore=shutil.ignore_patterns(".*", "__pycache__", "*.egg-info", "out"))
    return target


def failed_tests(repo: Path, tests) -> set[str]:
    """The node ids among `tests` that fail when pytest runs them in `repo`."""
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(command, cwd=repo, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {done.returncode} in {repo}:\n{done.stdout}{done.stderr}")
    lines = done.stdout.splitlines()
    return {test for test in tests if f"FAILED {test}" in (line.partition(" - ")[0] for line in lines)}


def mutate(repo: Path, mutant: Mutant) -> None:
    path = repo / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.text) != 1:
        raise SystemExit(f"{mutant.name}: its text occurs {text.count(mutant.text)} times in {mutant.path}")
    path.write_text(text.replace(mutant.text, mutant.replacement), encoding="utf-8")


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {mutant.name for mutant in MUTANTS})
    if unknown:
        raise SystemExit(f"no such mutant: {', '.join(unknown)}")
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    survivors = []
    with tempfile.TemporaryDirectory() as scratch:
        clean = copy_repository(Path(scratch) / "clean")
        tests = sorted({test for mutant in chosen for test in mutant.tests})
        failing = failed_tests(clean, tests)
        if failing:
            raise SystemExit(f"these tests fail without a mutant: {', '.join(sorted(failing))}")
        for mutant in chosen:
            repo = copy_repository(Path(scratch) / mutant.name)
            mutate(repo, mutant)
            passing = sorted(set(mutant.tests) - failed_tests(repo, mutant.tests))
            if passing:
                survivors.append(mutant.name)
            print(f"{mutant.name}: survived, {', '.join(passing)} passed" if passing else f"{mutant.name}: killed")
            shutil.rmtree(repo)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
