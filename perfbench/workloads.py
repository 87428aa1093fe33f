"""Benchmark workloads: the paper's case study plus three seeded generators.

Each workload is a list of configurations. A configuration names the input
files the `resweave` CLI reads (model, resource map, schedule, scenario,
properties), the horizon, the size of the choice product, the resolved
scenario that `simulate` runs, and the expected answers that the benchmark
checks every CLI invocation against: exit code, verdicts, counterexample
`scenario_index`/`step_index`, and for every resolved scenario, in the
checker's enumeration order, facts its full trace must show (guideline
fire minutes and targets, values at the horizon).

Expected answers never come from `resweave.verify.check`:

- `casestudy` answers are pinned in `casestudy.json`; they were produced by
  the brute-force oracle in `tests/oracle.py` and the traces it runs
  (re-check them with `--oracle`).
- The generated workloads compute their answers from how the input was
  built: each generator knows every resource window, so it derives the
  minute at which each guideline transition fires without running the
  simulator. `--oracle` cross-checks those answers against `tests/oracle.py`
  and the trace of every resolved scenario.

Write one workload's inputs for a seed (byte-identical for the same seed):

    python3 perfbench/workloads.py shift-roster --seed 7 --out roster-inputs
    python3 perfbench/workloads.py busy-ward --seed 7 --out ward-inputs --oracle
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("casestudy", "shift-roster", "busy-ward", "large-guideline")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _available(windows, t: int) -> bool:
    """Schedule semantics: window (s, e) covers the minutes s < t <= e."""
    return any(s < t <= e for s, e in windows)


def _first_minute(resources, windows, earliest: int, horizon: int) -> int | None:
    """First minute >= earliest at which every resource is available."""
    for t in range(earliest, horizon + 1):
        if all(_available(windows[r], t) for r in resources):
            return t
    return None


def _schedule_text(windows: dict, horizon: int) -> str:
    lines = [f"horizon: {horizon}"]
    for resource, spans in windows.items():
        text = ", ".join(f"({s}, {'inf' if math.isinf(e) else e})" for s, e in spans)
        lines.append(f"{resource}: {text}")
    return "\n".join(lines) + "\n"


def _map_text(actions: dict) -> str:
    return "".join(f"{action}: {', '.join(resources)}\n" for action, resources in actions.items())


def _resolutions(choices) -> list[dict]:
    """The choice product in the checker's documented order: lexicographic by declaration."""
    names = [c["var"] for c in choices]
    return [dict(zip(names, values)) for values in itertools.product(*(c["domain"] for c in choices))]


def _shifts(rng: random.Random, count: int, lo: int, hi: int) -> list:
    """Exactly `count` disjoint windows strictly inside (lo, hi), in time order.

    Sizes never depend on the seed: each resource chart gets 2 * count + 1
    availability regions, so the per-minute cost is the same for every seed.
    """
    points = sorted(rng.sample(range(lo + 1, hi), 2 * count))
    return [(points[2 * i], points[2 * i + 1]) for i in range(count)]


def _variables(pairs) -> list:
    return [
        {"name": name, "kind": "boolean" if isinstance(value, bool) else "integer", "initial": value}
        for name, value in pairs
    ]


def _facts(choices: dict, fires: dict | None = None, **final) -> dict:
    """What one resolved scenario's trace must show: `fires` maps a chart to
    its [minute, target state] fires in order, `final` maps variables to
    their values at the horizon."""
    return {"choices": choices, "fires": fires or {}, "final": final}


def facts_mismatch(trace: dict, horizon: int, facts: dict) -> str | None:
    """Describe how a trace (the `trace.json` document) departs from `facts`, or None."""
    steps = trace["steps"]
    if [step["t"] for step in steps] != list(range(horizon + 1)):
        return f"trace covers {len(steps)} steps, not minutes 0..{horizon}"
    valuation = dict(trace["initial_valuation"])
    fires = {chart: [] for chart in facts["fires"]}
    for step in steps[1:]:
        valuation.update(step["deltas"])
        for fire in step["fires"]:
            if fire["chart"] in fires:
                fires[fire["chart"]].append([step["t"], fire["target"]])
    for chart, want in facts["fires"].items():
        if fires[chart] != want:
            return f"{chart} fires {fires[chart][:12]}..., expected {want[:12]}..."
    for var, want in facts["final"].items():
        if valuation.get(var) != want:
            return f"{var} = {valuation.get(var)!r} at the horizon, expected {want!r}"
    return None


def _config(name, out: Path, model, actions, windows, horizon, scenario, properties, expected,
            resolutions, simulate, exit_code) -> dict:
    stem = model["name"].lower()
    files = {
        "model": out / f"{stem}.json",
        "map": out / f"{stem}.map",
        "schedule": out / f"{stem}.schedule",
        "scenario": out / f"{stem}.scenario.json",
        "properties": out / f"{stem}.props",
    }
    _write(files["model"], _json(model))
    _write(files["map"], _map_text(actions))
    _write(files["schedule"], _schedule_text(windows, horizon))
    _write(files["scenario"], _json(scenario))
    _write(files["properties"], "".join(f"{p}\n" for p in properties))
    return {
        "name": name,
        **{key: str(path) for key, path in files.items()},
        "assume_available": False,
        "horizon": horizon,
        "scenarios": len(_resolutions(scenario.get("choices", []))),
        "expected": {"exit": exit_code, "verdicts": expected, "resolutions": resolutions},
        "simulate": simulate,
        "golden": None,
    }


# ---------------------------------------------------------------------------
# casestudy: the paper's three configurations, answers pinned from the oracle


def casestudy(seed: int, out: Path, root: Path) -> list[dict]:
    rng = random.Random(seed)
    pinned = json.loads((HERE / "casestudy.json").read_text(encoding="utf-8"))
    configs = []
    for entry in pinned["configs"]:
        config = dict(entry)
        for key in ("model", "map", "schedule", "scenario", "properties"):
            if config.get(key):
                config[key] = str(root / config[key])
        if config.get("golden"):
            config["golden"] = {k: str(root / v) for k, v in config["golden"].items()}
        config["simulate"] = rng.choice([facts["choices"] for facts in config["expected"]["resolutions"]])
        configs.append(config)
    return configs


# ---------------------------------------------------------------------------
# shift-roster: many resources with shift windows over a day; a guideline
# whose steps wait on RES.* flags; choice variables first read late.


def shift_roster(seed: int, out: Path, root: Path | None = None) -> list[dict]:
    rng = random.Random(seed)
    horizon = 1440
    n_resources, n_steps = 8, 8
    choices = [{"var": "urgent", "domain": [False, True]}, {"var": "night", "domain": [False, True]}]
    # Route b serves the b-th resolved scenario, so scenario b reaches Done at done[b].
    combos = _resolutions(choices)
    while True:
        resources = [f"staff{i:02d}" for i in range(n_resources)]
        windows = {r: _shifts(rng, 4, -1, horizon) for r in resources}
        # Every action needs one or two resources and every resource backs some action.
        step_actions = [f"step{i + 1}" for i in range(n_steps)]
        branch_actions = [f"route{b}" for b in range(len(combos))]
        needs = {a: [rng.choice(resources)] for a in step_actions + branch_actions}
        for resource in resources:
            action = rng.choice(list(needs))
            if resource not in needs[action] and (resource not in sum(needs.values(), []) or rng.random() < 0.3):
                needs[action].append(resource)
        milestones = sorted(rng.randint(60, int(0.65 * horizon)) for _ in range(n_steps))
        order_t = rng.randint(20, 90)
        t, times = order_t, []
        for action, milestone in zip(step_actions, milestones):
            t = _first_minute(needs[action], windows, max(t, milestone), horizon)
            if t is None:
                break
            times.append(t)
            t += 1
        if len(times) < n_steps or t > int(0.8 * horizon):
            continue
        decide_t = t  # Step_K -> Decide is unguarded and Decide is not annotated
        routed = []
        for action in branch_actions:
            branch_t = _first_minute(needs[action], windows, decide_t + 1, horizon - 1)
            if branch_t is None:
                break
            routed.append(branch_t)
        done = [branch_t + 1 for branch_t in routed]
        if len(done) == len(branch_actions) and len(set(done)) > 1:
            break

    deadline = max(done) - 1
    first = next(b for b in range(len(combos)) if done[b] > deadline)
    steps_fired = [[t, f"Step{i + 1}"] for i, t in enumerate(times)] + [[decide_t, "Decide"]]
    resolutions = [
        _facts(combo, {"Roster": steps_fired + [[routed[b], f"Route{b}"], [done[b], "Done"]]},
               curT=horizon, stage=n_steps, doneT=done[b])
        for b, combo in enumerate(combos)
    ]

    states = [{"name": "Start"}]
    states += [
        {"name": f"Step{i + 1}", "entry": [f"entry/ raise {a}", "entry/ stage = stage + 1"]}
        for i, a in enumerate(step_actions)
    ]
    states.append({"name": "Decide"})
    states += [{"name": f"Route{b}", "entry": [f"entry/ raise {a}"]} for b, a in enumerate(branch_actions)]
    states.append({"name": "Done", "entry": ["entry/ doneT = curT"]})
    transitions = [{"source": "Start", "target": "Step1", "guard": f"order && curT >= {milestones[0]}"}]
    for i in range(1, n_steps):
        transitions.append(
            {"source": f"Step{i}", "target": f"Step{i + 1}", "guard": f"curT >= {milestones[i]}"}
        )
    transitions.append({"source": f"Step{n_steps}", "target": "Decide"})
    for b, combo in enumerate(combos):
        guard = " && ".join(var if value else f"!{var}" for var, value in combo.items())
        transitions.append({"source": "Decide", "target": f"Route{b}", "guard": guard})
        transitions.append({"source": f"Route{b}", "target": "Done"})
    model = {
        "name": "Roster",
        "variables": _variables(
            [("curT", 0), ("order", False), ("stage", 0), ("doneT", 0)] + [(c["var"], False) for c in choices]
        ),
        "events": step_actions + branch_actions,
        "states": states,
        "transitions": transitions,
        "initial": "Start",
    }
    scenario = {
        "initial": {},
        "injections": [{"t": order_t, "var": "order", "value": True}],
        "choices": choices,
        "horizon": horizon,
    }
    properties = [
        f"P1: A[] stage <= {n_steps}",
        f"P2: A[] Roster.Done imply doneT <= {deadline}",
    ]
    expected = [["P1", True, None, None], ["P2", False, first, done[first]]]
    return [_config("roster", out, model, needs, windows, horizon, scenario, properties, expected,
                    resolutions, rng.choice(combos), 1)]


# ---------------------------------------------------------------------------
# busy-ward: one guideline that fires and raises events every minute, a few
# resources, rate choices read from minute 1, and a load bound that only the
# heaviest scenario breaks, late.


def busy_ward(seed: int, out: Path, root: Path | None = None) -> list[dict]:
    rng = random.Random(seed)
    horizon, ring, n_rates = 1440, 6, 3
    rates = [f"rate{j}" for j in range(n_rates)]
    choices = []
    for name in rates:
        lo = rng.randint(1, 3)
        choices.append({"var": name, "domain": [lo, lo + rng.randint(1, 3)]})
    slow = 1
    windows = {
        "nurse": [(-1, math.inf)],
        # Both on shift at minute 1, so the rate choices are read from the first step on.
        "porter": [(-1, 60)] + _shifts(rng, 8, 60, horizon),
        "lab": [(-1, 45)] + _shifts(rng, 8, 45, horizon),
    }
    actions = {"fetch": ["porter", "lab"], "rest": ["nurse"]}

    # Every minute the ring advances one bed: over the fast edge when porter
    # and lab are both on shift (adding that bed's rate), else over the slow one.
    fast = [_available(windows["porter"], t) and _available(windows["lab"], t) for t in range(horizon + 1)]
    combos = _resolutions(choices)
    loads = []
    for combo in combos:
        load, series = 0, [0]
        for t in range(1, horizon + 1):
            bed = (t - 1) % ring
            load += combo[rates[bed % n_rates]] if fast[t] else slow
            series.append(load)
        loads.append(series)
    # The bound sits between the two heaviest final loads (rate0 is read at
    # minute 1, so the loads always differ): only the heaviest scenarios break it.
    second, top = sorted({series[-1] for series in loads})[-2:]
    limit = second + (top - second) // 2
    first = next(i for i, series in enumerate(loads) if series[-1] > limit)
    step = next(t for t, value in enumerate(loads[first]) if value > limit)

    states = [{"name": f"Bed{k}", "entry": ["entry/ beat = beat + 1"]} for k in range(ring)]
    transitions = []
    for k in range(ring):
        nxt = f"Bed{(k + 1) % ring}"
        transitions.append({"source": f"Bed{k}", "target": nxt,
                            "actions": [f"load = load + {rates[k % n_rates]}", "raise fetch"]})
        transitions.append({"source": f"Bed{k}", "target": nxt,
                            "actions": [f"load = load + {slow}", "raise rest"]})
    model = {
        "name": "Ward",
        "variables": _variables([("curT", 0), ("load", 0), ("beat", 0)] + [(r, 1) for r in rates]),
        "events": ["fetch", "rest"],
        "states": states,
        "transitions": transitions,
        "initial": "Bed0",
    }
    scenario = {"initial": {}, "injections": [], "choices": choices, "horizon": horizon}
    properties = [
        f"P1: A[] load <= {limit}",
        "P2: A[] beat <= curT + 1",
        "P3: A[] load >= beat - 1",
    ]
    expected = [["P1", False, first, step], ["P2", True, None, None], ["P3", True, None, None]]
    # Bed0's initial entry counts one beat, every minute's move one more.
    resolutions = [_facts(combo, curT=horizon, load=series[-1], beat=horizon + 1)
                   for combo, series in zip(combos, loads)]
    return [_config("ward", out, model, actions, windows, horizon, scenario, properties, expected,
                    resolutions, rng.choice(combos), 1)]


# ---------------------------------------------------------------------------
# large-guideline: one guideline with thousands of states and transitions,
# hundreds of mapped actions and resources, a short horizon, two scenarios.


def large_guideline(seed: int, out: Path, root: Path | None = None) -> list[dict]:
    rng = random.Random(seed)
    horizon, n_states, n_actions, n_resources = 40, 2000, 300, 200
    resources = [f"unit{i:03d}" for i in range(n_resources)]
    shifted = set(rng.sample(resources, n_resources // 4))
    windows = {r: _shifts(rng, 2, -1, horizon) if r in shifted else [(-1, math.inf)] for r in resources}
    actions = [f"act{i:03d}" for i in range(n_actions)]
    needs = {a: [] for a in actions}
    for i, r in enumerate(rng.sample(resources, n_resources)):
        needs[actions[i % n_actions]].append(r)
    for a in actions:
        while len(needs[a]) < 2:
            extra = rng.choice(resources)
            if extra not in needs[a]:
                needs[a].append(extra)
    state_action = [rng.choice(actions) for _ in range(n_states)]

    names = [f"S{i:04d}" for i in range(n_states)]
    times, t = [0], 1
    for i in range(1, n_states):
        t = _first_minute(needs[state_action[i]], windows, t, horizon)
        if t is None:
            break
        times.append(t)
        t += 1
    reached = len(times) - 1
    target = max(1, reached // 2)

    states = []
    for i, name in enumerate(names):
        entry = [f"entry/ raise {state_action[i]}", "entry/ stage = stage + 1"] if i else []
        if i % 5 == 0:
            entry.append(f"entry[stage > {i}]/ drift = drift + 1")
        state = {"name": name, "entry": entry}
        if i % 7 == 0:
            state["exit"] = ["exit/ visits = visits + 1"]
        states.append(state)
    transitions = []
    for i in range(n_states - 1):
        transitions.append({"source": names[i], "target": names[i + 1]})
        side = rng.randrange(n_states)
        transitions.append({"source": names[i], "target": names[side],
                            "guard": f"esc > {rng.randint(0, 50)}", "actions": ["esc = 0"],
                            "annotations": [f"//@RES: {', '.join(needs[rng.choice(actions)])}"]})
    model = {
        "name": "Big",
        "variables": _variables(
            [("curT", 0), ("stage", 0), ("drift", 0), ("visits", 0), ("esc", 0), ("flag", False)]
        ),
        "events": actions,
        "states": states,
        "transitions": transitions,
        "initial": names[0],
    }
    choices = [{"var": "flag", "domain": [False, True]}]
    scenario = {"initial": {}, "injections": [], "choices": choices, "horizon": horizon}
    properties = [
        "P1: A[] stage <= curT",
        f"P2: A[] Big.{names[target]} imply !flag",
        "P3: A[] esc == 0",
    ]
    expected = [["P1", True, None, None], ["P2", False, 1, times[target]], ["P3", True, None, None]]
    # `flag` is read only by P2, so both scenarios walk the chain alike.
    chain = [[t, names[i]] for i, t in enumerate(times) if i]
    resolutions = [_facts(combo, {"Big": chain}, curT=horizon, stage=reached, esc=0)
                   for combo in _resolutions(choices)]
    return [_config("big", out, model, needs, windows, horizon, scenario, properties, expected,
                    resolutions, rng.choice(_resolutions(choices)), 1)]


GENERATORS = {
    "casestudy": casestudy,
    "shift-roster": shift_roster,
    "busy-ward": busy_ward,
    "large-guideline": large_guideline,
}


def build(name: str, seed: int, out: Path, root: Path) -> list[dict]:
    """Write the workload's inputs under `out` and return its configurations."""
    return GENERATORS[name](seed, out, root)


# ---------------------------------------------------------------------------
# Cross-check against the independent oracle (needs the repository's tests/)


def oracle_answers(config: dict, root: Path) -> tuple[list, list]:
    """The oracle's verdicts, and how each resolution's trace departs from its facts."""
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from oracle import _resolutions as oracle_resolutions
    from oracle import oracle_check
    from resweave import verify
    from resweave.cli import build_composition
    from resweave.model import parse_model
    from resweave.resources import AvailabilitySchedule, parse_resource_map, parse_schedule
    from resweave.sim import init_composition, parse_scenario, run, trace_to_json

    read = lambda key: Path(config[key]).read_text(encoding="utf-8")  # noqa: E731
    schedule = parse_schedule(read("schedule")) if config.get("schedule") else AvailabilitySchedule({})
    composition, _ = build_composition(
        parse_model(read("model")), parse_resource_map(read("map")), schedule, config["assume_available"]
    )
    properties = verify.parse_properties(read("properties"), composition)
    scenario = parse_scenario(read("scenario"))
    results = oracle_check(composition, scenario, properties, config["horizon"])
    answers = [
        [p.name, holds, *(first if first else (None, None))]
        for p in properties
        for holds, first in [results[p.name]]
    ]
    problems = []
    resolved = oracle_resolutions(scenario)
    if len(resolved) != len(config["expected"]["resolutions"]):
        problems.append(f"{len(resolved)} resolutions, expected {len(config['expected']['resolutions'])}")
    for index, (scenario_i, facts) in enumerate(zip(resolved, config["expected"]["resolutions"])):
        if any(scenario_i.initial[var] != value for var, value in facts["choices"].items()):
            problems.append(f"resolution {index} is not {facts['choices']}")
            continue
        trace = json.loads(trace_to_json(run(init_composition(composition, scenario_i), config["horizon"])))
        problem = facts_mismatch(trace, config["horizon"], facts)
        if problem:
            problems.append(f"resolution {index}: {problem}")
    return answers, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workload", choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the generated input files")
    parser.add_argument("--root", default=".", help="repository root (fixtures/, src/, tests/)")
    parser.add_argument("--oracle", action="store_true",
                        help="also run tests/oracle.py and compare its answers with the expected ones")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    configs = build(args.workload, args.seed, Path(args.out), root)
    status = 0
    for config in configs:
        print(json.dumps({"name": config["name"], "expected": config["expected"]["verdicts"]}))
        if args.oracle:
            answers, problems = oracle_answers(config, root)
            agree = answers == config["expected"]["verdicts"]
            print(f"  oracle {'agrees' if agree else 'DISAGREES'}: {answers}")
            for problem in problems:
                print(f"  trace DISAGREES: {problem}")
            if not problems:
                print(f"  traces of all {len(config['expected']['resolutions'])} resolutions show the expected facts")
            status |= 0 if agree and not problems else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
