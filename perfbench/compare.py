"""Compare a parent tree and a change tree on the end-to-end metrics.

    python3 perfbench/compare.py --parent ../parent --change .

Both trees are measured with this directory's `run.py` and `workloads.py`,
so the benchmark code and settings (`run_seconds` from `BENCHMARK.json`)
are identical on both sides; each tree supplies only its own `src/`,
`fixtures/` and `tests/golden/`. For every workload the tool runs
PAIRS (10) parent/change pairs, pair i on seed SEED0 + i (1000 + i),
alternating which side runs first, and prints one row per workload and
metric:

- each side's median and quartiles over the pairs;
- how many pairs the change won (ties count for neither side);
- a verdict, with the metric's bound taken from `BENCHMARK.json`:
  - `gain`: the change won at least 9/10 of the pairs and the medians
    differ by more than the parent's own interquartile distance;
  - `unresolved`: either side's interquartile distance, as a share of its
    median, is wider than the bound, and not every change run beats every
    parent run;
  - `regression`: the change's median is worse than the parent's by more
    than the bound;
  - `no regression`: none of the above;
  - `more failures`: the change had more incorrect CLI invocations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Fixed, so that a gain always needs 9 of the same 10 seeds.
PAIRS = 10
SEED0 = 1000


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(cmd[1:])} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(parent: list[float], change: list[float], lower: bool, bound: float,
            parent_failed: int, change_failed: int) -> tuple[str, int]:
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    if change_failed > parent_failed:
        return "more failures", wins
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, _, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, _, c_q3 = statistics.quantiles(change, n=4)
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0, (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    worse_by = ((c_med - p_med) if lower else (p_med - c_med)) / abs(p_med) if p_med else 0.0
    if wins >= 0.9 * len(parent) and better(c_med, p_med) and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain", wins
    if spread > bound and not all(better(c, p) for c in change for p in parent):
        return "unresolved", wins
    if worse_by > bound:
        return "regression", wins
    return "no regression", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path, help="root of the parent source tree")
    parser.add_argument("--change", required=True, type=Path, help="root of the changed source tree")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = args.parent if side == "parent" else args.change
                runs[side].append(run_once(tree.resolve(), workload, SEED0 + i, seconds))
        failed = {side: sum(r["failed"] for r in results) for side, results in runs.items()}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in results] for side, results in runs.items()}
            result, wins = verdict(values["parent"], values["change"], metric["better"] == "lower",
                                   metric["bound"], failed["parent"], failed["change"])
            summary = {}
            for side, vals in values.items():
                q1, _, q3 = statistics.quantiles(vals, n=4)
                summary[side] = f"{statistics.median(vals):.6g} [{q1:.6g}, {q3:.6g}]"
            print(f"{workload:16s} {name:20s} parent {summary['parent']}  change {summary['change']} "
                  f"{metric['unit']}  wins {wins}/{PAIRS}  {result}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
