"""Fixed reference workload that measures how fast the host runs Python right now.

It starts an interpreter, imports the standard modules `resweave` imports,
evaluates small expression trees over a dict valuation, copies and diffs
that valuation, builds frozen dataclasses and encodes a JSON document: the
kinds of work a `resweave` command does, without importing `resweave`, so
no change to the program can move it. `run.py` runs it between CLI
commands and scales its end-to-end times by how long this took.
"""

import argparse  # noqa: F401  (imported for the start-up cost, as the CLI does)
import dataclasses
import itertools  # noqa: F401
import json
import math  # noqa: F401
import pathlib  # noqa: F401
import re  # noqa: F401

STEPS = 1200


@dataclasses.dataclass(frozen=True)
class Node:
    op: str
    left: object
    right: object


def build(depth: int, seed: int):
    if depth == 0:
        return f"v{seed % 8}" if seed % 3 else seed % 11
    return Node("+-*<"[seed % 4], build(depth - 1, seed * 3 + 1), build(depth - 1, seed * 5 + 2))


def evaluate(node, valuation):
    if isinstance(node, str):
        return valuation[node]
    if not isinstance(node, Node):
        return node
    a, b = evaluate(node.left, valuation), evaluate(node.right, valuation)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return (a * b) % 1009
    return int(a < b)


def main() -> None:
    trees = [build(4, i) for i in range(12)]
    valuation = {f"v{i}": i for i in range(8)}
    steps = []
    for t in range(STEPS):
        before = dict(valuation)
        valuation[f"v{t % 8}"] = sum(evaluate(tree, valuation) for tree in trees) % 97
        steps.append({"t": t, "deltas": {k: v for k, v in valuation.items() if before[k] != v}})
    print(len(json.dumps({"steps": steps}, indent=2, sort_keys=True)))


if __name__ == "__main__":
    main()
