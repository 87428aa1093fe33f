"""Run the `resweave` CLI as `python3 -m resweave` does, then record its peak RSS.

    python3 perfbench/peak.py OUT -- <resweave arguments>

Writes the process's VmHWM (KiB) to OUT and exits with the CLI's code.
`ru_maxrss` from `wait4` is no use here: a spawned child inherits the
parent's resident set until it calls exec, and Linux carries that figure
over into the child's maximum. VmHWM counts only the address space the CLI
itself runs in.
"""

import runpy
import sys


def main() -> int:
    out, separator, *args = sys.argv[1:]
    if separator != "--":
        print("usage: peak.py OUT -- <resweave arguments>", file=sys.stderr)
        return 2
    sys.argv = ["resweave", *args]
    try:
        runpy.run_module("resweave", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as done:
        code = done.code
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(out, "w", encoding="ascii") as handle:
        handle.write(peak + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
