#!/usr/bin/env python3
"""Build perfbench and run it with the given arguments.

    python3 perfbench/run.py --workload fleet_ping --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR, or perfbench/target when unset; its
messages go to standard error, so the result stays the last line of
standard output.

The fleet workloads pin themselves to one CPU; see README.md.
"""

import os
import subprocess
import sys

def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    build = subprocess.run(
        ["cargo", "build", "--quiet", "--release", "--offline",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(here, "target")
    binary = os.path.join(target, "release", "perfbench")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
