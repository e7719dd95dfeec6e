#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>
                            [--knob MILLIPEDE_NAME=value ...]

Run it from the root of the repository. The benchmark is built with Cargo
into $CARGO_TARGET_DIR (default: .bench_build) and run with every
MILLIPEDE_* environment variable removed, so the simulator's shipping
defaults are measured, and with MILLIPEDE_SWEEP_THREADS=1, so sweeps run on
one worker. Each --knob sets one simulator switch on top of that, for the
sensitivity checks in simbench/README.md. The benchmark prints its result
as the last line of standard output; this script exits with its code.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def split_knobs(argv):
    """Separates --knob NAME=value pairs from the benchmark's own arguments."""
    rest, knobs = [], {}
    i = 0
    while i < len(argv):
        if argv[i] == "--knob":
            if i + 1 >= len(argv) or "=" not in argv[i + 1]:
                sys.exit("run.py: --knob takes NAME=value")
            name, value = argv[i + 1].split("=", 1)
            if not name.startswith("MILLIPEDE_") or name == "MILLIPEDE_SWEEP_THREADS":
                sys.exit(f"run.py: {name} is not a simulator switch this benchmark varies")
            knobs[name] = value
            i += 2
        else:
            rest.append(argv[i])
            i += 1
    return rest, knobs


def main():
    args, knobs = split_knobs(sys.argv[1:])
    env = {k: v for k, v in os.environ.items() if not k.startswith("MILLIPEDE_")}
    env["MILLIPEDE_SWEEP_THREADS"] = "1"
    env.update(knobs)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        sys.exit(f"run.py: building the benchmark failed ({build.returncode})")
    run = subprocess.run([os.path.join(target, "release", "simbench"), *args],
                         env=env, check=False)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
