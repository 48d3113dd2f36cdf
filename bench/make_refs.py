"""Regenerate the stored reference outputs in refs/.

    python3 bench/make_refs.py [--workload NAME ...]

For each reference seed, runs the first COMMANDS[name] commands of a
workload and stores their per-op outputs: fixed-width hex codes joined into
one string per command (generate: a digest of each token's demo and trace
record; aggregate-m40: the support indices of both selected tokens), or
[sigma1, reported epsilon] pairs (calibrate-grid).  Run it only when a
workload's definition changes; a program change must match the stored
outputs, not rewrite them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

#: The default seed and one held-out seed.
SEEDS = (0, 1)
#: More commands than a run of ten seconds completes today, with room for
#: several-fold speed-ups.
COMMANDS = {"synth-m40": 10, "http-m10": 10, "aggregate-m40": 128, "calibrate-grid": 48}


def reference_commands(name: str, seed: int, count: int) -> list:
    workdir = BENCH_DIR / ".work" / f"refs-{name}-{seed}"
    workload = WORKLOADS[name](seed, workdir)
    stored = []
    try:
        workload.setup()
        for index in range(count):
            result = workload.command(index)
            workload.verify(result)
            if result.errors or result.failed:
                raise RuntimeError(f"{name} seed {seed} command {index}: {result.errors}")
            outputs = result.outputs
            stored.append("".join(outputs) if isinstance(outputs[0], str) else outputs)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return stored


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    (BENCH_DIR / "refs").mkdir(exist_ok=True)
    for name in args.workload:
        seeds = {str(seed): reference_commands(name, seed, COMMANDS[name]) for seed in SEEDS}
        path = BENCH_DIR / "refs" / f"{name}.json"
        path.write_text(json.dumps({"workload": name, "seeds": seeds}) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
