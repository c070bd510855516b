"""Regenerate digests.json: python3 perfbench/pin.py > perfbench/digests.json

For seeds 0 to SEEDS - 1 of every workload, records the sha256 of the
generated input and the number of operations that fail on it (draws that
miss the height bracket plus error records for scans, dropped nodes for
`mesh-lift`, failed rows for `certify-sweep`), from one warm-up repetition
of the current code.  A run whose input or failure count differs from the
table fails its check.  Run it from the repository root, and only after a
deliberate change to a generator or to what counts as a failure.
"""

import json
import shutil
import sys

import inputs
import layers
import run
import workloads

SEEDS = 32


def main() -> int:
    run.import_package()
    table = {}
    for name in inputs.WORKLOADS:
        table[name] = {}
        for seed in range(SEEDS):
            work = run.ROOT / ".bench_work" / "pin" / f"{name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            spec, _ = inputs.GENERATORS[name](seed)
            runner = workloads.make(name, seed, work, spec)
            _, (failed, _, _) = run.warm_up(name, runner, layers.Tracer())
            table[name][str(seed)] = {"input": inputs.digest(spec), "failed": failed}
            print(f"{name} seed {seed}: {failed} failed", file=sys.stderr)
    print(json.dumps(table, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
