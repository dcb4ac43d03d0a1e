"""Record reference.json: the seed-independent outputs of every workload step.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py

Runs each workload once with seed 1 and once with seed 2, checks that the
fields oracle.extract picks are identical for both seeds (so they really do
not depend on the seed), and writes them with each step's exit code.  Run it
only at a commit whose results are known to be right.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import provenance
from run import HERE, ROOT, _run_child
from workloads import WORKLOADS

SEEDS = (1, 2)


def main() -> int:
    env = provenance.pinned_env()
    scratch = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-record-")
    reference = {}
    try:
        for name in WORKLOADS:
            runs = [_run_child(name, seed, scratch, env, reference=None)["extracted"]
                    for seed in SEEDS]
            if runs[0] != runs[1]:
                diff = [label for label in runs[0] if runs[0][label] != runs[1].get(label)]
                print(f"{name}: outputs of steps {diff} depend on the seed", file=sys.stderr)
                return 1
            reference[name] = runs[0]
            print(f"{name}: recorded {len(runs[0])} steps")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
