"""Record each workload's outputs on the default seed as its reference.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the repository root at the commit whose outputs define the
reference; writes perfbench/reference/<workload>.json.  run.py compares the
default-seed repetition of every end-to-end run against these files.
"""

import contextlib
import json
import os
import shutil
import sys
import tempfile

import run
from bench_workloads import WORKLOADS


def main(names) -> int:
    sys.path.insert(0, run.SRC)
    run.setup_once()
    os.makedirs(run.REFERENCE, exist_ok=True)
    os.makedirs(run.OUT, exist_ok=True)
    for name in names or WORKLOADS:
        work_dir = tempfile.mkdtemp(prefix="ref-", dir=run.OUT)
        try:
            rep = WORKLOADS[name].rep(run.DEFAULT_SEED, work_dir, contextlib.nullcontext())
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if rep.failed:
            print(f"{name}: {rep.failed} of {rep.attempted} operations failed; reference not written", file=sys.stderr)
            return 1
        with open(os.path.join(run.REFERENCE, f"{name}.json"), "w") as f:
            json.dump({"workload": name, "seed": run.DEFAULT_SEED, "commit": run.git_commit(),
                       "outputs": rep.outputs}, f, indent=1)
            f.write("\n")
        print(f"{name}: {len(rep.outputs)} reference outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
