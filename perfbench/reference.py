"""Record the results digests of seeds 0-9 in reference_digests.json.

    python3 perfbench/reference.py

run.py reports whether a run's digest matches this record.  Refresh it
only in a change that means to alter qchain's answers, and say so.
"""

import json
import os
import sys
import tempfile

import worker
import workloads

SEEDS = range(10)


def main() -> int:
    digests = {}
    os.makedirs(os.path.join(worker.HERE, "out"), exist_ok=True)
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=os.path.join(worker.HERE, "out")) as workdir:
                workload = workloads.make(name, seed, workdir)
                loop = worker.Loop(workload)
                for index in range(len(workload.ops)):
                    loop.step(index)
            digests[f"{name}:{seed}"] = loop.digest.hexdigest()
            print(name, seed, digests[f"{name}:{seed}"], flush=True)
    path = os.path.join(worker.HERE, "reference_digests.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
