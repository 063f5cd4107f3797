"""Record the pass digests that the benchmark's digest gate compares against.

    python3 perfbench/record_digests.py

Runs one checked pass of every workload for every digest key and writes
``perfbench/digests.json``. Sweep keys are the Kleene pool pairs, so a few
seeds cover them all; the query workloads are keyed by seed, for seeds
0-63. Run it only on a commit whose outputs are known to be right: the
digests pin every report, body, stage and canonical justification, and a
later change that alters any of them fails the benchmark's gate.
"""

import json
import sys

import run
from workloads import WORKLOADS

SEEDS = range(64)


def record_key(ml, workload, seed, scale):
    state = workload.setup(ml, seed, scale)
    jobs = workload.jobs(state)
    tally = run.Tally(jobs)
    _, stream = run.one_pass(jobs, tally)
    if tally.failed:
        raise SystemExit(f"{workload.name} seed {seed} ({scale}) failed its gates: "
                         f"{tally.errors[:3]}")
    return stream


def main():
    sys.path.insert(0, str(run.SRC))
    ml = run.import_fresh()
    digests = {name: {} for name in WORKLOADS}
    for scale in ("tiny", "full"):
        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                key = workload.digest_key(workload.setup(ml, seed, scale))
                if key not in digests[name]:
                    digests[name][key] = record_key(ml, workload, seed, scale)
                    print(f"{name} {key} {digests[name][key][:16]}", flush=True)
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
