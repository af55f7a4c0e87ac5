"""Record the CLI's stdout digests for a range of seeds.

Usage: python3 perfbench/record.py FIRST_SEED LAST_SEED

Run at the commit whose output is the reference.  Each workload's round of
CLI calls runs once per seed; an output is recorded only when its call
exited 0 and passed the workload's checks.  The digests are merged into
digests.json, keyed by the digest of each call's arguments and input bytes,
so runs of the benchmark on these seeds also require byte-identical stdout.
"""

from __future__ import annotations

import json
import shutil
import sys
from time import perf_counter

from run import DIGESTS, RUN_LIMIT_S, WORK, cli_argv, digest, load_digests, spawn
from workloads import WORKLOADS


def main(first: int, last: int) -> int:
    digests = load_digests()
    for seed in range(first, last + 1):
        for name, (builder, _) in WORKLOADS.items():
            workdir = WORK / f"record-{name}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            plan = builder(workdir, seed)
            keys = {call.label: call.key() for call in plan.calls}
            if all(key in digests for key in keys.values()):
                shutil.rmtree(workdir)
                continue
            outputs = {}
            for call in plan.calls:
                out = workdir / f"{call.label}.out"
                _, _, code = spawn(cli_argv(call), out, perf_counter() + RUN_LIMIT_S)
                if code != 0:
                    raise SystemExit(f"{name} seed {seed}: {call.label} exited {code}")
                outputs[call.label] = out
            problems = plan.check({label: out.read_text() for label, out in outputs.items()})
            if any(problems.values()):
                raise SystemExit(f"{name} seed {seed}: {problems}")
            for label, out in outputs.items():
                digests[keys[label]] = digest(out)
            shutil.rmtree(workdir)
            print(f"{name} seed {seed}: recorded {len(outputs)} digests", file=sys.stderr)
        DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
