"""Write perfbench/reference.json: exact digests and float fields per job.

    python3 perfbench/make_reference.py

Runs one pass of every workload at the reference seed and records, for each
job that passes the invariant checks, the SHA-256 of its exact fields and
its float fields.  Jobs whose outcome is a known defect get no entry: their
check is the closed form.  Run it only on a commit whose outputs are
trusted; the benchmark compares later commits against this file.
"""

from __future__ import annotations

import json
import sys

from run import SRC, HERE

sys.path.insert(0, str(SRC))

import gate as gatemod  # noqa: E402
import jobs  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    entries = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make_workload(name, gatemod.REFERENCE_SEED)
        runner = jobs.Runner(wl)
        gate = gatemod.Gate(wl, {})
        runner.new_pass()
        for i, job in enumerate(wl["jobs"]):
            _, outcome, _ = runner.execute(i)
            status = gate.judge(i, outcome)
            if status == "fail":
                print(f"{name} job {i} [{job['group']}] fails: {gate.failures[-1][2]}",
                      file=sys.stderr)
                return 1
            if status == "ok":
                entries[job["key"]] = gatemod.digest(outcome)
        print(f"{name}: {len(wl['jobs'])} jobs, sha256 {wl['jobs_sha256']}")
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())]
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {gatemod.REFERENCE_SEED}, "jobs": {{\n' + ",\n".join(lines) + "\n}}\n")
    print(f"{len(entries)} reference entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
