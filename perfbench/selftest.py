"""Show that the correctness gate rejects corrupted outcomes.

    python3 perfbench/selftest.py

For every workload at the reference seed, runs the first jobs of the list,
checks that their real outcomes pass, and checks that the gate reports a
failure when one digit of an exact value is altered or one float is moved
past its error bound.  Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import sys

from run import SRC

sys.path.insert(0, str(SRC))

import gate as gatemod  # noqa: E402
import jobs  # noqa: E402
import workloads  # noqa: E402

JOBS_PER_WORKLOAD = 12


def main() -> int:
    ok = True
    for name in workloads.WORKLOADS:
        wl = workloads.make_workload(name, gatemod.REFERENCE_SEED)
        runner = jobs.Runner(wl)
        gate = gatemod.Gate(wl, gatemod.load_reference())
        runner.new_pass()
        outcomes = {}
        for i in range(min(JOBS_PER_WORKLOAD, len(wl["jobs"]))):
            _, outcome, _ = runner.execute(i)
            if gate.judge(i, outcome) == "ok":
                outcomes[i] = outcome
        found = gatemod.selftest(gate, outcomes)
        passed = not gate.failures and found["digit"] is True and found["float"] in (True, None)
        ok = ok and passed
        print(f"{name}: {len(outcomes)} passing outcomes; altered digit caught: "
              f"{found['digit']}; shifted float caught: {found['float']}; "
              f"{'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
