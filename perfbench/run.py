"""dynlyap benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload spectra-q --seed 1 --seconds 40 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
The job list is made from the seed (``workloads.py``) and run in order,
one job at a time in this process, pass after pass: the first pass always
completes, then jobs keep running until ``--seconds`` have passed.  Each
job's latency is the median over its runs; ``wall_s`` is their sum, the
time one pass of the job list takes.  Every outcome goes through the
correctness gate (``gate.py``).

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and
one traced pass and prints the per-layer metrics (``tracing.py``).  The
last line of standard output is the JSON result; the lines before it are
a human-readable report and one ``report`` JSON line with the provenance
(seed, job count, job-list hash), the tail percentile, the failure ratio
and its attribution to the known-defect ledger.  The same report is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 7

# A fresh interpreter imports the CLI and parses the workload's maps.
_SETUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import dynlyap.cli
from dynlyap.mapio import parse_map
for m in json.load(sys.stdin):
    parse_map(m)
"""


def measure_setup(maps: list) -> list:
    data = json.dumps(maps)
    times = []
    for rep in range(SETUP_REPS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC)], input=data,
                              text=True, capture_output=True, timeout=120, cwd=ROOT)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        if rep:  # the first run only warms the file cache
            times.append(dt)
    return times


def run_jobs(runner, gate, seconds=None, passes=None, tracer=None, keep=None):
    """Run the job list; returns per-job latencies, a tally of statuses, report bytes.

    With ``passes`` run exactly that many passes; otherwise run the first
    pass in full and then go on until ``seconds`` have elapsed.  ``keep``
    collects a few passing first outcomes that have a reference entry, for
    the gate's self-test.
    """
    jobs = runner.workload["jobs"]
    lat = [[] for _ in jobs]
    tally = Counter()
    report_bytes = 0
    t0 = time.perf_counter()
    p = 0
    while True:
        runner.new_pass()
        for i, job in enumerate(jobs):
            frame = tracer.start_job(i) if tracer else None
            dt, outcome, nbytes = runner.execute(i)
            if tracer:
                tracer.end_job(frame)
            lat[i].append(dt)
            status = gate.judge(i, outcome)
            tally[status] += 1
            if p == 0:
                report_bytes += nbytes
                if (keep is not None and status == "ok" and len(keep) < 8
                        and job["key"] in gate.reference):
                    keep[i] = outcome
            if passes is None and p and time.perf_counter() - t0 >= seconds:
                return lat, tally, report_bytes
        p += 1
        if p == passes or (passes is None and time.perf_counter() - t0 >= seconds):
            return lat, tally, report_bytes


def tail(values):
    """(value, percentile): highest percentile with at least 10 jobs beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    return xs[n - 11], (100 * (n - 10)) // n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dynlyap" / "cli.py").is_file():
        print(f"perfbench: no dynlyap sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gate as gatemod
    import jobs
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.make_workload(args.workload, args.seed)
    setup_times = measure_setup(wl["maps"])
    runner = jobs.Runner(wl)
    gate = gatemod.Gate(wl, gatemod.load_reference())
    keep = {}

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs": len(wl["jobs"]), "maps": len(wl["maps"]), "jobs_sha256": wl["jobs_sha256"],
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "setup_runs_s": setup_times,
    }
    if args.trace:
        lat_u, tally, _ = run_jobs(runner, gate, passes=1, keep=keep)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            lat_t, tally_t, nbytes = run_jobs(runner, gate, passes=1, tracer=tracer)
        finally:
            tracer.uninstall()
        tally += tally_t
        wall_u = sum(x[0] for x in lat_u)
        wall_t = sum(x[0] for x in lat_t)
        metrics = tracing.layer_metrics(tracer, 1, nbytes)
        metrics["trace_overhead_ratio"] = (wall_t / wall_u - 1.0, "ratio")
        report.update(untraced_wall_s=wall_u, traced_wall_s=wall_t, spans=len(tracer.spans))
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path, {k: report[k] for k in ("workload", "seed", "jobs_sha256")})
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        lat, tally, _ = run_jobs(runner, gate, seconds=args.seconds, keep=keep)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        per_job = [statistics.median(x) for x in lat]
        tail_s, pct = tail(per_job)
        metrics = {
            "wall_s": (sum(per_job), "s"),
            "job_p50_s": (statistics.median(per_job), "s"),
            "job_tail_s": (tail_s, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        report.update(job_tail_percentile=pct, job_tail_jobs=len(per_job),
                      runs_per_job=[min(len(x) for x in lat), max(len(x) for x in lat)])
        groups = {}
        for job, x in zip(wl["jobs"], per_job):
            groups.setdefault(job["group"], []).append(x)
        report["groups"] = {g: {"jobs": len(v), "sum_s": sum(v)}
                            for g, v in sorted(groups.items())}
        report["latencies_s"] = lat

    checks = gatemod.selftest(gate, keep)
    attempted, failed = sum(tally.values()), tally["fail"]
    known = {k: tally[k] for k in gatemod.LEDGER if tally[k]}
    report.update(
        attempted=attempted, failed=failed,
        failed_ratio=(failed + sum(known.values())) / attempted,
        known_defects={k: {"runs": v, "what": gatemod.LEDGER[k]} for k, v in known.items()},
        failures=[{"job": i, "group": g, "reason": r} for i, g, r in gate.failures[:20]],
        reference_checked=gate.checked_reference, selftest=checks,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    correct = failed == 0 and all(v is not False for v in checks.values())

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"jobs {report['jobs']} (sha256 {wl['jobs_sha256'][:16]}), attempted "
          f"{attempted}, failed {failed}, known defects {sum(known.values())}, "
          f"failed_ratio {report['failed_ratio']:.4f}")
    for f in report["failures"]:
        print(f"FAILED job {f['job']} [{f['group']}]: {f['reason']}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("report " + json.dumps({k: v for k, v in report.items()
                                   if k not in ("metrics", "groups", "latencies_s")},
                                  sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
