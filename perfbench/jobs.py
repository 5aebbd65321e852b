"""Running one job and turning its output into plain JSON data.

A CLI job is one ``dynlyap.cli.run(argv)`` call with the map passed inline
as ``--map <json>``; its outcome is the report the CLI prints.  A library
job is one public call on a map object built once per pass by
``dynlyap.mapio.parse_map``; its outcome is serialized here, by the
benchmark's own code, into the same shape the CLI reports use.

Library functions are looked up on their modules at call time, so the
wrappers that ``tracing`` installs are the ones that run.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from fractions import Fraction

from dynlyap import cli, heights, lyapunov, mapio, places
from dynlyap.errors import DynlyapError


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def ser_log(v) -> dict:
    if v.is_neg_infinity():
        return {"neg_infinity": True}
    if v.is_exact():
        return {"q": _fmt(v.q), "base": v.base}
    return {"value": v.x, "err": v.err}


def ser_height(h) -> dict:
    return {"value": h.value, "err": h.err,
            "exact": None if h.exact is None else _fmt(h.exact)}


def ser_estimate(e) -> dict:
    return {"n": e.n, "value": ser_log(e.value),
            "bound": None if e.bound is None else ser_log(e.bound)}


class Runner:
    """Executes the jobs of one workload; ``new_pass`` rebuilds map objects."""

    def __init__(self, workload: dict):
        self.workload = workload
        self.map_text = [json.dumps(m, separators=(",", ":")) for m in workload["maps"]]
        self.argv = [None if j["kind"] != "cli" else
                     [j["argv"][0], "--map", self.map_text[j["map"]], *j["argv"][1:]]
                     for j in workload["jobs"]]
        self.maps = None

    def new_pass(self):
        if any(j["kind"] == "lib" for j in self.workload["jobs"]):
            self.maps = [mapio.parse_map(m) for m in self.workload["maps"]]

    def execute(self, index: int):
        """Run job ``index``; returns (seconds, outcome, report_bytes)."""
        job = self.workload["jobs"][index]
        # An exception the program lets escape is a failed job, not a stopped
        # run: it is recorded with its traceback and the gate counts it.
        if job["kind"] == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                try:
                    rc, crash = cli.run(self.argv[index]), None
                except Exception as exc:
                    rc, crash = 1, _crash(exc)
                dt = time.perf_counter() - t0
            text = buf.getvalue()
            if crash:
                return dt, {"rc": rc, "result": None, "error": crash}, len(text.encode())
            report = json.loads(text)
            outcome = {"rc": rc, "result": report.get("result"), "error": report.get("error")}
            return dt, outcome, len(text.encode())
        fmap = self.maps[job["map"]]
        t0 = time.perf_counter()
        try:
            value = _LIB_OPS[job["op"]](fmap, **job["args"])
            rc, error = 0, None
        except DynlyapError as exc:
            value, rc, error = None, 2, {"kind": type(exc).__name__, "message": str(exc)}
        except Exception as exc:
            value, rc, error = None, 1, _crash(exc)
        dt = time.perf_counter() - t0
        result = None if value is None else _LIB_SER[job["op"]](value)
        return dt, {"rc": rc, "result": result, "error": error}, 0


def _crash(exc: Exception) -> dict:
    return {"kind": type(exc).__name__,
            "message": "".join(traceback.format_exception(exc))[-2000:]}


def _place(text: str):
    return places.Place.arch() if text == "arch" else places.Place.prime(int(text[2:]))


def _canonical_height(fmap, point, tol, **_):
    one = Fraction(1)
    pt = heights.point_of("inf", one) if point == "inf" else Fraction(point)
    return heights.canonical_height(fmap, pt, tol)


def _l_n_local(fmap, n, place, **_):
    v = _place(place)
    if v.is_archimedean():
        log_r = places.LocalLogValue.exact(0)
    else:
        log_r = lyapunov.epsilon_radius(v, fmap.d, n).log_eps
    return lyapunov.L_n_local(fmap, n, log_r, v)


_LIB_OPS = {
    "canonical_height": _canonical_height,
    "lyapunov_arch": lambda fmap, tol: lyapunov.lyapunov_arch(fmap, tol),
    "L_n_local": _l_n_local,
    "lyapunov_nonarch_sequence": lambda fmap, place, n_max, **_:
        lyapunov.lyapunov_nonarch_sequence(fmap, _place(place), n_max),
    "critical_height_direct": lambda fmap, tol: heights.critical_height_direct(fmap, tol),
}

_LIB_SER = {
    "canonical_height": ser_height,
    "lyapunov_arch": lambda e: ser_log(e.value),
    "L_n_local": ser_estimate,
    "lyapunov_nonarch_sequence": lambda seq: [ser_estimate(e) for e in seq],
    "critical_height_direct": ser_height,
}
