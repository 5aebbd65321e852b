"""Seeded job lists for the three benchmark workloads.

A workload is a list of maps (the map JSON the program parses) and a list
of jobs that refer to them by index.  Everything here is derived from the
seed alone with ``random.Random(seed)``; no dynlyap code runs while the
inputs are made, so the program only ever sees the generated map JSON and
the argv or library arguments of each job.

spectra-q   ``multipliers`` CLI jobs on maps over Q (fresh parse per job).
ff-qt       ``ff-analyze`` and ``slope`` CLI jobs on Q(t) families.
heights-lib library calls on Q maps; each map object serves all its jobs.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd, isqrt

WORKLOADS = ("spectra-q", "ff-qt", "heights-lib")

# Band of sum-of-bits of the monic fixed-point polynomial P_{n-1} that the
# random spectra maps at (d, n) must fall in.  The bits of P_{n-1} predict
# the cost of the period-n spectrum (correlation 0.8-0.9 on the box maps),
# so conditioning on a fixed band gives every seed the same difficulty.
# The bands are the 40th-60th percentiles of the box distribution for the
# few heavy maps and the 30th-70th for the 18 maps at d=2, n=5.
_BANDS = {(2, 6): (2330, 2800), (3, 4): (920, 1060), (2, 5): (423, 691)}


def _fmt_q(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _fmt_t_poly(coeffs) -> str:
    """Ascending Fraction coefficients in t as the map schema's t-polynomial."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if i == 0:
            body = _fmt_q(mag)
        else:
            tp = "t" if i == 1 else f"t^{i}"
            body = tp if mag == 1 else f"{_fmt_q(mag)}*{tp}"
        parts.append(sign + body)
    return "".join(parts) or "0"


def _q_map(d: int, coeffs) -> dict:
    return {"d": d, "a": [_fmt_q(Fraction(c)) for c in coeffs[: d + 1]],
            "b": [_fmt_q(Fraction(c)) for c in coeffs[d + 1:]]}


def _qt(num, den=(1,)) -> dict:
    return {"num": _fmt_t_poly([Fraction(c) for c in num]),
            "den": _fmt_t_poly([Fraction(c) for c in den])}


# ---------------------------------------------------------------------------
# exact integer helpers (independent of dynlyap)
# ---------------------------------------------------------------------------

def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return out


def _compose(rows, g0, g1):
    """(F0(g0, g1), F1(g0, g1)) for integer rows a, b descending in p0."""
    d = len(rows[0]) - 1
    p0 = [[1]]
    p1 = [[1]]
    for _ in range(d):
        p0.append(_pmul(p0[-1], g0))
        p1.append(_pmul(p1[-1], g1))
    out = []
    for row in rows:
        acc = [0]
        for j, c in enumerate(row):
            if c:
                acc = _padd(acc, [c * x for x in _pmul(p0[d - j], p1[j])])
        out.append(acc)
    return out


def _sylvester_resultant(d: int, cs) -> Fraction:
    """Res of the lift with Fraction rows a = cs[:d+1], b = cs[d+1:]."""
    rows = []
    for row in (cs[: d + 1], cs[d + 1:]):
        for i in range(d):
            rows.append([Fraction(0)] * i + [Fraction(c) for c in row]
                        + [Fraction(0)] * (d - 1 - i))
    det = Fraction(1)
    size = 2 * d
    for k in range(size):
        piv = next((i for i in range(k, size) if rows[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, size):
            if rows[i][k]:
                f = rows[i][k] / rows[k][k]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return det


def _monic_fixed_bits(d: int, ints, m: int) -> int:
    """Sum of numerator and denominator bits of the monic P_m(z)."""
    rows = (list(ints[: d + 1]), list(ints[d + 1:]))
    g0, g1 = list(reversed(rows[0])), list(reversed(rows[1]))
    for _ in range(m - 1):
        g0, g1 = _compose(rows, g0, g1)
    p = _padd(g0, [0] + [-c for c in g1])
    while p and not p[-1]:
        p.pop()
    lc = p[-1]
    bits = 0
    for c in p:
        g = gcd(c, lc)
        bits += (abs(c) // g).bit_length() + (abs(lc) // g).bit_length()
    return bits


def _box_map(rng: random.Random, d: int):
    """Integer coefficients in [-3, 3], as in the acceptance suite."""
    while True:
        cs = [rng.randint(-3, 3) for _ in range(2 * d + 2)]
        if _sylvester_resultant(d, cs):
            return cs


def _banded_box_map(rng: random.Random, d: int, n: int):
    lo, hi = _BANDS[(d, n)]
    while True:
        cs = _box_map(rng, d)
        if lo <= _monic_fixed_bits(d, cs, n - 1) <= hi:
            return cs


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _spectra_q(rng: random.Random):
    maps, jobs = [], []

    def add(group, m, n):
        maps.append(m)
        jobs.append({"group": group, "kind": "cli", "map": len(maps) - 1,
                     "argv": ["multipliers", "--n", str(n)], "n": n})

    for c in ("1/2", "-1"):
        add("z2+c n=7", {"d": 2, "a": ["1", "0", c], "b": ["0", "0", "1"]}, 7)
    for _ in range(3):
        add("box d=2 n=6", _q_map(2, _banded_box_map(rng, 2, 6)), 6)
    add("box d=3 n=4", _q_map(3, _banded_box_map(rng, 3, 4)), 4)
    # 6 cheap d=3 jobs and 18 d=2 n=5 jobs put the median job in the middle
    # of the d=2 n=5 group rather than on the edge between two groups
    for _ in range(18):
        add("box d=2 n=5", _q_map(2, _banded_box_map(rng, 2, 5)), 5)
    for _ in range(6):
        add("box d=3 n=3", _q_map(3, _box_map(rng, 3)), 3)
    order = list(range(len(jobs)))
    rng.shuffle(order)
    return maps, [jobs[i] for i in order]


def _small_q(rng: random.Random, top: int = 5, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, den))


def _poly_c(rng: random.Random, constant: bool = False):
    """c(t) of t-degree <= 2: non-constant, or with c(0) != 0 when ``constant``."""
    while True:
        c = [_small_q(rng) for _ in range(3)]
        if (c[0] if constant else c[1] or c[2]):
            return c


def _ff_qt(rng: random.Random):
    maps, jobs = [], []
    one, zero = _qt([1]), _qt([0])

    def add(group, m, argv):
        maps.append(m)
        jobs.append({"group": group, "kind": "cli", "map": len(maps) - 1, "argv": argv})

    def z2_plus(c):
        return {"d": 2, "a": [one, zero, c], "b": [zero, zero, one]}

    add("z2+t ff-analyze n=5", z2_plus(_qt([0, 1])), ["ff-analyze", "--n-max", "5"])
    add("z2+1/t slope n=5", z2_plus(_qt([1], [0, 1])),
        ["slope", "--center", "t=0", "--n-max", "5"])
    rational = {"d": 2, "a": [one, zero, _qt([0, 1])], "b": [zero, one, zero]}
    add("(z2+t)/z ff-analyze n=4", rational, ["ff-analyze", "--n-max", "4"])
    add("(z2+t)/z slope n=4", rational, ["slope", "--center", "t=inf", "--n-max", "4"])
    # Per n_max: ff-analyze and slope (t=inf) of z^2+c(t), slope (t=0) and
    # ff-analyze of z^2+c(t)/t, ff-analyze of (z^2+c(t))/z.  At n_max=4 the
    # five heavier jobs and the eight t=inf slopes put the 11th-slowest job
    # of the workload in the middle of the slopes, not on a group edge.
    for n_max, counts in ((4, (2, 8, 2, 0, 1)), (3, (8, 8, 6, 6, 0))):
        analyze, slopes, pole_slopes, pole_analyze, quotients = counts
        nm = ["--n-max", str(n_max)]
        for _ in range(analyze):
            add(f"z2+c(t) ff-analyze n={n_max}", z2_plus(_qt(_poly_c(rng))), ["ff-analyze", *nm])
        for _ in range(slopes):
            add(f"z2+c(t) slope n={n_max}", z2_plus(_qt(_poly_c(rng))),
                ["slope", "--center", "t=inf", *nm])
        for k in range(max(pole_slopes, pole_analyze)):
            m = z2_plus(_qt(_poly_c(rng, constant=True), [0, 1]))
            if k < pole_slopes:
                add(f"z2+c(t)/t slope n={n_max}", m, ["slope", "--center", "t=0", *nm])
            if k < pole_analyze:
                add(f"z2+c(t)/t ff-analyze n={n_max}", m, ["ff-analyze", *nm])
        for _ in range(quotients):
            c = [_small_q(rng), Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))]
            m = {"d": 2, "a": [one, zero, _qt(c)], "b": [zero, one, zero]}
            add(f"(z2+c(t))/z ff-analyze n={n_max}", m, ["ff-analyze", *nm])
    order = list(range(len(jobs)))
    rng.shuffle(order)
    return maps, [jobs[i] for i in order]


def _lib_q(rng: random.Random, top: int = 20) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def _apply(cs, d: int, x: Fraction):
    """f(x) for affine x, exactly; returns "inf" at a pole."""
    a, b = cs[: d + 1], cs[d + 1:]
    num = sum(Fraction(c) * x ** (d - j) for j, c in enumerate(a))
    den = sum(Fraction(c) * x ** (d - j) for j, c in enumerate(b))
    return "inf" if den == 0 else num / den


def _within_factoring_budget(n: int) -> bool:
    """True when trial division up to 10^4 leaves a cofactor below 10^8.

    The cofactor is then 1 or a prime, so dynlyap's ``factor_int`` stops
    after at most 10^4 trial divisors instead of running towards 10^8.
    """
    n = abs(n)
    p = 2
    while p <= 10**4 and p * p <= n:
        while n % p == 0:
            n //= p
        p += 1 if p == 2 else 2
    return n < 10**8


def _random_lib_map(rng: random.Random, d: int):
    while True:
        cs = [_lib_q(rng) for _ in range(2 * d + 2)]
        if _heights_ready(d, cs):
            return cs


def _heights_ready(d: int, cs) -> bool:
    """Non-degenerate, and the bad primes are found within the factoring budget."""
    res = _sylvester_resultant(d, cs)
    return bool(res) and all(_within_factoring_budget(n) for n in (res.numerator, res.denominator))


def _is_square(q: Fraction) -> bool:
    if q < 0:
        return False
    n, m = q.numerator, q.denominator
    return isqrt(n) ** 2 == n and isqrt(m) ** 2 == m


def _rational_crit_quadratic(rng: random.Random):
    """Degree-2 rational map whose critical points are all rational."""
    while True:
        a, b, c, e, g, h = (_lib_q(rng) for _ in range(6))
        top, mid, low = a * g - b * e, a * h - c * e, b * h - c * g
        if top == 0 or not _is_square(mid * mid - top * low):
            continue
        cs = [a, b, c, e, g, h]
        if _heights_ready(2, cs):
            return cs


def _rational_crit_cubic(rng: random.Random):
    """Cubic polynomial with f' = k (z - r1)(z - r2), r1, r2 rational."""
    while True:
        k = Fraction(rng.choice([-6, -3, 3, 6]), rng.randint(1, 4))
        r1, r2 = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
        cs = [k / 3, -k * (r1 + r2) / 2, k * r1 * r2, _lib_q(rng), 0, 0, 0, 1]
        if _heights_ready(3, cs):
            return cs


def _heights_lib(rng: random.Random):
    maps, jobs = [], []

    def job(group, idx, op, **args):
        jobs.append({"group": group, "kind": "lib", "map": idx, "op": op, "args": args})

    def heights_pair(group, idx, cs, d, count):
        for _ in range(count):
            x = _lib_q(rng)
            fx = _apply(cs, d, x)
            pair = len(jobs)
            job(group, idx, "canonical_height", point=_fmt_q(x), tol=1e-12, pair=pair, role="P")
            job(group, idx, "canonical_height", point=fx if fx == "inf" else _fmt_q(fx),
                tol=1e-12, pair=pair, role="fP")

    for i in range(36):
        d = 2 if i % 2 == 0 else 3
        cs = _random_lib_map(rng, d)
        maps.append(_q_map(d, cs))
        idx = len(maps) - 1
        heights_pair(f"random d={d}", idx, cs, d, 2)
        job(f"random d={d}", idx, "lyapunov_arch", tol=1e-10)
        for n in (1, 2, 3):
            for place in ("arch", "p:2", "p:3"):
                job(f"random d={d}", idx, "L_n_local", n=n, place=place)
        # cheap exact L_n at further primes: with them the median job of the
        # workload falls inside one kind of job (p-adic L_2) instead of among
        # five kinds of different cost
        for n in (1, 2):
            for p in (5, 7, 11, 13, 17, 19, 23, 29):
                job(f"random d={d}", idx, "L_n_local", n=n, place=f"p:{p}")
        job(f"random d={d}", idx, "lyapunov_nonarch_sequence",
            place=rng.choice(["p:2", "p:3"]), n_max=3)
    for i in range(8):
        d = 2 if i % 2 == 0 else 3
        cs = _rational_crit_quadratic(rng) if d == 2 else _rational_crit_cubic(rng)
        maps.append(_q_map(d, cs))
        idx = len(maps) - 1
        heights_pair(f"rational-crit d={d}", idx, cs, d, 1)
        job(f"rational-crit d={d}", idx, "critical_height_direct", tol=1e-10)
        job(f"rational-crit d={d}", idx, "lyapunov_arch", tol=1e-10)
    for d in (2, 3):
        maps.append(_q_map(d, [1] + [0] * d + [0] * d + [1]))
        idx = len(maps) - 1
        for n in (2, 3, 4, 5):
            job(f"power z^{d}", idx, "L_n_local", n=n, place="arch", closed_form=f"log{d}")
        for place in ("p:2", "p:3"):
            job(f"power z^{d}", idx, "lyapunov_nonarch_sequence", place=place, n_max=4,
                closed_form="padic")
        for _ in range(3):
            x = _lib_q(rng)
            while x == 0:
                x = _lib_q(rng)
            job(f"power z^{d}", idx, "canonical_height", point=_fmt_q(x), tol=1e-12,
                closed_form="logmax")
    return maps, jobs


_GENERATORS = {"spectra-q": _spectra_q, "ff-qt": _ff_qt, "heights-lib": _heights_lib}


def make_workload(name: str, seed: int) -> dict:
    """The workload's maps and jobs for ``seed``, plus a hash of both."""
    rng = random.Random(f"{name}:{seed}")
    maps, jobs = _GENERATORS[name](rng)
    for j in jobs:
        j["key"] = job_key(maps[j["map"]], j)
    body = json.dumps({"workload": name, "maps": maps, "jobs": jobs},
                      sort_keys=True, separators=(",", ":"))
    return {"workload": name, "seed": seed, "maps": maps, "jobs": jobs,
            "jobs_sha256": hashlib.sha256(body.encode()).hexdigest()}


def job_key(map_json: dict, job: dict) -> str:
    """Identity of a job's input, independent of the seed that produced it."""
    ident = {"map": map_json,
             "call": job.get("argv") or [job["op"], {k: v for k, v in job["args"].items()
                                                     if k not in ("pair", "role")}]}
    text = json.dumps(ident, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]
