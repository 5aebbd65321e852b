"""Time the three spectra that the ROADMAP baseline quotes, with a trace.

    python3 perfbench/crosscheck.py

z^2+1/2 at n=7 and n=8, and the first degree-3 map of the acceptance
suite's criterion-02 sample (seed 20241) at n=4.  Each is one
``multiplier_polynomial`` call on a fresh map; the traced repeat gives the
share of ``Poly.divmod`` and of the Hensel ``_mod_div``.  Prints one JSON
object; BASELINE.json keeps the figures measured on the seed commit.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction

from run import SRC

sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
from dynlyap import maps, multipliers  # noqa: E402
from dynlyap.errors import DegenerateMap  # noqa: E402


def criterion02_d3_map():
    rng = random.Random(20241)
    while True:
        cs = [Fraction(rng.randint(-3, 3)) for _ in range(8)]
        try:
            return maps.new_map(3, cs[:4], cs[4:])
        except (DegenerateMap, ValueError):
            continue


def main() -> int:
    cases = [
        ("z^2+1/2 n=7", lambda: maps.new_map(2, (1, 0, Fraction(1, 2)), (0, 0, 1)), 7),
        ("z^2+1/2 n=8", lambda: maps.new_map(2, (1, 0, Fraction(1, 2)), (0, 0, 1)), 8),
        ("criterion-02 d=3 n=4", criterion02_d3_map, 4),
    ]
    out = {}
    for name, build, n in cases:
        fmap = build()
        t0 = time.perf_counter()
        multipliers.multiplier_polynomial(fmap, n)
        wall = time.perf_counter() - t0
        tracer = tracing.Tracer()
        tracer.install()
        try:
            frame = tracer.start_job(name)
            t0 = time.perf_counter()
            multipliers.multiplier_polynomial(build(), n)
            traced = time.perf_counter() - t0
            tracer.end_job(frame)
        finally:
            tracer.uninstall()
        out[name] = {
            "wall_s": round(wall, 3),
            "traced_wall_s": round(traced, 3),
            "divmod_share": round(tracer.incl["algebra.Poly.divmod"] / traced, 3),
            "mod_div_share": round(tracer.incl["multipliers._mod_div"] / traced, 3),
            "poly_mul_s": round(tracer.incl["algebra.Poly.__mul__"], 3),
        }
        print(name, out[name], file=sys.stderr)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
