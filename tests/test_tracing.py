"""The benchmark's tracer finds every target by name and reads the cache
keys it counts; a renamed target or key fails here, not only in traced runs."""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

from dynlyap import maps, multipliers
from dynlyap.maps import Mobius2, new_map

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_targets_resolve_and_cache_keys_are_read():
    tracer = load_tracing().Tracer()
    fm = new_map(2, (1, 0, F(1, 2)), (0, 0, 1))
    unwrapped = multipliers.dynatomic_divisor
    try:
        tracer.install()  # looks up every TARGETS name
        frame = tracer.start_job(0)
        for _ in range(2):
            multipliers.fixstar_multiplier_charpoly(fm, 2)
            fm.iterate_lift_cached(2)
        multipliers.dynatomic_divisor(fm, 2)
        # iterate_lift_cached reads the spectrum's rows, so iterate_lift
        # (and its after-hook) runs only when called; conjugate runs the
        # hot _compose wrapper twice
        maps.iterate_lift(fm.lift, 3)
        maps.conjugate(fm, Mobius2(F(1), F(1), F(0), F(1)))
        tracer.end_job(frame)
    finally:
        tracer.uninstall()
    assert tracer.calls["maps.iterate_lift"] == 1
    assert tracer.counts["maps.lift_bits_max"] == maps.iterate_lift(fm.lift, 3).coefficient_bits()
    assert tracer.calls["maps.conjugate"] == 1 and tracer.calls["maps._compose"] == 2
    # the first q_2 looks up ("fixstar_charpoly", 2) and ("dynatomic", 2) and
    # finds neither; the second q_2 and Phi*_2 find their keys
    assert tracer.counts["multipliers.cache_lookups"] == 4
    assert tracer.counts["multipliers.cache_hits"] == 2
    # RationalMap.iterate_lift_cached keeps the lift of f^n under the int key n
    assert tracer.counts["maps.iterate_cache_lookups"] == 2
    assert tracer.counts["maps.iterate_cache_hits"] == 1
    assert multipliers.dynatomic_divisor is unwrapped and not tracer.stack
