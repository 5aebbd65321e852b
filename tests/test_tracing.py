"""The benchmark's tracer finds every target by name and reads the cache
keys it counts; a renamed target or key fails here, not only in traced runs."""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

from dynlyap import multipliers
from dynlyap.maps import new_map

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
        tracer.end_job(frame)
    finally:
        tracer.uninstall()
    # the first q_2 looks up ("fixstar_charpoly", 2) and ("dynatomic", 2) and
    # finds neither; the second q_2 and Phi*_2 find their keys
    assert tracer.counts["multipliers.cache_lookups"] == 4
    assert tracer.counts["multipliers.cache_hits"] == 2
    # RationalMap.iterate_lift_cached keeps the lift of f^n under the int key n
    assert tracer.counts["maps.iterate_cache_lookups"] == 2
    assert tracer.counts["maps.iterate_cache_hits"] == 1
    assert multipliers.dynatomic_divisor is unwrapped and not tracer.stack
