"""The integer bivariate multiplier engine over Q(t) against the RatFunc
trace loop (``oracles.field_power_sums``)."""

import random
from fractions import Fraction as F

import pytest

from dynlyap import bivariate, multipliers
from dynlyap.algebra import Poly, RatFunc, period_count
from dynlyap.bivariate import _denominator_base, _pack_rows, _unpack_rows
from dynlyap.maps import new_map
from dynlyap.multipliers import (
    _multiplier_power_sums,
    dynatomic_divisor,
    fixstar_multiplier_charpoly,
)
from oracles import field_power_sums

T = RatFunc.t()
ONE, ZERO = RatFunc.const(1), RatFunc.const(0)


def z2_plus(c):
    return new_map(2, (ONE, ZERO, c), (ZERO, ZERO, ONE))


def quotient(c):
    """(z^2 + c) / z."""
    return new_map(2, (ONE, ZERO, c), (ZERO, ONE, ZERO))


CASES = [
    # (label, map, periods, the bases L of the rings used at the top period)
    ("z^2+t", z2_plus(T), (1, 2, 3, 4), [[1]]),
    ("z^2+1/t", z2_plus(1 / T), (1, 2, 3, 4), [[0, 1]]),
    # a Laurent polynomial in both directions
    ("z^2+(t^2+t+1)/t", z2_plus((T * T + T + 1) / T), (1, 2, 3, 4), [[0, 1]]),
    # b = den^2 not constant: a and b are reduced in a ring with L = 1, and
    # lambda = a / b brings in new poles, so the traces are taken with L = t
    # and L = 3t + 2
    ("(z^2+t)/z", quotient(T), (2, 3, 4), [[1], [0, 1]]),
    ("(z^2+3t+2)/z", quotient(3 * T + 2), (2, 3, 4), [[1], [2, 3]]),
    # poles off the t-line's rational points: L = t^2 + 1
    ("z^2+1/(t^2+1)", z2_plus(1 / (T * T + 1)), (1, 2, 3), [[1, 0, 1]]),
    # rational coefficients: integer denominators next to the powers of L
    ("z^2+(t^2/2-5/3)/t", z2_plus(RatFunc(Poly([F(-5, 3), F(0), F(1, 2)])) / T), (1, 2, 3),
     [[0, 1]]),
    # infinity -> 0 -> infinity: a 2-cycle through infinity (at n = 3 the
    # RatFunc inversion of b in _field_mod_div alone takes about 2 s)
    ("(z+t)/z^2", new_map(2, (ZERO, ONE, T), (ONE, ZERO, ZERO)), (1, 2), None),
    ("z^3+t", new_map(3, (ONE, ZERO, ZERO, T), (ZERO, ZERO, ZERO, ONE)), (1, 2), [[1]]),
]


def sums(fmap, n, oracle=False):
    phi = dynatomic_divisor(fmap, n).star_poly
    count = period_count(fmap.d, n) // n
    if oracle:
        return field_power_sums(fmap, n, phi.monic(), count, ONE)
    return _multiplier_power_sums(fmap, n, phi, count, ONE)


@pytest.mark.parametrize("label,fmap,periods,base", CASES, ids=[c[0] for c in CASES])
def test_engine_matches_ratfunc_oracle(label, fmap, periods, base):
    for n in periods:
        if dynatomic_divisor(fmap, n).star_poly.degree > 0:
            assert sums(fmap, n) == sums(fmap, n, oracle=True), (label, n)


@pytest.mark.parametrize("label,fmap,periods,base", [c for c in CASES if c[3]],
                         ids=[c[0] for c in CASES if c[3]])
def test_denominator_base(label, fmap, periods, base, monkeypatch):
    seen = []
    inner = bivariate._denominator_base

    def spy(coeffs):
        seen.append(inner(coeffs))
        return seen[-1]

    monkeypatch.setattr(bivariate, "_denominator_base", spy)
    sums(fmap, periods[-1])
    assert seen == base


def test_infinity_cycle_charpoly():
    # the period-2 cycle {infinity, 0} of (z+t)/z^2 has multiplier 0
    fmap = new_map(2, (ZERO, ONE, T), (ONE, ZERO, ZERO))
    assert dynatomic_divisor(fmap, 2).star_mult_infinity == 1
    q2 = fixstar_multiplier_charpoly(fmap, 2)
    assert q2.degree == period_count(2, 2)
    assert q2.coeffs[0] == ZERO


def test_field_mod_div_inverts():
    fmap = quotient(3 * T + 2)
    phi = dynatomic_divisor(fmap, 3).star_poly.monic()
    lift = fmap.iterate_lift_cached(3)
    num, den = lift.poly0(), lift.poly1()
    a = (num.derivative() * den - num * den.derivative()) % phi
    b = (den * den) % phi
    assert b.degree > 0
    assert ((multipliers._field_mod_div(a, b, phi) * b - a) % phi).is_zero()


def test_denominator_base_radical():
    coeffs = [RatFunc(Poly([F(1)]), Poly([F(2, 3), F(1)]) ** 3), 1 / (T * T), ONE]
    assert _denominator_base(coeffs) == [0, 2, 3]


def test_bivariate_pack_round_trips():
    rng = random.Random(11)
    for _ in range(200):
        n_rows = rng.randint(1, 12)
        bits = rng.randint(1, 120)
        rows = [[rng.choice((0, rng.randint(-(2**bits) + 1, 2**bits - 1)))
                 for _ in range(rng.randint(0, 9))] for _ in range(n_rows)]
        rows = [r[: max((i + 1 for i, x in enumerate(r) if x), default=0)] for r in rows]
        stride = max(map(len, rows)) + rng.randint(0, 3) or 1
        width = (bits + 8) // 8
        packed = _pack_rows(rows, stride, width)
        assert _unpack_rows(packed, 0, n_rows, stride, width) == rows
        start = rng.randrange(n_rows)
        keep = rng.randint(1, n_rows - start)
        assert _unpack_rows(packed, start, keep, stride, width) == rows[start : start + keep]
    assert _unpack_rows(_pack_rows([[], [], [0, 0, 1]], 3, 1), 0, 3, 3, 1) == [[], [], [0, 0, 1]]
