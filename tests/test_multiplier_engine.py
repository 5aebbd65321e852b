"""The multi-modular multiplier engine over Q against the exact field path
(the trace loop in ``oracles``)."""

import random
from fractions import Fraction as F

import pytest

from dynlyap import multipliers
from dynlyap.algebra import _int_mul, _pack, _unpack, _unpack_signed, period_count
from dynlyap.errors import DegenerateMap
from dynlyap.lyapunov import (
    _bezout_lipschitz_bound,
    _sup_chordal_derivative,
    chordal_lipschitz_bound,
)
from dynlyap.maps import new_map, primitive_lift
from dynlyap.multipliers import (
    _arch_lipschitz,
    _engine_prime,
    _modular_power_sums,
    dynatomic_divisor,
)
from oracles import field_power_sums


def poly_map(*coeffs_desc):
    d = len(coeffs_desc) - 1
    return new_map(d, coeffs_desc, [0] * d + [1])


def random_map(rng, d, den):
    while True:
        cs = [F(rng.randint(-3, 3), rng.randint(1, den)) for _ in range(2 * d + 2)]
        try:
            return new_map(d, cs[: d + 1], cs[d + 1 :])
        except (DegenerateMap, ValueError):
            continue


def cases():
    """(label, map, periods): seeded random maps and the special cases."""
    rng = random.Random(4242)
    p0 = _engine_prime(0)
    out = [
        # monic Phi*_7 has denominators 2^63
        ("z^2+1/2", poly_map(1, 0, F(1, 2)), (7,)),
        # infinity -> 0 -> infinity: a 2-cycle through infinity
        ("(z+1)/z^2", new_map(2, (0, 1, 1), (1, 0, 0)), (1, 2, 3, 4)),
        # every coefficient of the map's lift is a multiple of the first prime
        ("z^2+1/2 scaled", new_map(2, (p0, 0, F(p0, 2)), (0, 0, p0)), (1, 2, 3, 4)),
    ]
    out += [(f"random d=2 #{i}", random_map(rng, 2, 3), (1, 2, 3, 4)) for i in range(2)]
    # a box map as in criterion 02, one of the quicker ones for the field path
    out.append(("cubic box map", new_map(3, (0, -3, 0, -2), (-1, 1, -3, 3)), (1, 2, 3)))
    return out


CASES = cases()


def engine_sums(fmap, n, field_path=False):
    """(monic Phi*_n, S_1..S_{d_n/n}) from the engine or the field path."""
    div = dynatomic_divisor(fmap, n)
    if div.degree <= 0:
        return None
    count = period_count(fmap.d, n) // n
    phi = div.star_poly.monic()
    if field_path:
        return phi, field_power_sums(fmap, n, phi, count, F(1))
    return phi, _modular_power_sums(fmap, n, [r[0] if r else 0 for r in div.rows], count)


@pytest.mark.parametrize("label,fmap,periods", CASES, ids=[c[0] for c in CASES])
def test_engine_matches_field_path(label, fmap, periods):
    for n in periods:
        got = engine_sums(fmap, n)
        if got is not None:
            assert got == engine_sums(fmap, n, field_path=True), (label, n)


@pytest.mark.parametrize("label,fmap,periods", CASES, ids=[c[0] for c in CASES])
def test_cleared_power_sums_within_bound(label, fmap, periods):
    res = primitive_lift(fmap).res
    growth = _arch_lipschitz(fmap) * res
    for n in periods:
        got = engine_sums(fmap, n)
        if got is None:
            continue
        phi, sums = got
        for k, s in enumerate(sums, 1):
            t = s * res ** (n * k)
            assert t.denominator == 1, (label, n, k)
            assert abs(t) <= phi.degree * growth ** (n * k), (label, n, k)


def test_engine_primes_carry_proth_certificates():
    # Proth: p = k 2^64 + 1 with k < 2^64 is prime if a^((p-1)/2) = -1 mod p
    primes = [_engine_prime(i) for i in range(40)]
    assert primes == sorted(set(primes), reverse=True)
    for p in primes:
        k, r = divmod(p - 1, 1 << 64)
        assert r == 0 and 0 < k < 1 << 63 and p < 1 << 127
        assert any(pow(a, (p - 1) // 2, p) == p - 1 for a in range(2, 100))


def test_non_unit_prime_is_skipped(monkeypatch):
    # Den^2 of the primitive lift is a unit modulo every prime that divides
    # neither R nor lc(Phi*_n); a failed inversion at the first prime stands
    # in for one where it is not, and that prime is skipped
    calls = []
    inner = multipliers._power_sums_mod_p
    invert = multipliers._fp_poly_inv

    def spy(*args):
        out = inner(*args)
        calls.append((args[-1], out is None))
        return out

    monkeypatch.setattr(multipliers, "_power_sums_mod_p", spy)
    monkeypatch.setattr(multipliers, "_fp_poly_inv",
                        lambda b, phi, p: None if p == _engine_prime(0) else invert(b, phi, p))
    fmap = new_map(2, (_engine_prime(0), 0, F(_engine_prime(0), 2)), (0, 0, _engine_prime(0)))
    assert engine_sums(fmap, 3) == engine_sums(fmap, 3, field_path=True)
    assert calls[0] == (_engine_prime(0), True)
    assert not any(bad for _, bad in calls[1:])


@pytest.mark.parametrize("label,fmap,periods", CASES[1:], ids=[c[0] for c in CASES[1:]])
def test_lipschitz_between_grid_and_bezout(label, fmap, periods):
    lip = chordal_lipschitz_bound(fmap.lift, fmap.resultant)
    grid, _ = _sup_chordal_derivative(fmap, grid=96)
    assert grid <= lip * (1 + 1e-12)
    assert lip <= _bezout_lipschitz_bound(fmap.lift, fmap.resultant)


def test_lipschitz_closed_form_and_fallback():
    # sup of z^2's chordal derivative 2|z|(1+|z|^2)/(1+|z|^4) is 2, at |z| = 1
    lip = chordal_lipschitz_bound(poly_map(1, 0, 0).lift, 1)
    assert 2 <= lip <= F(5, 2)
    # coefficients beyond the float range: the exact Bezout bound stands alone
    huge = poly_map(1, 0, 10**400)
    assert chordal_lipschitz_bound(huge.lift, huge.resultant) == _bezout_lipschitz_bound(
        huge.lift, huge.resultant)


def test_pack_round_trips():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 60)
        bits = rng.randint(1, 150)
        width = (bits + 8) // 8
        signed = [rng.choice((0, rng.randint(-(2**bits) + 1, 2**bits - 1))) for _ in range(n)]
        assert _unpack_signed(_pack(signed, width), n, width) == signed
        plain = [abs(c) for c in signed]
        assert _unpack(_pack(plain, width), n, width) == plain
    assert _unpack_signed(_pack([0, 0, 0], 2), 3, 2) == [0, 0, 0]
    with pytest.raises(AssertionError):
        _unpack(_pack([1, 2, 3], 1), 2, 1)


def test_kronecker_product_matches_schoolbook():
    rng = random.Random(10)
    for _ in range(60):
        a = [rng.choice((0, rng.randint(-(2**90), 2**90))) for _ in range(rng.randint(24, 70))]
        b = [rng.choice((0, rng.randint(-(2**40), 2**40))) for _ in range(rng.randint(24, 70))]
        school = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                school[i + j] += x * y
        assert _int_mul(a, b) == school
