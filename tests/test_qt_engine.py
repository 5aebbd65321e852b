"""The integer row pipeline over Q(t) and Q: the iterated lift and Phi*_n
against composition over the base field (``oracles.dynatomic_poly``), the
multiplier at a periodic infinity against ``cycle_multiplier``, the power
sums against the RatFunc trace loop (``oracles.field_power_sums``), and the
row division lambda = a / b against the RatFunc Euclid
(``oracles.field_mod_div``) and values pinned with it."""

import io
import json
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest

from dynlyap import bivariate, fp, multipliers
from dynlyap.algebra import Poly, RatFunc, period_count, poly_gcd
from dynlyap.bivariate import _clear_rows, _pack_rows, _radical_base, _unpack_rows
from dynlyap.cli import run
from dynlyap.errors import DegenerateMap, NonExactDivision, ResourceLimit
from dynlyap.maps import BASE_Q, BASE_QT, cycle_multiplier, new_map, orbit
from dynlyap.multipliers import (
    _infinity_cycle_data,
    _multiplier_power_sums,
    _normalize_proj,
    cycle_polynomial,
    dynatomic_divisor,
    fixstar_multiplier_charpoly,
)
from oracles import dynatomic_poly, field_mod_div, field_power_sums

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
    # infinity -> 0 -> infinity: a 2-cycle through infinity
    ("(z+t)/z^2", new_map(2, (ZERO, ONE, T), (ONE, ZERO, ZERO)), (1, 2, 3), [[0, 1], [0, 1]]),
    # a general rational family: lambda has the poles t = 1 and t^2 + 2t + 5 = 0
    ("(z^2+t)/(z^2+1)", new_map(2, (ONE, ZERO, T), (ONE, ZERO, ONE)), (1, 2), [[1], [-1, 1]]),
    ("z^3+t", new_map(3, (ONE, ZERO, ZERO, T), (ZERO, ZERO, ZERO, ONE)), (1, 2), [[1]]),
    # the leading coefficient of Phi*_n is a power of t + 1, or of t (t + 1)
    ("(t+1)z^2+t", new_map(2, (T + 1, ZERO, T), (ZERO, ZERO, ONE)), (1, 2, 3), [[1, 1]]),
    ("(t^2+t)z^2+1", new_map(2, (T * T + T, ZERO, ONE), (ZERO, ZERO, ONE)), (1, 2, 3),
     [[0, 1, 1]]),
    # at n = 2: Phi*_2 = t z^2 + (t - 1) z + t, the denominator of f^2 has
    # content t + 1, and lambda = a / b adds the pole t = 1
    ("(t z^2+1)/(z^2+t)", new_map(2, (T, ZERO, ONE), (ONE, ZERO, T)), (1, 2),
     [[0, 1, 1], [0, -1, 1]]),
]


def sums(fmap, n, oracle=False):
    div = dynatomic_divisor(fmap, n)
    count = period_count(fmap.d, n) // n
    if oracle:
        return field_power_sums(fmap, n, div.star_poly.monic(), count, ONE)
    return _multiplier_power_sums(fmap, n, div, count, ONE)


@pytest.mark.parametrize("label,fmap,periods,base", CASES, ids=[c[0] for c in CASES])
def test_engine_matches_ratfunc_oracle(label, fmap, periods, base):
    for n in periods:
        if dynatomic_divisor(fmap, n).star_poly.degree > 0:
            assert sums(fmap, n) == sums(fmap, n, oracle=True), (label, n)


@pytest.mark.parametrize("label,fmap,periods,base", [c for c in CASES if c[3]],
                         ids=[c[0] for c in CASES if c[3]])
def test_denominator_base(label, fmap, periods, base, monkeypatch):
    seen = []

    class Spy(bivariate._ZtQuotient):
        def __init__(self, phi, L, max_len):
            seen.append(L)
            super().__init__(phi, L, max_len)

    monkeypatch.setattr(bivariate, "_ZtQuotient", Spy)
    sums(fmap, periods[-1])
    assert seen == base


def test_infinity_cycle_charpoly():
    # the period-2 cycle {infinity, 0} of (z+t)/z^2 has multiplier 0
    fmap = new_map(2, (ZERO, ONE, T), (ONE, ZERO, ZERO))
    assert dynatomic_divisor(fmap, 2).star_mult_infinity == 1
    q2 = fixstar_multiplier_charpoly(fmap, 2)
    assert q2.degree == period_count(2, 2)
    assert q2.coeffs[0] == ZERO


def q_map(d, a, b):
    return new_map(d, [F(x) for x in a], [F(x) for x in b])


def random_q_map(rng):
    while True:
        cs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)]
        try:
            return new_map(2, cs[:3], cs[3:])
        except (DegenerateMap, ValueError):
            continue


_rng = random.Random(606)
DIVISOR_CASES = [
    ("z^2+t", z2_plus(T), 5),
    ("z^2+1/t", z2_plus(1 / T), 5),
    # P_1 = t is constant in z: its primitive part is 1 and its content t
    ("(z^2+t)/z", quotient(T), 4),
    # the leading coefficient of every P_m depends on t
    ("(t z^2+1)/(z^2+t)", new_map(2, (T, ZERO, ONE), (ONE, ZERO, T)), 3),
    # P_1 = 2 (1 + z - z^3): integer content 2
    ("(z^2+2z+2)/(2z^2+z)", q_map(2, (1, 2, 2), (2, 1, 0)), 4),
    ("(z+1)/z^2", q_map(2, (0, 1, 1), (1, 0, 0)), 4),
] + [(f"random Q #{i}", random_q_map(_rng), 4) for i in range(4)]


@pytest.mark.parametrize("label,fmap,n_top", DIVISOR_CASES, ids=[c[0] for c in DIVISOR_CASES])
def test_row_dynatomic_matches_composition(label, fmap, n_top):
    for n in range(1, n_top + 1):
        div = dynatomic_divisor(fmap, n)
        star, inf_mult = dynatomic_poly(fmap, n)
        assert div.star_poly == star, (label, n)
        assert div.star_mult_infinity == inf_mult, (label, n)
        # the rows are primitive: no integer and no polynomial of Z[t] divides them
        assert bivariate._zt_content([list(r) for r in div.rows]) == [1], (label, n)


def test_exact_quotient_widens_its_slots(monkeypatch):
    # (t + 1) Q has coefficients 0 and +-1 while those of Q climb to m > 2^15,
    # past the two-byte slots that the bits of num and den ask for
    m = (1 << 15) + 1
    quot = [[(-1) ** i * min(i + 1, 2 * m - 1 - i) for i in range(2 * m - 1)]]
    num = bivariate._mul_rows(quot, [[1, 1]])
    assert bivariate._row_bits(num) == 1
    checks = []
    inner = bivariate._mul_rows

    def spy(a, b):
        checks.append(len(a))
        return inner(a, b)

    monkeypatch.setattr(bivariate, "_mul_rows", spy)
    assert bivariate._exact_quotient(num, [[1, 1]]) == quot
    assert len(checks) == 2


INF = (ONE, ZERO)
INFINITY_CASES = [
    # (label, map, exact period of infinity or None, its multiplier)
    ("z^2+t: attracting", z2_plus(T), 1, ZERO),
    ("(z^2+t)/z: parabolic", quotient(T), 1, ONE),
    ("(z+t)/z^2: 2-cycle", new_map(2, (ZERO, ONE, T), (ONE, ZERO, ZERO)), 2, ZERO),
    ("(z+1)/z^2: 2-cycle over Q", q_map(2, (0, 1, 1), (1, 0, 0)), 2, F(0)),
    ("(t z^2+1)/(z^2+t): wandering", new_map(2, (T, ZERO, ONE), (ONE, ZERO, T)), None, None),
    ("3z^2/(z^2+1): wandering over Q", q_map(2, (3, 0, 0), (1, 0, 1)), None, None),
]


@pytest.mark.parametrize("label,fmap,q,lam", INFINITY_CASES, ids=[c[0] for c in INFINITY_CASES])
def test_infinity_multiplier_off_the_lift(label, fmap, q, lam):
    got_q, got_lam = _infinity_cycle_data(fmap, 4)
    pts = orbit(fmap, INF, 4)
    if q is None:
        assert (got_q, got_lam) == (None, None)
        assert INF not in pts[1:]
        return
    assert (got_q, got_lam) == (q, lam)
    assert pts[q] == pts[0] and INF not in pts[1:q]
    assert got_lam == cycle_multiplier(fmap, INF, q)


def test_budget_bits_stop_the_row_lift(monkeypatch):
    # the lift rows of z^2+t carry 130 bits at n = 4 and 1104 at n = 5
    monkeypatch.setenv("DYNLYAP_BUDGET_BITS", "600")
    fmap = z2_plus(T)
    fixstar_multiplier_charpoly(fmap, 4)
    with pytest.raises(ResourceLimit, match="iterated lift"):
        fixstar_multiplier_charpoly(fmap, 5)
    zt = ('{"d":2,"a":[{"num":"1","den":"1"},{"num":"0","den":"1"},{"num":"t","den":"1"}],'
          '"b":[{"num":"0","den":"1"},{"num":"0","den":"1"},{"num":"1","den":"1"}]}')
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(["ff-analyze", "--map", zt, "--n-max", "5"]) == 3
    assert json.loads(buf.getvalue())["error"]["kind"] == "resource_limit"


def test_field_mod_div_inverts():
    fmap = quotient(3 * T + 2)
    phi = dynatomic_divisor(fmap, 3).star_poly.monic()
    lift = fmap.iterate_lift_cached(3)
    num, den = lift.poly0(), lift.poly1()
    a = (num.derivative() * den - num * den.derivative()) % phi
    b = (den * den) % phi
    assert b.degree > 0
    assert ((field_mod_div(a, b, phi) * b - a) % phi).is_zero()


# p_{d,3} as the engine gave it when it formed lambda = a / b by the RatFunc
# Euclid (``oracles.field_mod_div``), which takes 2 s to over a minute here
PINNED_P3 = [
    ("(z^2+t)/(z^2+1)", new_map(2, (ONE, ZERO, T), (ONE, ZERO, ONE)),
     [([320, 448, 1472, 896, 704, 192, 64], [1, -6, 15, -20, 15, -6, 1]),
      ([24, 64, 24, 16], [-1, 3, -3, 1]), ([1], [1])]),
    ("(z+t)/z^2", new_map(2, (ZERO, ONE, T), (ONE, ZERO, ZERO)),
     [([3, 0, -24, 0, 64], [0, 0, 0, 0, 1]), ([-3, 0, 16], [0, 0, 1]), ([1], [1])]),
    ("(t z^2+1)/(z^2+t)", new_map(2, (T, ZERO, ONE), (ONE, ZERO, T)),
     [([64, -256, 640, -896, 960, -640, 448, -128, 64], [1, -4, 4, 4, -10, 4, 4, -4, 1]),
      ([-16, 32, -48, 16, -16], [-1, 2, 0, -2, 1]), ([1], [1])]),
]


@pytest.mark.parametrize("label,fmap,want", PINNED_P3, ids=[c[0] for c in PINNED_P3])
def test_cycle_polynomial_pinned(label, fmap, want):
    got = cycle_polynomial(fmap, 3)
    assert [([int(x) for x in c.num.coeffs], [int(x) for x in c.den.coeffs])
            for c in got.coeffs] == want


def row_divisions(fmap, n, monkeypatch):
    """[(ring, phi, a, b, (rows, den))] for every lambda = a / b that the
    power sums of period n form."""
    seen = []
    inner = multipliers._field_mod_div

    def spy(ring, phi, a, b):
        out = inner(ring, phi, a, b)
        seen.append((ring, phi, a, b, out))
        return out

    monkeypatch.setattr(multipliers, "_field_mod_div", spy)
    sums(fmap, n)
    return seen


def ring_poly(ring, x):
    rows, c, e = x
    return Poly(bivariate._from_rows(rows, [c * v for v in ring.lpow(e)], BASE_QT))


DIVISION_CASES = [
    # (label, map, period, whether the RatFunc Euclid is quick enough to compare)
    ("(z^2+3t+2)/z", quotient(3 * T + 2), 3, True),
    ("(z+t)/z^2", new_map(2, (ZERO, ONE, T), (ONE, ZERO, ZERO)), 3, False),
    ("(z^2+t)/(z^2+1)", new_map(2, (ONE, ZERO, T), (ONE, ZERO, ONE)), 3, False),
    ("(t z^2+1)/(z^2+t)", new_map(2, (T, ZERO, ONE), (ONE, ZERO, T)), 2, True),
]


@pytest.mark.parametrize("label,fmap,n,euclid", DIVISION_CASES,
                         ids=[c[0] for c in DIVISION_CASES])
def test_row_division_inverts(label, fmap, n, euclid, monkeypatch):
    divisions = row_divisions(fmap, n, monkeypatch)
    assert divisions
    for ring, phi, a, b, (rows, den) in divisions:
        phi_poly = Poly(bivariate._from_rows(phi, phi[-1], BASE_QT))
        lam = Poly(bivariate._from_rows(rows, den, BASE_QT))
        a_poly, b_poly = ring_poly(ring, a), ring_poly(ring, b)
        assert ((lam * b_poly - a_poly) % phi_poly).is_zero()
        # lowest terms: den is the lcm of the denominators, up to a constant
        lcm = Poly([F(1)])
        for c in lam.coeffs:
            lcm = lcm * c.den // poly_gcd(lcm, c.den)
        assert Poly.from_ints(den).monic() == lcm
        if euclid:
            assert lam == field_mod_div(a_poly, b_poly, phi_poly)


Z2_MINUS_1 = [[-1], [], [1]]


def z2_minus_1_ring(L):
    return bivariate._ZtQuotient((Z2_MINUS_1, 1, 0), list(L), 0)


def divide_mod_z2_minus_1(b, a=([[1]], 1, 0), L=(1,)):
    """a / b modulo z^2 - 1, for elements (rows, c, e) of the ring with base L."""
    rows, den = bivariate._row_mod_div(z2_minus_1_ring(L), Z2_MINUS_1, a, b)
    return Poly(bivariate._from_rows(rows, den, BASE_QT))


def spy_images(monkeypatch):
    made = []

    class Spy(bivariate._Images):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(bivariate, "_Images", Spy)
    return made


SINGULAR_CASES = [
    # z - t is a unit modulo z^2 - 1, but at t0 = 1 it shares the root z = 1;
    # 1 / (z - t) = (z + t) / (1 - t^2)
    ("b(1) singular", ([[0, -1], [1]], 1, 0), ([[1]], 1, 0), (1,),
     Poly([T / (1 - T * T), 1 / (1 - T * T)])),
    # a = 1 / (t - 1) has a pole at t0 = 1, where b = z - 2t is a unit;
    # a / b = (z + 2t) / ((t - 1) (1 - 4t^2))
    ("a(1) a pole", ([[0, -2], [1]], 1, 0), ([[1]], 1, 1), (-1, 1),
     Poly([2 * T / ((T - 1) * (1 - 4 * T * T)), 1 / ((T - 1) * (1 - 4 * T * T))])),
]


@pytest.mark.parametrize("label,b,a,L,want", SINGULAR_CASES, ids=[c[0] for c in SINGULAR_CASES])
def test_row_division_skips_a_singular_point(label, b, a, L, want):
    images = bivariate._Images(z2_minus_1_ring(L), Z2_MINUS_1, a, b, fp.engine_prime(0))
    xs, values = images.take(3)
    assert xs == [2, 3, 4] and images.skips == 1
    p = images.p
    for x, image in zip(xs, values):
        at_x = [c.evaluate(F(x)) for c in want.coeffs]
        assert image == [v.numerator * pow(v.denominator, -1, p) % p for v in at_x]
    assert divide_mod_z2_minus_1(b, a, L) == want


def test_row_division_gives_up_on_a_non_unit():
    # z - 1 divides z^2 - 1: singular at every t0
    with pytest.raises(NonExactDivision):
        divide_mod_z2_minus_1(([[-1], [1]], 1, 0))


def test_row_division_lifts_over_several_primes(monkeypatch):
    # 1 / (z - c t) = (z + c t) / (1 - c^2 t^2), with 40-digit c^2: beyond
    # rational reconstruction modulo one prime below 2^127
    c = 10**20
    made = spy_images(monkeypatch)
    lam = 1 / (1 - c * c * T * T)
    assert divide_mod_z2_minus_1(([[0, -c], [1]], 1, 0)) == Poly([c * T * lam, lam])
    assert len(made) > 1


def test_row_division_recovers_from_too_few_points(monkeypatch):
    fmap = new_map(2, (ONE, ZERO, T), (ONE, ZERO, ONE))
    want = sums(fmap, 3)
    checks = []
    inner = bivariate._exact_check

    def spy(*args):
        checks.append(inner(*args))
        return checks[-1]

    monkeypatch.setattr(bivariate, "_START_POINTS", 1)
    monkeypatch.setattr(bivariate, "_exact_check", spy)
    assert sums(fmap, 3) == want
    assert False in checks and checks[-1] is True


def test_row_division_stops_at_its_cramer_caps(monkeypatch):
    # a check that never passes: the points stop doubling at the cap, and
    # primes stop being added once their product passes the modulus cap
    made = spy_images(monkeypatch)
    taken = []
    inner = bivariate._Images.reconstruct

    def spy(self, points):
        taken.append(points)
        return inner(self, points)

    monkeypatch.setattr(bivariate._Images, "reconstruct", spy)
    monkeypatch.setattr(bivariate, "_exact_check", lambda *args: False)
    ring, a, b = z2_minus_1_ring((1,)), ([[1]], 1, 0), ([[0, -1], [1]], 1, 0)
    max_points, max_modulus = bivariate._division_caps(ring, Z2_MINUS_1, a, b)
    with pytest.raises(NonExactDivision, match="Cramer"):
        bivariate._row_mod_div(ring, Z2_MINUS_1, a, b)
    assert max(taken) == max_points
    primes = [im.p for im in made]
    assert math.prod(primes[:-1]) <= max_modulus < math.prod(primes)


@pytest.mark.parametrize("label,fmap,n,euclid", DIVISION_CASES,
                         ids=[c[0] for c in DIVISION_CASES])
def test_row_division_within_its_caps(label, fmap, n, euclid, monkeypatch):
    # the points each division reconstructs at, against that division's cap
    divisions, taken = [], []
    reconstruct, divide = bivariate._Images.reconstruct, bivariate._row_mod_div

    def spy_reconstruct(self, points):
        taken.append(points)
        return reconstruct(self, points)

    def spy_divide(ring, phi, a, b):
        taken.clear()
        out = divide(ring, phi, a, b)
        divisions.append((bivariate._division_caps(ring, phi, a, b)[0], list(taken)))
        return out

    monkeypatch.setattr(bivariate._Images, "reconstruct", spy_reconstruct)
    monkeypatch.setattr(bivariate, "_row_mod_div", spy_divide)
    row_divisions(fmap, n, monkeypatch)
    assert divisions
    for max_points, points in divisions:
        assert points and max(points) <= max_points


def old_normal(ring, rows, e):
    """The L-power cancellation of ``_ZtQuotient.normal``, one power at a time."""
    while e:
        out = []
        for r in rows:
            q = bivariate._exact_div_int(r, ring.L) if r else r
            if q is None:
                return rows, e
            out.append(q)
        rows, e = out, e - 1
    return rows, e


@pytest.mark.parametrize("L", [[0, 1], [1, 9], [0, 2, 3]])
def test_normal_cancels_the_common_power_at_once(L):
    rng = random.Random(31)
    ring = z2_minus_1_ring(L)
    for _ in range(300):
        rows = []
        for _ in range(rng.randint(1, 4)):
            r = [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))] + [rng.choice((0, 1, -3))]
            rows.append(bivariate._int_mul(r, ring.lpow(rng.randint(0, 3))) if any(r) else [])
        rows.append(ring.lpow(rng.randint(0, 3)))
        e = rng.randint(0, 4)
        got_rows, c, got_e = ring.normal(rows, 1, e)
        assert (got_rows, got_e) == old_normal(ring, rows, e) and c == 1


def test_denominator_base_radical():
    coeffs = [RatFunc(Poly([F(1)]), Poly([F(2, 3), F(1)]) ** 3), 1 / (T * T), ONE]
    assert _radical_base([c.den for c in coeffs]) == [0, 2, 3]


CLEAR_CASES = [
    # zero entries and Fraction constants only
    [ZERO, F(3, 4), F(-5, 6), 2],
    # a shared pole and a distinct one
    [(T - 2) / (T + 1), F(3, 2) * T, ZERO, 1 / ((T + 1) * (T + 1))],
    [1 / T, (T * T + 1) / (T * T * T), F(1, 7) / (2 * T - 1), ZERO],
    # poles off the rational points of the t-line, and Fraction coefficients
    [RatFunc(Poly([F(-5, 3), F(0), F(1, 2)])) / (T * T + 1), T / 3, (T + F(1, 2)) / (T * T + 1)],
    # elements of Q only, which clear without RatFunc
    [F(3, 4), F(0), F(-5, 6), F(2)],
    [F(0), F(0)],
    [F(-7, 12), F(5, 18), F(1, 1)],
]


@pytest.mark.parametrize("coeffs", CLEAR_CASES)
def test_clear_rows_rebuilds_its_input(coeffs):
    rows, den = _clear_rows(coeffs)
    assert len(rows) == len(coeffs) and den[-1] > 0
    assert all(isinstance(x, int) for r in rows + [den] for x in r)
    for r, c in zip(rows, coeffs):
        assert RatFunc(Poly.from_ints(r), Poly.from_ints(den)) == c + ZERO
    if not any(isinstance(c, RatFunc) for c in coeffs):
        # the same rows and den as the same values as elements of Q(t)
        assert (rows, den) == _clear_rows([RatFunc.const(c) for c in coeffs])
    # den is the lcm of the denominators, up to an integer factor
    lcm = Poly([F(1)])
    for c in coeffs:
        lcm = lcm * (c + ZERO).den // poly_gcd(lcm, (c + ZERO).den)
    assert Poly.from_ints(den).monic() == lcm


def test_clear_rows_random():
    rng = random.Random(70)
    for _ in range(40):
        coeffs = []
        for _ in range(rng.randint(1, 6)):
            num = Poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))])
            den = Poly([F(rng.choice((0, 1, -2))) for _ in range(rng.randint(0, 2))]
                       + [F(rng.randint(1, 3))])
            coeffs.append(RatFunc(num, den))
        rows, den = _clear_rows(coeffs)
        assert den[-1] > 0
        assert [RatFunc(Poly.from_ints(r), Poly.from_ints(den)) for r in rows] == coeffs


def test_poly_power_matches_field_power():
    for p in (Poly([T, ZERO, ONE]), Poly([1 / T, F(2, 3) * T, (T + 1) / (T * T - 2), ONE]),
              Poly([ZERO, (T - 2) / (T + 1), F(3, 2) * T, 1 / ((T + 1) * (T + 1))])):
        for n in (1, 2, 3, 5):
            assert bivariate._poly_power(p, n, BASE_QT) == p**n
    for p in (Poly([F(1, 2), F(0), F(1)]), Poly([F(-3), F(2, 3), F(0), F(5, 4)]),
              Poly([F(0), F(7, 6)])):
        for n in (1, 2, 3, 5):
            assert bivariate._poly_power(p, n, BASE_Q) == p**n


# values pinned before _normalize_proj cleared through _clear_rows
NORMALIZE_CASES = [
    (CLEAR_CASES[1], [[-4, -2, 2], [0, 3, 6, 3], [], [2]]),
    ([F(1, 2), (T * T - 1) / 3, -T / (2 * T - 6), ZERO],
     [[9, -3], [-6, 2, 6, -2], [0, 3], []]),
    ([-(T * T) / 5, F(-4, 7) * T * T * T], [[7], [0, 20]]),
    ([(T + 1) / T, (T + 1) * (T + 1) / (T * T), -ONE / (T * T * T)],
     [[0, 0, -1, -1], [0, -1, -2, -1], [1]]),
]


@pytest.mark.parametrize("coords,want", NORMALIZE_CASES)
def test_normalize_proj_over_qt(coords, want):
    got = _normalize_proj(coords)
    assert [[int(x) for x in c.num.coeffs] for c in got] == want
    assert all(c.den == Poly([F(1)]) for c in got)
    ints = [Poly([F(x) for x in r]) for r in want if r]
    # coprime in Z[t]: no common root, and integer content 1
    g = ints[0]
    for p in ints[1:]:
        g = poly_gcd(g, p)
    assert g.degree == 0
    assert math.gcd(*(x for r in want for x in r)) == 1
    assert next(r for r in reversed(want) if r)[-1] > 0
    # proportional to the input
    k = next(i for i, c in enumerate(coords) if c)
    ratio = got[k] / coords[k]
    assert all(g_c == ratio * c for g_c, c in zip(got, coords))


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
