"""The multi-modular multiplier engine over Q against the exact field path
(the trace loop in ``oracles``)."""

import math
import random
from fractions import Fraction as F

import pytest

from dynlyap import bivariate, fp, heights, lyapunov, multipliers
from dynlyap.algebra import Poly, RatFunc, _int_mul, _pack, _unpack, _unpack_signed, period_count
from dynlyap.errors import DegenerateMap, ResourceLimit
from dynlyap.fp import engine_prime
from dynlyap.lyapunov import (
    LipschitzSearch,
    _bezout_lipschitz_bound,
    lipschitz_data,
)
from dynlyap.maps import BASE_Q, new_map, primitive_lift
from dynlyap.multipliers import (
    _arch_lipschitz,
    _modular_power_sums,
    _power_sums_mod_p,
    _reduced_resultant,
    cycle_polynomial,
    dynatomic_divisor,
)
from dynlyap.places import Place
from oracles import field_mod_div, field_power_sums, sup_chordal_grid


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
    p0 = engine_prime(0)
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


def random_cases():
    """Seeded random maps with p/q coefficients, for the engine alone."""
    rng = random.Random(2718)
    out = [(f"p/q d=2 #{i}", random_map(rng, 2, 5), (1, 2, 3, 4, 5)) for i in range(4)]
    out += [(f"p/q d=3 #{i}", random_map(rng, 3, 5), (1, 2, 3)) for i in range(3)]
    return out


BOUND_CASES = CASES + random_cases()


@pytest.mark.parametrize("label,fmap,periods", BOUND_CASES, ids=[c[0] for c in BOUND_CASES])
def test_cleared_power_sums_within_bound(label, fmap, periods):
    # against the bound of a full search, never above the engine's lazy one
    rho = _reduced_resultant(fmap)
    prim = primitive_lift(fmap)
    assert prim.res % rho == 0
    growth = LipschitzSearch(prim.lift, prim.res,
                             heights._bezout_cofactors(prim.lift, prim.res)).bound() * rho
    for n in periods:
        got = engine_sums(fmap, n)
        if got is None:
            continue
        phi, sums = got
        for k, s in enumerate(sums, 1):
            t = s * rho ** (n * k)
            assert t.denominator == 1, (label, n, k)
            assert abs(t) <= phi.degree * growth ** (n * k), (label, n, k)


def fresh(fmap):
    """The same map with nothing cached."""
    return new_map(fmap.d, fmap.lift.a, fmap.lift.b)


def spy(monkeypatch, owner, name, calls):
    """Record the arguments and result of every call of owner.name in calls."""
    inner = getattr(owner, name)

    def wrapper(*args):
        out = inner(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("label,fmap,periods", BOUND_CASES, ids=[c[0] for c in BOUND_CASES])
def test_lazy_bound_never_costs_more(label, fmap, periods, monkeypatch):
    # the engine stops the search once no tighter bound saves a prime: per
    # period it takes no more primes, and per map no more boxes, than the
    # bound of a full run
    boxes, primes = [], []
    spy(monkeypatch, lyapunov, "_box_bound", boxes)
    spy(monkeypatch, multipliers, "_power_sums_mod_p", primes)
    full, lazy = fresh(fmap), fresh(fmap)
    _arch_lipschitz(full).bound()
    full_boxes = len(boxes)
    for n in periods:
        del primes[:]
        want = engine_sums(full, n)
        full_primes = len(primes)
        del boxes[:], primes[:]
        assert engine_sums(lazy, n) == want, (label, n)
        assert len(primes) <= full_primes, (label, n)
        full_boxes -= len(boxes)
    assert full_boxes >= 0, label


@pytest.mark.parametrize("label,fmap,periods", BOUND_CASES, ids=[c[0] for c in BOUND_CASES])
def test_engine_bounds_are_certified(label, fmap, periods, monkeypatch):
    # the lazy search hands the engine its certified upper bound, never the
    # best centre value below it
    bounds = []
    spy(monkeypatch, LipschitzSearch, "bound", bounds)
    lazy = fresh(fmap)
    for n in periods:
        engine_sums(lazy, n)
    grid, _ = sup_chordal_grid(lazy, 96)
    assert bounds
    for (search, *_), lip in bounds:
        assert grid <= lip * (1 + 1e-12), label
        assert search.best <= lip


@pytest.mark.parametrize("label,fmap,periods", BOUND_CASES, ids=[c[0] for c in BOUND_CASES])
def test_search_resumes_across_periods(label, fmap, periods, monkeypatch):
    # periods asked in increasing order end with the prime count of one call
    # for the largest period, at a bound no larger
    primes = []
    spy(monkeypatch, multipliers, "_power_sums_mod_p", primes)
    warm, cold = fresh(fmap), fresh(fmap)
    for n in periods:
        del primes[:]
        got = engine_sums(warm, n)
    warm_primes = len(primes)
    del primes[:]
    assert engine_sums(cold, periods[-1]) == got
    assert len(primes) == warm_primes, label
    assert _arch_lipschitz(warm).upper <= _arch_lipschitz(cold).upper


def test_reduced_resultant_is_needed(monkeypatch):
    # the cubic box map: R = |Res| of the primitive lift is 245 = 5 7^2, but
    # rho = 35 already clears the sums; dropping either prime from rho breaks them
    fmap = CASES[-1][1]
    rho, res = _reduced_resultant(fmap), primitive_lift(fmap).res
    assert (rho, res) == (35, 245)
    want = engine_sums(fmap, 1, field_path=True)
    assert engine_sums(fmap, 1) == want
    for q in (5, 7):
        monkeypatch.setattr(multipliers, "_reduced_resultant", lambda fm: rho // q)
        assert engine_sums(fmap, 1) != want, q


T, ONE, ZERO = RatFunc.t(), RatFunc.const(1), RatFunc.const(0)
LAMBDA_CASES = [(c[0], c[1], (2, 3)) for c in CASES[1:3]] + [
    ("(z^2+t)/z", new_map(2, (ONE, ZERO, T), (ZERO, ONE, ZERO)), (1, 2)),
    ("(z+t)/z^2", new_map(2, (ZERO, ONE, T), (ONE, ZERO, ZERO)), (1, 2)),
    ("(t z^2+1)/(z^2+t)", new_map(2, (T, ZERO, ONE), (ONE, ZERO, T)), (1, 2)),
]


@pytest.mark.parametrize("label,fmap,periods", LAMBDA_CASES, ids=[c[0] for c in LAMBDA_CASES])
def test_lambda_from_the_fixed_point_identity(label, fmap, periods):
    # on Phi*_n, which divides A - z B, (A' B - A B') / B^2 = (A' - z B') / B,
    # with A' - z B' from the rows of the primitive lift (``lambda_numerator``)
    for n in periods:
        div = dynatomic_divisor(fmap, n)
        if div.degree <= 0:
            continue
        phi = div.star_poly.monic()
        lift = fmap.iterate_lift_cached(n)
        num, den = lift.poly0(), lift.poly1()
        classic = field_mod_div((num.derivative() * den - num * den.derivative()) % phi,
                                (den * den) % phi, phi)
        rows = bivariate.lift_rows(fmap, n)
        u = bivariate.lambda_numerator(*rows)
        u_poly, den_poly = (Poly(bivariate._from_rows(part, [1], fmap.base))
                            for part in (u, rows[1]))
        assert field_mod_div(u_poly % phi, den_poly % phi, phi) == classic
        if fmap.base != BASE_Q:
            continue
        # the engine's traces at one prime are the oracle's sums mod p
        count = period_count(fmap.d, n) // n
        want = field_power_sums(fmap, n, phi, count, F(1))
        phi_int = [r[0] if r else 0 for r in div.rows]
        u_int, den_int = ([r[0] if r else 0 for r in part] for part in (u, rows[1]))
        p = engine_prime(1)
        got = _power_sums_mod_p(phi_int, u_int, den_int, count, p)
        assert got == [s.numerator * pow(s.denominator, -1, p) % p for s in want]


def test_one_bezout_solve_per_map(monkeypatch):
    calls = []
    inner = heights._bezout_cofactors

    def spy(lift, res):
        calls.append(res)
        return inner(lift, res)

    monkeypatch.setattr(heights, "_bezout_cofactors", spy)
    fmap = new_map(3, (0, -3, 0, -2), (-1, 1, -3, 3))
    rho = _reduced_resultant(fmap)
    lip = _arch_lipschitz(fmap).bound()
    sup_t = heights._map_sup_t_bound(fmap)
    northcott = heights._northcott_bound(fmap)
    assert len(calls) == 1
    # each value is the one a solve of its own gives
    prim = primitive_lift(fmap)
    monkeypatch.setattr(heights, "_bezout_cofactors", inner)
    assert sup_t == heights._arch_sup_t_bound(fmap.lift, fmap.resultant)
    assert northcott == (heights._arch_sup_t_bound(prim.lift, prim.res)
                         + math.log(prim.res)) / (fmap.d - 1) + 1e-6
    cofactors = inner(prim.lift, prim.res)
    assert lip == LipschitzSearch(prim.lift, prim.res, cofactors).bound()
    assert all((c * rho / prim.res).denominator == 1 for part in cofactors for c in part)


def test_engine_primes_carry_proth_certificates():
    # Proth: p = k 2^64 + 1 with k < 2^64 is prime if a^((p-1)/2) = -1 mod p
    primes = [engine_prime(i) for i in range(40)]
    assert primes == sorted(set(primes), reverse=True)
    for p in primes:
        k, r = divmod(p - 1, 1 << 64)
        assert r == 0 and 0 < k < 1 << 63 and p < 1 << 127
        assert any(pow(a, (p - 1) // 2, p) == p - 1 for a in range(2, 100))


def test_non_unit_prime_is_skipped(monkeypatch):
    # Den of the primitive lift is a unit modulo every prime that divides
    # neither R nor lc(Phi*_n); a failed inversion at the first prime stands
    # in for one where it is not, and that prime is skipped
    calls = []
    inner = multipliers._power_sums_mod_p
    invert = fp.inverse

    def spy(*args):
        out = inner(*args)
        calls.append((args[-1], out is None))
        return out

    monkeypatch.setattr(multipliers, "_power_sums_mod_p", spy)
    monkeypatch.setattr(fp, "inverse",
                        lambda b, phi, p: None if p == engine_prime(0) else invert(b, phi, p))
    fmap = new_map(2, (engine_prime(0), 0, F(engine_prime(0), 2)), (0, 0, engine_prime(0)))
    assert engine_sums(fmap, 3) == engine_sums(fmap, 3, field_path=True)
    assert calls[0] == (engine_prime(0), True)
    assert not any(bad for _, bad in calls[1:])


@pytest.mark.parametrize("label,fmap,periods", CASES[1:], ids=[c[0] for c in CASES[1:]])
def test_lipschitz_between_grid_and_bezout(label, fmap, periods):
    prim = primitive_lift(fmap)
    cofactors = heights._bezout_cofactors(prim.lift, prim.res)
    lip = LipschitzSearch(prim.lift, prim.res, cofactors).bound()
    grid, _ = sup_chordal_grid(fmap, 96)
    assert grid <= lip * (1 + 1e-12)
    assert lip <= _bezout_lipschitz_bound(prim.lift, prim.res, cofactors)


def test_lipschitz_closed_form_and_fallback():
    # sup of z^2's chordal derivative 2|z|(1+|z|^2)/(1+|z|^4) is 2, at |z| = 1
    square = primitive_lift(poly_map(1, 0, 0))
    lip = LipschitzSearch(square.lift, square.res,
                          heights._bezout_cofactors(square.lift, square.res)).bound()
    assert 2 <= lip <= F(5, 2)
    # coefficients beyond the float range: the exact Bezout bound stands alone
    huge = primitive_lift(poly_map(1, 0, 10**400))
    cofactors = heights._bezout_cofactors(huge.lift, huge.res)
    assert LipschitzSearch(huge.lift, huge.res, cofactors).bound() == _bezout_lipschitz_bound(
        huge.lift, huge.res, cofactors)


def fsharp_squared(fmap, x):
    """f^#(x)^2 = |F0' F1 - F0 F1'|^2 (1 + |x|^2)^2 / (|F0|^2 + |F1|^2)^2 at
    x = (re, im), a Gaussian rational, exactly."""
    def value(coeffs):  # ascending in z, by Horner
        re = im = F(0)
        for c in reversed(coeffs):
            re, im = re * x[0] - im * x[1] + c, re * x[1] + im * x[0]
        return re, im

    f0, f1 = Poly(fmap.lift.a[::-1]), Poly(fmap.lift.b[::-1])
    w = value((f0.derivative() * f1 - f0 * f1.derivative()).coeffs)
    (a0, b0), (a1, b1) = value(f0.coeffs), value(f1.coeffs)
    norm = a0 * a0 + b0 * b0 + a1 * a1 + b1 * b1
    return (w[0] ** 2 + w[1] ** 2) * (1 + x[0] ** 2 + x[1] ** 2) ** 2 / norm**2


def log_fsharp(fmap, x) -> float:
    sq = fsharp_squared(fmap, x)
    return (math.log(sq.numerator) - math.log(sq.denominator)) / 2


# f = 3 10^30 z^2 + 3 peaks near i 10^-15, where f(z) is near 0, at about 6e15;
# a 384-point grid put sup f^# at e^31.24 +- 0.05, below f^#(10^-15) = e^32.72
WIDE = ("(10^30 z^2+1)/(1/3)", new_map(2, (10**30, 0, 1), (0, 0, F(1, 3))), ())
ENCLOSURE_CASES = BOUND_CASES + [WIDE]


@pytest.mark.parametrize("label,fmap,periods", ENCLOSURE_CASES,
                         ids=[c[0] for c in ENCLOSURE_CASES])
def test_lipschitz_data_encloses_the_sup(label, fmap, periods):
    fmap = fresh(fmap)
    value, err = lipschitz_data(fmap, Place.arch()).log_m1.to_float()
    lo, hi = value - err, value + err
    # the enclosure spans the certified [floor, upper] of the map's own search
    search = _arch_lipschitz(fmap)
    assert search.upper == search.bound()
    assert lo <= math.log(search.floor()) and math.log(search.upper) <= hi, label
    # f^# at best's centre, exactly: the floor is below it and the upper bound above
    ci, c = search.best_at
    x = (F(c.real), F(c.imag))
    if ci:  # the chart (1, w): the point is z = 1/w
        x = (x[0] / (x[0] ** 2 + x[1] ** 2), -x[1] / (x[0] ** 2 + x[1] ** 2))
    at_c = fsharp_squared(fmap, x)
    assert F(search.floor()) ** 2 <= at_c <= search.upper**2, label
    # every value of f^# lies below the sup
    for point in ((F(1, 10**15), F(0)), (F(1, 2), F(-1, 3))):
        assert log_fsharp(fmap, point) <= hi, (label, point)
    grid, _ = sup_chordal_grid(fmap, 96)
    assert math.log(grid) <= hi, label
    if label != WIDE[0]:  # the grid never sees WIDE's peak
        assert lo <= math.log(grid), label
    # the engine's lazy search, resumed, stops where a fresh full one does
    warm = fresh(fmap)
    cycle_polynomial(warm, 4)
    assert lipschitz_data(warm, Place.arch()) == lipschitz_data(fmap, Place.arch()), label


def test_lipschitz_data_domain():
    t, one, zero = RatFunc.t(), RatFunc.const(1), RatFunc.const(0)
    with pytest.raises(ValueError):
        lipschitz_data(new_map(2, (one, zero, t), (zero, zero, one)), Place.arch())
    # a coefficient range the search cannot take into floats
    with pytest.raises(ResourceLimit):
        lipschitz_data(poly_map(1, 0, 10**400), Place.arch())


def test_finished_search_keeps_no_boxes():
    # a caller satisfied by the search's last pair leaves no suspended heap
    # behind: the search is done, whatever the caller asks next
    prim = primitive_lift(poly_map(1, 0, F(1, 2)))
    cofactors = heights._bezout_cofactors(prim.lift, prim.res)
    search = LipschitzSearch(prim.lift, prim.res, cofactors)
    lip = search.bound(lambda upper, best: upper <= best * (1 + lyapunov._LIP_RTOL))
    assert search._steps is None
    assert lip == LipschitzSearch(prim.lift, prim.res, cofactors).bound()


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
