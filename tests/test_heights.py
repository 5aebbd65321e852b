import math
import random
from fractions import Fraction as F

import pytest

import oracles
from dynlyap import heights
from dynlyap.algebra import Poly, RatFunc
from dynlyap.budget import default_budget
from dynlyap.errors import DegenerateMap, IrrationalCriticalPoint, ResourceLimit
from dynlyap.heights import (
    _SERIES_BITS_CAP,
    _arch_sup_t_bound,
    _ff_northcott_bound,
    _map_sup_t_bound,
    _nonarch_green,
    _northcott_bound,
    _orbit_rows,
    _point_bits,
    _preperiodic,
    _rows_bits,
    _rows_point,
    _series_div,
    bad_places,
    canonical_height,
    critical_height_direct,
    local_green,
    map_height,
    naive_height,
    point_of,
)
from dynlyap.maps import apply_map, new_map, normalize_point
from dynlyap.places import Place


def poly_map(*coeffs_desc):
    d = len(coeffs_desc) - 1
    return new_map(d, coeffs_desc, [0] * d + [1])


def random_map(rng, d=2):
    while True:
        cs = [F(rng.randint(-3, 3)) for _ in range(2 * d + 2)]
        try:
            return new_map(d, cs[: d + 1], cs[d + 1 :])
        except (DegenerateMap, ValueError):
            continue


class TestNaiveHeight:
    def test_spec_examples(self):
        assert abs(naive_height([F(2), F(3)]).value - math.log(3)) < 1e-13
        assert abs(naive_height([F(4), F(6)]).value - math.log(3)) < 1e-13
        t = RatFunc.t()
        assert naive_height([t * t, RatFunc.const(1)]).exact == 2

    def test_scaling_invariance(self):
        rng = random.Random(8)
        for _ in range(30):
            coords = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
            if not any(coords):
                continue
            s = F(rng.randint(1, 7), rng.randint(1, 7))
            h1 = naive_height(coords)
            h2 = naive_height([c * s for c in coords])
            assert abs(h1.value - h2.value) < 1e-13

    def test_map_heights(self):
        assert map_height(poly_map(1, 0, 0)).exact == 0
        assert abs(map_height(poly_map(1, 0, F(1, 2))).value - math.log(2)) < 1e-13
        t = RatFunc.t()
        assert map_height(new_map(2, (1, 0, t), (0, 0, 1))).exact == 1


class TestLocalGreen:
    def test_good_reduction_exact_zero(self):
        g = local_green(poly_map(1, 0, 0).lift, (F(0), F(1)), Place.prime(2))
        assert g.is_exact() and g.q == 0

    def test_spec_bad_prime_value(self):
        # f = z^2 + 1/2 with the 2-minimal lift (2Z^2+W^2, 2W^2): g(0) = -log(2)/2
        fm = new_map(2, (2, 0, 1), (0, 0, 2))
        g = local_green(fm.lift, (F(0), F(1)), Place.prime(2))
        assert g.is_exact() and g.q == F(-1, 2) and g.base == 2

    def test_scaling_law_nonarch(self):
        fm = new_map(2, (2, 0, 1), (0, 0, 2))
        g0 = local_green(fm.lift, (F(0), F(1)), Place.prime(2))
        g1 = local_green(fm.lift.scale(F(4)), (F(0), F(1)), Place.prime(2))
        # g_{alpha F} = g_F + log|alpha|_2 / (d - 1) = g_F - 2 log 2
        assert g1.q == g0.q - 2

    def test_scaling_law_arch(self):
        fm = poly_map(1, 0, -1)
        g0 = local_green(fm.lift, (F(1), F(2)), Place.arch(), 1e-10)
        g1 = local_green(fm.lift.scale(F(3)), (F(1), F(2)), Place.arch(), 1e-10)
        v0, e0 = g0.to_float()
        v1, e1 = g1.to_float()
        assert abs(v1 - v0 - math.log(3)) < 1e-9

    def test_arch_power_map(self):
        # for z^2 the Green function of (Z^2, W^2) is log max(|z|,1) - log||(z,1)||
        g = local_green(poly_map(1, 0, 0).lift, (F(2), F(1)), Place.arch(), 1e-10)
        v, err = g.to_float()
        assert abs(v - (math.log(2) - 0.5 * math.log(5))) < 1e-9
        assert err < 1e-9

    def test_cached_inputs_change_no_value(self):
        # Res(F) handed in, and the archimedean bound kept on the map object
        fm = new_map(2, (F(9, 2), 3, 6), (0, 9, 12))
        for v in (Place.prime(2), Place.prime(3)):
            for pt in ((F(0), F(1)), (F(2), F(5)), (F(1), F(0))):
                assert (local_green(fm.lift, pt, v, resultant=fm.resultant).to_float()
                        == local_green(fm.lift, pt, v).to_float())
        bound = _map_sup_t_bound(fm)
        assert bound == _arch_sup_t_bound(fm.lift, fm.resultant) == fm._iterates[("arch_sup_t",)]

    def test_ff_place_exact(self):
        t = RatFunc.t()
        fm = new_map(2, (1, 0, t), (0, 0, 1))
        # good reduction at t=0
        g = local_green(fm.lift, (RatFunc.const(0), RatFunc.const(1)), Place.ff_point(0))
        assert g.is_exact() and g.q == 0
        # at t=inf the family degenerates; orbit of the critical point 0 escapes
        ginf = local_green(fm.lift, (RatFunc.const(0), RatFunc.const(1)), Place.ff_infinity())
        assert ginf.is_exact()


class TestCanonicalHeight:
    def test_power_map_value(self):
        h = canonical_height(poly_map(1, 0, 0), F(2), 1e-10)
        assert abs(h.value - math.log(2)) < 1e-9
        assert h.err < 1e-9

    def test_preperiodic_exact_zero(self):
        assert canonical_height(poly_map(1, 0, -1), F(0)).exact == 0
        assert canonical_height(poly_map(1, 0, 0), "inf").exact == 0

    def test_strictly_positive_escape(self):
        h = canonical_height(poly_map(1, 0, 2), F(0), 1e-9)
        assert h.value > 0.3 and h.err < 1e-8

    def test_functional_equation(self):
        rng = random.Random(77)
        tol = 1e-8
        for _ in range(6):
            fm = random_map(rng)
            x = F(rng.randint(-6, 6), rng.randint(1, 4))
            pt = point_of(x)
            fx = apply_map(fm, pt)
            h1 = canonical_height(fm, pt, tol)
            h2 = canonical_height(fm, fx, tol)
            assert abs(h2.value - fm.d * h1.value) <= 2 * tol * fm.d + h2.err + fm.d * h1.err

    def test_nonnegative(self):
        rng = random.Random(13)
        for _ in range(6):
            fm = random_map(rng)
            h = canonical_height(fm, F(rng.randint(-4, 4)), 1e-8)
            assert h.value >= -1e-8

    def test_ff_exact_values(self):
        t = RatFunc.t()
        fm = new_map(2, (1, 0, t), (0, 0, 1))
        h = canonical_height(fm, RatFunc.const(0))
        assert h.exact == F(1, 2)
        assert canonical_height(fm, "inf").exact == 0


class TestBadPlaces:
    def test_power_map_has_none(self):
        assert bad_places(poly_map(1, 0, 0)) == []

    def test_half_map(self):
        places = bad_places(poly_map(1, 0, F(1, 2)))
        assert [v.p for v in places] == [2]

    def test_ff_pole_family(self):
        t = RatFunc.t()
        inv_t = RatFunc.const(1) / t
        fm = new_map(2, (RatFunc.const(1), RatFunc.const(0), inv_t), (0, 0, RatFunc.const(1)))
        assert [str(v) for v in bad_places(fm)] == ["t=0"]

    # places pinned before bad_places read them off the primitive lift
    T = RatFunc.t()

    @pytest.mark.parametrize("a,b,want", [
        # t - 1 divides every coefficient; poles at t = 0 and t = -3; Res vanishes at t = -2
        (((T - 1) * (T + 2), 0, (T - 1) / T), (0, 0, (T - 1) / (T + 3)),
         ["t=-3", "t=-2", "t=0", "t=1"]),
        # poles at two points, one of them not an integer
        ((1, 0, 1 / (T * (2 * T - 1))), (0, 0, 1), ["t=0", "t=1/2"]),
        # t^2 divides every coefficient, next to the poles of t^2 / (t - 2)
        ((T * T * (T + 1), 0, T * T / (T - 2)), (0, T * T * (3 * T + 1) / (T - 2), 0),
         ["t=-1", "t=-1/3", "t=0", "t=2"]),
    ])
    def test_ff_shared_factor_and_two_poles(self, a, b, want):
        fm = new_map(2, a, b)
        assert [str(v) for v in bad_places(fm)] == want

    def test_pole_of_the_lift_scale(self):
        # F = (X^2/p, p Y^2) has Res F = 1; the primitive lift (X^2, p^2 Y^2) is
        # bad at p, which only the pole of lam (F = lam G) shows
        fm = new_map(2, (F(1, 3), 0, 0), (0, 0, 3))
        assert fm.resultant == 1
        assert [v.p for v in bad_places(fm)] == [3]
        t = RatFunc.t()
        one, zero = RatFunc.const(1), RatFunc.const(0)
        fm = new_map(2, (one / t, zero, zero), (zero, zero, t))
        assert fm.resultant == 1
        assert [str(v) for v in bad_places(fm)] == ["t=0"]

    def test_ff_pole_off_the_rational_points(self):
        t = RatFunc.t()
        fm = new_map(2, (RatFunc.const(1), RatFunc.const(0), 1 / (t * t + 1)), (0, 0, RatFunc.const(1)))
        with pytest.raises(ResourceLimit):
            bad_places(fm)


class TestCriticalHeight:
    def test_exact_zero_cases(self):
        assert critical_height_direct(poly_map(1, 0, 0)).exact == 0
        assert critical_height_direct(poly_map(1, 0, -1)).exact == 0

    def test_escaping_critical_orbit(self):
        fm = poly_map(1, 0, 2)
        hc = critical_height_direct(fm, 1e-9)
        h0 = canonical_height(fm, F(0), 1e-10)
        assert abs(hc.value - h0.value) < 1e-8  # infinity contributes 0

    def test_ff_value(self):
        t = RatFunc.t()
        fm = new_map(2, (1, 0, t), (0, 0, 1))
        assert critical_height_direct(fm).exact == F(1, 2)

    def test_irrational_critical_points_rejected(self):
        # f = (z^3+1)/(3z): critical polynomial has irrational roots
        fm = new_map(3, (1, 0, 0, 1), (0, 3, 0, 0))
        from dynlyap.maps import critical_divisor
        from dynlyap.algebra import rational_roots

        roots, cof = rational_roots(critical_divisor(fm.lift).affine_poly)
        if cof.degree > 0:
            with pytest.raises(IrrationalCriticalPoint):
                critical_height_direct(fm)


def rational_map(rng, d):
    """Seeded map with p/q coefficients; every third one is a polynomial."""
    poly = rng.random() < 1 / 3
    while True:
        cs = [F(rng.randint(-4, 4), rng.choice((1, 2, 3, 4, 9, 25))) for _ in range(2 * d + 2)]
        if poly:
            cs[d + 1 :] = [0] * d + [F(rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3)))]
        try:
            return new_map(d, cs[: d + 1], cs[d + 1 :])
        except (DegenerateMap, ValueError):
            continue


def greens(cases):
    """_nonarch_green at every (lift, point, place); counts values from rungs below full."""
    inner = heights._nonarch_iterate
    low = []

    def spy(*args):
        out = inner(*args)
        low.append(args[11:] == (False,) and out is not None)
        return out

    heights._nonarch_iterate = spy
    try:
        return [_nonarch_green(fm.lift, pt, v, tol, default_budget(), fm.resultant)
                for fm, pt, v, tol in cases], sum(low)
    finally:
        heights._nonarch_iterate = inner


def ladder_cases():
    rng = random.Random(2024)
    cases = []
    for i in range(12):
        fm = rational_map(rng, 2 + i % 2)
        pts = [(F(1), F(0)), (F(0), F(1))]
        pts += [(F(rng.randint(-30, 30), rng.choice((1, 2, 3, 8, 27))), F(1)) for _ in range(3)]
        for v in bad_places(fm):
            pts.append((F(1, v.p**3), F(1)))  # escapes exactly on polynomial maps
            cases += [(fm, normalize_point(*pt), v, 1e-12) for pt in pts]
    t = RatFunc.t()
    one, zero = RatFunc.const(1), RatFunc.const(0)
    fm = new_map(2, (one, zero, one / t), (zero, zero, one))  # z^2 + 1/t, bad at t = 0
    for x in (zero, one, t, one / t):
        cases.append((fm, (x, one), Place.ff_point(0), 1e-9))
    return cases


class TestPrecisionLadder:
    def test_ladder_equals_full_precision(self, monkeypatch):
        cases = ladder_cases()
        got, from_rungs = greens(cases)
        # the oracle: no rung below (res_val + 1)(n_steps + 2) + 48 digits may answer
        inner = heights._nonarch_iterate
        monkeypatch.setattr(heights, "_nonarch_iterate",
                            lambda *a: None if a[11:] == (False,) else inner(*a))
        want, _ = greens(cases)
        assert got == want
        assert from_rungs > len(cases) // 2
        assert any(g.is_exact() for g in got) and not all(g.is_exact() for g in got)
        assert any(g.is_exact() and g.base is None and g.q for g in got)  # the t = 0 place


    def test_rung_defers_unsettled_escape(self):
        # infinity is fixed and v(b_1) = v(a_0): the escape test fails while r1 = 0
        fm = new_map(2, (1, 0, 2), (0, 1, 1))
        args = (fm.lift, (F(1), F(0)), Place.prime(2), 2, 10, 60, [0, None, 1], [None, 0, 0],
                F(0), 2, 0.0)
        assert heights._nonarch_iterate(*args, False) is None
        assert heights._nonarch_iterate(*args).to_float() == (0.0, 0.0)


def _factors_quickly(n: int) -> bool:
    """True when trial division to 10^4 leaves a cofactor below 10^8, so
    that ``factor_int`` (trial division) ends at once."""
    n = abs(n)
    for p in range(2, 10**4):
        while n % p == 0:
            n //= p
    return n < 10**8


def residue_pass_draws(count):
    """Seeded (map, point, tol) draws: d = 2 and 3, a third of the maps
    polynomial-like, coefficients p/q with |p|, q <= 30; each map with its
    bad primes and eight points (one in eight is infinity)."""
    rng = random.Random(22)
    draws = []
    while len(draws) < count:
        d = rng.choice((2, 3))
        cs = [F(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(2 * d + 2)]
        if rng.random() < 1 / 3:
            cs[d + 1 :] = [0] * d + [F(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))]
        try:
            fm = new_map(d, cs[: d + 1], cs[d + 1 :])
        except (DegenerateMap, ValueError):
            continue
        if not all(_factors_quickly(n) for n in (fm.resultant.numerator, fm.resultant.denominator)):
            continue
        places = bad_places(fm)
        for _ in range(8):
            x = "inf" if rng.random() < 1 / 8 else F(rng.randint(-30, 30), rng.randint(1, 30))
            draws.append((fm, places, point_of(x), rng.choice((1e-6, 1e-9, 1e-12))))
    return draws


def ladder_only(monkeypatch):
    """Only the precision ladder: the F_p orbit pass never settles a value."""
    monkeypatch.setattr(heights, "_orbit_avoids_bad_locus", lambda *args: False)


def count_ladder_calls(monkeypatch):
    calls = []
    inner = heights._nonarch_iterate

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(heights, "_nonarch_iterate", spy)
    return calls


# Two maps whose reduction mod 31 is H.(phi0, phi1) with a linear factor H and
# a Moebius map phi, so that an orbit walks through F_31 before it meets
# the common zero H = 0.  Both have v_31(Res) = 1.
# (z^2 + 30)/(z - 1) = (X - Y)(X + Y, Y) mod 31: z -> z + 1 off the common
# zero z = 1, so the orbit of 25 first meets it at step 7; at step 5
# (z = -1) the image has x = 0 but y != 0.
SHIFT31 = new_map(2, (1, 0, 30), (0, 1, -1))
# (z^2 - z)/(z^2 + 30) = (X - Y)(X, X + Y) mod 31: 1/z -> 1/z + 1, so the
# orbit of -1 goes to infinity, where the image has y = 0 but x != 0, and
# then to the common zero z = 1 at step 2.  Infinity is not fixed.
RECIP31 = new_map(2, (1, -1, 0), (1, 0, 30))


class TestResidueOrbitPass:
    def test_same_value_as_the_ladder(self, monkeypatch):
        draws = residue_pass_draws(2000)
        cases = [(fm, pt, v, tol) for fm, places, pt, tol in draws for v in places]

        def values():
            return [repr(local_green(fm.lift, pt, v, tol, None, fm.resultant))
                    for fm, pt, v, tol in cases]

        inner, settled = heights._orbit_avoids_bad_locus, []
        monkeypatch.setattr(heights, "_orbit_avoids_bad_locus",
                            lambda *args: settled.append(inner(*args)) or settled[-1])
        got = values()
        ladder_only(monkeypatch)
        assert got == values()
        # both outcomes of the pass, exact values and primes above 100 occur
        assert 0.2 < sum(settled) / len(settled) < 0.9
        assert sum("+-" not in g for g in got) > 100  # exact values
        assert any(v.p > 100 for _, _, v, _ in cases)

    def test_escape_guard_keeps_exact_values(self, monkeypatch):
        # (z^2+1)/2 at p = 2: 1/2 and 5/4 reduce to (1 : 0), a fixed point mod 2
        # and no common zero of (X^2 + Y^2, 0); the ladder's escape test there
        # makes their values exact
        fm = new_map(2, (F(1, 2), 0, F(1, 2)), (0, 0, 1))
        got = [local_green(fm.lift, (x, F(1)), Place.prime(2)) for x in (F(1, 2), F(5, 4))]
        assert all(g.is_exact() for g in got)
        ladder_only(monkeypatch)
        assert got == [local_green(fm.lift, (x, F(1)), Place.prime(2)) for x in (F(1, 2), F(5, 4))]

    @pytest.mark.parametrize("fm, x, tol, n_steps, ladder", [
        (SHIFT31, 25, 0.02, 8, True), (SHIFT31, 25, 0.04, 7, False),
        (RECIP31, -1, 0.5, 3, True), (RECIP31, -1, 1.0, 2, False),
    ], ids=["shift-N8", "shift-N7", "recip-N3", "recip-N2"])
    def test_late_first_hit(self, monkeypatch, fm, x, tol, n_steps, ladder):
        # with the larger N the last checked point is the first common zero,
        # and it has x != 0; with one step less the orbit misses it, and the
        # pass settles the value across the step whose image has x = 0 or y = 0
        v, pt = Place.prime(31), (F(x), F(1))
        assert heights._green_steps(math.log(31), 2, tol, 4000, "green") == n_steps
        calls = count_ladder_calls(monkeypatch)
        got = local_green(fm.lift, pt, v, tol)
        assert bool(calls) == ladder
        assert (got.to_float()[0] < 0) == ladder  # the last m_j > 0 enters the ledger
        ladder_only(monkeypatch)
        assert repr(got) == repr(local_green(fm.lift, pt, v, tol))


def ff_orbit_cases():
    """Seeded points of z^2 + c(t) and (z^2 + c(t))/z over Q(t); in half of
    the cases c = x0 - x0^2, so x0 is fixed by z^2 + c and -x0 maps to it."""
    rng = random.Random(2026)
    t, one, zero = RatFunc.t(), RatFunc.const(1), RatFunc.const(0)
    cases = []
    for i in range(8):
        x0 = t * rng.choice((-1, 1, 2)) + rng.randint(-2, 2)
        c = x0 - x0 * x0 if i % 4 < 2 else zero
        while c.is_constant():
            c = sum((t**k * rng.randint(-2, 2) for k in range(3)), zero)
        b = (zero, one, zero) if i % 2 else (zero, zero, one)
        fm = new_map(2, (one, zero, c), b)
        xs = [zero, "inf", x0, -x0, RatFunc.const(rng.randint(-3, 3)),
              t * rng.randint(1, 2) + rng.randint(-2, 2), one / (t + rng.randint(-2, 2))]
        cases.append((fm, [point_of(x, one) for x in xs]))
    return cases


# the answers of the 2^14-bit stop alone, before the t-degree bound existed;
# that stop needs minutes on these points, so its answers are pinned here
F_, T_ = False, True
FF_ORBIT_PINS = [
    [F_, T_, T_, T_, F_, F_, F_],
    [T_, T_, F_, F_, T_, F_, F_],
    [F_, T_, F_, F_, F_, F_, F_],
    [T_, T_, F_, F_, F_, F_, F_],
    [F_, T_, T_, T_, F_, F_, F_],
    [T_, T_, F_, F_, F_, F_, F_],
    [F_, T_, F_, F_, F_, F_, F_],
    [T_, T_, F_, F_, T_, F_, F_],
]


def count_orbit_steps(monkeypatch) -> list:
    """The images f(pt), f^2(pt), ... that ``_preperiodic`` draws from
    ``_orbit_rows``, collected as it runs."""
    steps = []
    inner = heights._orbit_rows

    def counting(fmap, pt):
        orbit = inner(fmap, pt)
        yield next(orbit)
        for cur in orbit:
            steps.append(cur)
            yield cur

    monkeypatch.setattr(heights, "_orbit_rows", counting)
    return steps


class TestNorthcott:
    def test_preperiodic_points_found(self):
        cases = [
            (poly_map(1, 0, 0), (F(0), F(1), F(-1), "inf")),    # z^2: fixed, fixed, preimage, fixed
            (poly_map(1, 0, -3), (F(1), F(-2), F(2), F(-1))),  # the 2-cycle {1, -2}, preimages
            (poly_map(1, 0, -2), (F(2), F(-2), F(0))),          # fixed point 2, preimages
            (new_map(2, (0, 0, 1), (1, 0, 0)), (F(1), F(-1), F(0), "inf")),  # 1/z^2
        ]
        for fm, points in cases:
            for x in points:
                assert _preperiodic(fm, point_of(x)), x
                assert canonical_height(fm, x).exact == 0
        for fm, x in ((poly_map(1, 0, -3), F(3)), (poly_map(1, 0, 0), F(1, 2)),
                      (poly_map(1, 0, -2), F(1, 3))):
            assert not _preperiodic(fm, point_of(x))

    def test_cutoff_stops_early(self, monkeypatch):
        fm = poly_map(1, 0, F(-3, 4))
        steps = count_orbit_steps(monkeypatch)
        assert not _preperiodic(fm, point_of(F(7, 2)))
        assert steps and len(steps) <= 3  # 7/2 -> 23/2 -> 526/4: log 131 > C

    def test_bound_covers_height_gap(self):
        rng = random.Random(99)
        for i in range(10):
            fm = rational_map(rng, 2 + i % 2)
            c = _northcott_bound(fm)
            for _ in range(3):
                x = F(rng.randint(-40, 40), rng.randint(1, 12))
                h = canonical_height(fm, x, 1e-10)
                h2 = 0.5 * math.log(x.numerator**2 + x.denominator**2)
                assert abs(h.value - h2) <= c + h.err, (i, x)

    def test_ff_wandering_orbit_stops_at_the_bound(self, monkeypatch):
        # z^2 + t: e = 1, so the bound is 3; 0 -> t -> t^2 + t -> degree 4
        t, one, zero = RatFunc.t(), RatFunc.const(1), RatFunc.const(0)
        fm = new_map(2, (one, zero, t), (zero, zero, one))
        assert _ff_northcott_bound(fm) == 3
        steps = count_orbit_steps(monkeypatch)
        assert not _preperiodic(fm, point_of(zero, one))
        assert steps and len(steps) <= 4

    def test_ff_fixed_point_below_the_bound(self):
        # z = t is fixed by z^2 + t - t^2
        t, one, zero = RatFunc.t(), RatFunc.const(1), RatFunc.const(0)
        fm = new_map(2, (one, zero, t - t * t), (zero, zero, one))
        assert _preperiodic(fm, point_of(t, one))
        assert _preperiodic(fm, point_of(-t, one))
        assert canonical_height(fm, t).exact == 0

    def test_ff_constant_orbit_takes_the_bit_stop(self, monkeypatch):
        # z^2 + 1 over Q(t): e = 0, and the constant orbit of 0 never passes it
        one, zero = RatFunc.const(1), RatFunc.const(0)
        fm = new_map(2, (one, zero, one), (zero, zero, one))
        assert _ff_northcott_bound(fm) == 0
        bits = []
        inner = heights._point_bits
        monkeypatch.setattr(heights, "_point_bits", lambda p: bits.append(inner(p)) or bits[-1])
        assert not _preperiodic(fm, point_of(zero, one))
        assert bits[-1] > 1 << 14

    def test_ff_bound_agrees_with_the_bit_stop(self):
        got = [[_preperiodic(fm, pt) for pt in pts] for fm, pts in ff_orbit_cases()]
        assert got == FF_ORBIT_PINS

    def test_no_factoring_for_preperiodic_points(self, monkeypatch):
        # z^2/q: Res = q^2, whose primes trial division would take seconds to reach
        q = (10**9 + 7) * (10**9 + 9)
        fm = new_map(2, (1, 0, 0), (0, 0, q))

        def refuse(*_):
            raise ResourceLimit("factoring budget")

        monkeypatch.setattr(heights, "bad_places", refuse)
        for x in (F(0), F(q), "inf"):
            assert canonical_height(fm, x).exact == 0
        with pytest.raises(ResourceLimit):
            canonical_height(fm, F(2))
        assert _northcott_bound(fm) < 2 * math.log(q) + 50


def orbit_pairs():
    """Seeded (map, point) pairs over Q and Q(t) for the orbit test, with
    preperiodic points among them: z^2 - 2 and z^2 - 1 at 0, the poles of
    (a z^2 + b z + c)/(z - r), which map to the fixed point infinity, the
    constant orbits of z^2 + c over Q(t), fixed points x0 of z^2 + c(t)."""
    rng = random.Random(26)
    small = lambda: F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4)))
    pairs = []
    # over Q: a grid of small points on maps with short cycles
    grid = [F(k, q) for k in range(-4, 5) for q in (1, 2)] + ["inf"]
    for c in (0, -1, -2, -3, F(-3, 4), F(1, 4), F(-21, 16)):
        pairs += [(poly_map(1, 0, c), point_of(x)) for x in grid]
    pairs += [(new_map(2, (0, 0, 1), (1, 0, 0)), point_of(x)) for x in grid]  # 1/z^2
    pairs += [(new_map(2, (1, 0, -2), (0, 2, 0)), point_of(x)) for x in grid]  # Newton for z^2 - 2
    while len(pairs) < 560:
        fm = rational_map(rng, rng.choice((2, 3)))
        pairs += [(fm, point_of(x)) for x in (F(0), F(1), F(-1), "inf", small(), small())]
    while len(pairs) < 700:
        r = small()
        a, b, c = (F(rng.randint(-5, 5), rng.choice((1, 2, 3, 5))) for _ in range(3))
        try:
            fm = new_map(2, (a or 1, b, c), (0, 1, -r))
        except (DegenerateMap, ValueError):
            continue
        pairs += [(fm, point_of(r)), (fm, point_of(small()))]
    # over Q(t)
    t, one, zero = RatFunc.t(), RatFunc.const(1), RatFunc.const(0)
    pairs += [(fm, pt) for fm, pts in ff_orbit_cases() for pt in pts]
    for c in (0, 1, -1, -2, F(-3, 4)):  # isotrivial: constant orbits
        fm = new_map(2, (one, zero, one * c), (zero, zero, one))
        pairs += [(fm, point_of(one * x, one)) for x in (0, 1, -1, 2, F(1, 2), F(3, 2))]
        pairs += [(fm, point_of(x, one)) for x in (t, one / t, "inf")]
    while len(pairs) < 1100:
        x0 = t * rng.choice((-2, -1, 1, 2)) + small()
        kind = rng.randrange(3)
        if kind == 0:
            c = x0 - x0 * x0 if rng.random() < 0.5 else t * small() + small() + t * t * small()
            fm = new_map(2, (one, zero, c), (zero, zero, one))
        elif kind == 1:  # z^2 + c(t)/t
            fm = new_map(2, (one, zero, (t * t * small() + t * small() + (small() or one)) / t),
                         (zero, zero, one))
        else:  # (z^2 + c(t))/z
            fm = new_map(2, (one, zero, t * (small() or one) + small()), (zero, one, zero))
        xs = [zero, "inf", x0, -x0, one * small(), t * small() + small(), one / (t + small())]
        pairs += [(fm, point_of(x, one)) for x in xs]
    return pairs


class TestOrbitRows:
    def test_same_answers_and_steps_as_the_field_loop(self, monkeypatch):
        pairs = orbit_pairs()
        assert len(pairs) >= 1000
        field = []
        inner = oracles.apply_map
        monkeypatch.setattr(oracles, "apply_map", lambda f, p: field.append(1) or inner(f, p))
        rows = count_orbit_steps(monkeypatch)
        bits_stops = []
        inner_bits = heights._point_bits
        monkeypatch.setattr(heights, "_point_bits",
                            lambda p: bits_stops.append(inner_bits(p) > 1 << 14) or inner_bits(p))
        got, want = [], []
        for fm, pt in pairs:
            got.append((fm.base, _preperiodic(fm, pt), len(rows)))
            want.append((fm.base, oracles.preperiodic(fm, pt), len(field)))
            rows.clear()
            field.clear()
        assert got == want
        for base in ("Q", "Q(t)"):
            answers = [pre for b, pre, _ in got if b == base]
            assert sum(answers) >= 40 and len(answers) - sum(answers) >= 100, base
        assert sum(bits_stops) >= 10  # the 2^14-bit stop answers some pairs

    def test_one_pair_per_point(self):
        # the coprime rows of (x : 1) and of (x : 1) scaled agree
        t, one = RatFunc.t(), RatFunc.const(1)
        fm = new_map(2, (one, 0, t), (0, 0, one))
        for pt in ((t * 2 + 1, one * 3), ((t * 2 + 1) / 3, one), (-(t * 2 + 1) * t, -t * 3)):
            assert next(_orbit_rows(fm, pt)) == ((1, 2), (3,))
        fm = poly_map(1, 0, -2)
        assert next(_orbit_rows(fm, (F(-4, 6), F(-1)))) == (2, 3)
        assert next(_orbit_rows(fm, (F(-7), F(0)))) == (1, 0)
        # G = (2X^2 + Y^2, 2Y^2) and (X^2 + tY^2, XY) share a content with the
        # images of these points, which each step divides out
        orbit = _orbit_rows(poly_map(1, 0, F(1, 2)), point_of(F(1, 2)))
        assert [next(orbit) for _ in range(3)] == [(1, 2), (3, 4), (17, 16)]
        orbit = _orbit_rows(new_map(2, (one, 0, t), (0, one, 0)), point_of(t, one))
        assert [next(orbit) for _ in range(3)] == [((0, 1), (1,)), ((1, 1), (1,)),
                                                   ((1, 3, 1), (1, 1))]

    def test_rows_bits_bound_the_point_bits(self):
        for fm, pt in orbit_pairs()[::7]:
            for _, cur in zip(range(6), _orbit_rows(fm, pt)):
                exact = _point_bits(_rows_point(cur, fm.base))
                assert _rows_bits(*cur) >= exact, (fm.base, cur)
                if fm.base == "Q":
                    assert _rows_bits(*cur) == exact
        # over Q(t) the bound is reached by constant points and monic rows
        t, one = RatFunc.t(), RatFunc.const(1)
        for x in (one * 5, t + 3, t * t - 2, one * 0, "inf"):
            cur = next(_orbit_rows(poly_map(one, 0, t), point_of(x, one)))
            assert _rows_bits(*cur) == _point_bits(_rows_point(cur, "Q(t)")), x


class TestNaiveHeightRows:
    def test_equals_the_normalized_coordinates(self):
        rng = random.Random(31)
        t = RatFunc.t()
        small = lambda: F(rng.randint(-9, 9), rng.randint(1, 12))
        points = [[F(2), F(3)], [F(4), F(6)], [F(0), F(5, 7)], [3, F(1, 2)], [t * t, 1]]
        for _ in range(300):
            k = rng.randint(2, 5)
            coords = [small() for _ in range(k)]
            if rng.random() < 0.5:  # over Q(t): polynomials over a shared factor
                shared = t * small() + (small() or 1)
                coords = [(c * t * t + small() * t + c) * shared / (t + small()) if c else c
                          for c in coords]
            if any(coords):
                points.append(coords)
        for coords in points:
            assert repr(naive_height(coords)) == repr(oracles.normalized_naive_height(coords)), coords

    def test_map_height_of_the_primitive_lift(self):
        rng = random.Random(32)
        t = RatFunc.t()
        maps = [rational_map(rng, 2 + i % 2) for i in range(20)]
        maps += [fm for fm, _ in ff_orbit_cases()]
        maps.append(new_map(2, (t * t / 3, 0, t - 1), (0, t / (t + 1), 0)))
        for fm in maps:
            want = oracles.normalized_naive_height(list(fm.lift.a) + list(fm.lift.b))
            assert repr(map_height(fm)) == repr(want)


class TestFiniteSeries:
    def test_same_terms_as_the_padded_quotient(self):
        rng = random.Random(33)
        for _ in range(200):
            num = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 6))]
            den = [F(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))]
            den += [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
            prec = rng.randint(1, 12)
            got, want = _series_div(num, den, prec), oracles.series_div(num, den, prec)
            if len(den) == 1:
                assert len(got) == min(len(num), prec)
                got = got + [F(0)] * (prec - len(got))
            assert got == want

    def test_same_greens_as_padded_series(self, monkeypatch):
        rng = random.Random(27)
        t, one, zero = RatFunc.t(), RatFunc.const(1), RatFunc.const(0)
        small = lambda: F(rng.randint(-5, 5), rng.randint(1, 3))
        cases = [(fm, pt, v) for fm, pt, v, _ in ladder_cases() if fm.base == "Q(t)"]
        for i in range(20):  # z^2 + c(t) and z^2 + c(t)/t
            c = t * t * small() + t * (small() or 1) + (small() or 1)
            fm = new_map(2, (one, zero, c / t if i % 2 else c), (zero, zero, one))
            pts = [point_of(x, one) for x in (zero, "inf", one, -one, t, one / t)]
            cases += [(fm, pt, v) for v in bad_places(fm) + [Place.ff_infinity()] for pt in pts]

        def values():
            return [repr(local_green(fm.lift, pt, v, 1e-9)) for fm, pt, v in cases]

        calls = count_ladder_calls(monkeypatch)
        got = values()
        assert len(calls) > 50
        monkeypatch.setattr(heights, "_series_div", oracles.series_div)
        assert got == values()
        assert sum("unit" in g for g in got) > 50  # exact nonzero values


class TestSeriesCap:
    def test_cap_is_a_resource_limit(self, monkeypatch):
        t, one, zero = RatFunc.t(), RatFunc.const(1), RatFunc.const(0)
        fm = new_map(2, (one, zero, one / t), (zero, zero, one))  # z^2 + 1/t, bad at t = 0
        want = critical_height_direct(fm)
        monkeypatch.setattr(heights, "_SERIES_BITS_CAP", 0)
        with pytest.raises(ResourceLimit, match="series Green function at t=0"):
            critical_height_direct(new_map(2, (one, zero, one / t), (zero, zero, one)))
        monkeypatch.setattr(heights, "_SERIES_BITS_CAP", _SERIES_BITS_CAP)
        assert critical_height_direct(new_map(2, (one, zero, one / t), (zero, zero, one))) == want
