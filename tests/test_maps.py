import math
import random
from fractions import Fraction as F

import pytest

from dynlyap.algebra import Poly, RatFunc, poly_gcd
from dynlyap.errors import ArchimedeanPlace, DegenerateMap, ResourceLimit
from dynlyap.maps import (
    HomLift,
    Mobius2,
    abs_resultant,
    conjugate,
    critical_divisor,
    cycle_multiplier,
    fixed_point_divisor,
    iterate_lift,
    minimal_lift,
    multiplier_rational_function,
    new_map,
    primitive_lift,
    resultant_of_lift,
)
from dynlyap.budget import Budget
from dynlyap.places import Place, local_abs
import oracles
from oracles import lift_resultant


def poly_map(*coeffs_desc):
    """z^d polynomial map from descending coefficients."""
    d = len(coeffs_desc) - 1
    b = [0] * d + [1]
    return new_map(d, coeffs_desc, b)


Z2 = lambda: poly_map(1, 0, 0)
BAS = lambda: poly_map(1, 0, -1)


def random_map(rng, d=2):
    while True:
        cs = [F(rng.randint(-3, 3)) for _ in range(2 * d + 2)]
        try:
            return new_map(d, cs[: d + 1], cs[d + 1 :])
        except (DegenerateMap, ValueError):
            continue


class TestConstruction:
    def test_spec_examples(self):
        assert Z2().resultant == 1
        with pytest.raises(DegenerateMap):
            new_map(2, (1, 0, 0), (0, 1, 0))  # common factor Z
        assert new_map(2, (2, 0, 1), (0, 0, 2)).resultant == 16

    @pytest.mark.parametrize("bad", [0.5, 1e30, complex(1, 2), "1/2", None])
    def test_inexact_coefficients_are_rejected(self, bad):
        # a float reached the exact paths and failed there with an AttributeError
        with pytest.raises(ValueError, match="not an int, a Fraction or a RatFunc"):
            new_map(2, (1, 0, 1), (0, 0, bad))
        t = RatFunc.t()
        with pytest.raises(ValueError, match="not an int, a Fraction or a RatFunc"):
            new_map(2, (bad, 0, t), (0, 0, 1))

    def test_lift_resultants(self):
        assert new_map(2, (1, 0, 1), (0, 1, 0)).resultant == 1
        t = RatFunc.t()
        assert new_map(2, (1, 0, t), (0, 0, 1)).resultant == RatFunc.const(1)

    def test_resultant_scaling_law(self):
        rng = random.Random(2)
        for _ in range(10):
            fm = random_map(rng)
            alpha = F(rng.randint(1, 5), rng.randint(1, 5))
            assert resultant_of_lift(fm.lift.scale(alpha)) == alpha ** (2 * fm.d) * fm.resultant


def random_coeff(rng, base):
    """A nonzero coefficient: a small rational, or over Q(t) a ratio of linear polynomials."""
    q = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    if base == "Q":
        return q
    t = RatFunc.t()
    return (q + rng.randint(-2, 2) * t) / (1 + rng.randint(0, 1) * t)


# which leading coefficients a[0], b[0] (of z^d in F0(z, 1), F1(z, 1)) vanish
SHAPES = ("full", "F0 drops", "F1 drops", "both drop", "zero row")


def shaped_lift(rng, d, base, shape):
    rows = [[random_coeff(rng, base) if rng.random() < 0.8 else random_coeff(rng, base) * 0
             for _ in range(d + 1)] for _ in range(2)]
    for i, row in enumerate(rows):
        row[0] = random_coeff(rng, base)
        if shape == "both drop" or shape == ("F0 drops", "F1 drops")[i]:
            drop = rng.randint(1, d)  # the degree falls to d - drop or below
            row[:drop] = [row[0] * 0] * drop
    if shape == "zero row":
        rows[rng.randint(0, 1)] = [rows[0][0] * 0] * (d + 1)
    return HomLift(d, tuple(rows[0]), tuple(rows[1]))


class TestResultantOfLift:
    @pytest.mark.parametrize("base", ["Q", "Q(t)"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_sylvester_oracle(self, d, base):
        rng = random.Random(f"{d}{base}")
        for shape in SHAPES:
            for _ in range(6 if base == "Q" else 2):
                lift = shaped_lift(rng, d, base, shape)
                res = resultant_of_lift(lift)
                assert res == lift_resultant(lift), (shape, lift)
                if shape in ("both drop", "zero row"):
                    assert not res

    def test_dropped_degrees_keep_the_sign(self):
        # (X Y, Y^2) share the root (1 : 0); Res(Y, X) = -1, Res(Y^2, X^2) = 1
        assert resultant_of_lift(HomLift(2, (F(0), F(1), F(0)), (F(0), F(0), F(1)))) == 0
        assert resultant_of_lift(HomLift(1, (F(0), F(1)), (F(1), F(0)))) == -1
        assert resultant_of_lift(HomLift(2, (F(0), F(0), F(1)), (F(1), F(0), F(0)))) == 1
        assert resultant_of_lift(HomLift(2, (F(1), F(0), F(0)), (F(0), F(0), F(1)))) == 1


class TestIteration:
    def test_power_map(self):
        it = iterate_lift(Z2().lift, 3)
        assert it.poly0() == Poly.from_ints([0] * 8 + [1])
        assert it.poly1() == Poly.from_ints([1])

    def test_basilica_square(self):
        it = iterate_lift(BAS().lift, 2)
        assert it.poly0() == Poly.from_ints([-1, 0, 1]) ** 2 - Poly.from_ints([1])
        assert it.poly1() == Poly.from_ints([1])

    def test_identity_case(self):
        fm = BAS()
        assert iterate_lift(fm.lift, 1) == fm.lift

    def test_iterates_stay_nondegenerate(self):
        rng = random.Random(4)
        for _ in range(5):
            fm = random_map(rng)
            for n in (2, 3):
                assert resultant_of_lift(iterate_lift(fm.lift, n))

    def test_budget_cap(self):
        fm = random_map(random.Random(1))
        with pytest.raises(ResourceLimit):
            iterate_lift(fm.lift, 11, Budget())
        with pytest.raises(ResourceLimit):
            iterate_lift(fm.lift, 7, Budget(max_total_bits=64))


class TestDivisors:
    def test_fixed_point_divisors(self):
        fd = fixed_point_divisor(Z2(), 1)
        assert fd.affine_poly == Poly.from_ints([0, -1, 1])
        assert fd.mult_infinity == 1
        fd2 = fixed_point_divisor(BAS(), 1)
        assert fd2.affine_poly == Poly.from_ints([-1, -1, 1])

    def test_ff_period_two_factorization(self):
        t = RatFunc.t()
        one = RatFunc.const(1)
        fm = new_map(2, (1, 0, t), (0, 0, 1))
        fd = fixed_point_divisor(fm, 2)
        assert fd.affine_poly == Poly([t + 1, one, one]) * Poly([t, -one, one])
        assert fd.mult_infinity == 1

    def test_degree_bookkeeping(self):
        rng = random.Random(9)
        for _ in range(8):
            fm = random_map(rng)
            for n in (1, 2, 3):
                fd = fixed_point_divisor(fm, n)
                assert fd.total_degree() == fm.d**n + 1

    def test_critical_divisor(self):
        cd = critical_divisor(Z2().lift)
        assert cd.affine_poly == Poly.from_ints([0, 4])
        assert cd.mult_infinity == 1
        assert cd.leading_coeff == 4
        assert cd.total_degree() == 2
        rng = random.Random(12)
        for _ in range(8):
            fm = random_map(rng, d=rng.choice([2, 3]))
            assert critical_divisor(fm.lift).total_degree() == 2 * fm.d - 2


class TestMultiplierFunction:
    def test_spec_examples(self):
        a, b = multiplier_rational_function(Z2(), 2)
        assert a == Poly.from_ints([0, 0, 0, 4]) and b == Poly.from_ints([1])
        a, b = multiplier_rational_function(BAS(), 1)
        assert a == Poly.from_ints([0, 2]) and b == Poly.from_ints([1])
        inv = new_map(2, (0, 0, 1), (1, 0, 0))  # 1/z^2
        a, b = multiplier_rational_function(inv, 1)
        assert a == Poly.from_ints([-2]) and b == Poly.from_ints([0, 0, 0, 1])


class TestConjugation:
    def test_diagonal_normalizes_isotrivial(self):
        t = RatFunc.t()
        fm = new_map(2, (t, 0, 0), (0, 0, 1))  # t z^2
        m = Mobius2(t, RatFunc.const(0), RatFunc.const(0), RatFunc.const(1))
        g = conjugate(fm, m)
        lam = g.lift.poly0().lc()
        assert g.lift.poly0() == Poly([lam * 0, lam * 0, lam])
        assert g.lift.poly1() == Poly([lam])

    def test_translation(self):
        fm = poly_map(1, 0, 2)
        g = conjugate(fm, Mobius2(F(1), F(1), F(0), F(1)))  # z -> z + 1
        sc = g.lift.poly1().lc()
        assert g.lift.poly0().scale(1 / sc) == Poly.from_ints([4, -2, 1])

    def test_identity(self):
        fm = Z2()
        g = conjugate(fm, Mobius2(F(1), F(0), F(0), F(1)))
        assert g.lift.poly0().monic() == fm.lift.poly0().monic()


def seeded_maps(base, count, seed):
    """Nondegenerate maps over the base field with some zero coefficients,
    d = 2 and 3 over Q, d = 2 over Q(t)."""
    rng = random.Random(f"{seed}{base}")
    maps = []
    while len(maps) < count:
        d = rng.choice((2, 3)) if base == "Q" else 2
        cs = [random_coeff(rng, base) if rng.random() < 0.7 else 0 for _ in range(2 * d + 2)]
        try:
            maps.append(new_map(d, cs[: d + 1], cs[d + 1 :]))
        except DegenerateMap:
            continue
    return maps


def row_cases():
    t = RatFunc.t()
    return [
        ("1/z^2", new_map(2, (0, 0, 1), (1, 0, 0)), 3),
        ("(z+t)/z^2", new_map(2, (0, 1, t), (1, 0, 0)), 3),  # infinity on a 2-cycle
        ("(z^2+t)/(2tz)", new_map(2, (1, 0, t), (0, 2 * t, 0)), 2),
        *((f"Q-{i}", fm, 3) for i, fm in enumerate(seeded_maps("Q", 8, 5))),
        *((f"Q(t)-{i}", fm, 2) for i, fm in enumerate(seeded_maps("Q(t)", 4, 5))),
    ]


ROW_CASES = row_cases()


def coprime(a, b):
    """gcd(a, b) = 1.  Over Q(t), where the RatFunc Euclid takes minutes
    past n = 2, it is shown at a point t0 that is no pole and keeps both
    degrees: there Res_z(a, b) specializes to Res_z(a(t0), b(t0)) != 0."""
    if not any(isinstance(c, RatFunc) for c in a.coeffs + b.coeffs):
        return poly_gcd(a, b).degree <= 0
    for t0 in map(F, range(1, 20)):
        if any(c.den.evaluate(t0) == 0 for p in (a, b) for c in p.coeffs):
            continue
        at = [Poly([c.evaluate(t0) for c in p.coeffs]) for p in (a, b)]
        if [x.degree for x in at] == [a.degree, b.degree] and poly_gcd(*at).degree <= 0:
            return True
    return False
# adj M of the last has content 2, so M o (F o adj M) composes a non-primitive inner lift
MOBIUS = [Mobius2(F(1), F(1), F(0), F(1)), Mobius2(F(2), F(-1), F(1), F(3)), Mobius2(0, 1, 1, 0),
          Mobius2(F(2), F(4), F(0), F(6))]


class TestRowBackedStack:
    """The iterates, fixed points, multiplier functions and conjugates
    composed on integer rows equal the base-field composition of
    ``oracles.compose_lifts`` exactly, dropped degrees and infinity included."""

    @pytest.mark.parametrize("label,fm,n_max", ROW_CASES, ids=[c[0] for c in ROW_CASES])
    def test_iterates_and_fixed_points(self, label, fm, n_max):
        for n in range(1, n_max + 1):
            want = oracles.iterate_lift(fm.lift, n)
            assert iterate_lift(fm.lift, n) == want
            assert fm.iterate_lift_cached(n) == want
            assert fm.iterate_lift_cached(n) is fm._iterates[n]
            fd = fixed_point_divisor(fm, n)
            assert (fd.affine_poly, fd.mult_infinity) == oracles.fixed_point_poly(fm, n)

    @pytest.mark.parametrize("label,fm,n_max", ROW_CASES, ids=[c[0] for c in ROW_CASES])
    def test_multiplier_function(self, label, fm, n_max):
        # A / B = (num' den - num den') / den^2 in lowest terms, B monic
        for n in range(1, n_max + 1):
            want = oracles.iterate_lift(fm.lift, n)
            num, den = want.poly0(), want.poly1()
            a, b = multiplier_rational_function(fm, n)
            assert a * den * den == b * (num.derivative() * den - num * den.derivative())
            assert b.lc() == 1 and coprime(a, b)

    @pytest.mark.parametrize("label,fm,n_max", ROW_CASES, ids=[c[0] for c in ROW_CASES])
    def test_conjugate(self, label, fm, n_max):
        t = RatFunc.t()
        mobs = MOBIUS + ([Mobius2(t, 0, 1, t + 1), Mobius2(t * t, 0, t, t * t + t)]
                         if fm.base != "Q" else [])
        for m in mobs:
            g = conjugate(fm, m)
            assert g.lift == oracles.conjugate_lift(fm.lift, m) and g.base == fm.base
            assert g.budget is fm.budget

    PARITY_CASES = ROW_CASES[:4] + ROW_CASES[-2:] + [
        ("6z^2+10", new_map(2, (6, 0, 10), (0, 0, 6)), 0),
        ("t(z^2+t)", new_map(2, (RatFunc.t(), 0, RatFunc.t() ** 2), (0, 0, RatFunc.t())), 0),
    ]

    @pytest.mark.parametrize("bits", [40, 120, 400, 2000])
    @pytest.mark.parametrize("label,fm,n_max", PARITY_CASES, ids=[c[0] for c in PARITY_CASES])
    def test_budget_parity(self, label, fm, n_max, bits):
        # iterate_lift and lift_rows count the bits of the same primitive
        # rows, so one budget stops both at the same period, also for a lift
        # with a content
        from dynlyap.bivariate import lift_rows

        budget = Budget(max_total_bits=bits)
        own = new_map(fm.d, fm.lift.a, fm.lift.b, budget)

        def first_trip(step):
            for n in range(1, 8):
                try:
                    step(n)
                except ResourceLimit:
                    return n
            return None

        got = first_trip(lambda n: iterate_lift(fm.lift, n, budget))
        assert got == first_trip(lambda n: lift_rows(own, n))
        assert got == first_trip(own.iterate_lift_cached)


class TestMinimalLifts:
    def test_clear_denominators(self):
        fm = poly_map(1, 0, F(1, 2))
        fl = minimal_lift(fm.lift, Place.prime(2))
        assert fl.a == (F(2), F(0), F(1)) and fl.b == (F(0), F(0), F(2))

    def test_already_minimal(self):
        fm = Z2()
        assert minimal_lift(fm.lift, Place.prime(5)) == fm.lift

    def test_ff_scaling(self):
        t = RatFunc.t()
        fm = new_map(2, (t, 0, 0), (0, 0, t))
        fl = minimal_lift(fm.lift, Place.ff_point(0))
        assert fl.a[0] == RatFunc.const(1) and fl.b[2] == RatFunc.const(1)

    def test_arch_rejected(self):
        with pytest.raises(ArchimedeanPlace):
            minimal_lift(Z2().lift, Place.arch())

    def test_abs_resultant(self):
        fm = poly_map(1, 0, F(1, 2))
        r = abs_resultant(fm, Place.prime(2))
        assert r.is_exact() and r.q == -4 and r.base == 2
        assert abs_resultant(fm, Place.prime(3)).q == 0
        assert abs_resultant(Z2(), Place.prime(7)).q == 0

    def test_abs_resultant_support_is_finite(self):
        # nonzero only at primes dividing the numbers appearing in Res/coeffs
        fm = poly_map(1, 0, F(3, 4))
        nontrivial = [p for p in (2, 3, 5, 7, 11, 13) if abs_resultant(fm, Place.prime(p)).q != 0]
        assert set(nontrivial) <= {2, 3}

    def test_abs_resultant_is_that_of_the_minimal_lift(self):
        # v(Res F_min) from v(Res F) against the resultant of F_min itself,
        # at every prime dividing Res(F) or a coefficient of a scaled lift
        rng = random.Random(31)
        for _ in range(8):
            fm = random_map(rng, d=rng.choice([2, 3]))
            alpha = F(rng.choice([2, 3, 5, 12]), rng.choice([1, 7, 10]))
            g = new_map(fm.d, fm.lift.scale(alpha).a, fm.lift.scale(alpha).b)
            nums = [g.resultant.numerator, g.resultant.denominator, alpha.numerator,
                    alpha.denominator, *(c.numerator for c in g.lift.a + g.lift.b)]
            for p in (2, 3, 5, 7, 11, 13):
                if any(n % p == 0 for n in nums if n):
                    v = Place.prime(p)
                    assert abs_resultant(g, v) == local_abs(
                        resultant_of_lift(minimal_lift(g.lift, v)), v), (g.lift, p)

    def test_abs_resultant_at_function_field_places(self):
        t = RatFunc.t()
        one = RatFunc.const(1)
        # t^2 (z^2 + 1/t) / (t z): poles and zeros of the coefficients at t = 0 and t = inf
        fm = new_map(2, (t * t, one * 0, t), (one * 0, t * t * t, one * 0))
        for v in (Place.ff_point(0), Place.ff_infinity(), Place.ff_point(1)):
            expect = local_abs(resultant_of_lift(minimal_lift(fm.lift, v)), v)
            assert abs_resultant(fm, v) == expect
        assert abs_resultant(fm, Place.ff_point(0)).q != 0


class TestCycleMultiplier:
    def test_fixed_points(self):
        assert cycle_multiplier(Z2(), (F(1), F(0)), 1) == 0  # infinity
        assert cycle_multiplier(Z2(), (F(1), F(1)), 1) == 2

    def test_superattracting_two_cycle(self):
        assert cycle_multiplier(BAS(), (F(0), F(1)), 2) == 0

    def test_cycle_through_infinity(self):
        inv = new_map(2, (0, 0, 1), (1, 0, 0))  # 1/z^2: f^2 = z^4
        assert cycle_multiplier(inv, (F(0), F(1)), 2) == 0
        fm = new_map(2, (1, 0, 1), (0, 1, 0))  # (z^2+1)/z, infinity fixed
        assert cycle_multiplier(fm, (F(1), F(0)), 1) == 1


class TestPerMap:
    """Objects derived from a map are computed once per map (``per_map``)."""

    @staticmethod
    def derived(fm, ff):
        from dynlyap import bivariate, heights, multipliers

        calls = [
            (bivariate.primitive_rows, ()), (bivariate.lift_rows, (2,)),
            (bivariate.fixed_rows, (2,)), (multipliers.dynatomic_divisor, (2,)),
            (multipliers.cycle_polynomial, (2,)),
            (multipliers.fixstar_multiplier_charpoly, (2,)),
            (multipliers.charpoly_multipliers_full, (2,)),
        ]
        if ff:
            return calls + [(heights._ff_northcott_bound, ())]
        return calls + [
            (primitive_lift, ()), (multipliers._arch_lipschitz, ()),
            (multipliers._reduced_resultant, ()), (heights._map_sup_t_bound, ()),
            (heights._unit_cofactors, ()), (heights._northcott_bound, ()),
        ]

    @pytest.mark.parametrize("ff", [False, True], ids=["Q", "Q(t)"])
    def test_second_call_returns_the_same_object(self, ff):
        t = RatFunc.t()
        fm = new_map(2, (1, 0, t), (0, 0, 1)) if ff else new_map(2, (1, 0, F(1, 2)), (0, 0, 1))
        for fn, args in self.derived(fm, ff):
            first = fn(fm, *args)
            assert fn(fm, *args) is first, fn.__name__

    def test_an_exception_is_not_kept(self):
        from dynlyap import bivariate

        # z^2 + 5/3: the rows of G^(2) need 24 bits, those of G^(3) need 86
        fm = new_map(2, (1, 0, F(5, 3)), (0, 0, 1), budget=Budget(max_total_bits=64))
        for _ in range(2):
            with pytest.raises(ResourceLimit):
                bivariate.lift_rows(fm, 3)
        assert ("lift_rows", 2) in fm._iterates and ("lift_rows", 3) not in fm._iterates

    def test_primitive_lift_is_the_primitive_rows(self):
        # one primitive lift: s F over Q has the coefficients of G from the rows
        from dynlyap.bivariate import primitive_rows

        rng = random.Random(14)
        for _ in range(30):
            d = rng.choice((2, 3))
            cs = [F(rng.randint(-6, 6), rng.randint(1, 6)) * F(rng.randint(1, 9), rng.randint(1, 9))
                  for _ in range(2 * d + 2)]
            try:
                fm = new_map(d, cs[: d + 1], cs[d + 1 :])
            except DegenerateMap:
                continue
            prim = primitive_lift(fm)
            g0, g1, lam = primitive_rows(fm)
            assert all(c.denominator == 1 for c in prim.lift.a + prim.lift.b)
            # rows ascend in z and are trimmed; the lift's rows descend
            rows = [(list(g) + [[]] * (d + 1 - len(g)))[::-1] for g in (g0, g1)]
            ints = [c.numerator for c in prim.lift.a + prim.lift.b]
            assert ints == [r[0] if r else 0 for part in rows for r in part]
            assert math.gcd(*ints) == 1 and prim.scale > 0
            assert prim.scale == 1 / lam and prim.res == abs(fm.resultant) * prim.scale ** (2 * d)
