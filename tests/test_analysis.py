import io
import json
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest

import oracles
from dynlyap import bivariate
from dynlyap.algebra import RatFunc
from dynlyap.analysis import (
    CERTIFIED_NON_ISOTRIVIAL,
    CONSISTENT_ISOTRIVIAL_OR_AFFINE,
    crit_height_multiplier_estimate,
    crit_height_series,
    degeneration_slope,
    ff_degree_sequence,
    global_consistency,
    isotriviality_report,
)
from dynlyap.cli import run
from dynlyap.errors import DegenerateMap, PoleOutsideCenter
from dynlyap.mapio import format_coefficient
from dynlyap.heights import canonical_height
from dynlyap.maps import new_map
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


def tpoly_map(*coeffs_desc):
    d = len(coeffs_desc) - 1
    one = RatFunc.const(1)
    return new_map(d, coeffs_desc, [RatFunc.const(0)] * d + [one])


class TestCritHeightEstimates:
    def test_spec_values(self):
        bas = poly_map(1, 0, -1)
        z2 = poly_map(1, 0, 0)
        assert crit_height_multiplier_estimate(bas, 2).value == 0.0
        assert abs(crit_height_multiplier_estimate(bas, 1).value - math.log(4) / 3) < 1e-12
        assert abs(crit_height_multiplier_estimate(z2, 2).value - math.log(2)) < 1e-12

    def test_full_variant(self):
        z2 = poly_map(1, 0, 0)
        # Lambda_1(z^2) = [0:0:2:1]: height log 2, weight 1/(1*(2+1))
        est = crit_height_multiplier_estimate(z2, 1, variant="full")
        assert abs(est.value - math.log(2) / 3) < 1e-12

    def test_nonnegative(self):
        rng = random.Random(21)
        for _ in range(5):
            fm = random_map(rng)
            for n in (1, 2, 3):
                assert crit_height_multiplier_estimate(fm, n).value >= 0

    def test_series_report(self):
        rep = crit_height_series(poly_map(1, 0, -1), 3)
        assert rep.direct.exact == 0
        assert rep.gaps[1] == 0.0
        assert [e.n for e in rep.entries] == [1, 2, 3]


class TestFFGrowth:
    def test_z2_plus_t(self):
        t = RatFunc.t()
        fm = new_map(2, (1, 0, t), (0, 0, 1))
        rep = ff_degree_sequence(fm, 3)
        assert rep.entries[0].degree == 1 and rep.entries[0].normalized == F(1, 3)
        assert rep.entries[1].degree == 2 and rep.entries[1].normalized == F(1, 2)
        assert rep.h_crit.exact == F(1, 2)
        assert all(e.inequality_holds for e in rep.entries)
        assert rep.classification == CERTIFIED_NON_ISOTRIVIAL

    def test_isotrivial_families(self):
        t = RatFunc.t()
        assert isotriviality_report(new_map(2, (t, 0, 0), (0, 0, 1)), 3) == CONSISTENT_ISOTRIVIAL_OR_AFFINE
        const_map = new_map(2, (RatFunc.const(1), RatFunc.const(0), RatFunc.const(-1)),
                            (0, 0, RatFunc.const(1)))
        assert isotriviality_report(const_map, 3) == CONSISTENT_ISOTRIVIAL_OR_AFFINE
        assert all(e.degree == 0 for e in ff_degree_sequence(new_map(2, (t, 0, 0), (0, 0, 1)), 4).entries)


class TestDegenerationSlope:
    def test_pole_family(self):
        t = RatFunc.t()
        inv_t = RatFunc.const(1) / t
        fm = new_map(2, (RatFunc.const(1), RatFunc.const(0), inv_t), (0, 0, RatFunc.const(1)))
        rep = degeneration_slope(fm, Place.ff_point(0), 2)
        assert rep.alphas == ((1, F(1, 3)), (2, F(1, 2)))
        assert rep.extrapolated == F(1, 2)

    def test_regular_family_zero_slope(self):
        t = RatFunc.t()
        fm = new_map(2, (1, 0, t), (0, 0, 1))
        rep = degeneration_slope(fm, Place.ff_point(0), 3)
        assert all(a == 0 for _, a in rep.alphas)

    def test_pole_outside_center(self):
        t = RatFunc.t()
        inv_t = RatFunc.const(1) / t
        fm = new_map(2, (RatFunc.const(1), RatFunc.const(0), inv_t), (0, 0, RatFunc.const(1)))
        with pytest.raises(PoleOutsideCenter):
            degeneration_slope(fm, Place.ff_point(1), 2)

    def test_alphas_nonnegative(self):
        t = RatFunc.t()
        fm = new_map(2, (t, RatFunc.const(1), RatFunc.const(1) / t), (0, 0, RatFunc.const(1)))
        rep = degeneration_slope(fm, Place.ff_point(0), 3)
        assert all(a >= 0 for _, a in rep.alphas)


def gauss_lemma_maps():
    """(name, map factory, n_max, slope centers) for the p_{d,n} readers;
    a factory, so each path starts from empty caches."""
    t, one, zero = RatFunc.t(), RatFunc.const(1), RatFunc.const(0)
    inf, origin = Place.ff_infinity(), Place.ff_point(0)
    cases = [
        ("z^2+t", lambda: new_map(2, (one, zero, t), (zero, zero, one)), 4, (inf, origin)),
        ("z^2+1/t", lambda: new_map(2, (one, zero, one / t), (zero, zero, one)), 4, (origin,)),
        ("(z^2+t)/z", lambda: new_map(2, (one, zero, t), (zero, one, zero)), 3, (inf, origin)),
        ("(z+t)/z^2", lambda: new_map(2, (zero, one, t), (one, zero, zero)), 2, (inf,)),
        ("(z-t)^2+t", lambda: new_map(2, (one, -2 * t, t * t + t), (zero, zero, one)), 3, (inf,)),
    ]
    rng = random.Random(31)
    for i in range(3):
        c = zero
        while c.is_constant():
            c = sum((t**k * rng.randint(-3, 3) for k in range(3)), zero)
        cases.append((f"z^2+c_{i}(t)", lambda c=c: new_map(2, (one, zero, c), (zero, zero, one)),
                      3, (inf, Place.ff_point(rng.randint(-2, 2)))))
    return cases


class TestGaussLemmaReaders:
    """ff_degree_sequence and degeneration_slope read p_{d,n}; the oracles
    read every sigma*_{j,n} of q_n = p_{d,n}^n."""

    @pytest.mark.parametrize("name,make,n_max,centers", gauss_lemma_maps(),
                             ids=[c[0] for c in gauss_lemma_maps()])
    def test_equals_q_n_oracle(self, name, make, n_max, centers):
        got, want = ff_degree_sequence(make(), n_max), oracles.ff_degree_sequence(make(), n_max)
        assert got.entries == want.entries
        assert got.classification == want.classification
        assert got.h_crit == want.h_crit
        for center in centers:
            got, want = degeneration_slope(make(), center, n_max), \
                oracles.degeneration_slope(make(), center, n_max)
            assert got.alphas == want.alphas and got.extrapolated == want.extrapolated

    def test_isotrivial_conjugate_constant(self):
        t, one, zero = RatFunc.t(), RatFunc.const(1), RatFunc.const(0)
        fm = new_map(2, (one, -2 * t, t * t + t), (zero, zero, one))  # (z - t)^2 + t
        rep = ff_degree_sequence(fm, 3)
        assert all(e.all_sigma_constant and e.degree == 0 for e in rep.entries)
        assert rep.classification == CONSISTENT_ISOTRIVIAL_OR_AFFINE

    def test_pole_outside_center_at_infinity(self):
        t, one, zero = RatFunc.t(), RatFunc.const(1), RatFunc.const(0)
        for slope in (degeneration_slope, oracles.degeneration_slope):
            fm = new_map(2, (one, zero, one / t), (zero, zero, one))
            with pytest.raises(PoleOutsideCenter):
                slope(fm, Place.ff_infinity(), 2)

    def test_cli_never_builds_q_n(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("q_n = p^n was built")

        monkeypatch.setattr(bivariate, "_poly_power", refuse)
        t, one = RatFunc.t(), RatFunc.const(1)
        for c, center in ((t, "t=inf"), (one / t, "t=0")):
            coeffs = [one, one * 0, c, one * 0, one * 0, one]
            text = json.dumps({"d": 2, "a": [format_coefficient(x) for x in coeffs[:3]],
                               "b": [format_coefficient(x) for x in coeffs[3:]]})
            for argv in (["ff-analyze", "--map", text, "--n-max", "4"],
                         ["slope", "--map", text, "--center", center, "--n-max", "4"]):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    assert run(argv) == 0, buf.getvalue()


class TestGlobalConsistency:
    def test_spec_examples(self):
        assert global_consistency(poly_map(1, 0, -1), 2) == 0.0
        assert global_consistency(poly_map(1, 0, 0), 2) < 1e-12
        assert global_consistency(poly_map(1, 0, F(1, 2)), 2) < 1e-12

    def test_random_maps(self):
        rng = random.Random(37)
        for _ in range(6):
            fm = random_map(rng)
            for n in (1, 2, 3):
                assert global_consistency(fm, n) < 1e-10


class TestConvergenceTrend:
    def test_z2_plus_2_gap_shrinks(self):
        fm = poly_map(1, 0, 2)
        oracle = canonical_height(fm, F(0), 1e-11)
        gap = {}
        for n in (2, 6):
            est = crit_height_multiplier_estimate(fm, n)
            gap[n] = abs(est.value - oracle.value)
        assert gap[6] < gap[2]


class TestTruncatedEstimator:
    def test_unbiased_at_bad_and_good_primes(self):
        from dynlyap.analysis import crit_height_truncated_estimate

        fm = poly_map(1, 0, 2)
        oracle = canonical_height(fm, F(0), 1e-11)
        est = crit_height_truncated_estimate(fm, 6)
        assert abs(est.value - oracle.value) < 0.05
        # the naive-height route keeps a bias of -log|d|_2 = log 2 here
        naive = crit_height_multiplier_estimate(fm, 6)
        assert abs(naive.value - oracle.value) > 0.5

    def test_liminf_direction_for_z2_plus_t(self):
        # normalized degree at the largest computed n stays above h_crit - 0.1
        t = RatFunc.t()
        fm = new_map(2, (1, 0, t), (0, 0, 1))
        rep = ff_degree_sequence(fm, 4)
        assert rep.entries[-1].normalized >= F(1, 2) - F(1, 10)
