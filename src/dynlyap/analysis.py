"""Global estimators and classification-level diagnostics.

Critical-height estimates from multiplier heights, function-field degree
growth and isotriviality classification, degeneration slopes along
one-parameter families, and the exact global consistency identity tying
the height of the multiplier point to the sum of local truncated averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import RatFunc, _clear_fractions, factor_int, period_count, rational_roots, sigma2
from .errors import IrrationalCriticalPoint, PoleOutsideCenter, ResourceLimit
from .heights import HeightValue, critical_height_direct, map_height, naive_height
from .lyapunov import L_n_local
from .maps import RationalMap
from .multipliers import cycle_polynomial, lambda_point, lambda_tilde_point, sigma_star
from .places import Place, LocalLogValue

CERTIFIED_NON_ISOTRIVIAL = "CertifiedNonIsotrivial"
CONSISTENT_ISOTRIVIAL_OR_AFFINE = "ConsistentWithIsotrivialOrAffine"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class CritHeightEntry:
    n: int
    estimate: HeightValue
    via: str  # "tilde" or "full"


@dataclass(frozen=True)
class CritHeightReport:
    entries: tuple
    direct: Optional[HeightValue]
    gaps: tuple  # |estimate_n - direct| when direct is available
    failures: tuple = ()


@dataclass(frozen=True)
class FFGrowthEntry:
    n: int
    degree: int                    # D_n = max_j deg sigma*_{j,n}
    normalized: Fraction           # D_n / (n d_n)
    all_sigma_constant: bool
    inequality_holds: Optional[bool]  # the explicit comparison when h_crit known


@dataclass(frozen=True)
class FFGrowthReport:
    entries: tuple
    h_crit: Optional[HeightValue]
    classification: str


@dataclass(frozen=True)
class DegenerationReport:
    center: Place
    alphas: tuple                 # (n, Fraction alpha_n)
    extrapolated: Fraction        # last computed alpha_n


def crit_height_multiplier_estimate(fmap: RationalMap, n: int, variant: str = "tilde") -> HeightValue:
    """Critical-height estimate from the period-n multiplier point.

    tilde: h(Lambda~_n)/(n d_n) over the formal period-n multipliers;
    full:  h(Lambda_n)/(n (d^n + 1)) over all period-dividing-n multipliers.
    """
    if variant == "tilde":
        point = lambda_tilde_point(fmap, n)
        weight = Fraction(1, n * period_count(fmap.d, n))
    elif variant == "full":
        point = lambda_point(fmap, n)
        weight = Fraction(1, n * (fmap.d**n + 1))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return naive_height(point.coords).scaled(weight)


def crit_height_truncated_estimate(fmap: RationalMap, n: int) -> HeightValue:
    """Critical-height estimate as the sum over places of L_n(f, eps_{d^n,v})_v.

    The naive-height route truncates every finite place at radius 1 and so
    carries a permanent positive bias whenever some local exponent is
    negative (e.g. log|d|_p at primes dividing d).  Summing the truncated
    averages at the eps_{d^n} radii instead keeps those negative parts, and
    is the estimator whose gap to the canonical-height oracle actually
    shrinks with n.
    """
    if fmap.base != "Q":
        raise ValueError("the truncated-sum estimator is implemented over Q")
    from .algebra import is_prime
    from .lyapunov import epsilon_radius

    sigma = sigma_star(fmap, n)
    arch = L_n_local(fmap, n, LocalLogValue.exact(0), Place.arch())
    value, err = arch.value.to_float()
    _, den_lcm = _clear_fractions(sigma)
    support = set(factor_int(den_lcm)) if den_lcm > 1 else set()
    p = 2
    bound = fmap.d**n
    while p <= bound:
        if is_prime(p):
            support.add(p)
        p += 1
    for p in sorted(support):
        v = Place.prime(p)
        est = L_n_local(fmap, n, epsilon_radius(v, fmap.d, n).log_eps, v)
        ev, ee = est.value.to_float()
        value += ev
        err += ee
    return HeightValue(value, err)


def crit_height_series(fmap: RationalMap, n_max: int, tol: float = 1e-9) -> CritHeightReport:
    """Per-n multiplier estimates with the direct critical height when available."""
    entries = []
    failures = []
    for n in range(1, n_max + 1):
        try:
            entries.append(CritHeightEntry(n, crit_height_multiplier_estimate(fmap, n), "tilde"))
        except ResourceLimit as exc:
            failures.append((n, str(exc)))
    direct = None
    try:
        direct = critical_height_direct(fmap, tol)
    except IrrationalCriticalPoint:
        direct = None
    gaps = ()
    if direct is not None:
        gaps = tuple(abs(e.estimate.value - direct.value) for e in entries)
    return CritHeightReport(tuple(entries), direct, gaps, tuple(failures))


def ff_degree_sequence(fmap: RationalMap, n_max: int) -> FFGrowthReport:
    """Exact degree growth D_n of the multiplier symmetric functions.

    The sigma*_{j,n} are the coefficients of q_n = p_{d,n}^n, and every
    place of Q(t) is non-archimedean, so by Gauss's lemma
    D_n = h(Lambda~_n) = n h([coefficients of p_{d,n}]) and
    d_n = n deg p_{d,n}; q_n is never built.  Every sigma* is constant
    exactly when every coefficient of p_{d,n} is: the roots of a q_n over Q
    are algebraic over Q, and Q is algebraically closed in Q(t).

    Also evaluates the explicit inequality
    |D_n/(n d_n) - h_crit| <= 8d(12d^2-8d-3) sigma2(n)/d^n * h_d(f)
    whenever the direct critical height is computable.
    """
    if fmap.base != "Q(t)":
        raise ValueError("degree growth is a function-field diagnostic")
    d = fmap.d
    h_d = map_height(fmap).exact
    try:
        h_crit = critical_height_direct(fmap)
    except IrrationalCriticalPoint:
        h_crit = None
    entries = []
    for n in range(1, n_max + 1):
        p = cycle_polynomial(fmap, n)
        deg = n * naive_height(p.coeffs).exact
        d_n = n * p.degree
        normalized = Fraction(deg, n * d_n)
        constant = all((c.is_constant() if isinstance(c, RatFunc) else True) for c in p.coeffs)
        holds = None
        if h_crit is not None and h_crit.exact is not None:
            radius = Fraction(8 * d * (12 * d * d - 8 * d - 3)) * Fraction(sigma2(n), d**n) * h_d
            holds = abs(normalized - h_crit.exact) <= radius
        entries.append(FFGrowthEntry(n, int(deg), normalized, constant, holds))
    classification = _classify(entries)
    return FFGrowthReport(tuple(entries), h_crit, classification)


def _classify(entries) -> str:
    if all(e.all_sigma_constant for e in entries):
        return CONSISTENT_ISOTRIVIAL_OR_AFFINE
    if any(not e.all_sigma_constant for e in entries) and min(
        e.normalized for e in entries if not e.all_sigma_constant
    ) > 0:
        return CERTIFIED_NON_ISOTRIVIAL
    return INCONCLUSIVE


def isotriviality_report(fmap: RationalMap, n_max: int) -> str:
    """Semi-decision: constancy of every sigma*_{j,n} is necessary for a map
    to be isotrivial or affine; any non-constant value certifies it is
    neither."""
    if n_max < 2:
        raise ValueError("isotriviality scan needs n_max >= 2")
    return ff_degree_sequence(fmap, n_max).classification


def degeneration_slope(fmap: RationalMap, center: Place, n_max: int) -> DegenerationReport:
    """Blow-up slope alpha_n of the truncated Lyapunov average at the center.

    alpha_n = (1/(n d_n)) max_j (-ord_center sigma*_{j,n}); sigma*_0 = 1
    pins the max at >= 0.  The sigma* are the coefficients of
    q_n = p_{d,n}^n, and by Gauss's lemma at the center
    max_j (-ord sigma*_{j,n}) = n max_j (-ord c_j(p_{d,n})), so
    alpha_n = max_j (-ord c_j(p_{d,n})) / (n deg p_{d,n}) is read off
    p_{d,n} without building q_n.  Exact rationals throughout.
    """
    if fmap.base != "Q(t)":
        raise ValueError("degeneration slopes concern Q(t) families")
    if not center.is_function_field():
        raise ValueError("center must be a function-field place")
    if n_max < 1:
        raise ValueError("n_max must be >= 1: the slope is extrapolated from alpha_(n_max)")
    _check_poles_only_at(fmap, center)
    alphas = []
    for n in range(1, n_max + 1):
        p = cycle_polynomial(fmap, n)
        best = max(-center.valuation(c) for c in p.coeffs if c)  # >= 0: p is monic
        alphas.append((n, Fraction(best, n * p.degree)))
    return DegenerationReport(center, tuple(alphas), alphas[-1][1])


def _check_poles_only_at(fmap: RationalMap, center: Place) -> None:
    for c in list(fmap.lift.a) + list(fmap.lift.b):
        if not c or not isinstance(c, RatFunc):
            continue
        if c.den.degree <= 0:
            continue  # no finite poles
        roots, cofactor = rational_roots(c.den)
        if cofactor.degree > 0:
            raise PoleOutsideCenter("coefficient pole at a non-rational point")
        for r, _ in roots:
            if not (center.kind == "ffpoint" and center.a == r):
                raise PoleOutsideCenter(f"coefficient pole at t={r} is away from the center")


def global_consistency(fmap: RationalMap, n: int) -> float:
    """|h(Lambda~_n)/(n d_n) - sum_v L_n(f,1)_v| over Q.

    Both sides compute the height of the multiplier point: the left by
    integer gcd normalization, the right as a per-place ledger (exact
    non-archimedean truncated averages over the finite support set, plus
    the archimedean max-coordinate term).  The identity is exact
    mathematics, so the residual is pure float-aggregation noise.
    """
    if fmap.base != "Q":
        raise ValueError("the consistency identity is implemented over Q")
    sigma = sigma_star(fmap, n)
    lhs = crit_height_multiplier_estimate(fmap, n).value
    _, den_lcm = _clear_fractions(sigma)
    rhs = 0.0
    one_log = LocalLogValue.exact(0)
    for p in sorted(factor_int(den_lcm)) if den_lcm > 1 else []:
        est = L_n_local(fmap, n, one_log, Place.prime(p))
        rhs += est.value.to_float()[0]
    # archimedean part of the height of [sigma*_0 : ... : sigma*_{d_n}]
    top = max(abs(s) for s in sigma)
    arch = (math.log(top.numerator) - math.log(top.denominator)) / (n * (len(sigma) - 1))
    rhs += arch
    return abs(lhs - rhs)