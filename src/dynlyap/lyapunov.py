"""Truncated Lyapunov approximants and Lyapunov exponents per place.

Non-archimedean approximants are exact: by the Gauss lemma the truncated
average over the formal n-periodic multipliers is
(1/(n d_n)) max_j [ log|sigma*_j|_v + (d_n - j) log r ], a rational
multiple of log p, read off one integer Gauss norm of p_{d,n}
(``places.gauss_log_norm``), the same norm that gives the degeneration
slopes alpha_n (``analysis.degeneration_slope``).  Their distance to the
limit is controlled by the explicit self-consistency bound
8(d-1)^2 (|L| + (4d^2-2d-1)/(d(2d-2)) * (-log|Res f|_v) + |log r|) sigma_2(n)/d_n,
evaluated here with the best available |L| surrogate and labeled as such.
The archimedean exponent comes from the critical-point formula
L = -log d + sum_j g_F(c_j) + correction terms, with the Green values
iterated to a certified tolerance.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import period_count, sigma2, squarefree_parts
from .errors import ArchimedeanPlace, ResourceLimit
from .heights import _arch_green, _bezout_cofactors, _map_sup_t_bound, _to_complex, check_tol
from .maps import BASE_Q, HomLift, RationalMap, abs_resultant, critical_divisor
from .multipliers import _arch_lipschitz, cycle_polynomial
from .places import Place, LocalLogValue, gauss_log_norm
from .roots import aberth_roots


ARCH_RADIUS = "archimedean truncation radius must satisfy 0 < r <= 1"
NONARCH_RADIUS = "non-archimedean truncation radius must be exact with log r <= 0"


@dataclass(frozen=True)
class TruncationRadius:
    place: Place
    n: int
    log_eps: LocalLogValue  # <= 0; exact


@dataclass(frozen=True)
class LyapunovEstimate:
    place: Place
    n: int
    log_r: LocalLogValue
    value: LocalLogValue
    bound: Optional[LocalLogValue] = None


@dataclass(frozen=True)
class LipschitzData:
    place: Place
    log_m1: LocalLogValue


def epsilon_radius(v: Place, d: int, n: int) -> TruncationRadius:
    """log of eps_{d^n} = min over 1 <= m <= d^n of |m|_v^(d^n)."""
    if v.kind == "prime":
        power = d**n
        k = 0
        q = v.p
        while q <= power:
            k += 1
            q *= v.p
        if k:
            return TruncationRadius(v, n, LocalLogValue.exact(Fraction(-power * k), v.p))
    return TruncationRadius(v, n, LocalLogValue.exact(0))


def L_n_local(fmap: RationalMap, n: int, log_r: LocalLogValue, v: Place) -> LyapunovEstimate:
    """Truncated multiplier average L_n(f, r) at the place v, read off
    p_{d,n}, whose n-th power is q_n = prod over Fix*(f^n) of (T - lambda).
    At a finite place the r-weighted Gauss norm max_j |c_j|_v r^j of a
    polynomial is multiplicative, so its log on q_n is n times that on
    p_{d,n} (``gauss_log_norm``), and q_n is never built.  There log_r
    must be exact and <= 0."""
    if not v.is_archimedean() and not (log_r.is_exact() and log_r.q <= 0):
        raise ValueError(NONARCH_RADIUS)
    p_dn = cycle_polynomial(fmap, n)
    d_n = n * p_dn.degree
    if v.is_archimedean():
        r_val, _ = log_r.to_float()
        r = math.exp(r_val)
        if r > 1.0 + 1e-12:
            raise ValueError(ARCH_RADIUS)
        total = 0.0
        err = 0.0
        # Aberth sees only simple roots: each squarefree part once, its roots
        # weighted by their multiplicity in p_{d,n}
        for part, mult in squarefree_parts(p_dn):
            roots, errs = aberth_roots(list(part.coeffs))
            for root, rerr in zip(roots, errs):
                total += mult * math.log(max(r, abs(root)))
                err += mult * (rerr / max(r, abs(root)) + 1e-15)
        return LyapunovEstimate(v, n, log_r, LocalLogValue.from_float(total / d_n, err / d_n + 1e-14))
    value = gauss_log_norm(p_dn.coeffs, v, log_r).scaled(Fraction(1, d_n))
    return LyapunovEstimate(v, n, log_r, value)


def approximation_bound(fmap: RationalMap, v: Place, n: int, log_r: LocalLogValue,
                    l_abs_surrogate: LocalLogValue) -> LocalLogValue:
    """Self-consistency radius for |L_n(f, r) - L(f)| at a finite place.

    8(d-1)^2 (|L| + (4d^2-2d-1)/(d(2d-2)) (-log|Res f|_v) + |log r|) sigma2(n)/d_n,
    with the caller-supplied surrogate standing in for the unknown |L|.
    """
    if v.is_archimedean():
        raise ArchimedeanPlace("explicit approximation bounds are non-archimedean only")
    d = fmap.d
    res_term = (-abs_resultant(fmap, v)).scaled(
        Fraction(4 * d * d - 2 * d - 1, d * (2 * d - 2))
    )
    inner = l_abs_surrogate.abs_value() + res_term + log_r.abs_value()
    return inner.scaled(Fraction(8 * (d - 1) ** 2 * sigma2(n), period_count(d, n)))


def lyapunov_nonarch_sequence(fmap: RationalMap, v: Place, n_max: int) -> list[LyapunovEstimate]:
    """L_n(f, eps_{d^n})_v for n = 1..n_max, with surrogate-based bounds."""
    if v.is_archimedean():
        raise ArchimedeanPlace("use lyapunov_arch at the archimedean place")
    if n_max < 1:
        raise ValueError("n_max must be >= 1: the bounds are read off L_(n_max)")
    d = fmap.d
    raw = []
    for n in range(1, n_max + 1):
        log_eps = epsilon_radius(v, d, n).log_eps
        raw.append(L_n_local(fmap, n, log_eps, v))
    surrogate = raw[-1].value.abs_value()
    out = []
    for est in raw:
        bnd = approximation_bound(fmap, v, est.n, est.log_r, surrogate)
        out.append(LyapunovEstimate(v, est.n, est.log_r, est.value, bnd))
    return out


def lipschitz_data(fmap: RationalMap, v: Place) -> LipschitzData:
    """log M_1(f): 1/|Res(f)|_v at finite places; at the archimedean one,
    log sup f^# over P^1(C), enclosed by the map's certified search
    (``_sup_chordal_derivative``)."""
    if not v.is_archimedean():
        return LipschitzData(v, -abs_resultant(fmap, v))
    sup, err = _sup_chordal_derivative(fmap)
    return LipschitzData(v, LocalLogValue.from_float(math.log(sup), err / sup + 1e-12))


def _sup_chordal_derivative(fmap: RationalMap):
    """(best, upper - floor) for sup f^# over P^1(C), from the map's own
    search (``multipliers._arch_lipschitz``) run to its stop: best is the
    largest centre value, upper the certified bound and floor a rigorous
    lower bound of f^# at best's centre, so floor <= sup f^# <= upper."""
    if fmap.base != BASE_Q:
        raise ValueError("the archimedean Lipschitz constant needs a map over Q")
    search = _arch_lipschitz(fmap)
    upper = search.bound()
    if search.best_at is None:
        raise ResourceLimit("coefficient range too wide for a certified sup of f^# "
                            f"(more than {_LIP_RANGE_BITS} bits)")
    return search.best, float(upper) - search.floor()


# ---------------------------------------------------------------------------
# certified sup of the chordal derivative
# ---------------------------------------------------------------------------

# A full run of the branch and bound stops within _LIP_RTOL of the sup.  Over
# Q the bound feeds the multiplier engine, where this slack costs at most
# n k log2(1 + _LIP_RTOL) bits of CRT modulus: less time than more boxes.  The
# engine stops the search sooner, once no tighter bound can save a prime
# (``LipschitzSearch.bound``); _LIP_RTOL only caps how far it may go.
_LIP_RTOL = 1 / 4
_LIP_MAX_BOXES = 4000        # past this many boxes the bound reached so far is returned
_LIP_ROUND = 2.0**-40        # relative allowance for every float rounding below
_LIP_RANGE_BITS = 400        # wider coefficient ranges are left to the Bezout bound
_SQRT2_UP = 1.4142135623731  # > sqrt(2): half-diagonal over half-width of a box


class LipschitzSearch:
    """Certified upper bounds on sup over P^1(C) of the chordal derivative
    f^#(P) = |det DF(P)| ||P||^2 / (d ||F(P)||^2) (Euclidean norms), for
    ``lift`` the primitive integer lift F of a map over Q
    (``maps.primitive_lift``) and ``res`` = Res(F), refined on demand.

    ``upper`` starts at the exact ``_bezout_lipschitz_bound`` and is capped
    by it.  A branch and bound over boxes covering the two charts (z, 1) and
    (1, w), |z|, |w| <= 1, lowers it box by box (``_branch_and_bound_sup``);
    ``best`` is the largest value of f^# seen at a box centre and
    ``best_at`` its (chart, centre); no certified bound can fall below
    ``floor()``, that value less its rounding allowance.  On a box, |g| for
    g = det DF / d, F0, F1 is enclosed by the Taylor expansion at the centre
    c over the disc of radius r through the corners: |g(c)| +- sum_k
    |g_k(c)| r^k.  Each float step is covered by _LIP_ROUND times the same
    sums taken over |coefficients|, which bound every rounding error in the
    Taylor coefficients with a wide margin.  Coefficients are converted from the primitive integer lift
    scaled by a power of 2; when their range does not fit floats the Bezout
    bound stands alone.
    """

    def __init__(self, lift: HomLift, res):
        self.upper = self._cap = _bezout_lipschitz_bound(lift, res)
        self.best = 0.0
        self.best_at = None
        self._steps = None
        d = lift.d
        ints = [c.numerator for c in lift.a + lift.b]
        f0, f1 = ints[d::-1], ints[: d : -1]  # F0(z, 1), F1(z, 1), ascending in z
        jac = [c.numerator for c in critical_divisor(lift).affine_poly.coeffs]  # det DF(z, 1)
        jac += [0] * (2 * d - 1 - len(jac))  # a form of degree 2d - 2
        e = max(abs(c).bit_length() for c in ints)
        if any(c and abs(c).bit_length() < e - _LIP_RANGE_BITS for c in ints) or any(
            c and abs(c).bit_length() < 2 * e - _LIP_RANGE_BITS for c in jac
        ):
            return
        s1, s2 = 1 << e, d << (2 * e)
        fz = ([c / s2 for c in jac], [c / s1 for c in f0], [c / s1 for c in f1])
        self._charts = (fz, tuple(g[::-1] for g in fz))  # (z, 1) and (1, w) = (1/z, 1) * w^deg
        self._steps = _branch_and_bound_sup(self._charts)

    def bound(self, enough=None) -> Fraction:
        """The certified ``upper`` once ``enough(upper, best)`` holds, or
        once the search stops (_LIP_RTOL, _LIP_MAX_BOXES); without
        ``enough``, the bound of a full run.  The search resumes from its
        boxes, so no box is evaluated twice."""
        while self._steps is not None and not (enough and enough(self.upper, self.best)):
            upper, self.best, self.best_at, last = next(self._steps)
            self.upper = min(Fraction(upper), self._cap) if math.isfinite(upper) else self._cap
            if last:
                self._steps = None  # the search has stopped: drop its boxes
        return self.upper

    def floor(self) -> float:
        """A rigorous lower bound of f^# at best's centre c: f^#(c) with
        |det DF(c)| lowered and |F0(c)|, |F1(c)| raised by their own rounding
        allowances (``_disc_bounds`` at r = 0), and the last float steps
        covered by _LIP_ROUND, as in ``_box_bound``."""
        ci, c = self.best_at
        jac, f0, f1 = (_disc_bounds(g, c, 0.0) for g in self._charts[ci])
        at_c = f0[0] ** 2 + f1[0] ** 2
        return max(jac[1], 0.0) * (1.0 + abs(c) ** 2) / at_c * (1 - _LIP_ROUND)


def _bezout_lipschitz_bound(lift: HomLift, res) -> Fraction:
    """2 ||det DF||_1 row^2 / (d Res^2) >= sup f^#, exactly.

    From F0 G1 + F1 G2 = Res X^(2d-1) and F0 H1 + F1 H2 = Res Y^(2d-1)
    (``heights._bezout_cofactors``), |Res| ||P||_inf^(2d-1) <= row ||P||_inf^(d-1)
    ||F(P)||_inf, where row is the larger l1 norm of (G1, G2) and (H1, H2).
    With |det DF(P)| <= ||det DF||_1 ||P||_inf^(2d-2) and
    ||P||^2 <= 2 ||P||_inf^2 the bound follows.
    """
    jac = critical_divisor(lift).affine_poly  # det DF(z, 1)
    g1, g2, h1, h2 = _bezout_cofactors(lift, res)
    row = max(sum(abs(c) for c in g1 + g2), sum(abs(c) for c in h1 + h2))
    return 2 * sum(abs(c) for c in jac.coeffs) * row**2 / (lift.d * Fraction(res) ** 2)


def _branch_and_bound_sup(charts):
    """Upper bounds on the sup of f^# over the charts' unit discs.

    After each expansion of the box with the largest bound it yields
    (upper, best, best_at, last): upper, the larger of that bound and the
    settled ones, bounds the sup; best is the largest value seen at a box
    centre and best_at its (chart, centre); last is set on the final one.
    It stops when the largest bound is within _LIP_RTOL of best or past
    _LIP_MAX_BOXES boxes.  A box whose bound is already within _LIP_RTOL of
    best is settled: only its bound is kept, since best never falls.
    """
    heap = []
    tick = 0
    best = settled = 0.0
    best_at = None
    todo = [(ci, cx, cy, 0.25) for ci in (0, 1) for cx in (-0.75, -0.25, 0.25, 0.75)
            for cy in (-0.75, -0.25, 0.25, 0.75)]
    boxes = 0
    while True:
        for ci, cx, cy, h in todo:
            c = complex(cx, cy)
            r = h * _SQRT2_UP
            if abs(c) - r > 1.0 + 1e-9:
                continue  # every point has |z| > 1, so lies in the other chart's disc
            ub, val = _box_bound(charts[ci], c, r)
            if val > best:
                best, best_at = val, (ci, c)
            if ub <= best * (1 + _LIP_RTOL):
                settled = max(settled, ub)
            else:
                tick += 1
                heapq.heappush(heap, (-ub, tick, ci, cx, cy, h))
        boxes += len(todo)
        top = -heap[0][0] if heap else 0.0
        last = not heap or top <= best * (1 + _LIP_RTOL) or boxes >= _LIP_MAX_BOXES
        yield max(top, settled), best, best_at, last
        if last:
            return
        _, _, ci, cx, cy, h = heapq.heappop(heap)
        h /= 2
        todo = [(ci, cx + sx, cy + sy, h) for sx in (-h, h) for sy in (-h, h)]


def _box_bound(polys, c: complex, r: float):
    """(upper bound of f^# on the disc |z - c| <= r, f^#(c) in floats)."""
    jac, f0, f1 = (_disc_bounds(g, c, r) for g in polys)
    ac = abs(c)
    lo0, lo1 = max(f0[1], 0.0), max(f1[1], 0.0)
    den = lo0 * lo0 + lo1 * lo1
    ub = math.inf if den <= 0.0 else jac[0] * (1.0 + (ac + r) ** 2) / den * (1 + _LIP_ROUND)
    at_c = f0[2] ** 2 + f1[2] ** 2
    return ub, (jac[2] * (1.0 + ac * ac) / at_c if at_c > 0.0 else 0.0)


def _disc_bounds(coeffs, c: complex, r: float):
    """(upper, lower) bounds of |g| on |z - c| <= r and |g(c)|, g ascending."""
    n = len(coeffs)
    t = list(coeffs)
    m = [abs(x) for x in coeffs]
    ac = abs(c)
    for i in range(n - 1):  # Taylor shift: t[k] becomes g^(k)(c) / k!
        for j in range(n - 2, i - 1, -1):
            t[j] += c * t[j + 1]
            m[j] += ac * m[j + 1]
    g0 = abs(t[0])
    tail = 0.0
    slack = m[0]
    rk = 1.0
    for k in range(1, n):
        rk *= r
        tail += abs(t[k]) * rk
        slack += m[k] * rk
    slack *= _LIP_ROUND
    return g0 + tail + slack, g0 - tail - slack, g0


def lyapunov_arch(fmap: RationalMap, tol: float = 1e-8) -> LyapunovEstimate:
    """Archimedean Lyapunov exponent via the critical-point formula.

    Scales implicitly to a |Res F| = 1 lift: the resultant and Hermitian
    norm corrections appear as closed-form terms, so only the 2d-2 Green
    values are iterated numerically.
    """
    check_tol(tol)
    if fmap.base != "Q":
        raise ValueError("archimedean Lyapunov exponents require a map over Q")
    d = fmap.d
    cd = critical_divisor(fmap.lift)
    roots, rerrs = aberth_roots(list(cd.affine_poly.coeffs))
    per_tol = tol / (2 * d - 2 + 1)
    sup_t = _map_sup_t_bound(fmap)
    total = -math.log(d)
    err = 0.0
    for root, rerr in zip(roots, rerrs):
        g = _arch_green(fmap.lift, (root, 1.0 + 0j), per_tol, sup_t)
        gv, ge = g.to_float()
        total += gv + 0.5 * math.log(1.0 + abs(root) ** 2)
        err += ge + 4.0 * rerr  # local sensitivity allowance
    if cd.mult_infinity:
        g = _arch_green(fmap.lift, (1.0 + 0j, 0j), per_tol, sup_t)
        gv, ge = g.to_float()
        total += cd.mult_infinity * gv
        err += cd.mult_infinity * ge
    total += math.log(abs(_to_complex(cd.leading_coeff)))
    res = abs(_to_complex(fmap.resultant))
    total -= (2.0 / d) * math.log(res)
    value = LocalLogValue.from_float(total, err + 1e-12)
    return LyapunovEstimate(Place.arch(), 0, LocalLogValue.exact(0), value)