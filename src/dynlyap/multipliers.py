"""Dynatomic divisors, multiplier polynomials and multiplier-map points.

The formal n-periodic divisor is cut out by the dynatomic polynomial
Phi*_n = prod_{m|n} P_m^{mu(n/m)} together with a multiplicity at infinity.
The multiplier data over it is extracted without ever locating periodic
points: the first d_n/n power sums of the multiplier multiset are traces
of powers of (f^n)' in the quotient ring k[z]/(Phi*_n), Newton's identities
convert them into the monic cycle polynomial p_{d,n}, and its n-th power
q_n recovers the full symmetric functions sigma*_{j,n}.  p_{d,n} is the
cached primary object (``cycle_polynomial``); q_n is built only for the
callers that read sigma*.  Everything is exact over the base field.

The spectrum runs on integer rows (``bivariate``) from the lift to the
traces, over Q and Q(t) alike: the iterates of a primitive integer lift G
in Z[t][z] (a map over Q is rows of t-degree 0), Phi*_n as the exact
quotient of the primitive parts of the P_m (``dynatomic_divisor``), and
the multiplier at a periodic infinity read off the coefficients of the
iterated lift (``_infinity_cycle_data``).  The Fraction or RatFunc
``star_poly`` is formed only when a caller reads it.  Both engines take
lambda = (f^n)' for f^n = A / B as (A' - z B') / B, since A = z B modulo
Phi*_n, with the numerator from ``bivariate.lambda_numerator``, and both
take its images mod p in one place, ``_mod_div``: it builds the Barrett
ring F_p[z]/(Phi*_n) (``fp.Quotient``), reduces A' - z B' and B there and
divides.  Past the traces, Newton's identities and q_n = p_{d,n}^n run on
integer rows for both fields, and rows come back to the base field
through ``bivariate._field``.

Over Q the power sums S_k come from a multi-modular engine
(``_modular_power_sums``).  For each engine prime p below 2^127 it takes
lambda from ``_mod_div`` and the traces Tr(lambda^k) in its ring by baby
and giant steps.  The per-place Lipschitz bound of the paper fixes how
many primes are needed, with the reduced resultant rho in place of
R = |Res G|: rho is the lcm of the denominators of the Bezout cofactors
of X^(2d-1) and Y^(2d-1) for the primitive integer lift G
(``_reduced_resultant``), and divides R.  Then |lambda|_p <= |rho|_p^(-n)
at every prime and |lambda| <= Lip^n at infinity for a certified
Lip >= sup f^# (``lyapunov.LipschitzSearch``), so rho^(nk) S_k is
an integer of absolute value at most deg Phi*_n (Lip rho)^(nk).  The CRT
over primes whose product exceeds twice that bound returns it exactly,
with no rational reconstruction and no verification.  Lip only sets the
prime count, so the branch and bound behind it is refined lazily, once
per map and resumed from its boxes: only while a tighter Lip could still
remove a prime.

Over Q(t) the sums come from exact integer arithmetic in Q(t)[z]/(Phi*_n)
on elements U(t, z) / (c L(t)^e) (``bivariate._ratfunc_power_sums``,
``bivariate._ZtQuotient``), with the same baby and giant steps
(``_trace_powers``); only the final S_k become elements of Q(t).  Each
spectrum builds one such ring.  When B is not constant in z, lambda is
formed on rows from the ``_mod_div`` images of the rows at points t0 and
engine primes p: Cauchy interpolation, rational number reconstruction
over the CRT of the primes, and an exact check lambda B = A' - z B' in
the ring of the traces (``_field_mod_div``, ``bivariate._row_mod_div``).

The F_p arithmetic of both engines, from the engine primes to the
Barrett ring, the extended Euclid and the CRT, is in ``fp``.  Both
engines are tested against the trace loop in k[z]/(Phi*_n) over the base
field, and the rows of Phi*_n against composition of lifts over the base
field; both oracles live in the test suite.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import (
    Poly,
    _int_mul,
    divisors,
    field_one,
    mobius,
    period_count,
)
from .errors import NonExactDivision
from .maps import BASE_Q, RationalMap, _coerce_field, per_map, primitive_lift


@dataclass(frozen=True)
class DynatomicDivisor:
    """Phi*_n and its multiplicity at infinity.

    ``rows`` is the primitive Phi*_n in Z[t][z]: integer t-coefficient rows,
    z ascending (t-degree 0 over Q).  ``star_poly``, the exact quotient
    prod_{m | n} P_m^mu(n/m) of the fixed-point polynomials of the map's own
    lift, is ``scale`` times the rows; it is formed on first read.
    """

    n: int
    rows: tuple
    star_mult_infinity: int
    scale: object  # Fraction or RatFunc
    base: str

    @property
    def degree(self) -> int:
        return len(self.rows) - 1

    @cached_property
    def star_poly(self) -> Poly:
        from .bivariate import _scaled_values

        return Poly(_scaled_values(self.rows, self.scale, self.base))

    def total_degree(self) -> int:
        return self.degree + self.star_mult_infinity


@dataclass(frozen=True)
class MultiplierSpectrum:
    n: int
    d_n: int
    chi_full: Poly          # monic, prod over Fix(f^n) of (T - (f^n)'(z))
    p_dn: Poly              # monic, degree d_n / n
    sigma_star: tuple       # (sigma*_0 = 1, ..., sigma*_{d_n})


@dataclass(frozen=True)
class ProjPoint:
    coords: tuple

    def __str__(self):
        return "[" + " : ".join(str(c) for c in self.coords) + "]"


@per_map("dynatomic")
def dynatomic_divisor(fmap: RationalMap, n: int) -> DynatomicDivisor:
    """Phi*_n as an exact Moebius quotient of the fixed-point divisors, on rows.

    P_m = F0 - z F1 for the iterates F = G^(m) of the primitive lift G is
    split into its content c_m in Z[t] and primitive part
    (``bivariate.fixed_rows``).  The product of the primitive parts with
    mu(n/m) = 1 is divided by the product of those with mu(n/m) = -1 in
    Z[t][z] (``bivariate._exact_quotient``), which leaves the primitive
    Phi*_n (Gauss's lemma).  The map's own lift is F = lam G and its
    iterates are lam^((d^m - 1)/(d - 1)) G^(m), so the quotient of its
    fixed-point polynomials is scale Phi*_n for
    scale = lam^E prod c_m^mu(n/m), E = sum mu(n/m) (d^m - 1)/(d - 1).
    """
    fmap.budget.check_period(fmap.d, n)
    # loaded on first use: starting the CLI and parsing maps never compile it
    from . import bivariate

    d = fmap.d
    num = den = None
    c_num, c_den = [1], [1]
    inf_mult = exp = 0
    for m in divisors(n):
        mu = mobius(n // m)
        if mu == 0:
            continue
        rows, content = bivariate.fixed_rows(fmap, m)
        inf_mult += mu * (d**m + 1 - (len(rows) - 1))  # fixed points of f^m at infinity
        exp += mu * (d**m - 1) // (d - 1)
        if mu == 1:
            num = rows if num is None else bivariate._mul_rows(num, rows)
            c_num = _int_mul(c_num, content)
        else:
            den = rows if den is None else bivariate._mul_rows(den, rows)
            c_den = _int_mul(c_den, content)
    star = num if den is None else bivariate._exact_quotient(num, den)
    if inf_mult < 0:
        raise NonExactDivision("negative multiplicity at infinity in dynatomic divisor")
    lam = bivariate.primitive_rows(fmap)[2]
    scale = lam**exp * bivariate._field(c_num, c_den, fmap.base)
    div = DynatomicDivisor(n, tuple(map(tuple, star)), inf_mult, scale, fmap.base)
    if div.total_degree() != period_count(fmap.d, n):
        raise NonExactDivision(
            f"dynatomic degree {div.total_degree()} != d_n = {period_count(fmap.d, n)}"
        )
    return div


# ---------------------------------------------------------------------------
# Newton's identities
# ---------------------------------------------------------------------------

def power_sums_from_monic(p: Poly, count: int):
    """First ``count`` power sums of the root multiset of a monic polynomial."""
    deg = len(p.coeffs) - 1
    one = field_one(p.lc())
    elem = []
    for j in range(1, deg + 1):
        elem.append(p.coeffs[deg - j] * (-1 if j % 2 else 1))
    out = []
    for k in range(1, count + 1):
        acc = one * 0
        for i in range(1, min(k, deg) + 1):
            sign = 1 if (i - 1) % 2 == 0 else -1
            term = elem[i - 1] * (out[k - i - 1] if k - i >= 1 else k)
            acc = acc + (term if sign == 1 else -term)
        out.append(acc)
    return out


def power_roots_poly(p: Poly, s: int, base: str) -> Poly:
    """Monic polynomial over the base field whose roots are the s-th powers
    of the roots of p; Newton's identities run on integer rows
    (``bivariate._monic_from_power_sums``)."""
    deg = len(p.coeffs) - 1
    if s == 1 or deg == 0:
        return p
    from . import bivariate

    ps = power_sums_from_monic(p, s * deg)
    # the k-th power sum of the s-th powers is the (k s)-th power sum of p
    return bivariate._monic_from_power_sums(ps[s - 1 :: s], deg, base)


# ---------------------------------------------------------------------------
# multi-modular trace engine over Q
# ---------------------------------------------------------------------------

_MAX_NON_UNITS = 32  # primes p or points t0 at which a denominator is no unit, before giving up


def _count_non_unit(count: int) -> int:
    """count + 1 for one more prime or point at which the denominator of
    lambda is no unit; NonExactDivision past _MAX_NON_UNITS of them."""
    if count >= _MAX_NON_UNITS:
        raise NonExactDivision("derivative denominator shares a root with the dynatomic polynomial")
    return count + 1


def _mod_div(phi: list, u: list, den: list, p: int):
    """(ring, lambda = u / den) in the ``fp.Quotient`` ring F_p[z]/(phi / lc(phi))
    for integer lists phi, u and den (z ascending), lc(phi) a unit mod p;
    None if den is not a unit there.  The one image of lambda of both
    engines (``_power_sums_mod_p``, ``bivariate._Images``)."""
    from . import fp

    inv_lc = pow(phi[-1], -1, p)
    ring = fp.Quotient([c * inv_lc % p for c in phi], p, max(len(u), len(den)))
    inv = fp.inverse(ring.reduce([c % p for c in den]), ring.phi, p)
    if inv is None:
        return None
    return ring, ring.mul(ring.reduce([c % p for c in u]), inv)


def _power_sums_mod_p(phi_int: list, u: list, den: list, count: int, p: int):
    """Tr(lambda^k) mod p for k = 1..count in F_p[z]/(Phi*_n), phi_int the
    integer coefficients of Phi*_n, for lambda = (f^n)' = u / den with
    u = num' - z den' for f^n = num / den (``bivariate.lambda_numerator``);
    None if den is not a unit there."""
    out = _mod_div(phi_int, u, den, p)
    if out is None:
        return None
    return _trace_powers(*out, count)


def _trace_powers(ring, lam, count: int) -> list:
    """[Tr(lambda^k) for k = 1..count] in a quotient ring (``fp.Quotient`` or
    ``bivariate._ZtQuotient``), by baby steps lambda^i, i <= m, and giant steps G^j,
    j <= J, with G = lambda^m: Tr(lambda^(jm+i)) is the trace form of G^j
    against lambda^i.  m and J minimize the cost of the m - 1 + max(J - 1, 0)
    ring products (three packed products each) and J trace forms (one
    each) subject to (J + 1) m >= count: about 2 sqrt(count) products."""
    m, jmax = min(((m, -(-count // m) - 1) for m in range(1, count + 1)),
                  key=lambda mj: 3 * (mj[0] - 1 + max(mj[1] - 1, 0)) + mj[1])
    powers = [ring.one, lam]
    while len(powers) <= m:
        powers.append(ring.mul(powers[-1], lam))
    forms = [ring.unit_form]
    giant = powers[m]
    for j in range(1, jmax + 1):
        if j > 1:
            giant = ring.mul(giant, powers[m])
        forms.append(ring.trace_form(giant))
    out = []
    for k in range(1, count + 1):
        j = min(k // m, jmax)
        out.append(ring.dot(forms[j], powers[k - j * m]))
    return out


@per_map("arch_lipschitz")
def _arch_lipschitz(fmap: RationalMap):
    """The search for a certified sup of f^# over P^1(C)
    (``lyapunov.LipschitzSearch``), kept once per map so that each spectrum
    resumes it where the last one stopped."""
    from .lyapunov import LipschitzSearch  # lyapunov imports this module

    prim = primitive_lift(fmap)
    return LipschitzSearch(prim.lift, prim.res)


@per_map("reduced_resultant")
def _reduced_resultant(fmap: RationalMap) -> int:
    """rho = lcm of the denominators of the cofactors A1, A2, B1, B2 in
    G0 A1 + G1 A2 = X^(2d-1) and G0 B1 + G1 B2 = Y^(2d-1), for G the
    primitive integer lift of a map over Q (``heights._bezout_cofactors``
    with right-hand side 1); rho divides Res G, since Res G times each
    cofactor is integral; computed once per map."""
    from .heights import _bezout_cofactors  # heights imports this module

    cofactors = _bezout_cofactors(primitive_lift(fmap).lift, 1)
    return math.lcm(*(c.denominator for part in cofactors for c in part))


def _crt_primes(phi_lc: int, res: int):
    """The engine primes that divide neither R nor lc(Phi*_n), in order."""
    from . import fp

    return (p for p in map(fp.engine_prime, itertools.count()) if phi_lc % p and res % p)


def _modular_power_sums(fmap: RationalMap, n: int, phi_int: list, count: int) -> list:
    """Exact S_k = sum over the roots beta of Phi*_n of lambda(beta)^k, k = 1..count,
    for a map over Q, by CRT over primes below 2^127.  phi_int holds the
    integer coefficients of Phi*_n, and f^n is read off the rows of the
    iterated primitive lift (``bivariate.lift_rows``).

    Bound.  Let G be the primitive integer lift of f, R = |Res G| and rho
    its reduced resultant (``_reduced_resultant``): rho A and rho B are
    integral for the Bezout cofactors A = (A1, A2), B = (B1, B2) of
    X^(2d-1) and Y^(2d-1), and rho divides R.
      * Finite places: take ||P||_q = 1.  Then rho X^(2d-1) =
        G0 (rho A1) + G1 (rho A2) and likewise for Y, so
        ||G(P)||_q >= |rho|_q.  Euler's identity gives
        det DG(P) / d = G1(P) dG0/dx(P) - G0(P) dG1/dx(P) after a GL_2(Z_q)
        change of coordinates moving P to (0, 1), so |det DG(P) / d|_q
        <= ||G(P)||_q and f^#(P) = |det DG(P) / d|_q / ||G(P)||_q^2
        <= 1 / ||G(P)||_q <= |rho|_q^(-1).  By the chain rule along the
        cycle, |lambda(beta)|_q = (f^n)^#(beta) <= |rho|_q^(-n) at every q,
        so rho^n lambda(beta) is an algebraic integer and T_k = rho^(nk) S_k
        is a rational integer.  This is the paper's bound
        M_1(f)_q <= |Res f|_q^(-1) with rho in place of R, never looser.
      * Archimedean place: likewise |lambda(beta)| <= Lip^n for any
        Lip >= sup f^#, hence |T_k| <= deg Phi*_n (Lip rho)^(nk).  Lip is
        the certified upper bound of the map's branch and bound
        (``_arch_lipschitz``), refined lazily: the search resumes only
        until its upper bound and its best centre value, below which no
        certified Lip can fall, call for the same number of primes.  Any
        certified Lip gives the same T_k, so stopping early changes the
        prime count, never the result.
    Residues of T_k modulo primes p that divide neither R nor the leading
    coefficient of Phi*_n are combined until their product M
    exceeds twice that bound; the symmetric residue mod M is then T_k
    itself, and S_k = T_k / rho^(nk) is exact by construction.
    """
    from . import bivariate, fp

    phi_lc = phi_int[-1]
    num, den = bivariate.lift_rows(fmap, n)
    u = [r[0] if r else 0 for r in bivariate.lambda_numerator(num, den)]
    den = [r[0] if r else 0 for r in den]
    res = primitive_lift(fmap).res
    rho = _reduced_resultant(fmap)
    deg = len(phi_int) - 1
    log_rho = math.log2(rho)
    sizing = _crt_primes(phi_lc, res)
    covered = [0.0]  # log2 of the products of the first usable primes

    def primes_for(lip, slack: float) -> int:
        """How many usable primes the CRT takes for this Lip: their product
        exceeds 2 deg (Lip rho)^(n max(1, k)), whose log2 is moved by slack."""
        log_growth = math.log2(lip.numerator) - math.log2(lip.denominator) + log_rho
        bits = 1 + math.log2(deg) + n * (count if log_growth >= 0 else 1) * log_growth + slack
        while covered[-1] <= bits:
            covered.append(covered[-1] + math.log2(next(sizing)))
        return bisect_right(covered, bits)

    def enough(upper, best) -> bool:
        # no certified bound falls below best: once best takes as many primes
        # as upper, more boxes save none
        return best > 0 and primes_for(upper, 1e-6) == primes_for(Fraction(best), -1e-6)

    growth = _arch_lipschitz(fmap).bound(enough) * rho
    bound = deg * max(growth**n, growth ** (n * count))
    modulus = 1
    residues = [0] * count
    bad = 0
    for p in _crt_primes(phi_lc, res):
        if modulus > 2 * bound:
            break
        sums = _power_sums_mod_p(phi_int, u, den, count, p)
        if sums is None:
            bad = _count_non_unit(bad)
            continue
        scaled = [s * pow(rho, n * k, p) for k, s in enumerate(sums, 1)]
        residues = fp.crt(residues, modulus, scaled, p)
        modulus *= p
    out = []
    half = modulus // 2
    rho_n = rho**n
    scale = 1
    for x in residues:
        scale *= rho_n
        out.append(Fraction(x - modulus if x > half else x, scale))
    return out


def _field_mod_div(phi: list, u: list, den: list):
    """(ring, lambda = u / den) in the trace ring of Q(t)[z]/(Phi*_n) for
    the primitive rows phi of Phi*_n and rows u, den of Z[t][z]
    (``bivariate._row_mod_div``); the division keeps this name because
    ``perfbench/tracing.py`` times it by name."""
    from . import bivariate

    return bivariate._row_mod_div(phi, u, den)


def _multiplier_power_sums(fmap: RationalMap, n: int, div: DynatomicDivisor, count: int, one):
    """Power sums sum_{Phi*_n(beta)=0} lambda(beta)^k, k = 1..count,
    lambda = (f^n)', from the rows of ``div``."""
    if count == 0:
        return []
    if div.degree <= 0:
        return [one * 0] * count
    if fmap.base == BASE_Q:
        return _modular_power_sums(fmap, n, [r[0] if r else 0 for r in div.rows], count)
    from . import bivariate

    return bivariate._ratfunc_power_sums(fmap, n, div.rows, count)


def _infinity_cycle_data(fmap: RationalMap, n: int):
    """(exact period q, multiplier of f^q at infinity) if infinity is
    periodic with q <= n, else (None, None), read off the iterated lift.

    F^(q)(1, 0) = (a_0, b_0), the coefficients of z^(d^q) in F0 and F1, so
    f^q fixes infinity exactly when b_0 = 0.  In the chart u = 1/z,
    f^q(u) = (b_0 + b_1 u + ...) / (a_0 + a_1 u + ...), whose derivative at
    u = 0 is b_1 / a_0 once b_0 = 0; b_1 is the coefficient of z^(d^q - 1)
    in F1.
    """
    from . import bivariate

    for q in range(1, n + 1):
        f0, f1 = bivariate.lift_rows(fmap, q)
        top = fmap.d**q
        if len(f1) <= top:
            b1 = f1[top - 1] if len(f1) == top else []
            return q, bivariate._field(b1, f0[top], fmap.base)
    return None, None


@per_map("p_dn")
def cycle_polynomial(fmap: RationalMap, n: int) -> Poly:
    """Monic p_{d,n} = prod over the formal n-cycles of (T - lambda), of
    degree d_n / n, via power-sum traces and Newton's identities; computed
    once per map.

    It is the primary object of the spectrum: q_n = p_{d,n}^n
    (``fixstar_multiplier_charpoly``) is formed only when a caller reads the
    symmetric functions sigma*.  Over Q(t) every place is non-archimedean,
    so the Gauss norms of q_n are the n-th powers of those of p_{d,n}, and
    the heights and valuations of sigma* are read off p_{d,n} directly
    (``analysis.ff_degree_sequence``, ``analysis.degeneration_slope``).
    """
    div = dynatomic_divisor(fmap, n)
    d_n = period_count(fmap.d, n)
    if d_n % n:
        raise NonExactDivision(f"d_n = {d_n} not divisible by n = {n}")
    k_cycles = d_n // n
    one = field_one(fmap.resultant)
    sums = _multiplier_power_sums(fmap, n, div, k_cycles, one)
    if div.star_mult_infinity:
        q, lam_q = _infinity_cycle_data(fmap, n)
        if q is None or n % q:
            raise NonExactDivision("infinity multiplicity without a periodic infinity")
        lam_inf = lam_q ** (n // q)
        power = lam_inf
        for k in range(k_cycles):
            sums[k] = sums[k] + div.star_mult_infinity * power
            power = power * lam_inf
    from . import bivariate

    return bivariate._monic_from_power_sums([s / n for s in sums], k_cycles, fmap.base)


@per_map("fixstar_charpoly")
def fixstar_multiplier_charpoly(fmap: RationalMap, n: int) -> Poly:
    """Monic q_n = prod over Fix*(f^n) of (T - (f^n)'(z)) = p_{d,n}^n, of
    degree d_n; computed once per map."""
    from . import bivariate

    return bivariate._poly_power(cycle_polynomial(fmap, n), n, fmap.base)


# ---------------------------------------------------------------------------
# public spectrum operations
# ---------------------------------------------------------------------------

def multiplier_polynomial(fmap: RationalMap, n: int) -> MultiplierSpectrum:
    """Exact multiplier spectrum at period n: p_{d,n}, sigma*, chi_n."""
    sigma = sigma_star(fmap, n)
    chi = charpoly_multipliers_full(fmap, n)
    return MultiplierSpectrum(n, len(sigma) - 1, chi, cycle_polynomial(fmap, n), sigma)


def sigma_star(fmap: RationalMap, n: int) -> tuple:
    """(sigma*_{0,n} = 1, ..., sigma*_{d_n,n}), the symmetric functions of
    the formal period-n multipliers, without building chi_n."""
    return tuple(_elementary_symmetric(fixstar_multiplier_charpoly(fmap, n)))


def _elementary_symmetric(charpoly: Poly) -> list:
    """[sigma_0 = 1, ..., sigma_deg] of the roots of a monic polynomial."""
    deg = charpoly.degree
    one = field_one(charpoly.lc())
    sigma = []
    for j in range(deg + 1):
        c = charpoly[deg - j] * one
        sigma.append(c if j % 2 == 0 else -c)
    return sigma


@per_map("chi_full")
def charpoly_multipliers_full(fmap: RationalMap, n: int) -> Poly:
    """Monic chi_n(T) = prod over Fix(f^n) of (T - (f^n)'(z)), degree d^n + 1.

    Assembled from the formal-period charpolys: a point of exact formal
    period m contributes its f^m-multiplier raised to the n/m power;
    computed once per map.
    """
    fmap.budget.check_period(fmap.d, n)  # divisors(n) is empty below 1
    chi = None
    for m in divisors(n):
        q_m = fixstar_multiplier_charpoly(fmap, m)
        factor = power_roots_poly(q_m, n // m, fmap.base)
        chi = factor if chi is None else chi * factor
    if len(chi.coeffs) - 1 != fmap.d**n + 1:
        raise NonExactDivision("full multiplier charpoly has wrong degree")
    return chi


# ---------------------------------------------------------------------------
# multiplier-map points
# ---------------------------------------------------------------------------

def _normalize_proj(coords) -> tuple:
    """Projective coordinates over Q as coprime integers, over Q(t) as coprime
    polynomials with coprime integer coefficients; the last nonzero
    coordinate has a positive leading coefficient."""
    from . import bivariate

    vals, base = _coerce_field(coords)
    rows = bivariate._primitive_point(bivariate._clear_rows(vals)[0])
    return tuple(bivariate._from_rows(rows, [1], base))


def lambda_tilde_point(fmap: RationalMap, n: int) -> ProjPoint:
    """[sigma*_{d_n} : ... : sigma*_1 : 1], normalized coordinates."""
    sigma = _elementary_symmetric(fixstar_multiplier_charpoly(fmap, n))
    return ProjPoint(_normalize_proj(sigma[::-1]))


def lambda_point(fmap: RationalMap, n: int) -> ProjPoint:
    """[sigma_{d^n+1} : ... : sigma_1 : 1] over the full Fix(f^n)."""
    sigma = _elementary_symmetric(charpoly_multipliers_full(fmap, n))
    return ProjPoint(_normalize_proj(sigma[::-1]))
