"""Simultaneous polynomial root finding (Aberth-Ehrlich iteration).

Used only on the archimedean side; exact zero roots are stripped first so
the common dynamical cases (superattracting multipliers) lose no accuracy.
Starting points follow the Newton polygon of the coefficient magnitudes,
every run ends with a Newton polish, and the returned configuration is
residual-verified (with deterministic retries) before being accepted.
"""

from __future__ import annotations

import cmath
import math

from .errors import RootFindingFailure
from .heights import _to_complex


def _horner(coeffs: list[complex], x: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _initial_points(monic: list[complex], phase: float) -> list[complex]:
    """Starting points on circles whose radii follow the Newton polygon."""
    n = len(monic) - 1
    pts = [(i, math.log(abs(c))) for i, c in enumerate(monic) if abs(c) > 0.0]
    hull = []  # upper convex hull, scanned left to right
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    out = []
    k = 0
    for (i, li), (j, lj) in zip(hull, hull[1:]):
        radius = math.exp((li - lj) / (j - i))
        for _ in range(j - i):
            angle = 2 * math.pi * k / n + phase
            out.append(radius * cmath.exp(1j * angle))
            k += 1
    while len(out) < n:  # defensive: degenerate hulls
        out.append(cmath.exp(1j * (2 * math.pi * len(out) / n + phase)))
    return out


def _residual_scale(monic: list[complex], x: complex) -> float:
    m = max(1.0, abs(x))
    return sum(abs(c) * m**i for i, c in enumerate(monic))


def aberth_roots(coeffs, tol: float = 1e-13, max_iter: int = 300):
    """Roots of a polynomial given by ascending coefficients.

    Returns (roots, residual_bounds); exact zeros of the input are returned
    exactly.  Raises RootFindingFailure when no verified configuration is
    reached.
    """
    cs = [_to_complex(c) for c in coeffs]
    while cs and abs(cs[-1]) == 0.0:
        cs.pop()
    if len(cs) <= 1:
        return [], []
    zeros = 0
    while abs(cs[0]) == 0.0:
        cs.pop(0)
        zeros += 1
    n = len(cs) - 1
    roots = [0j] * zeros
    errs = [0.0] * zeros
    if n == 0:
        return roots, errs
    lead = cs[-1]
    monic = [c / lead for c in cs]
    deriv = [k * monic[k] for k in range(1, n + 1)]
    if n == 1:
        roots.append(-monic[0])
        errs.append(abs(monic[0]) * 1e-15 + 1e-300)
        return roots, errs
    for attempt in range(5):
        xs = _initial_points(monic, 0.4 + 1.7 * attempt)
        ok = _aberth_iterate(monic, deriv, xs, tol, max_iter)
        _newton_polish(monic, deriv, xs)
        if not ok:
            continue
        found, bounds = _verified(monic, deriv, xs, n)
        if found is not None:
            return roots + found, errs + bounds
    raise RootFindingFailure("Aberth iteration did not reach a verified configuration")


def _aberth_iterate(monic, deriv, xs, tol, max_iter) -> bool:
    n = len(xs)
    best_sweep = float("inf")
    stagnant = 0
    for _ in range(max_iter):
        sweep_max = 0.0
        for i in range(n):
            xi = xs[i]
            pv = _horner(monic, xi)
            if pv == 0:
                continue
            dv = _horner(deriv, xi)
            if dv == 0:
                xs[i] = xi * (1 + 1e-8) + 1e-8
                sweep_max = max(sweep_max, 1.0)
                continue
            newton = pv / dv
            s = 0j
            for j in range(n):
                if j != i:
                    diff = xi - xs[j]
                    if diff == 0:
                        diff = 1e-30
                    s += 1 / diff
            denom = 1 - newton * s
            step = newton / denom if denom != 0 else newton
            xs[i] = xi - step
            sweep_max = max(sweep_max, abs(step) / max(1.0, abs(xi)))
        if sweep_max <= tol:
            return True
        # multiple roots stall the relative-step criterion near sqrt(eps)
        if sweep_max < 0.7 * best_sweep:
            best_sweep = sweep_max
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= 20 and best_sweep < 1e-6:
                return True
    return False


def _newton_polish(monic, deriv, xs) -> None:
    for i, x in enumerate(xs):
        for _ in range(3):
            pv = _horner(monic, x)
            dv = _horner(deriv, x)
            if pv == 0 or dv == 0:
                break
            step = pv / dv
            if abs(step) > 0.1 * max(1.0, abs(x)):
                break  # multiple-root cluster; leave to the residual bound
            x -= step
        xs[i] = x


def _verified(monic, deriv, xs, n):
    roots = []
    bounds = []
    for x in xs:
        pv = abs(_horner(monic, x))
        scale = _residual_scale(monic, x)
        if pv > 1e-6 * scale:
            return None, None  # bogus configuration; retry
        dv = abs(_horner(deriv, x))
        if dv > pv * 1e-6 and dv > 0:
            err = n * pv / dv
        else:
            err = pv ** (1.0 / n) if pv > 0 else 0.0
        roots.append(x)
        bounds.append(err + 1e-14 * max(1.0, abs(x)))
    return roots, bounds
