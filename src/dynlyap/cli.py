"""Command-line front end.

Subcommands: multipliers | lyapunov | canonical-height | crit-height |
ff-analyze | slope | consistency | verify-bounds.  Reports are
deterministic JSON: exact rationals as decimal strings, local logarithms
as {"q": "p/q", "base": "log2" | "unit"}, floats in fixed shortest-repr
form.  Exit codes: 0 success, 2 input error (malformed input, or an
argument outside the subcommand's domain), 3 resource limit (with a
partial report).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .algebra import RatFunc
from .analysis import (
    crit_height_series,
    degeneration_slope,
    ff_degree_sequence,
    global_consistency,
)
from .budget import default_budget
from .errors import DynlyapError, ParseError, ResourceLimit
from .heights import HeightValue, canonical_height, point_of
from .lyapunov import ARCH_RADIUS, L_n_local, lyapunov_arch, lyapunov_nonarch_sequence
from .mapio import (
    format_fraction,
    format_map,
    parse_fraction,
    parse_map,
    parse_place,
)
from .maps import RationalMap
from .multipliers import multiplier_polynomial, lambda_tilde_point
from .places import LocalLogValue


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _ser_log(v: LocalLogValue) -> dict:
    if v.is_neg_infinity():
        return {"neg_infinity": True}
    if v.is_exact():
        return {"q": format_fraction(v.q), "base": f"log{v.base}" if v.base else "unit"}
    return {"value": v.x, "err": v.err}


def _ser_height(h: HeightValue) -> dict:
    return {
        "value": h.value,
        "err": h.err,
        "exact": format_fraction(h.exact) if h.exact is not None else None,
    }


def _ser_field(c) -> object:
    from .mapio import format_coefficient

    return format_coefficient(c)


def _ser_poly(p) -> list:
    return [_ser_field(c) for c in p.coeffs]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_multipliers(fmap: RationalMap, args) -> dict:
    spectrum = multiplier_polynomial(fmap, args.n)
    point = lambda_tilde_point(fmap, args.n)
    return {
        "n": spectrum.n,
        "d_n": spectrum.d_n,
        "sigma_star": [_ser_field(s) for s in spectrum.sigma_star],
        "p_dn": _ser_poly(spectrum.p_dn),
        "chi_full": _ser_poly(spectrum.chi_full),
        "lambda_tilde": [_ser_field(c) for c in point.coords],
    }


def _cmd_lyapunov(fmap: RationalMap, args) -> dict:
    v = parse_place(args.place)
    if v.is_archimedean():
        if args.r == "eps":
            log_r = LocalLogValue.exact(0)
        else:
            r = parse_fraction(args.r)
            if r <= 0:
                raise ValueError(ARCH_RADIUS)
            log_r = LocalLogValue.from_float(math.log(r), 1e-15)
        entries = []
        for n in range(1, args.n_max + 1):
            est = L_n_local(fmap, n, log_r, v)
            entries.append({"n": n, "value": _ser_log(est.value), "bound": None,
                            "units": "nat"})
        exponent = lyapunov_arch(fmap, args.tol)
        return {
            "place": str(v),
            "sequence": entries,
            "lyapunov_exponent": _ser_log(exponent.value),
        }
    if args.r == "eps":
        seq = lyapunov_nonarch_sequence(fmap, v, args.n_max)
    else:
        log_r = LocalLogValue.exact(parse_fraction(args.r), v.p if v.kind == "prime" else None)
        seq = [L_n_local(fmap, n, log_r, v) for n in range(1, args.n_max + 1)]
    units = f"log{v.p}" if v.kind == "prime" else "unit"
    return {
        "place": str(v),
        "sequence": [
            {
                "n": e.n,
                "value": _ser_log(e.value),
                "bound": _ser_log(e.bound) if e.bound is not None else None,
                "units": units,
            }
            for e in seq
        ],
    }


def _cmd_canonical_height(fmap: RationalMap, args) -> dict:
    one = Fraction(1) if fmap.base == "Q" else RatFunc.const(1)
    if args.point == "inf":
        pt = point_of("inf", one)
    else:
        pt = point_of(parse_fraction(args.point), one)
    h = canonical_height(fmap, pt, args.tol)
    return {"point": args.point, "height": _ser_height(h)}


def _cmd_crit_height(fmap: RationalMap, args) -> dict:
    rep = crit_height_series(fmap, args.n_max, args.tol)
    return {
        "estimates": [
            {"n": e.n, "estimate": _ser_height(e.estimate), "via": e.via}
            for e in rep.entries
        ],
        "direct": _ser_height(rep.direct) if rep.direct is not None else None,
        "gaps": list(rep.gaps),
        "failures": [{"n": n, "reason": r} for n, r in rep.failures],
    }


def _cmd_ff_analyze(fmap: RationalMap, args) -> dict:
    rep = ff_degree_sequence(fmap, args.n_max)
    return {
        "entries": [
            {
                "n": e.n,
                "D_n": e.degree,
                "normalized": format_fraction(e.normalized),
                "all_sigma_constant": e.all_sigma_constant,
                "inequality_holds": e.inequality_holds,
            }
            for e in rep.entries
        ],
        "h_crit": _ser_height(rep.h_crit) if rep.h_crit is not None else None,
        "classification": rep.classification,
    }


def _cmd_slope(fmap: RationalMap, args) -> dict:
    center = parse_place(args.center)
    rep = degeneration_slope(fmap, center, args.n_max)
    return {
        "center": str(rep.center),
        "alphas": [{"n": n, "alpha": format_fraction(a)} for n, a in rep.alphas],
        "extrapolated": format_fraction(rep.extrapolated),
    }


def _cmd_consistency(fmap: RationalMap, args) -> dict:
    residual = global_consistency(fmap, args.n)
    return {"n": args.n, "residual": residual}


def _cmd_verify_bounds(fmap: RationalMap, args) -> dict:
    v = parse_place(args.place)
    seq = lyapunov_nonarch_sequence(fmap, v, args.n_max)
    pairs = []
    all_ok = True
    for i in range(1, len(seq)):
        for j in range(i + 1, len(seq)):
            en, em = seq[i], seq[j]
            diff = (en.value - em.value).abs_value()
            allowance = en.bound + em.bound
            ok = diff.leq(allowance)
            all_ok = all_ok and ok
            pairs.append({"n": en.n, "m": em.n, "holds": ok,
                          "difference": _ser_log(diff), "allowance": _ser_log(allowance)})
    return {"place": str(v), "pairs": pairs, "all_hold": all_ok}


_HANDLERS = {
    "multipliers": _cmd_multipliers,
    "lyapunov": _cmd_lyapunov,
    "canonical-height": _cmd_canonical_height,
    "crit-height": _cmd_crit_height,
    "ff-analyze": _cmd_ff_analyze,
    "slope": _cmd_slope,
    "consistency": _cmd_consistency,
    "verify-bounds": _cmd_verify_bounds,
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dynlyap",
        description="Multiplier spectra, Lyapunov approximants and heights "
        "for rational maps over Q and Q(t)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--map", required=True,
                       help="path to a map JSON file, or inline JSON")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("multipliers", help="exact multiplier spectrum at period n")
    common(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("lyapunov", help="Lyapunov approximant sequence at a place")
    common(p)
    p.add_argument("--place", required=True, help="arch | p:2 | t=0 | t=inf")
    p.add_argument("--n-max", type=int, dest="n_max", default=4)
    p.add_argument("--r", default="eps", help='truncation radius: "eps" or a rational')
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("canonical-height", help="Call-Silverman canonical height")
    common(p)
    p.add_argument("--point", required=True, help='a rational number or "inf"')
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("crit-height", help="critical height: direct and estimates")
    common(p)
    p.add_argument("--n-max", type=int, dest="n_max", default=4)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("ff-analyze", help="function-field degree growth report")
    common(p)
    p.add_argument("--n-max", type=int, dest="n_max", default=4)

    p = sub.add_parser("slope", help="degeneration slope of a Q(t) family")
    common(p)
    p.add_argument("--center", required=True, help="t=0 style place")
    p.add_argument("--n-max", type=int, dest="n_max", default=4)

    p = sub.add_parser("consistency", help="global height/Lyapunov consistency residual")
    common(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify-bounds", help="pairwise approximation-bound checks")
    common(p)
    p.add_argument("--place", required=True)
    p.add_argument("--n-max", type=int, dest="n_max", default=4)
    return top


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _attach_point_value(argv) -> list:
    """Rewrite ``--point <v>`` as ``--point=<v>``, so that a negative value
    such as -3/2 is not read as an option."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok == "--point" else None
        out.append(tok if value is None else f"--point={value}")
    return out


_parser = None  # built on the first run and reused: parsing leaves it unchanged


def run(argv) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(_attach_point_value(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    report = {
        "subcommand": args.command,
        "provenance": {"tool": "dynlyap", "version": __version__},
    }
    try:
        report["provenance"]["budget_bits"] = default_budget().max_total_bits
        fmap = parse_map(args.map)
        report["input"] = format_map(fmap)
        report["base_field"] = fmap.base
        report["result"] = _HANDLERS[args.command](fmap, args)
    except (ParseError, ValueError) as exc:
        # the library raises ValueError for an argument outside a function's
        # domain, such as a period below 1 or a place of the other base field
        report["error"] = {"kind": "input", "message": str(exc)}
        if getattr(exc, "position", None) is not None:
            report["error"]["position"] = exc.position
        _emit(report, getattr(args, "out", None))
        return 2
    except ResourceLimit as exc:
        report["error"] = {"kind": "resource_limit", "message": str(exc)}
        _emit(report, getattr(args, "out", None))
        return 3
    except DynlyapError as exc:
        report["error"] = {"kind": type(exc).__name__, "message": str(exc)}
        _emit(report, getattr(args, "out", None))
        return 2
    _emit(report, args.out)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
