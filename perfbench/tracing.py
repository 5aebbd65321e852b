"""Per-module spans recorded from outside dynlyap, by attribute replacement.

``install`` swaps chosen dynlyap functions and methods for wrappers that
time each call, and rebinds every alias of the same function object in any
dynlyap module (``lyapunov._arch_green``, ``analysis.L_n_local``,
``cli.multiplier_polynomial``, ``maps.elem_log_abs`` ...).  No library
source is edited.  ``Fraction`` is never wrapped.

Three wrapper kinds:

span   one span per call: name, start, end, parent span, job id, error.
hot    no span; count and self time are added to the enclosing span (used
       for ``Poly.__mul__``, ``Poly.divmod``, ``poly_gcd`` and friends,
       which run hundreds of thousands of times).
probe  no timing at all; only feeds a counter (work sizes, cache hits).

Self time of a call is its duration minus the time of wrapped calls made
inside it.  Spans stay in memory and are written once, by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

LAYERS = ("cli", "mapio", "maps", "multipliers", "algebra", "places", "heights",
          "roots", "lyapunov", "analysis")

# (module, attribute or Class.attribute, kind)
TARGETS = [
    ("cli", "run", "span"),
    ("cli", "_build_parser", "span"),
    ("cli", "_emit", "span"),
    *[("cli", f"_cmd_{c}", "span") for c in (
        "multipliers", "lyapunov", "canonical_height", "crit_height", "ff_analyze",
        "slope", "consistency", "verify_bounds")],
    ("mapio", "parse_map", "span"),
    ("mapio", "format_map", "span"),
    ("mapio", "parse_place", "hot"),
    ("mapio", "parse_coefficient", "hot"),
    ("mapio", "parse_t_poly", "hot"),
    ("mapio", "parse_fraction", "hot"),
    ("mapio", "format_coefficient", "hot"),
    ("mapio", "format_t_poly", "hot"),
    ("mapio", "format_fraction", "hot"),
    ("maps", "new_map", "span"),
    ("maps", "iterate_lift", "span"),
    ("maps", "RationalMap.iterate_lift_cached", "span"),
    ("maps", "resultant_of_lift", "span"),
    ("maps", "fixed_point_divisor", "span"),
    ("maps", "critical_divisor", "span"),
    ("maps", "multiplier_rational_function", "span"),
    ("maps", "abs_resultant", "span"),
    ("maps", "conjugate", "span"),
    ("maps", "cycle_multiplier", "span"),
    ("maps", "orbit", "span"),
    ("maps", "_compose", "hot"),
    ("maps", "minimal_lift", "hot"),
    ("maps", "apply_map", "hot"),
    ("multipliers", "multiplier_polynomial", "span"),
    ("multipliers", "fixstar_multiplier_charpoly", "span"),
    ("multipliers", "dynatomic_divisor", "span"),
    ("multipliers", "_multiplier_power_sums", "probe"),
    ("multipliers", "_mod_div", "span"),
    ("multipliers", "_field_mod_div", "span"),
    ("multipliers", "charpoly_multipliers_full", "span"),
    ("multipliers", "power_roots_poly", "span"),
    ("multipliers", "_infinity_cycle_data", "span"),
    ("multipliers", "_normalize_proj", "span"),
    ("multipliers", "lambda_tilde_point", "span"),
    ("multipliers", "lambda_point", "span"),
    ("algebra", "Poly.__mul__", "hot"),
    ("algebra", "Poly.divmod", "hot"),
    ("algebra", "poly_gcd", "hot"),
    ("algebra", "poly_exact_div", "hot"),
    ("algebra", "_ratfunc_normalize", "hot"),
    ("algebra", "poly_nth_root", "span"),
    ("algebra", "poly_resultant", "span"),
    ("algebra", "factor_int", "span"),
    ("algebra", "rational_roots", "span"),
    ("algebra", "bareiss_det", "span"),
    ("places", "local_abs", "hot"),
    ("places", "Place.prime", "hot"),
    ("heights", "canonical_height", "span"),
    ("heights", "critical_height_direct", "span"),
    ("heights", "local_green", "span"),
    ("heights", "_nonarch_green", "span"),
    ("heights", "_nonarch_iterate", "span"),
    ("heights", "_arch_green", "span"),
    ("heights", "_arch_sup_t_bound", "span"),
    ("heights", "_bezout_cofactors", "span"),
    ("heights", "bad_places", "span"),
    ("heights", "_preperiodic", "span"),
    ("heights", "naive_height", "span"),
    ("heights", "map_height", "span"),
    ("roots", "aberth_roots", "span"),
    ("roots", "_aberth_iterate", "hot"),
    ("roots", "_newton_polish", "hot"),
    ("roots", "_verified", "hot"),
    ("lyapunov", "L_n_local", "span"),
    ("lyapunov", "lyapunov_arch", "span"),
    ("lyapunov", "lyapunov_nonarch_sequence", "span"),
    ("lyapunov", "approximation_bound", "span"),
    ("lyapunov", "epsilon_radius", "hot"),
    ("lyapunov", "lipschitz_data", "span"),
    ("lyapunov", "_sup_chordal_derivative", "span"),
    *[("analysis", f, "span") for f in (
        "crit_height_multiplier_estimate", "crit_height_truncated_estimate",
        "crit_height_series", "ff_degree_sequence", "_classify", "isotriviality_report",
        "degeneration_slope", "_check_poles_only_at", "global_consistency")],
]


class _Frame:
    __slots__ = ("name", "start", "child", "sid", "parent", "is_hot", "kids", "hot")

    def __init__(self, name, start, sid, parent, is_hot):
        self.name = name
        self.start = start
        self.child = 0.0
        self.sid = sid
        self.parent = parent      # sid of the nearest enclosing span
        self.is_hot = is_hot
        self.kids = {}            # wrapped callee name -> calls
        self.hot = {}             # hot callee name -> [calls, self seconds], spans only


class Tracer:
    """In-memory span recorder; inactive until ``start_job`` is called."""

    def __init__(self):
        self.active = False
        self.stack = []
        self.spans = []
        self.next_sid = 0
        self.job = None
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.incl = defaultdict(float)   # outermost calls only, so recursion counts once
        self.self_s = defaultdict(float)
        self.depth = defaultdict(int)
        self.counts = defaultdict(float)
        self._patched = []

    # -- recording ----------------------------------------------------------

    def _span_ancestor(self):
        for frame in reversed(self.stack):
            if not frame.is_hot:
                return frame
        return None

    def _enter(self, name, is_hot):
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.kids[name] = parent.kids.get(name, 0) + 1
        owner = self._span_ancestor()
        sid = None
        if not is_hot:
            sid = self.next_sid
            self.next_sid += 1
        frame = _Frame(name, 0.0, sid, owner.sid if owner else None, is_hot)
        self.depth[name] += 1
        self.stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _leave(self, frame, error):
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame.start
        own = dur - frame.child
        name = frame.name
        self.calls[name] += 1
        self.self_s[name] += own
        self.depth[name] -= 1
        if not self.depth[name]:
            self.incl[name] += dur
        if error:
            self.errors[name] += 1
        if self.stack:
            self.stack[-1].child += dur
        if frame.is_hot:
            owner = self._span_ancestor()
            if owner is not None:
                agg = owner.hot.setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += own
        else:
            self.spans.append((frame.sid, frame.parent, self.job, name, frame.start, end,
                               error, frame.hot or None))

    def start_job(self, job_id):
        self.job = job_id
        self.active = True
        return self._enter("job", False)

    def end_job(self, frame):
        self._leave(frame, None)
        self.active = False
        self.job = None

    # -- installation -------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"dynlyap.{m}") for m in LAYERS}
        for mod_name, attr, kind in TARGETS:
            owner = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[meth]
                orig = raw.__func__ if isinstance(raw, staticmethod) else raw
            else:
                meth, orig = attr, getattr(owner, attr)
            wrapper = self._wrapper(f"{mod_name}.{attr}", orig, kind)
            if isinstance(owner, type):
                for key, value in list(owner.__dict__.items()):
                    if value is raw:
                        new = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
                        self._patched.append((owner, key, raw))
                        setattr(owner, key, new)
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def _wrapper(self, name, fn, kind):
        tracer = self
        before, after = _HOOKS.get(name, (None, None))
        if kind == "probe":
            def probe(*args, **kwargs):
                if tracer.active:
                    after(tracer, args, None, None)
                return fn(*args, **kwargs)
            return functools.update_wrapper(probe, fn)
        hot = kind == "hot"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tag = before(tracer, args) if before else None
            frame = tracer._enter(name if tag is None else f"{name}[{tag}]", hot)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._leave(frame, type(exc).__name__)
                raise
            tracer._leave(frame, None)
            if after:
                after(tracer, args, result, frame)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- output -------------------------------------------------------------

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["sid", "parent", "job", "name", "start",
                                                "end", "error", "hot_children"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# hooks: counters measured where the work happens
# ---------------------------------------------------------------------------

def _spectrum_cache(kind):
    """Before-hook counting lookups and hits of one ``fmap._iterates`` key kind."""
    def before(tr, args):
        tr.counts["multipliers.cache_lookups"] += 1
        if (kind, args[1]) in args[0]._iterates:
            tr.counts["multipliers.cache_hits"] += 1
    return before


def _power_sums_probe(tr, args, result, frame):
    phi, count = args[2], args[3]
    if count and phi.degree > 0:
        tr.counts["multipliers.trace_products"] += count - 1
        tr.counts["multipliers.phi_deg_sum"] += phi.degree


def _iterate_cached_before(tr, args):
    tr.counts["maps.iterate_cache_lookups"] += 1
    if args[1] in args[0]._iterates:
        tr.counts["maps.iterate_cache_hits"] += 1


def _iterate_after(tr, args, result, frame):
    bits = result.coefficient_bits()
    if bits > tr.counts["maps.lift_bits_max"]:
        tr.counts["maps.lift_bits_max"] = bits


def _green_kind(tr, args):
    """Tag for the span name: function-field (series) or p-adic place."""
    return "ff" if args[2].is_function_field() else "p"


def _nonarch_green_after(tr, args, result, frame):
    kind = _green_kind(tr, args)
    tr.counts[f"heights.nonarch_green[{kind}].exact"] += 1 if result.is_exact() else 0
    tr.counts[f"heights.nonarch_green[{kind}].retries"] += max(
        0, frame.kids.get("heights._nonarch_iterate", 0) - 1)


_HOOKS = {
    "multipliers.fixstar_multiplier_charpoly": (_spectrum_cache("fixstar_charpoly"), None),
    "multipliers.dynatomic_divisor": (_spectrum_cache("dynatomic"), None),
    "multipliers._multiplier_power_sums": (None, _power_sums_probe),
    "maps.RationalMap.iterate_lift_cached": (_iterate_cached_before, None),
    "maps.iterate_lift": (None, _iterate_after),
    "heights._nonarch_green": (_green_kind, _nonarch_green_after),
}


# ---------------------------------------------------------------------------
# per-layer metrics, per pass of the job list
# ---------------------------------------------------------------------------

def layer_metrics(tr: Tracer, passes: int, report_bytes: int) -> dict:
    """The per-layer metrics of BENCHMARK.json as {name: (value, unit)}.

    ``*_s`` is inclusive seconds of the named function (outermost calls),
    ``*self_s`` seconds not spent in other wrapped calls; both, and all
    counts, are per pass of the job list.
    """
    per = 1.0 / passes

    def incl(name):
        return tr.incl.get(name, 0.0) * per

    def own(name):
        return tr.self_s.get(name, 0.0) * per

    def calls(name):
        return tr.calls.get(name, 0) * per

    def count(name):
        return tr.counts.get(name, 0.0) * per

    def ratio(num, den):
        return num / den if den else 0.0

    def layer_self(layer):
        return per * sum(v for k, v in tr.self_s.items() if k.split(".")[0] == layer)

    green, series = "heights._nonarch_green[p]", "heights._nonarch_green[ff]"
    s, c, r = "s", "count", "ratio"
    m = {f"{layer}.self_s": (layer_self(layer), s) for layer in LAYERS}
    m.update({
        "multipliers.fixstar_self_s": (own("multipliers.fixstar_multiplier_charpoly"), s),
        "multipliers.mod_div_s": (incl("multipliers._mod_div"), s),
        "multipliers.mod_div_calls": (calls("multipliers._mod_div"), c),
        "multipliers.field_mod_div_s": (incl("multipliers._field_mod_div"), s),
        "multipliers.dynatomic_s": (incl("multipliers.dynatomic_divisor"), s),
        "multipliers.chi_full_s": (incl("multipliers.charpoly_multipliers_full"), s),
        "multipliers.normalize_proj_s": (incl("multipliers._normalize_proj"), s),
        "multipliers.trace_products": (count("multipliers.trace_products"), c),
        "multipliers.phi_deg_sum": (count("multipliers.phi_deg_sum"), c),
        "multipliers.spectrum_calls": (calls("multipliers.multiplier_polynomial"), c),
        "multipliers.cache_hit_ratio": (ratio(tr.counts["multipliers.cache_hits"],
                                              tr.counts["multipliers.cache_lookups"]), r),
        "algebra.divmod_s": (incl("algebra.Poly.divmod"), s),
        "algebra.divmod_calls": (calls("algebra.Poly.divmod"), c),
        "algebra.nth_root_s": (incl("algebra.poly_nth_root"), s),
        "algebra.poly_mul_s": (incl("algebra.Poly.__mul__"), s),
        "algebra.poly_mul_calls": (calls("algebra.Poly.__mul__"), c),
        "algebra.ratfunc_normalize_s": (incl("algebra._ratfunc_normalize"), s),
        "algebra.ratfunc_normalize_calls": (calls("algebra._ratfunc_normalize"), c),
        "algebra.poly_gcd_s": (incl("algebra.poly_gcd"), s),
        "algebra.poly_gcd_calls": (calls("algebra.poly_gcd"), c),
        "algebra.factor_int_s": (incl("algebra.factor_int"), s),
        "algebra.rational_roots_s": (incl("algebra.rational_roots"), s),
        "algebra.bareiss_s": (incl("algebra.bareiss_det"), s),
        "maps.iterate_lift_s": (incl("maps.iterate_lift"), s),
        "maps.iterate_lift_calls": (calls("maps.iterate_lift"), c),
        "maps.lift_bits_max": (tr.counts["maps.lift_bits_max"], "bits"),
        "maps.iterate_cache_hit_ratio": (ratio(tr.counts["maps.iterate_cache_hits"],
                                               tr.counts["maps.iterate_cache_lookups"]), r),
        "maps.resultant_of_lift_s": (incl("maps.resultant_of_lift"), s),
        "maps.resultant_of_lift_calls": (calls("maps.resultant_of_lift"), c),
        "heights.nonarch_green_s": (incl(green), s),
        "heights.nonarch_green_calls": (calls(green), c),
        "heights.nonarch_precision_retries": (count(f"{green}.retries"), c),
        "heights.nonarch_exact_ratio": (ratio(tr.counts[f"{green}.exact"], tr.calls[green]), r),
        "heights.arch_green_s": (incl("heights._arch_green"), s),
        "heights.arch_green_calls": (calls("heights._arch_green"), c),
        "heights.sup_t_bound_s": (incl("heights._arch_sup_t_bound"), s),
        "heights.sup_t_bound_calls": (calls("heights._arch_sup_t_bound"), c),
        "heights.bad_places_s": (incl("heights.bad_places"), s),
        "heights.preperiodic_s": (incl("heights._preperiodic"), s),
        "heights.canonical_height_self_s": (own("heights.canonical_height"), s),
        "heights.series_green_s": (incl(series), s),
        "heights.series_green_calls": (calls(series), c),
        "roots.aberth_s": (incl("roots.aberth_roots"), s),
        "roots.aberth_calls": (calls("roots.aberth_roots"), c),
        "roots.attempts_per_call": (ratio(tr.calls["roots._aberth_iterate"],
                                          tr.calls["roots.aberth_roots"]), r),
        "roots.failures": (tr.errors.get("roots.aberth_roots", 0) * per, c),
        "lyapunov.L_n_local_self_s": (own("lyapunov.L_n_local"), s),
        "lyapunov.arch_exponent_self_s": (own("lyapunov.lyapunov_arch"), s),
        "lyapunov.bound_s": (incl("lyapunov.approximation_bound"), s),
        "places.local_abs_s": (incl("places.local_abs"), s),
        "places.local_abs_calls": (calls("places.local_abs"), c),
        "places.place_prime_s": (incl("places.Place.prime"), s),
        "cli.run_calls": (calls("cli.run"), c),
        "mapio.parse_map_s": (incl("mapio.parse_map"), s),
        "mapio.format_s": (per * sum(v for k, v in tr.self_s.items()
                                     if k.startswith("mapio.format_")), s),
        "mapio.report_bytes": (report_bytes * per, "bytes"),
    })
    return m
