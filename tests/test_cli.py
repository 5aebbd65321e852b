import json
import math
import subprocess
import sys

import pytest

from dynlyap.cli import run
from dynlyap.mapio import (
    format_map,
    format_t_poly,
    parse_fraction,
    parse_map,
    parse_place,
    parse_t_poly,
)
from dynlyap.errors import DegenerateMap, ParseError, ResourceLimit

BASILICA = '{"d":2,"a":["1","0","-1"],"b":["0","0","1"]}'
SQUARE = '{"d":2,"a":["1","0","0"],"b":["0","0","1"]}'
POLE = ('{"d":2,"a":[{"num":"1","den":"1"},{"num":"0","den":"1"},{"num":"1","den":"t"}],'
        '"b":[{"num":"0","den":"1"},{"num":"0","den":"1"},{"num":"1","den":"1"}]}')
ZT = ('{"d":2,"a":[{"num":"1","den":"1"},{"num":"0","den":"1"},{"num":"t","den":"1"}],'
      '"b":[{"num":"0","den":"1"},{"num":"0","den":"1"},{"num":"1","den":"1"}]}')


def run_json(argv, expect=0, capsys=None):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    assert code == expect, (code, buf.getvalue())
    return json.loads(buf.getvalue())


class TestMapIO:
    def test_round_trip_q(self):
        fm = parse_map(BASILICA)
        assert fm.base == "Q"
        again = parse_map(json.dumps(format_map(fm)))
        assert format_map(again) == format_map(fm)

    def test_round_trip_qt(self):
        fm = parse_map(ZT)
        assert fm.base == "Q(t)"
        printed = json.dumps(format_map(fm))
        assert format_map(parse_map(printed)) == format_map(fm)

    def test_t_poly_round_trip(self):
        for s in ("3*t^2-1/2*t+4", "t", "-t^3+1", "0", "7/5", "t^4-t"):
            p = parse_t_poly(s)
            assert parse_t_poly(format_t_poly(p)) == p

    def test_t_poly_degree_budget(self, monkeypatch):
        # a machine word per coefficient of the dense list, checked before it is built
        with pytest.raises(ResourceLimit):
            parse_t_poly("t^1000000000")
        monkeypatch.setenv("DYNLYAP_BUDGET_BITS", "320")
        assert parse_t_poly("3*t^4-1").degree == 4
        with pytest.raises(ResourceLimit):
            parse_t_poly("t^5")

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_map('{"d":2,"a":["1","0"],"b":["0","0","1"]}')
        with pytest.raises(ParseError):
            parse_map('{"d":2,"a":["x","0","0"],"b":["0","0","1"]}')
        with pytest.raises(ParseError):
            parse_map('{"d":2,"a":["1","0","0"],"b":["0","0","1"],"extra":1}')
        with pytest.raises(DegenerateMap):
            parse_map('{"d":2,"a":["1","0","0"],"b":["1","0","0"]}')

    def test_places(self):
        assert str(parse_place("arch")) == "arch"
        assert str(parse_place("p:7")) == "p:7"
        assert str(parse_place("t=0")) == "t=0"
        assert str(parse_place("t=inf")) == "t=inf"
        assert str(parse_place("t=-1/2")) == "t=-1/2"
        with pytest.raises(ParseError):
            parse_place("q:4")


class TestSubcommands:
    def test_multipliers_basilica(self):
        rep = run_json(["multipliers", "--map", BASILICA, "--n", "2"])
        assert rep["result"]["sigma_star"] == ["1", "0", "0"]
        assert rep["result"]["lambda_tilde"] == ["0", "0", "1"]

    def test_lyapunov_sequence(self):
        rep = run_json(["lyapunov", "--map", SQUARE, "--place", "p:2", "--n-max", "4"])
        qs = [e["value"]["q"] for e in rep["result"]["sequence"]]
        assert qs == ["-5/3", "-1", "-1", "-1"]
        assert all(e["units"] == "log2" for e in rep["result"]["sequence"])

    def test_lyapunov_negative_radius_forms(self):
        # at a finite place --r is log r in units of log p: a negative value
        # after --r is a value, not an option
        argv = ["lyapunov", "--map", HALF, "--place", "p:2", "--n-max", "2"]
        rep = run_json([*argv, "--r", "-1/2"])
        assert run_json([*argv, "--r=-1/2"]) == rep
        assert [e["units"] for e in rep["result"]["sequence"]] == ["log2", "log2"]

    def test_lyapunov_arch(self):
        rep = run_json(["lyapunov", "--map", SQUARE, "--place", "arch", "--n-max", "2"])
        assert abs(rep["result"]["lyapunov_exponent"]["value"] - math.log(2)) < 1e-6

    def test_canonical_height(self):
        rep = run_json(["canonical-height", "--map", SQUARE, "--point", "2"])
        assert abs(rep["result"]["height"]["value"] - math.log(2)) < 1e-8
        rep0 = run_json(["canonical-height", "--map", BASILICA, "--point", "0"])
        assert rep0["result"]["height"]["exact"] == "0"

    def test_canonical_height_point_forms(self):
        # a negative value after --point is a value, not an option
        rep = run_json(["canonical-height", "--map", SQUARE, "--point", "-3/2"])
        assert rep["result"]["point"] == "-3/2"
        assert abs(rep["result"]["height"]["value"] - math.log(3)) < 1e-8
        assert run_json(["canonical-height", "--map", SQUARE, "--point=-3/2"]) == rep
        inf = run_json(["canonical-height", "--map", SQUARE, "--point", "inf"])
        assert inf["result"]["height"]["exact"] == "0"

    @pytest.mark.parametrize("point, expected", [
        # 10^200 squared overflows a float
        ("1" + "0" * 200, 200 * math.log(10)),
        # each square fits in a float but their sum does not
        ("1" + "0" * 153 + "1/1" + "0" * 154, 154 * math.log(10)),
    ], ids=["square-overflows", "sum-overflows"])
    def test_canonical_height_beyond_float_squares(self, point, expected):
        # the log-norm comes from the exact integers
        proc = subprocess.run(
            [sys.executable, "-m", "dynlyap", "canonical-height", "--map", SQUARE,
             "--point", point],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
        height = json.loads(proc.stdout)["result"]["height"]
        assert math.isfinite(height["value"])
        assert abs(height["value"] - expected) <= height["err"]

    def test_crit_height(self):
        rep = run_json(["crit-height", "--map", BASILICA, "--n-max", "2"])
        assert rep["result"]["direct"]["exact"] == "0"
        assert rep["result"]["gaps"][1] == 0.0

    def test_ff_analyze(self):
        rep = run_json(["ff-analyze", "--map", ZT, "--n-max", "2"])
        assert rep["result"]["entries"][1]["normalized"] == "1/2"
        assert rep["result"]["classification"] == "CertifiedNonIsotrivial"

    def test_slope(self):
        rep = run_json(["slope", "--map", POLE, "--center", "t=0", "--n-max", "2"])
        assert rep["result"]["alphas"][-1]["alpha"] == "1/2"

    def test_consistency(self):
        rep = run_json(["consistency", "--map", BASILICA, "--n", "2"])
        assert rep["result"]["residual"] == 0.0

    def test_verify_bounds(self):
        rep = run_json(["verify-bounds", "--map", SQUARE, "--place", "p:2", "--n-max", "4"])
        assert rep["result"]["all_hold"] is True


class TestExitCodes:
    def test_input_error(self):
        assert run(["multipliers", "--map", '{"d":2,"a":["x","0","0"],"b":["0","0","1"]}',
                    "--n", "1"]) == 2

    def test_degenerate_map(self):
        assert run(["multipliers", "--map", '{"d":2,"a":["1","0","0"],"b":["1","0","0"]}',
                    "--n", "1"]) == 2

    def test_resource_limit(self):
        assert run(["multipliers", "--map", SQUARE, "--n", "25"]) == 3

    @pytest.mark.parametrize("argv", [["canonical-height", "--point", "1"],
                                      ["lyapunov", "--place", "arch"]])
    def test_coefficient_beyond_float_range(self, argv):
        # z^2 + 10^400: the archimedean place works in floats
        huge = '{"d":2,"a":["1","0","1' + "0" * 400 + '"],"b":["0","0","1"]}'
        rep = run_json([argv[0], "--map", huge, *argv[1:]], expect=3)
        assert rep["error"]["kind"] == "resource_limit"
        assert "float range" in rep["error"]["message"]

    def test_missing_file(self):
        assert run(["multipliers", "--map", "/nonexistent/map.json", "--n", "1"]) == 2

    def test_large_prime_place(self):
        # 2^61 - 1: proven prime by Miller-Rabin, far out of reach of trial division
        rep = run_json(["lyapunov", "--map", SQUARE, "--place", "p:2305843009213693951",
                        "--n-max", "2"])
        assert rep["result"]["place"] == "p:2305843009213693951"
        assert [e["value"]["q"] for e in rep["result"]["sequence"]] == ["0", "0"]
        # a composite, and a number past the bound where Miller-Rabin proves primality
        for bad in ("2305843009213693953", "3317044064679887385961981"):
            assert run(["lyapunov", "--map", SQUARE, "--place", f"p:{bad}", "--n-max", "2"]) == 2


class TestDeterminism:
    def test_byte_identical_reports(self):
        import io
        from contextlib import redirect_stdout

        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert run(["crit-height", "--map", BASILICA, "--n-max", "3"]) == 0
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_cached_parser_matches_a_fresh_one(self, monkeypatch, capsys):
        from dynlyap import cli

        calls = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: calls.append(1) or build())
        jobs = [
            (["multipliers", "--map", BASILICA, "--n"], 2),  # argparse: no value for --n
            (["multipliers", "--map", BASILICA, "--n", "2"], 0),
            (["slope", "--map", POLE, "--center", "t=0", "--n-max", "2"], 0),
            (["lyapunov", "--map", SQUARE, "--place", "p:3", "--n-max", "2"], 0),
        ]

        def outputs(fresh):
            got = []
            for argv, code in jobs:
                if fresh:
                    monkeypatch.setattr(cli, "_parser", None)
                assert run(argv) == code
                out = capsys.readouterr()
                got.append((out.out, out.err))
            return got

        monkeypatch.setattr(cli, "_parser", None)
        cached = outputs(fresh=False)
        assert len(calls) == 1
        assert outputs(fresh=True) == cached
        assert cached[0][1].startswith("usage:") and cached[1][0].startswith("{")

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dynlyap", "multipliers", "--map", BASILICA, "--n", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["result"]["sigma_star"] == ["1", "2", "-4", "0"]


class TestBudgetEnv:
    def test_budget_bits_env(self, monkeypatch):
        monkeypatch.setenv("DYNLYAP_BUDGET_BITS", "4096")
        from dynlyap.budget import default_budget

        assert default_budget().max_total_bits == 4096
        # a period that exceeds the coefficient budget now fails cleanly
        # (z^2 stays sparse forever, so use a map whose iterates fatten)
        assert run(["multipliers", "--map", BASILICA, "--n", "8"]) == 3


HALF = '{"d":2,"a":["1","0","1/2"],"b":["0","0","1"]}'  # z^2 + 1/2 over Q
QUINTIC = '{"d":5,"a":["1","0","0","0","1","1/2"],"b":["0","0","0","0","0","1"]}'  # z^5+z+1/2
QUINTIC_HALF = '{"d":5,"a":["1","0","0","0","0","1/2"],"b":["0","0","0","0","0","1"]}'  # z^5+1/2


class TestDomainErrors:
    """An argument outside a subcommand's domain is an input error (exit 2)."""

    @pytest.mark.parametrize("cmd, code", [
        ("multipliers Q --n 0", 2),
        ("multipliers Q --n -1", 2),
        ("consistency Q --n 0", 2),
        ("lyapunov Q --place p:2 --n-max 0", 2),
        ("slope QT --center t=0 --n-max 0", 2),
        ("lyapunov QT --place arch", 2),
        ("slope Q --center t=0", 2),
        ("slope QT --center p:2", 2),
        ("ff-analyze Q", 2),
        ("consistency QT --n 1", 2),
        ("lyapunov Q --place arch --r 2", 2),
        ("lyapunov Q --place arch --r 0", 2),
        ("lyapunov Q --place arch --r=-1/2", 2),
        # at a finite place --r is log r, which must be <= 0
        ("lyapunov Q --place p:2 --r 1/2", 2),
        ("lyapunov Q --place p:2 --r 5", 2),
        ("lyapunov QT --place t=0 --r 1", 2),
        # a Green tolerance must be > 0; one whose step count d^N passes the
        # float range is unreachable
        ("canonical-height Q --point 1/3 --tol 0", 2),
        ("canonical-height Q --point 1/3 --tol -1", 2),
        ("canonical-height Q --point 1/3 --tol nan", 2),
        ("crit-height Q --tol 0", 2),
        ("crit-height Q --tol -1", 2),
        ("lyapunov Q --place arch --tol 0", 2),
        ("lyapunov Q --place arch --tol nan", 2),
        ("lyapunov Q5 --place arch --n-max 1 --tol 0", 2),
        ("canonical-height Q --point 1/3 --tol 1e-320", 3),
        ("crit-height Q --tol 1e-320", 3),
        ("lyapunov Q --place arch --tol 1e-320", 3),
        ("lyapunov Q5 --place arch --n-max 1 --tol 1e-320", 3),
        # the root layer gives up on the degree-40 factors of p_{5,3}: a
        # resource limit, not an input error
        ("lyapunov Q5H --place arch --n-max 3", 3),
        # no bound is read off a last term here: an empty sequence is a report
        ("crit-height Q --n-max 0", 0),
        ("lyapunov Q --place arch --n-max 0", 0),
    ])
    def test_exit_code(self, cmd, code):
        sub, base, *rest = cmd.split()
        maps = {"Q": HALF, "Q5": QUINTIC, "Q5H": QUINTIC_HALF, "QT": ZT}
        rep = run_json([sub, "--map", maps[base], *rest], expect=code)
        if code:
            kind = {2: "input", 3: "resource_limit"}[code]
            assert rep["error"]["kind"] == kind and rep["error"]["message"]
        else:
            assert "error" not in rep

    @pytest.mark.parametrize("argv", [
        ["multipliers", "--map", '{"d":2,"a":["1","0","1/0"],"b":["0","0","1"]}', "--n", "1"],
        ["multipliers", "--map", ZT.replace('"num":"t"', '"num":"1/0*t"'), "--n", "1"],
        ["canonical-height", "--map", HALF, "--point", "1/0"],
        ["lyapunov", "--map", ZT, "--place", "t=1/0"],
        ["lyapunov", "--map", HALF, "--place", "arch", "--r", "1/0"],
        ["multipliers", "--map", ZT.replace('"num":"t","den":"1"', '"num":5'), "--n", "1"],
        ["multipliers", "--map", ZT.replace('"num":"t","den":"1"', '"num":"t","den":2'), "--n", "1"],
    ], ids=["coefficient", "t-poly", "point", "place", "radius", "bare num", "bare den"])
    def test_malformed_rational(self, argv):
        # a zero denominator, or a num / den that is not a string
        rep = run_json(argv, expect=2)
        assert rep["error"]["kind"] == "input" and rep["error"]["message"]

    @pytest.mark.parametrize("cmd, given", [
        # z^2 at 1: the preperiodic short-circuit used to answer 0 first
        ("canonical-height SQ --point 1 --tol -1", "-1.0"),
        ("canonical-height SQ --point 1 --tol 0", "0.0"),
        ("canonical-height SQ --point 1 --tol nan", "nan"),
        ("crit-height SQ --tol -1", "-1.0"),
        # read only at arch
        ("lyapunov Q --place p:2 --tol -1", "-1.0"),
        # the message names the given value, not a per-term share of it
        ("canonical-height Q --point 1/3 --tol -1", "-1.0"),
        ("lyapunov Q --place arch --tol -1", "-1.0"),
        ("crit-height Q --tol -1", "-1.0"),
    ])
    def test_tol_checked_first(self, cmd, given):
        sub, base, *rest = cmd.split()
        rep = run_json([sub, "--map", {"Q": HALF, "SQ": SQUARE}[base], *rest], expect=2)
        assert rep["error"] == {"kind": "input", "message": f"tol must be > 0, got {given}"}

    def test_tol_share_underflow_is_a_resource_limit(self):
        # 5e-324 > 0, but its share of three terms rounds to 0
        rep = run_json(["canonical-height", "--map", HALF, "--point", "1/3", "--tol", "5e-324"],
                       expect=3)
        assert rep["error"]["kind"] == "resource_limit"

    def test_huge_t_degree(self):
        # a dense t^1000000000 would be 10^9 coefficients: refused before it is built
        huge = ZT.replace('"num":"t"', '"num":"t^1000000000"')
        rep = run_json(["ff-analyze", "--map", huge], expect=3)
        assert rep["error"]["kind"] == "resource_limit"
        assert "degree 1000000000" in rep["error"]["message"]

    @pytest.mark.parametrize("r", ["0", "-1/2", "2"])
    def test_arch_radius_message(self, r):
        rep = run_json(["lyapunov", "--map", HALF, "--place", "arch", f"--r={r}"], expect=2)
        assert rep["error"] == {"kind": "input",
                                "message": "archimedean truncation radius must satisfy 0 < r <= 1"}

    @pytest.mark.parametrize("bits", ["abc", "-5", "0"])
    def test_budget_bits_env(self, monkeypatch, bits):
        monkeypatch.setenv("DYNLYAP_BUDGET_BITS", bits)
        rep = run_json(["multipliers", "--map", HALF, "--n", "2"], expect=2)
        assert rep["error"] == {
            "kind": "input",
            "message": f"DYNLYAP_BUDGET_BITS must be a positive integer, got {bits!r}"}

    def test_no_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dynlyap", "multipliers", "--map", HALF, "--n", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
        assert json.loads(proc.stdout)["error"] == {"kind": "input", "message": "period must be >= 1"}
