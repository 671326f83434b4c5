import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import zetaquad
from zetaquad.cli import (
    CliParseError,
    dumps_fixed,
    main,
    parse_branched,
    parse_complex,
    render_complex,
)
from zetaquad.hurwitz import _value_weights


def _child_env():
    """The environment for a child interpreter that imports this zetaquad."""
    src = os.path.dirname(os.path.dirname(zetaquad.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestLiteralGrammar:
    @pytest.mark.parametrize("parse,text,value", [
        (parse_complex, "5.", 5 + 0j),
        (parse_complex, ".5", 0.5 + 0j),
        (parse_complex, "+.5e-3", 0.0005 + 0j),
        (parse_complex, "1E5", 100000 + 0j),
        (parse_complex, "-0.5+2e-3i", -0.5 + 0.002j),
        (parse_branched, "1@0", (1.0, 0.0)),
        (parse_branched, "3+4i", (5.0, math.atan2(4.0, 3.0))),
        # a negative principal argument is moved into [0, 2*pi)
        (parse_branched, "1-1i", (math.sqrt(2.0), math.atan2(-1.0, 1.0) + 2 * math.pi)),
        (parse_complex, "1", 1 + 0j),
        (parse_complex, "-1.5", -1.5 + 0j),
        (parse_complex, "0.5+0.3i", 0.5 + 0.3j),
        (parse_complex, "2-1i", 2 - 1j),
        (parse_complex, " 3+4i ", 3 + 4j),
        # a polar literal's argument is taken as written
        (parse_branched, "2@2.35619449019234", (2.0, 2.35619449019234)),
        (parse_branched, "-1+0i", (1.0, math.pi)),
        # an argument that rounds onto 2*pi is stored just below it
        (parse_branched, "1-1e-17i", (1.0, math.nextafter(2 * math.pi, 0.0))),
        (parse_branched, "1-1e-300i", (1.0, math.nextafter(2 * math.pi, 0.0))),
    ])
    def test_accepted(self, parse, text, value):
        got = parse(text)
        assert (got if parse is parse_complex else (got.r, got.theta)) == value

    @pytest.mark.parametrize("parse,text,message", [
        (parse_complex, "1e", "malformed exponent at position 1: '1e'"),
        (parse_complex, "1e+", "malformed exponent at position 1: '1e+'"),
        (parse_complex, "1e5e5", "unexpected character at position 3: '1e5e5'"),
        (parse_complex, ".", "expected real part at position 0: '.'"),
        (parse_complex, "+", "expected real part at position 0: '+'"),
        (parse_complex, "1+.i", "expected imaginary part at position 1: '1+.i'"),
        (parse_complex, "1.5+2x", "expected trailing 'i' at position 5: '1.5+2x'"),
        # a superscript digit is not a decimal digit
        (parse_complex, "2\u00b2", "unexpected character at position 1: '2\u00b2'"),
        (parse_branched, "2@-0.1", "argument must lie in [0, 2*pi), got -0.1: '2@-0.1'"),
        (parse_branched, "+2@1", "modulus must be a positive decimal: '+2@1'"),
        (parse_branched, "2@1x", "trailing input in argument: '2@1x'"),
        # finite literals only: float() would turn these into inf
        (parse_complex, "1e400", "number out of range at position 0: '1e400'"),
        (parse_complex, "1-1e400i", "number out of range at position 1: '1-1e400i'"),
        (parse_branched, "2@1e400", "number out of range at position 2: '2@1e400'"),
        # positions and the echoed literal refer to the whole polar literal
        (parse_branched, "@1", "expected modulus at position 0: '@1'"),
        (parse_branched, "2@", "expected argument at position 2: '2@'"),
        # each part is finite but the modulus overflows
        (parse_branched, "1e308+1.5e308i", "modulus out of range: '1e308+1.5e308i'"),
        (parse_complex, "", "empty complex literal: ''"),
        (parse_complex, "i", "expected real part at position 0: 'i'"),
        (parse_complex, "1+i", "expected imaginary part at position 1: '1+i'"),
        (parse_complex, "1+2j", "expected trailing 'i' at position 3: '1+2j'"),
        (parse_complex, "1+2i3", "trailing input at position 4: '1+2i3'"),
        (parse_complex, "++1", "expected real part at position 0: '++1'"),
        (parse_complex, "1 + 2i", "unexpected character at position 1: '1 + 2i'"),
        # the argument is not normalised into [0, 2*pi); the record's own
        # refusal is followed by the literal
        (parse_branched, "1@6.30", "argument must lie in [0, 2*pi), got 6.3: '1@6.30'"),
        (parse_branched, "1@-0.1", "argument must lie in [0, 2*pi), got -0.1: '1@-0.1'"),
        (parse_branched, "0@1", "modulus must be positive, got 0.0: '0@1'"),
        (parse_branched, "0", "constant a must be nonzero: '0'"),
        (parse_branched, "-2@1.0", "modulus must be a positive decimal: '-2@1.0'"),
    ])
    def test_rejected(self, parse, text, message):
        with pytest.raises(CliParseError) as exc:
            parse(text)
        assert str(exc.value) == message


# Every character RFC 8259 escapes, and some it leaves as they are: DEL,
# non-ASCII letters, a line separator and a lone surrogate
AWKWARD = "".join(map(chr, range(0x20))) + '"\\/ \x7f é \u2028 \ud800 end'

# Float-free documents, which dumps_fixed writes exactly as json.dumps does
LAYOUT_DOCS = {
    "scalars": [0, -7, 2**70, None, True, False, ""],
    "empties": {"e": {}, "l": [], "t": (), "top": [[], {}, ()]},
    "nesting": {"deep": [[[], [{}]], ({"x": (1, 2)},)], "last": {"a": {"b": {"c": []}}}},
    "awkward": {AWKWARD: AWKWARD, 'quo"te': "back\\slash", "\x00": ["\x1f\x7f"]},
    "report-like": [{"status": "ok", "reason": "line\nbreak", "n_evals": 12289}],
    "repeated keys": [{"a\n": 1, "b": {"a\n": 2}}, {"a\n": [{"b": 3}]}],
    "bare string": AWKWARD,
}


class TestRendering:
    def test_render_parse_round_trip(self):
        # repr tells -0.0 from 0.0: a negative-zero imaginary part prints as -0i
        for z in (1.25 - 0.75j, -2 + 3j, 0.1 + 0j, -0.0001 - 1e-7j,
                  complex(1.0, -0.0), complex(-0.0, -0.0), complex(-2.5, -0.0)):
            assert repr(parse_complex(render_complex(z))) == repr(z)

    def test_dumps_fixed_key_order(self):
        text = dumps_fixed({"b": 1, "a": [1.5, None, True]})
        assert text.index('"b"') < text.index('"a"')
        assert "1.5" in text and "null" in text and "true" in text

    def test_dumps_fixed_is_json(self):
        # floats print at 17 digits, not json's shortest, so compare values
        doc = {"x": 0.1, "y": {"nested": [1, 2.0, -0.0, 1e300]}, "s": 'quo"te',
               AWKWARD: [AWKWARD, 5e-324, {"k": -2.5}]}
        assert json.loads(dumps_fixed(doc)) == doc
        empty = {"e": {}, "l": [], "f": False}
        assert json.loads(dumps_fixed(empty)) == empty

    @pytest.mark.parametrize("name", LAYOUT_DOCS)
    def test_dumps_fixed_layout_is_json_dumps(self, name):
        doc = LAYOUT_DOCS[name]
        assert dumps_fixed(doc) == json.dumps(doc, indent=2, ensure_ascii=False)

    def test_dumps_fixed_prints_non_str_keys_as_str(self):
        # 1 and True are one dict key; each still prints as its own str()
        assert dumps_fixed([{1: 0}, {True: 0}]) == (
            '[\n  {\n    "1": 0\n  },\n  {\n    "True": 0\n  }\n]')

    def test_unrenderable_values_rejected(self):
        with pytest.raises(ValueError, match="non-finite value in report"):
            render_complex(complex(math.inf, 0.0))
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="non-finite value in report"):
                dumps_fixed({"reports": [{"x": bad}]})
        with pytest.raises(TypeError):
            dumps_fixed(object())


# The zeta command's refusals: argv after "zeta", then the message it prints
# on stderr, with exit 2 and nothing on stdout.
ZETA_REFUSALS = {
    "--s 1 --q 0.5": "hurwitz zeta pole at s = 1",
    "--s -300 --q 0.5": "complex exponentiation",
    "--s 0.5+5000000i --q 0.5": "tail term 1.630e-01 above tolerance at N = 262144",
    # (1e155 + 1)^-2 overflows to nan in Python's integral power, and a
    # larger N only makes it worse: the first tail refuses, without doubling
    "--s 2 --q 1e155": "tail term nan above tolerance at N = 1",
    # q^2 underflows to 0 in the integral power q^-2, which Python reports
    # as a division by zero; it is the engine's reach, not a traceback
    "--s 2 --q=1e-200": "0.0 to a negative or complex power",
    "--s 2 --q=-1e-200": "0.0 to a negative or complex power",
    # refused before the direct sum, which would need about 10^12 terms
    "--s 2 --q=-1e12": "Re(q) = -1e+12 below -200000: too many shifts to Re(q) > 0",
    # the direct term (n + q)^(-s) at n = -q has no value
    "--s 2 --q=0": "hurwitz zeta undefined at non-positive integer q = 0",
    "--s 2 --q=-3": "hurwitz zeta undefined at non-positive integer q = -3",
    "--s 1e400 --q 0.5": "number out of range at position 0: '1e400'",
    "--s 2 --q 1e400": "number out of range at position 0: '1e400'",
    # x x^{-s} = (N + q)^{1-s} overflows: the engine refuses the sum, rather
    # than leave an infinite value for the renderer to refuse
    "--s=-1.5 --q 1e200": "zeta sum overflows at N = 1",
    "--s=-3 --q 1e100": "zeta sum overflows at N = 1",
}


class TestCommands:
    def test_verify_pass(self, capsys):
        code = main(["verify", "--k", "-1", "--a", "1"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["verdict"] == "pass"
        assert {name: r["status"] for name, r in doc["reports"][0]["routes"].items()} == {
            "lhs": "ok", "zeta": "ok", "series": "ok", "contour": "ok"}

    def test_verify_deterministic(self, capsys):
        main(["verify", "--k", "0.5+0.3i", "--a", "2@2.35619449019234"])
        first = capsys.readouterr().out
        main(["verify", "--k", "0.5+0.3i", "--a", "2@2.35619449019234"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("argv", [["verify", "--k", "0.5", "--a", "2"],
                                      ["sweep", "--format", "csv"]])
    def test_text_only_stdout(self, capsys, argv):
        # a StringIO has neither .buffer nor an encoding; the report is
        # written to it as text, the same text capsys sees
        code = main(argv)
        ref = capsys.readouterr().out
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == code
        assert out.getvalue() == ref

    @pytest.mark.parametrize("a", ["2-0i", "2@-0"])
    def test_negative_zero_argument_reads_as_zero(self, capsys, a):
        # both spellings used to print "theta": -0 and fail the verdict
        assert main(["verify", "--k", "0.5", "--a", "2"]) == 0
        ref = capsys.readouterr().out
        assert main(["verify", "--k", "0.5", "--a", a]) == 0
        out = capsys.readouterr().out
        assert out == ref
        assert '"theta": 0\n' in out

    def test_argument_rounding_onto_two_pi_is_accepted(self, capsys):
        # 2*pi - 1e-17 rounds to 2*pi; the constant is stored just below it
        assert main(["verify", "--k", "0.5", "--a=1-1e-17i"]) == 0
        routes = json.loads(capsys.readouterr().out)["reports"][0]["routes"]
        assert [(name, r["status"]) for name, r in routes.items()] == [
            ("lhs", "ok"), ("zeta", "ok"), ("series", "ok"), ("contour", "ok")]

    def test_verify_forced_fail(self, capsys):
        code = main(["verify", "--k", "0.5", "--a", "1",
                     "--verdict-atol", "1e-18", "--verdict-rtol", "1e-18"])
        out = capsys.readouterr().out
        assert code == 1
        assert json.loads(out)["reports"][0]["verdict"] == "fail"

    def test_usage_error_from_bad_literal(self, capsys):
        code = main(["verify", "--k", "nope", "--a", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_usage_error_from_bad_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--bogus"])
        assert exc.value.code == 2

    def test_sweep_csv(self, capsys):
        # "=" form keeps argparse from reading the leading "-" as a flag; the
        # routes' outcomes here are the OUTCOMES rows of tests/test_identities.py
        main(["sweep", "--k-list=-1,3", "--a-list", "1", "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ("k_re,k_im,a_r,a_theta,route,value_re,value_im,err_est,"
                            "n_evals,status,reason,verdict,method")
        rows = [ln.split(",") for ln in lines[1:]]
        assert [row[0] for row in rows] == ["-1"] * 4 + ["3"] * 4
        assert [row[4] for row in rows] == ["lhs", "zeta", "series", "contour"] * 2
        # the method is the last column, and empty where the route did not run
        assert [row[12] for row in rows] == ["lift", "em", "cvz", "rays", "lift", "em", "", ""]
        # a route with no value has empty value and work cells
        assert all((row[5:9] == ["", "", "", ""]) == (row[9] in ("skipped", "failed"))
                   for row in rows)

    def test_sweep_of_real_a_at_negative_re_k_passes(self, capsys):
        # real a != 1 with -1 < Re k < 0: the y-integral converges, and its
        # report is an ordinary pass with nothing on stderr
        assert main(["sweep", "--k-list=-0.5", "--a-list", "2"]) == 0
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert list(doc) == ["reports"]
        assert [rep["verdict"] for rep in doc["reports"]] == ["pass"]
        assert err == ""

    def test_sweep_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(["sweep", "--k-list", "2", "--a-list", "1",
                     "--output", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(path.read_text())
        assert doc["reports"][0]["verdict"] == "pass"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_output_file_holds_the_stdout_bytes(self, tmp_path, capsys, fmt):
        argv = ["verify", "--k", "0.5+0.3i", "--a", "2@1", "--format", fmt]
        assert main(argv) == 0
        out = capsys.readouterr().out
        path = tmp_path / f"report.{fmt}"
        assert main([*argv, "--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == out.encode("utf-8")

    def test_constants(self, capsys):
        code = main(["constants"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert [r["verdict"] for r in doc["reports"]] == ["pass", "pass"]

    def test_constants_loggamma_route_names(self, capsys):
        main(["constants"])
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["reports"][1]["routes"]) == ["direct", "closed", "fd"]

    @pytest.mark.parametrize("module", ["zetaquad", "zetaquad.cli"])
    def test_python_m_entry_point(self, capsys, module):
        argv = ["verify", "--k", "-1", "--a", "1"]
        proc = subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, timeout=60, env=_child_env())
        assert proc.returncode == main(argv) == 0
        assert proc.stdout == capsys.readouterr().out.encode()

    def test_repeated_sweep_prints_a_fresh_process_bytes(self, capsys):
        # the second sweep reads the tail weights and node tables that the
        # first left in the process, and must print what a fresh one does
        proc = subprocess.run([sys.executable, "-m", "zetaquad", "sweep"],
                              capture_output=True, timeout=60, env=_child_env())
        for _ in range(2):
            assert main(["sweep"]) == proc.returncode
            out, err = capsys.readouterr()
            assert (out.encode(), err.encode()) == (proc.stdout, proc.stderr)

    def test_far_negative_k_fails_contour_promptly(self):
        # Gamma(1 - k) in the contour prefactor overflows at once, with no
        # quadrature run
        argv = ["verify", "--k=-1e15+0.5i", "--a", "2@1"]
        proc = subprocess.run([sys.executable, "-m", "zetaquad", *argv],
                              capture_output=True, text=True, timeout=60, env=_child_env())
        contour = json.loads(proc.stdout)["reports"][0]["routes"]["contour"]
        assert contour["status"] == "failed"
        assert contour["reason"] == "math range error"

    @staticmethod
    def _read_first_line_and_close(*flags, **env):
        """Run a sweep whose report (~240 kB) is larger than the pipe buffer,
        close the pipe after its first line, and return that line, the exit
        code and stderr."""
        k_list = ",".join(f"0.{i}+0.{j}i" for i in range(1, 5) for j in range(1, 10))
        a_list = "1@1,2@2,0.5@3,3@4,1.5@5"
        proc = subprocess.Popen(
            [sys.executable, "-m", "zetaquad", "sweep", "--k-list", k_list, "--a-list", a_list,
             *flags], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**_child_env(), **env})
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        return first, code, err

    def test_closed_pipe_exits_quietly(self):
        # `zetaquad sweep | head -1`: the reader closes the pipe early, so the
        # write fails
        first, code, err = self._read_first_line_and_close()
        assert (first, code) == (b"{\n", 1)
        assert b"Traceback" not in err and b"BrokenPipeError" not in err, err.decode()

    @pytest.mark.parametrize("fmt,header", [("json", b"{\n"), ("csv", b"k_re,")])
    def test_closed_pipe_exits_one_unbuffered(self, fmt, header):
        # unbuffered, stdout's text layer does not retry a short write; the
        # report, written in one call, must still end in a broken pipe
        first, code, err = self._read_first_line_and_close("--format", fmt,
                                                           PYTHONUNBUFFERED="1")
        assert first.startswith(header) and code == 1
        assert b"Traceback" not in err and b"BrokenPipeError" not in err, err.decode()

    @pytest.mark.parametrize("k,a,route", [("-1.99", "1", "lhs"), ("0.999", "2@1", "contour")])
    def test_singular_ray_start_routes_agree_with_zeta(self, capsys, k, a, route):
        # the most singular ray starts: lhs at a = 1 near Re k = -2 and the
        # contour near Re k = 1 must converge to the zeta value
        assert main(["verify", "--k", k, "--a", a]) == 0
        rep = json.loads(capsys.readouterr().out)["reports"][0]
        got = rep["routes"][route]
        value = complex(got["value"]["re"], got["value"]["im"])
        zeta = complex(rep["routes"]["zeta"]["value"]["re"], rep["routes"]["zeta"]["value"]["im"])
        assert got["status"] == "ok"
        assert abs(value - zeta) <= 1e-10 * max(1.0, abs(zeta))
        assert all(r["status"] == "ok" for r in rep["routes"].values())

    def test_json_and_csv_list_the_same_routes(self, capsys):
        assert main(["sweep"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(["sweep", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        from_json = []
        for rep in doc["reports"]:
            case = (rep["case"]["k"]["re"], rep["case"]["k"]["im"],
                    rep["case"]["a"]["r"], rep["case"]["a"]["theta"])
            for name, r in rep["routes"].items():
                value = r["value"] or {"re": None, "im": None}
                from_json.append((*case, name, value["re"], value["im"], r["err_estimate"],
                                  r["n_evals"], r["status"], r["reason"], rep["verdict"],
                                  r["method"]))
        from_csv = [(*map(float, row[:4]), row[4],
                     *(float(x) if x else None for x in row[5:8]),
                     int(row[8]) if row[8] else None, *row[9:]) for row in rows]
        assert from_csv == from_json
        assert {row[9] for row in rows} == {"ok", "skipped"}

    def test_zeta(self, capsys):
        code = main(["zeta", "--s", "2", "--q", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1.6449340668" in out

    def test_zeta_signed_zero_s_shares_weights(self, capsys):
        # 0.5-0i and 0.5 are equal, so whichever comes second reads the tail
        # weights the first built, and both orders print the same bytes
        # (at Re s >= 1, as at s = 2, each call forms its own weights)
        for x in ("0.5", "2"):
            outputs = []
            for order in ([f"--s={x}-0i", f"--s={x}"], [f"--s={x}", f"--s={x}-0i"]):
                _value_weights.cache_clear()
                for s in order:
                    assert main(["zeta", s, "--q", "0.25"]) == 0
                outputs.append(capsys.readouterr())
            assert outputs[0] == outputs[1]
            assert outputs[0].err == ""
            assert len(set(outputs[0].out.splitlines())) == 1

    @pytest.mark.parametrize("argv", ZETA_REFUSALS)
    def test_zeta_refusal(self, capsys, argv):
        assert main(["zeta", *argv.split()]) == 2
        assert capsys.readouterr() == ("", f"error: {ZETA_REFUSALS[argv]}\n")

    @pytest.mark.parametrize("flag", ["--k-list=", "--a-list="])
    def test_sweep_empty_list_is_usage_error(self, capsys, flag):
        # an empty list is a malformed literal, not a request for the default grid
        assert main(["sweep", flag]) == 2
        assert capsys.readouterr() == ("", "error: empty complex literal: ''\n")

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        assert main(["verify", "--k", "0.5", "--a", "1", "--output", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot write report: ")
        assert str(path) in err

    def test_constants_refuses_verdict_flags(self):
        for flag in ("--verdict-atol", "--verdict-rtol"):
            with pytest.raises(SystemExit) as exc:
                main(["constants", flag, "1e-30"])
            assert exc.value.code == 2

    def test_out_of_range_literals_are_usage_errors(self, capsys):
        for argv in (["verify", "--k", "1e400", "--a", "1"],
                     ["sweep", "--k-list=0.5,1e400"],
                     ["verify", "--k", "0.5", "--a", "1e308+1.5e308i"]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            literal = "1e308+1.5e308i" if "1e308" in argv[-1] else "1e400"
            assert captured.err.startswith("error: ") and f"'{literal}'" in captured.err

    @pytest.mark.parametrize("flag", ["--atol", "--rtol", "--verdict-atol", "--verdict-rtol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_is_usage_error(self, capsys, flag, value):
        # --atol inf made a 0.24-off lhs ok; --verdict-atol nan made agreeing routes fail
        assert main(["verify", "--k", "0.5", "--a", "1", flag, value]) == 2
        out, err = capsys.readouterr()
        name = flag.lstrip("-").replace("-", "_")
        rule = "must be finite and >= " if "verdict" in flag else "must lie in [1e-15, 1e-3]"
        assert out == "" and err.startswith(f"error: {name} {rule}")

    @pytest.mark.parametrize("argv", [["--atol", "1e300"], ["--rtol", "0.5"]])
    def test_loose_quadrature_tolerance_is_usage_error(self, capsys, argv):
        # --atol 1e300 reported a 0.24-off lhs as ok after 50 evaluations
        assert main(["verify", "--k", "0.5", "--a", "1", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {argv[0][2:]} must lie in [1e-15, 1e-3]\n"

    def test_selftest(self, capsys):
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [ln for ln in out.strip().splitlines() if ln]
        assert lines and all(ln.startswith("PASS") for ln in lines)

    def test_max_evals_below_level_zero_is_usage_error(self, capsys):
        # level 0 always runs 13 exp-sinh nodes, so a smaller budget is refused
        assert main(["verify", "--k", "0.5", "--a", "1", "--max-evals", "5"]) == 2
        assert "max_evals must lie in [13, 1e7]" in capsys.readouterr().err

    def test_max_evals_flag_starves_lhs(self, capsys):
        main(["verify", "--k", "0.5", "--a", "1", "--max-evals", "40"])
        out = capsys.readouterr().out
        rep = json.loads(out)["reports"][0]
        # the starved quadrature must be flagged, not silently compared
        assert rep["routes"]["lhs"]["status"] == "unconverged"
        assert rep["routes"]["lhs"]["reason"] == "quadrature did not converge"
        assert rep["routes"]["lhs"]["n_evals"] <= 80
        assert not any("lhs" in pair.split("|") for pair in rep["residuals"])
