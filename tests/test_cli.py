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


def _child_env():
    """The environment for a child interpreter that imports this zetaquad."""
    src = os.path.dirname(os.path.dirname(zetaquad.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestParseComplex:
    @pytest.mark.parametrize("text,value", [
        ("1", 1 + 0j),
        ("-1.5", -1.5 + 0j),
        ("0.5+0.3i", 0.5 + 0.3j),
        ("2-1i", 2 - 1j),
        ("-0.5+2e-3i", -0.5 + 0.002j),
        (" 3+4i ", 3 + 4j),
    ])
    def test_valid(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "i", "1+i", "1+2j", "1+2i3", "++1", "1 + 2i"])
    def test_invalid(self, text):
        with pytest.raises(CliParseError):
            parse_complex(text)

    def test_error_carries_position(self):
        with pytest.raises(CliParseError, match="position 5"):
            parse_complex("1.5+2x")


class TestParseBranched:
    def test_polar(self):
        a = parse_branched("2@2.35619449019234")
        assert a.r == 2.0
        assert a.theta == pytest.approx(3 * math.pi / 4)

    def test_rectangular_to_polar(self):
        a = parse_branched("-1+0i")
        assert a.r == pytest.approx(1.0)
        assert a.theta == pytest.approx(math.pi)

    def test_theta_not_normalised(self):
        with pytest.raises(CliParseError):
            parse_branched("1@6.30")
        with pytest.raises(CliParseError):
            parse_branched("1@-0.1")

    def test_zero_rejected(self):
        with pytest.raises(CliParseError):
            parse_branched("0")
        with pytest.raises(CliParseError):
            parse_branched("-2@1.0")


class TestRendering:
    def test_render_parse_round_trip(self):
        for z in (1.25 - 0.75j, -2 + 3j, 0.1 + 0j, -0.0001 - 1e-7j):
            assert parse_complex(render_complex(z)) == z

    def test_dumps_fixed_key_order(self):
        text = dumps_fixed({"b": 1, "a": [1.5, None, True]})
        assert text.index('"b"') < text.index('"a"')
        assert "1.5" in text and "null" in text and "true" in text

    def test_dumps_fixed_is_json(self):
        doc = {"x": 0.1, "y": {"nested": [1, 2.0]}, "s": 'quo"te'}
        assert json.loads(dumps_fixed(doc)) == doc


class TestCommands:
    def test_verify_pass(self, capsys):
        code = main(["verify", "--k", "-1", "--a", "1"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["verdict"] == "pass"
        assert {name: r["status"] for name, r in doc["reports"][0]["routes"].items()} == {
            "lhs": "ok", "zeta": "ok", "series": "ok", "contour": "skipped"}

    def test_verify_deterministic(self, capsys):
        main(["verify", "--k", "0.5+0.3i", "--a", "2@2.35619449019234"])
        first = capsys.readouterr().out
        main(["verify", "--k", "0.5+0.3i", "--a", "2@2.35619449019234"])
        second = capsys.readouterr().out
        assert first == second

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
        # "=" form keeps argparse from reading the leading "-" as a flag
        code = main(["sweep", "--k-list=-1,3", "--a-list", "1",
                     "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("k_re,k_im,a_r,a_theta,route,value_re,value_im,err_est,"
                            "status,reason,verdict")
        rows = [ln.split(",") for ln in lines[1:]]
        assert [row[4] for row in rows] == ["lhs", "zeta", "series", "contour"] * 2
        assert [row[8] for row in rows] == ["ok", "ok", "ok", "skipped",
                                            "ok", "ok", "skipped", "skipped"]
        assert [row[9] for row in rows[2:4] + rows[6:]] == ["", "integer k",
                                                             "Re(k) >= 1", "Re(k) >= 1"]
        assert all(row[10] == "pass" for row in rows)
        # a skipped route has no value, so its value cells are empty
        assert all((row[5:8] == ["", "", ""]) == (row[8] == "skipped") for row in rows)

    def test_sweep_skips_noted_on_stderr(self, capsys):
        code = main(["sweep", "--k-list", "-0.5", "--a-list", "2,1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "skipped" in captured.err

    def test_sweep_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(["sweep", "--k-list", "2", "--a-list", "1",
                     "--output", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(path.read_text())
        assert doc["reports"][0]["verdict"] == "pass"

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

    def test_closed_pipe_exits_quietly(self):
        # `zetaquad sweep | head -1`: the reader closes the pipe early.  The
        # report (~240 kB) is larger than the pipe buffer, so the write fails.
        k_list = ",".join(f"0.{i}+0.{j}i" for i in range(1, 5) for j in range(1, 10))
        a_list = "1@1,2@2,0.5@3,3@4,1.5@5"
        proc = subprocess.Popen(
            [sys.executable, "-m", "zetaquad", "sweep", "--k-list", k_list, "--a-list", a_list],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert first == b"{\n"
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

    @pytest.mark.parametrize("argv", [
        ["--k", "0.5", "--a", "1", "--max-evals", "40"],
        ["--k", "-1.99", "--a", "1", "--max-evals", "40"],
        # the contour stops at 0.02+0.04i; the true value is about 1e-200
        ["--k", "0.5+400i", "--a", "3@1"],
    ])
    def test_unconverged_route_makes_verdict_partial(self, capsys, argv):
        # the remaining routes agree, but one that ran gave no trustworthy value
        assert main(["verify", *argv]) == 1
        rep = json.loads(capsys.readouterr().out)["reports"][0]
        assert rep["verdict"] == "partial"
        unconverged = {name for name, r in rep["routes"].items()
                       if r["status"] == "unconverged"}
        assert unconverged
        assert all(unconverged.isdisjoint(pair.split("|")) for pair in rep["residuals"])

    def test_csv_keeps_case_whose_routes_all_fail(self, capsys):
        assert main(["verify", "--k", "150", "--a", "3@1", "--format", "csv"]) == 1
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert [(row[4], row[8], row[9]) for row in rows] == [
            ("lhs", "failed", "math range error"),
            ("zeta", "failed", "math range error"),
            ("series", "skipped", "Re(k) >= 1"),
            ("contour", "skipped", "Re(k) >= 1")]
        assert all(row[5:8] == ["", "", ""] and row[10] == "partial" for row in rows)

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
                                  r["status"], r["reason"], rep["verdict"]))
        from_csv = [(*map(float, row[:4]), row[4],
                     *(float(x) if x else None for x in row[5:8]), *row[8:]) for row in rows]
        assert from_csv == from_json
        assert {row[8] for row in rows} == {"ok", "skipped"}

    def test_zeta(self, capsys):
        code = main(["zeta", "--s", "2", "--q", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1.6449340668" in out

    def test_zeta_pole_is_usage_error(self, capsys):
        assert main(["zeta", "--s", "1", "--q", "0.5"]) == 2

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
