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
        assert set(doc["reports"][0]["routes"]) == {"lhs", "zeta", "series"}

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
        assert lines[0] == "k_re,k_im,a_r,a_theta,route,value_re,value_im,err_est,verdict"
        routes = [ln.split(",")[4] for ln in lines[1:]]
        assert routes == ["lhs", "zeta", "series", "lhs", "zeta"]
        assert all(ln.endswith(",pass") for ln in lines[1:])

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
        src = os.path.dirname(os.path.dirname(zetaquad.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == main(argv) == 0
        assert proc.stdout == capsys.readouterr().out.encode()

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

    def test_max_evals_env_override(self, capsys):
        main(["verify", "--k", "0.5", "--a", "1", "--max-evals", "40"])
        out = capsys.readouterr().out
        rep = json.loads(out)["reports"][0]
        # the starved quadrature must be flagged, not silently compared
        assert rep["routes"]["lhs"]["converged"] is False
        assert rep["routes"]["lhs"]["n_evals"] <= 80
        assert any("did not converge" in n for n in rep["notes"])
