"""Scenario files and the command-line entry points."""

from __future__ import annotations

import csv
import re
import types
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from finslerflow import cli
from finslerflow import metric as mt
from finslerflow import singular as sg

from helpers import max_ode_residual, svg_polyline_paths

HALFPLANE = """\
# vertical-axis boundary scenario
mode = coefficients
n = 3
a0 = -x
a2 = 1
box = -1 1 -1 1
seed = -0.5 0.0 0.3
seed = 0.1 0.0 0.8
resolution = 40
out_prefix = hp
"""

PARABOLA = """\
mode = coefficients
n = 3
a0 = y^2 - x
a2 = 1
box = -1.5 1.5 0.05 1.5
resolution = 140
out_prefix = par
"""

POLE = """\
# a0 has a pole on x = 0, where a row of net seeds lands
mode = coefficients
n = 3
a0 = 1/x - y
a2 = 1
box = -1 1 -1 1
resolution = 40
out_prefix = pole
"""

TANGENCY = """\
mode = berwald-moor
f1 = x
f2 = y
f3 = y - 2*x^2
pair = 3 2
box = -0.4 0.4 -0.1 0.3
alpha = -0.8
alpha = 0.8
series_order = 12
resolution = 60
out_prefix = bm
"""


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestLoadConfig:
    def test_defaults_and_values(self, tmp_path):
        cfg = cli.load_config(write(tmp_path, HALFPLANE))
        assert cfg.mode == "coefficients"
        assert cfg.degree == 3
        assert cfg.coeffs == {0: "-x", 2: "1"}
        assert cfg.box == (-1.0, 1.0, -1.0, 1.0)
        assert cfg.seeds == ((-0.5, 0.0, 0.3), (0.1, 0.0, 0.8))
        assert cfg.rel_tol == 1e-10
        assert cfg.out_prefix == "hp"
        assert cfg.coefficient_texts() == ["-x", "0", "1", "0"]

    def test_immersion_mode(self, tmp_path):
        cfg = cli.load_config(write(tmp_path, TANGENCY))
        assert cfg.mode == "berwald-moor"
        assert cfg.immersion == ("x", "y", "y - 2*x^2")
        assert cfg.pair == (3, 2)
        assert cfg.alphas == (-0.8, 0.8)
        m = cfg.metric_obj()
        assert mt.coeff_values(m, 0.5, 0.0).tolist() == [0.0, -2.0, 1.0, 0.0]

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("just words", "expected 'key = value'"),
            ("= 3", "empty key"),
            ("n = ", "empty value"),
            ("wat = 1", "unknown key"),
            ("mode = banana", "mode"),
            ("n = two", "expects an integer"),
            ("box = 1 2 3", "4 numbers"),
            ("box = 1 -1 0 1", "box"),
            ("seed = 1 2", "seed"),
            ("a12 = x", "unknown key"),
            # immersion components start at f1
            ("f0 = x", "line 11: unknown key 'f0'"),
            ("rel_tol = fast", "expects a number"),
            ("a1 = x +* y", "cannot parse"),
            ("out_prefix = ../oops", "out_prefix"),
            ("pair = 2 2", "pair"),
            ("pair = 1 inf", "pair expects two integer indices"),
            ("series_seed = 3", "'index value'"),
            # the tag is the entry's own, not 'config'
            ("series_seed = 0 1", "line 11: series indices must be positive"),
            ("series_free = 0 1", "line 11: series indices must be positive"),
            # non-finite values
            ("series_seed = 3 inf", "line 11: series indices must be positive and their values finite"),
            ("series_free = 4 inf", "line 11: series indices must be positive and their values finite"),
            ("alpha = nan", "line 11: alpha must be finite"),
            ("alpha = 0.5 inf", "line 11: alpha must be finite"),
            ("y0 = inf", "line 11: y0 must be finite"),
            ("y0 = nan", "line 11: y0 must be finite"),
        ],
    )
    def test_rejects_bad_lines(self, tmp_path, line, fragment):
        with pytest.raises(cli.ConfigError, match="(?i)" + fragment.replace("*", "\\*")
                           .replace("(", "\\(").replace(")", "\\)")
                           .replace("[", "\\[").replace("]", "\\]")
                           .replace("+", "\\+").replace("'", ".")):
            cli.load_config(write(tmp_path, HALFPLANE + line + "\n"))

    def test_error_carries_line_number(self, tmp_path):
        bad = "mode = coefficients\nn = 3\na0 = -x\na2 = 1\nwat = 1\n"
        with pytest.raises(cli.ConfigError, match="line 5"):
            cli.load_config(write(tmp_path, bad))

    def test_duplicate_scalar_rejected(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="duplicate"):
            cli.load_config(write(tmp_path, HALFPLANE + "n = 3\n"))

    def test_exactly_one_family(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="f1"):
            cli.load_config(write(tmp_path, HALFPLANE + "f1 = x\n"))

    def test_coefficients_required(self, tmp_path):
        text = "mode = coefficients\nn = 3\n"
        with pytest.raises(cli.ConfigError, match="coefficient"):
            cli.load_config(write(tmp_path, text))

    def test_immersion_contiguity(self, tmp_path):
        text = "mode = berwald-moor\nf1 = x\nf2 = y\nf4 = y - x^2\n"
        with pytest.raises(cli.ConfigError, match="f3"):
            cli.load_config(write(tmp_path, text))

    def test_coefficient_degree_bound(self, tmp_path):
        text = "mode = coefficients\nn = 2\na0 = -x\na3 = 1\n"
        with pytest.raises(cli.ConfigError, match="a3"):
            cli.load_config(write(tmp_path, text))

    def test_override_replaces_scalar(self, tmp_path):
        path = write(tmp_path, HALFPLANE)
        cfg = cli.load_config(path, ("resolution=16", "out_prefix=alt"))
        assert cfg.resolution == 16
        assert cfg.out_prefix == "alt"

    def test_override_appends_repeatable(self, tmp_path):
        path = write(tmp_path, HALFPLANE)
        cfg = cli.load_config(path, ("seed=0.2 0.1 -0.4",))
        assert len(cfg.seeds) == 3
        assert cfg.seeds[-1] == (0.2, 0.1, -0.4)

    def test_override_errors_are_tagged(self, tmp_path):
        path = write(tmp_path, HALFPLANE)
        cases = [
            (("resolution",), "override 1: expected key=value"),
            (("wat=1",), "override 1: unknown key"),
            # a value is checked after the overrides, under the tag of
            # the entry that set it: a valid file line is not blamed
            (("resolution=4",), "override 1: resolution must be at least 8"),
            (("resolution=16", "resolution=4"), "override 2: resolution must be at least 8"),
            (("box=1 0 0 1",), "override 1: box needs finite xmin < xmax"),
            (("box=-1 1 -1 inf",), "override 1: box needs finite xmin < xmax"),
            (("mode=banana",), "override 1: mode must be"),
            (("out_prefix=../oops",), "override 1: out_prefix"),
            (("series_seed=0 1",), "override 1: series indices must be positive"),
            (("series_free=4 inf",), "override 1: series indices"),
            (("alpha=inf",), "override 1: alpha must be finite"),
            (("y0=inf",), "override 1: y0 must be finite"),
        ]
        for overrides, message in cases:
            with pytest.raises(cli.ConfigError, match="^" + re.escape(message)):
                cli.load_config(path, overrides)
        # a bad value that a later override replaces is no error
        cfg = cli.load_config(path, ("resolution=4", "resolution=16"))
        assert cfg.resolution == 16
        cfg = cli.load_config(path, ("series_seed=3 inf", "series_seed=3 2"))
        assert cfg.series_seed == {3: 2.0}


class TestCommands:
    def test_classify(self, tmp_path, capsys):
        rc = cli.main(["classify", "--config", write(tmp_path, HALFPLANE),
                       "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "hp_strata.csv")
        assert header == ["x", "y", "stratum", "disc"]
        assert len(rows) == 40 * 40
        strata = {r[2] for r in rows}
        assert strata == {"MPlus", "MMinus", "M01"} or strata == {"MPlus", "MMinus"}
        for r in rows:
            want = "MPlus" if float(r[0]) > 0 else ("MMinus" if float(r[0]) < 0 else "M01")
            assert r[2] == want
        assert "classify: wrote" in capsys.readouterr().out

    def test_classify_refuses_degree_two(self, tmp_path, capsys):
        text = "mode = coefficients\nn = 2\na0 = -x\na2 = 1\nresolution = 8\n"
        rc = cli.main(["classify", "--config", write(tmp_path, text),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "degree 3" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            # every coefficient vanishes at the grid point (0, 0)
            ("a0 = x\na1 = y\na3 = x + y\n", "all coefficients vanish at (0.0, 0.0)"),
            # a0 has a pole on the grid column x = 0
            ("a0 = 1/x - y\na2 = 1\n", "a coefficient is not finite at (0.0, -1.0)"),
        ],
    )
    def test_classify_refuses_degenerate_grid_point(self, tmp_path, capsys, coeffs, message):
        text = "mode = coefficients\nn = 3\n" + coeffs + "box = -1 1 -1 1\nresolution = 21\n"
        rc = cli.main(["classify", "--config", write(tmp_path, text),
                       "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("classify: ") and message in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_overflowing_metric(self, tmp_path, capsys):
        # a3 = 1e300: the resultant overflows quietly; the discriminant
        # band overflows, so no grid point has a stratum
        text = PARABOLA.replace("a2 = 1\n", "a2 = 1\na3 = 1e300\n").replace(
            "resolution = 140", "resolution = 30"
        )
        path = write(tmp_path, text)
        assert cli.main(["singular", "--config", path, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert cli.main(["classify", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("classify: ") and "band is not finite" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*_strata.csv"))

    def test_singular_refuses_degree_four(self, tmp_path, capsys):
        text = "mode = coefficients\nn = 4\na0 = y^2 - x\na2 = 1\na4 = 0.3\nresolution = 8\n"
        rc = cli.main(["singular", "--config", write(tmp_path, text),
                       "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("singular: ") and "degree 2 or 3" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["classify", "singular", "portrait", "puiseux", "verify"])
    def test_immersion_pole_is_config_error(self, tmp_path, capsys, command):
        text = TANGENCY.replace("f3 = y - 2*x^2", "f3 = y + 1/x")
        rc = cli.main([command, "--config", write(tmp_path, text), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: immersion: component 2 has a pole at (0, -1)")

    def test_literal_that_overflows_is_config_error(self, tmp_path, capsys):
        text = HALFPLANE.replace("a0 = -x", "a0 = 1e400*y - x")
        rc = cli.main(["classify", "--config", write(tmp_path, text), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "a0" in err and "offset 0" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_constant_that_overflows_is_config_error(self, tmp_path, capsys):
        text = HALFPLANE.replace("a0 = -x", "a0 = 1e200*1e200*y - x")
        rc = cli.main(["classify", "--config", write(tmp_path, text), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "a0" in err and "not a finite float" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_quotient_that_overflows_is_config_error(self, tmp_path, capsys):
        text = HALFPLANE.replace("a0 = -x", "a0 = 1/1e-310*y - x")
        rc = cli.main(["classify", "--config", write(tmp_path, text), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "a0" in err and "not a finite float" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("a0", ["1/0*y - x", "0/0 + x"])
    def test_division_by_constant_zero_is_config_error(self, tmp_path, capsys, a0):
        text = HALFPLANE.replace("a0 = -x", "a0 = " + a0)
        rc = cli.main(["classify", "--config", write(tmp_path, text), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "a0" in err
        assert "division by zero (at offset 1)" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_degenerate_immersion_is_config_error(self, tmp_path, capsys):
        text = TANGENCY.replace("f3 = y - 2*x^2", "f3 = x^2")
        rc = cli.main(["classify", "--config", write(tmp_path, text), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: immersion: component 2 has a degenerate differential")

    def test_integrate_and_trace_quality(self, tmp_path):
        rc = cli.main(["integrate", "--config", write(tmp_path, HALFPLANE),
                       "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "hp_trace00.csv")
        assert header == ["t", "x", "y", "slope", "chart", "F", "Delta", "P", "event"]
        assert len(rows) > 100
        # rebuild a trace view and hold it against the flow equations
        m = mt.metric_from_strings(3, ["-x", "0", "1", "0"])
        cols = np.array([[float(v) for v in r[:4]] for r in rows])
        events = [
            types.SimpleNamespace(index=i, kind=r[8])
            for i, r in enumerate(rows) if r[8]
        ]
        trace = types.SimpleNamespace(
            t=cols[:, 0], x=cols[:, 1], y=cols[:, 2], slope=cols[:, 3],
            chart=np.array([r[4] for r in rows]), events=events,
        )
        assert max_ode_residual(m, trace) < 5e-4
        assert any(e.kind for e in events)

    @pytest.mark.parametrize("command", ["integrate", "portrait"])
    def test_seed_outside_box_is_config_error(self, tmp_path, capsys, command):
        cases = [
            ("seed=1.5 0 0.3", "seed 3 (1.5, 0.0, 0.3) is outside the box"),
            ("seed=0.1 0.1 nan", "seed 3 (0.1, 0.1, nan) has a nan slope"),
        ]
        for seed, message in cases:
            rc = cli.main([command, "--config", write(tmp_path, HALFPLANE),
                           "--out", str(tmp_path), "--seed", seed])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: " + message)
        assert not list(tmp_path.glob("hp_*"))

    def test_vertical_seed_slope_is_traced(self, tmp_path):
        # slope inf is the vertical direction, not an error
        rc = cli.main(["integrate", "--config", write(tmp_path, TANGENCY),
                       "--out", str(tmp_path), "--seed", "seed=0.2 0.05 inf"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "bm_trace00.csv")
        assert len(rows) > 100

    @pytest.mark.parametrize(
        "text, command, overrides",
        [
            (HALFPLANE, "portrait", ("box=-1 1 -1 inf",)),
            (HALFPLANE, "singular", ("box=-1 1 -1 inf",)),
            (HALFPLANE, "classify", ("box=-1 1 -1 inf",)),
            (TANGENCY, "puiseux", ("alpha=nan",)),
            (TANGENCY, "puiseux", ("y0=inf",)),
            (HALFPLANE, "puiseux", ("series_seed=3 inf",)),
            (HALFPLANE, "puiseux", ("series_seed=3 2", "series_free=4 inf")),
            # components not in adapted position for the blow-up chart
            (TANGENCY, "puiseux", ("pair=2 1",)),
            (TANGENCY, "puiseux", ("pair=1 2",)),
        ],
    )
    def test_non_finite_values_are_config_errors(self, tmp_path, capsys, text, command, overrides):
        argv = [command, "--config", write(tmp_path, text), "--out", str(tmp_path)]
        for ov in overrides:
            argv += ["--seed", ov]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: override ") and "Traceback" not in err
        assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.svg"))

    def test_integrate_requires_seeds(self, tmp_path, capsys):
        rc = cli.main(["integrate", "--config", write(tmp_path, PARABOLA),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "no seed" in capsys.readouterr().err

    def test_singular_outputs(self, tmp_path):
        rc = cli.main(["singular", "--config", write(tmp_path, PARABOLA),
                       "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "par_singular_points.csv")
        assert header == cli._POINT_HEADER
        kinds = {r[3] for r in rows}
        assert "TangencyFailure" in kinds
        assert {"RealPair", "ImaginaryPair"} <= kinds
        fail = [r for r in rows if r[3] == "TangencyFailure"][0]
        assert abs(float(fail[0])) < 1e-5
        assert float(fail[1]) == pytest.approx(48.0 ** -0.25, abs=1e-5)
        locus = sorted(tmp_path.glob("par_locus*_singular.csv"))
        assert locus
        _, pts = read_csv(locus[0])
        ys = np.array([float(r[1]) for r in pts])
        xs = np.array([float(r[0]) for r in pts])
        keep = ys > 0.2
        want = ys[keep] ** 2 - 1.0 / (48.0 * ys[keep] ** 2)
        np.testing.assert_allclose(xs[keep], want, atol=1e-5)

    def test_portrait_deterministic(self, tmp_path):
        path = write(tmp_path, HALFPLANE)
        assert cli.main(["portrait", "--config", path, "--out", str(tmp_path)]) == 0
        svg = (tmp_path / "hp_portrait.svg").read_bytes()
        assert svg.startswith(b"<?xml")
        assert b"<svg" in svg and b"<path" in svg
        out2 = tmp_path / "again"
        out2.mkdir()
        assert cli.main(["portrait", "--config", path, "--out", str(out2)]) == 0
        assert (out2 / "hp_portrait.svg").read_bytes() == svg

    def test_portrait_survives_coefficient_pole(self, tmp_path, capsys):
        path = write(tmp_path, POLE)
        assert cli.main(["portrait", "--config", path, "--out", str(tmp_path)]) == 0
        root = ET.parse(tmp_path / "pole_portrait.svg").getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        paths = root.findall("{http://www.w3.org/2000/svg}path")
        assert paths
        for el in paths:
            coords = el.get("d").replace("M", "").replace("L", "").split()
            assert np.all(np.isfinite(np.array(coords, dtype=float)))
        out, err = capsys.readouterr()
        assert "isotropic=" in out and "singular=" in out
        assert err == ""

    def test_portrait_says_what_it_leaves_out(self, tmp_path, capsys):
        text = "mode = coefficients\nn = 4\na0 = y^2 - x\na2 = 1\na4 = 0.3\nresolution = 8\n"
        rc = cli.main(["portrait", "--config", write(tmp_path, text),
                       "--out", str(tmp_path)])
        assert rc == 0
        out, err = capsys.readouterr()
        assert err.startswith("portrait: ") and err.count("\n") == 1
        assert "singular net and the boundary" in err and "degree 2 or 3" in err
        assert "isotropic=" in out and "singular=" not in out
        assert (tmp_path / "scenario_portrait.svg").exists()

    def test_puiseux_bm_mode(self, tmp_path):
        rc = cli.main(["puiseux", "--config", write(tmp_path, TANGENCY),
                       "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "bm_series.csv")
        assert header == ["order", "slot", "linear_coeff", "forcing", "value", "status"]
        by_index = {int(r[0]): r for r in rows}
        assert by_index[4][5] == "FREE"
        assert by_index[6][2] == "24"
        table = (tmp_path / "bm_series.txt").read_text(encoding="utf-8")
        assert "FREE" in table
        fams = sorted(tmp_path.glob("bm_family*.csv"))
        assert len(fams) == 4  # two alphas, two approach signs

    def test_puiseux_coefficients_mode_needs_seed(self, tmp_path, capsys):
        rc = cli.main(["puiseux", "--config", write(tmp_path, HALFPLANE),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "series_seed" in capsys.readouterr().err

    def test_puiseux_coefficients_mode(self, tmp_path):
        text = HALFPLANE.replace("a0 = -x", "a1 = -4*x").replace(
            "a0 = -x", "a1 = -4*x"
        ) + "series_seed = 3 2\nseries_free = 4 1\nseries_order = 10\n"
        text = text.replace("out_prefix = hp", "out_prefix = quart")
        rc = cli.main(["puiseux", "--config", write(tmp_path, text),
                       "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "quart_series.csv")
        by_index = {int(r[0]): r for r in rows}
        assert by_index[6][4] == "-1/6"

    def test_verify_passes(self, tmp_path, capsys):
        for text in (HALFPLANE, TANGENCY, PARABOLA):
            rc = cli.main(["verify", "--config", write(tmp_path, text),
                           "--out", str(tmp_path)])
            out = capsys.readouterr().out
            assert rc == 0
            assert "verify: OK" in out
            assert "FAIL" not in out
        # tr J = 0 and lambda^2 = T at the 12 pair points of the parabola's
        # singular curve
        assert re.search(
            r"PASS  singular-identities +max residual .*\(tr J = 0 at 12 points, "
            r"lambda\^2 = T at 12 classified", out
        )

    def test_singular_identities_fails_a_pick_off_the_trace(self, tmp_path, capsys, monkeypatch):
        # a pick moved off its root, so tr J != 0; classify_singular calls
        # such a point Degenerate, and the check must still count it
        picks = cli._singular_picks

        def with_a_bad_pick(m, c):
            got = picks(m, c)
            bad = got[0]
            return got + [sg.SingularPoint(bad.x, bad.y, bad.p + 0.5, bad.eigenvalues,
                                           sg.DEGENERATE)]

        monkeypatch.setattr(cli, "_singular_picks", with_a_bad_pick)
        rc = cli.main(["verify", "--config", write(tmp_path, PARABOLA), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert re.search(
            r"FAIL  singular-identities +max residual .*\(tr J = 0 at 13 points, "
            r"lambda\^2 = T at 12 classified", out
        )

    @pytest.mark.parametrize(
        "text, overrides, lines",
        [
            # a3 = 1e300 overflows the discriminants and the chart fields,
            # so their residuals are inf - inf at every sample
            ("n = 3\na0 = y^2 - x\na2 = 1\na3 = 1e300\nbox = -1 1 -1 1\n", (),
             ["FAIL  discriminant-identity      residual not finite",
              "FAIL  chart-consistency          residual not finite",
              "verify: FAILED (2 of 4 checks)"]),
            # components not in adapted position for the blow-up chart
            (TANGENCY, ("pair=2 1",),
             ["FAIL  blowup-spectra             error: override 1: pair 2 1: "
              "not in adapted position", "verify: FAILED (1 of 5 checks)"]),
            (TANGENCY, ("pair=1 2",),
             ["FAIL  blowup-spectra             error: override 1: pair 1 2: "
              "not in adapted position"]),
        ],
    )
    def test_verify_reports_failures(self, tmp_path, capsys, text, overrides, lines):
        argv = ["verify", "--config", write(tmp_path, text), "--out", str(tmp_path)]
        for ov in overrides:
            argv += ["--seed", ov]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert err == ""
        for line in lines:
            assert line in out

    def test_missing_config_exits_two(self, tmp_path, capsys):
        rc = cli.main(["classify", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("below_a_file", [False, True])
    def test_out_that_is_not_a_directory_exits_two(self, tmp_path, capsys, below_a_file):
        blocker = tmp_path / "taken"
        blocker.write_text("a file\n", encoding="utf-8")
        out = blocker / "sub" if below_a_file else blocker
        rc = cli.main(["classify", "--config", write(tmp_path, HALFPLANE),
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ") and err.count("\n") == 1
        assert blocker.read_text(encoding="utf-8") == "a file\n"

    def test_config_error_exits_two(self, tmp_path, capsys):
        rc = cli.main(["classify", "--config", write(tmp_path, "mode = nope\n")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err


def _svg_cases():
    nan, inf = np.nan, np.inf
    rng = np.random.default_rng(10)
    # runs of every length, broken by points just outside the box and NaN
    many = rng.uniform([-1.1, -0.6], [1.1, 2.1], (3000, 2))
    many[rng.integers(0, len(many), 40)] = nan
    return [
        # NaN and inf split runs; a run of one point gives no path
        np.array([[0.1, 0.2], [nan, 0.3], [0.3, 0.4], [0.5, 0.6], [0.7, inf],
                  [0.2, 0.1], [-inf, 0.0], [0.4, nan]]),
        # out-of-box points, single-point runs, runs at both ends
        np.array([[0.0, 0.0], [0.1, 0.1], [3.0, 0.0], [0.5, 0.5], [0.0, -2.0],
                  [0.6, 0.6], [0.7, 0.1], [0.8, 0.2]]),
        # signed zeros and the box corners
        np.array([[-0.0, -0.0], [-1.0, -0.5], [1.0, 2.0], [0.0, -0.0], [-0.0, 0.0]]),
        np.array([[0.1, 0.1], [0.2, 0.2]]),
        np.array([[0.1, 0.1]]),
        np.zeros((0, 2)),
        np.array([0.1, 0.2, 0.3]),
        many,
    ]


@pytest.mark.parametrize("margin", [40, 0])
def test_svg_polyline_matches_point_by_point_reference(margin):
    box = (-1.0, 1.0, -0.5, 2.0)
    canvas = cli._SvgCanvas(box, width=500, height=300, margin=margin)
    want = []
    for k, pts in enumerate(_svg_cases()):
        style = ("geodesic", "boundary")[k % 2]
        canvas.polyline(pts, style)
        want += svg_polyline_paths(canvas, pts, style)
    assert len(want) > 10
    assert canvas._paths == want
