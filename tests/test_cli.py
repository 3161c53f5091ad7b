"""Scenario files and the command-line entry points."""

from __future__ import annotations

import csv
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerflow import berwald_moor as bm
from finslerflow import cli
from finslerflow import metric as mt
from finslerflow import puiseux as px
from finslerflow import singular as sg

from helpers import (
    csv_bytes,
    family_lines,
    fmt,
    max_ode_residual,
    series_lines,
    svg_polyline_paths,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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

# two branches of the singular set, p = -1.532 and p = 1.554, project onto
# one point (-1.26479, -0.06245) of the plane
CROSSING = """\
mode = coefficients
n = 3
a0 = 0
a1 = 2.7
a2 = 0.2*x^3*y
a3 = -2*y - x^3*y - 0.3*x
box = -1.543 -0.543 -0.3 0.2
out_prefix = cross
"""

# the companion root of F near -1.83e300 overflows the Newton step
HUGE_ROOT = """\
mode = coefficients
n = 3
a0 = -0.3*x^3*y
a1 = x^3*y
a2 = 1e300*x
a3 = 1
box = -1.955 -1.455 -0.701 2.299
out_prefix = huge
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
        assert fail[-1] == "False"
        locus = sorted(tmp_path.glob("par_locus*_singular.csv"))
        assert locus
        _, pts = read_csv(locus[0])
        ys = np.array([float(r[1]) for r in pts])
        xs = np.array([float(r[0]) for r in pts])
        keep = ys > 0.2
        want = ys[keep] ** 2 - 1.0 / (48.0 * ys[keep] ** 2)
        np.testing.assert_allclose(xs[keep], want, atol=1e-5)

    def test_singular_keeps_crossing_branches_apart(self, tmp_path, capsys):
        rc = cli.main(["singular", "--config", write(tmp_path, CROSSING),
                       "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "cross_singular_points.csv")
        assert rows and "TangencyFailure" not in {r[3] for r in rows}
        cfg = cli.load_config(write(tmp_path, CROSSING))
        sing = [c for c in sg.singular_curves(cfg.metric_obj(), cfg.box, cfg.resolution)
                if c.label == "singular"]
        near = []
        for c in sing:
            # one branch per component: the slope moves by less than 0.05 a step
            assert np.abs(np.diff(c.slopes)).max() < 0.05
            d = np.hypot(c.points[:, 0] + 1.26479, c.points[:, 1] + 0.06245)
            if d.min() < 0.01:
                near.append(float(c.slopes[np.argmin(d)]))
        assert len(near) == 4
        assert sorted(round(p, 1) for p in near) == [-1.5, -1.5, 1.6, 1.6]

    def test_portrait_with_an_overflowing_root(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(["portrait", "--config", write(tmp_path, HUGE_ROOT),
                           "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "huge_portrait.svg").exists()

    @pytest.mark.parametrize(
        "command, text, name",
        [("portrait", HALFPLANE, "hp_portrait.svg"),
         ("classify", HALFPLANE, "hp_strata.csv"),
         ("puiseux", TANGENCY, "bm_series.txt")],
        ids=["svg", "csv", "txt"],
    )
    def test_unwritable_output_file_exits_two(self, tmp_path, capsys, command, text, name):
        (tmp_path / name).mkdir()
        rc = cli.main([command, "--config", write(tmp_path, text), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ") and err.count("\n") == 1
        assert name in err

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

    @pytest.mark.parametrize("override, message", [
        ("series_free=5 0.3", "free index 5 is FORCED"),
        ("series_free=3 0.3", "free index 3 is pinned by the seed"),
        ("series_free=13 0.3", "free index 13 lies outside 1..12"),
    ])
    def test_puiseux_refuses_a_dropped_free_value(self, tmp_path, capsys, override, message):
        rc = cli.main(["puiseux", "--config", write(tmp_path, TANGENCY),
                       "--out", str(tmp_path), "--seed", override])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("puiseux: ") and message in captured.err
        assert not list(tmp_path.glob("bm_*"))

    @pytest.mark.parametrize("overrides, message", [
        ((), "field b vanishes here; no finite admissible slopes"),
        (("series_seed=3 1",), "outside the domain box"),
    ])
    def test_puiseux_reports_a_degenerate_immersion(self, tmp_path, capsys, overrides,
                                                    message):
        # the default seed and the family shoot, not only the solve, end
        # in a one-line error when the base point has no usable slope
        argv = ["puiseux", "--config", write(tmp_path, TANGENCY), "--out", str(tmp_path),
                "--seed", "f3=y - 1e200*x^2"]
        for ov in overrides:
            argv += ["--seed", ov]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("puiseux: ") and message in captured.err
        assert not list(tmp_path.glob("bm_*"))

    @pytest.mark.parametrize("text, overrides, message", [
        # a coefficient with a pole at the base point: no series there
        (HALFPLANE, ("a0=0", "a1=1/x", "series_seed=3 2", "series_order=8"),
         "pole at the base point (0, 0)"),
        (HALFPLANE, ("a0=0", "a1=y/x", "series_seed=3 2", "series_order=8"),
         "pole at the base point (0, 0)"),
        # a family member whose series overflows the floats: its seed
        # point is not finite, which is said as such, not as a point
        # outside the domain box
        (TANGENCY, ("alpha=1e308",), "seed (x, y, slope) is not finite"),
    ], ids=["pole", "zero-over-zero", "overflow"])
    def test_puiseux_reports_an_unusable_series(self, tmp_path, capsys, text, overrides,
                                                message):
        argv = ["puiseux", "--config", write(tmp_path, text), "--out", str(tmp_path)]
        for ov in overrides:
            argv += ["--seed", ov]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("puiseux: ") and message in captured.err

    def test_puiseux_default_alpha_only_within_the_order(self, tmp_path):
        # the first alpha goes to index 2n - 2 = 4 only when the solve reaches it
        rc = cli.main(["puiseux", "--config", write(tmp_path, TANGENCY),
                       "--out", str(tmp_path), "--seed", "series_order=3"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "bm_series.csv")
        assert [int(r[0]) for r in rows] == [1, 2]

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

    def test_parser_is_reused_without_the_last_overrides(self, tmp_path, monkeypatch):
        # main parses with one parser built on first use; the overrides of
        # one run are not seen by the next
        seen = []
        load = cli.load_config

        def recording_load(path, overrides=()):
            seen.append(overrides)
            return load(path, overrides)

        monkeypatch.setattr(cli, "load_config", recording_load)
        path = write(tmp_path, HALFPLANE)
        argv = ["classify", "--config", path, "--out", str(tmp_path)]
        assert cli.main(argv + ["--seed", "resolution=8", "--seed", "out_prefix=a"]) == 0
        assert cli.main(argv) == 0
        assert seen == [("resolution=8", "out_prefix=a"), ()]
        assert (tmp_path / "a_strata.csv").exists() and (tmp_path / "hp_strata.csv").exists()
        assert cli._parser() is cli._parser()

    def test_csv_lines_end_in_crlf_under_their_header(self, tmp_path):
        path = write(tmp_path, HALFPLANE)
        for command in ("classify", "integrate", "singular"):
            assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 0
        headers = {"strata": "x,y,stratum,disc", "trace": ",".join(cli._TRACE_HEADER),
                   "locus": "x,y", "singular_points": ",".join(cli._POINT_HEADER)}
        files = sorted(tmp_path.glob("hp_*.csv"))
        assert len(files) == 5
        for f in files:
            data = f.read_bytes()
            kind = next(k for k in headers if k in f.name)
            assert data.startswith(headers[kind].encode() + b"\r\n")
            assert data.endswith(b"\r\n") and b"\0" not in data
            assert data.count(b"\n") == data.count(b"\r\n") == data.count(b"\r")
        assert (tmp_path / "hp_strata.csv").read_bytes().count(b"\r\n") == 1 + 40 * 40

    def test_puiseux_csv_files_match_row_references(self, tmp_path):
        assert cli.main(["puiseux", "--config", write(tmp_path, TANGENCY),
                         "--out", str(tmp_path)]) == 0
        cfg = cli.load_config(write(tmp_path, TANGENCY))
        alm = cfg.adapted_chart()
        m = bm.full_metric(alm)
        seed = {3: float(bm.admissible_u(alm)[1])}
        sol = px.solve_geodesic_series(m, 3, seed, cfg.series_order, free={4: cfg.alphas[0]})
        assert (tmp_path / "bm_series.csv").read_bytes() == csv_bytes(
            cli._SERIES_HEADER, series_lines(sol)
        )
        members = bm.bm_family_shoot(alm, cfg.alphas, y0=cfg.y0, order=cfg.series_order,
                                     cfg=cfg.integrator())
        assert len(members) == 4
        for i, mem in enumerate(members):
            want = csv_bytes(["alpha", "eta_sign"] + cli._TRACE_HEADER, family_lines(mem))
            assert (tmp_path / f"bm_family{i:02d}.csv").read_bytes() == want


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


def test_path_data_formats_as_percent_3f():
    # exact ties of three decimals (the odd sixteenths), the floats nearest
    # to the decimal ties k + 0.5 thousandths, the neighbours of both,
    # signed zeros and tiny negatives, and values that carry into the next
    # whole number or digit count
    rng = np.random.default_rng(20261019)
    sixteenths = np.arange(1, 16000, 2) / 16.0
    decimal_ties = (np.arange(0, 999999, 37) + 0.5) / 1000.0
    edges = np.array([0.0, -0.0, -1e-13, -0.0004999, 0.0005, 9.9995, 99.9995, 599.9995,
                      998.9995, 999.9994, 40.0, 600.0])
    near = np.concatenate([sixteenths, decimal_ties, edges])
    vals = np.concatenate([
        near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf),
        rng.uniform(-1.0, 999.0, 4000),
    ])
    rng.shuffle(vals)
    vals = vals[: vals.size // 2 * 2].reshape(-1, 2)
    cuts = np.array([0, 2, 5, 1000, 1003, 9000, len(vals)])
    styles = ["geodesic", "boundary", "singular-net", "isotropic-net", "geodesic", "boundary"]
    want = svg_path_elements([
        (style, "M " + " L ".join("%.3f %.3f" % (x, y) for x, y in vals[a:b].tolist()))
        for style, a, b in zip(styles, cuts[:-1], cuts[1:])
    ])
    assert cli._path_data(vals, np.diff(cuts), styles) == want


def svg_path_elements(paths) -> bytes:
    """The <path> element lines of (style, d) pairs, as the SVG file has them."""
    return "".join(f'<path {cli._SVG_STYLE[style]} d="{d}"/>\n' for style, d in paths).encode()


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
    # the curves still queued are formatted by the last pass
    canvas._format_queued()
    assert b"".join(canvas._paths) == svg_path_elements(want)


def test_svg_passes_keep_curves_apart(monkeypatch):
    # passes of 5 points: a pass runs once the queued curves reach 5
    # points, so curves straddle the pass marks; a pass of curves with no
    # run inside the box formats nothing
    monkeypatch.setattr(cli, "_ROWS_PER_PASS", 5)
    calls = []
    path_data = cli._path_data

    def counting(points, sizes, styles):
        calls.append(len(sizes))
        return path_data(points, sizes, styles)

    monkeypatch.setattr(cli, "_path_data", counting)
    box = (0.0, 1.0, 0.0, 1.0)
    line = np.linspace(0.1, 0.9, 9)
    curves = [
        (np.column_stack([line[:3], line[:3]]), "geodesic"),
        # in the box from its first point, as the last curve is at its
        # end: two paths, not one
        (np.column_stack([line[3:7], line[3:7]]), "boundary"),
        (np.array([[0.5, 0.5]]), "geodesic"),
        (np.column_stack([line[:6] + 2.0, line[:6]]), "geodesic"),
        # two runs, split by a point outside the box
        (np.column_stack([line, np.r_[line[:4], 5.0, line[5:]]]), "singular-net"),
        (np.column_stack([line[:2], line[7:]]), "isotropic-net"),
    ]
    canvas = cli._SvgCanvas(box, width=100, height=100, margin=10)
    want = []
    for pts, style in curves:
        canvas.polyline(pts, style)
        want += svg_polyline_paths(canvas, pts, style)
    assert calls == [2, 2]
    svg = b"".join(canvas.render("t"))
    assert calls == [2, 2, 1]
    assert [style for style, _ in want] == ["geodesic", "boundary", "singular-net",
                                            "singular-net", "isotropic-net"]
    assert b"".join(canvas._paths) == svg_path_elements(want)
    assert svg.count(b"<path ") == 5


# ---------------------------------------------------------------------------
# the CSV writer and its array "%.12g" formatter


def g_texts(values) -> list[str]:
    return [b.decode() for b in cli._format_g(np.asarray(values, dtype=np.float64)).tolist()]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=40))
def test_format_g_matches_percent_12g_on_any_floats(values):
    assert g_texts(values) == ["%.12g" % v for v in values]


def test_format_g_edge_cases():
    edges = np.array([
        # a tie decides the exponent: the digits round up to a power of ten
        9.999999999995e-05, 99999999999.95, 999999999999.5,
        # exact ties of the digits, and the signed zeros
        0.5, 2.5, 0.0, -0.0, 100000000000.5, 2.0**-30,
        # the smallest subnormal, the smallest normal and the largest float
        5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        # where the fixed form starts and stops, and the powers of ten at
        # the ends of the array path (1e-11, 1e33) and past them
        1e-5, 1e-4, 1e11, 1e12, 1e16, 1e-11, 1e-10, 1e33, 1e34, 1e22, 1e23,
        np.inf, -np.inf, np.nan,
    ])
    with np.errstate(over="ignore"):
        up = np.nextafter(edges, np.inf)
    near = np.concatenate([edges, -edges, np.nextafter(edges, 0), up])
    assert g_texts(near) == ["%.12g" % v for v in near.tolist()]
    # signed zeros among normal values: a pass with no value on the fallback
    mixed = np.array([0.0, 1.5, -0.0, -2.25e-7, 0.0, 3e15, -0.0, 12.0])
    assert g_texts(mixed) == ["0", "1.5", "-0", "-2.25e-07", "0", "3e+15", "-0", "12"]
    assert g_texts([9.999999999995e-05, 99999999999.95, 999999999999.5]) == [
        "9.99999999999e-05", "99999999999.9", "1e+12"]
    assert g_texts([]) == []


def test_format_g_on_wide_random_values():
    rng = np.random.default_rng(20261019)
    # every exponent of the array path and past its ends, rounded decimals,
    # integers, and the floats next to the decimal ties of twelve digits
    wide = rng.choice([-1.0, 1.0], 40000) * 10.0 ** rng.uniform(-14, 36, 40000)
    decimals = np.concatenate([np.round(rng.uniform(-1e3, 1e3, 1000), d) for d in range(16)])
    integers = rng.integers(-10**14, 10**14, 4000).astype(np.float64)
    ties = np.array([
        float(Fraction(int(n) * 10 + 5) * Fraction(10) ** int(k))
        for n, k in zip(rng.integers(10**11, 10**12, 4000), rng.integers(-16, 23, 4000))
    ])
    values = np.concatenate([wide, decimals, integers, ties, np.nextafter(ties, 0),
                             np.nextafter(ties, np.inf)])
    assert g_texts(values) == ["%.12g" % v for v in values.tolist()]


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.cfg")))
def test_format_g_on_the_disc_grids_of_the_configs(name):
    cfg = cli.load_config(str(CONFIGS / f"{name}.cfg"))
    xs = np.linspace(cfg.box[0], cfg.box[1], cfg.resolution)
    ys = np.linspace(cfg.box[2], cfg.box[3], cfg.resolution)
    _, disc = mt.strata_on_grid(cfg.metric_obj(), *np.meshgrid(xs, ys))
    assert g_texts(disc.ravel()) == [fmt(d) for d in disc.ravel().tolist()]
    assert g_texts(xs) == [fmt(x) for x in xs.tolist()]


def test_write_csv_matches_row_reference_across_passes(tmp_path, monkeypatch):
    # passes of 7 rows; float columns with values on the "%.12g" fallback,
    # a float table, and tables of strings with an empty entry
    monkeypatch.setattr(cli, "_ROWS_PER_PASS", 7)
    rng = np.random.default_rng(3)
    size = 40
    a = rng.normal(size=size) * 10.0 ** rng.integers(-8, 40, size)
    a[[0, 5, 17]] = [0.0, np.nan, -np.inf]
    b = rng.uniform(-1, 1, size)
    xs = np.array([-0.25, 1e-7, 3.0])
    codes = rng.integers(0, 3, size)
    names = ["", "MPlus", "q"]
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), ["a", "x", "name", "b"], [a, (codes, xs), (codes, names), b])
    lines = [f"{fmt(a[i])},{fmt(xs[codes[i]])},{names[codes[i]]},{fmt(b[i])}"
             for i in range(size)]
    assert path.read_bytes() == csv_bytes(["a", "x", "name", "b"], lines)
    cli._write_csv(str(path), ["a", "b"], [a[:0], b[:0]])
    assert path.read_bytes() == b"a,b\r\n"


def test_write_csv_refuses_a_comma_or_a_ragged_column(tmp_path):
    path = str(tmp_path / "t.csv")
    codes = np.zeros(3, dtype=np.intp)
    with pytest.raises(ValueError, match=re.escape(path) + ".*'a,b'"):
        cli._write_csv(path, ["x", "kind"], [np.ones(3), (codes, ["a,b"])])
    with pytest.raises(ValueError, match=re.escape(path) + ".*'x,y'"):
        cli._write_csv(path, ["x,y"], [np.ones(3)])
    with pytest.raises(ValueError, match=re.escape(path)):
        cli._write_csv(path, ["x", "y"], [np.ones(3), np.ones(4)])
    with pytest.raises(ValueError, match=re.escape(path)):
        cli._write_csv(path, ["x", "y"], [np.ones(3)])
    assert not (tmp_path / "t.csv").exists()


def test_write_csv_writes_each_pass_as_it_is_made(tmp_path, monkeypatch):
    # the header, then each pass of 7 rows, written before the next one
    # is formatted
    monkeypatch.setattr(cli, "_ROWS_PER_PASS", 7)
    events = []
    format_g = cli._format_g

    def formatting(values):
        events.append("format")
        return format_g(values)

    def writing(path, data):
        for part in data:
            events.append(("write", part.count(b"\r\n")))

    monkeypatch.setattr(cli, "_format_g", formatting)
    monkeypatch.setattr(cli, "_write", writing)
    cli._write_csv(str(tmp_path / "t.csv"), ["a"], [np.arange(17.0)])
    assert events == [("write", 1), "format", ("write", 7), "format", ("write", 7),
                      "format", ("write", 3)]


def test_singular_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs 10-15 ms and 1.6 MiB to import; np.unique without
    # return_inverse imports it on its first call
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["singular", "--config", str(CONFIGS / "parabola.cfg"), "--out", str(tmp_path)]
    code = (
        "import sys\n"
        "from finslerflow import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("command, limit_mib", [("singular", 4.0), ("classify", 4.0)])
def test_locus_commands_keep_no_full_grid_temporaries(command, limit_mib, tmp_path):
    # the grids run in blocks and the CSV passes are written as they are
    # made; each whole-grid array of a 220^2 grid is 0.37 MiB
    argv = [command, "--config", str(CONFIGS / "parabola.cfg"), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


def test_portrait_formats_its_paths_in_passes(tmp_path, monkeypatch):
    # the paths are formatted a pass of 8,192 queued points at a time, not
    # curve by curve and not all at once when the file is rendered
    argv = ["portrait", "--config", str(CONFIGS / "halfplane.cfg"), "--out", str(tmp_path)]
    points, calls = [], []
    polyline, path_data = cli._SvgCanvas.polyline, cli._path_data

    def counting_polyline(canvas, pts, style):
        points.append(len(pts))
        polyline(canvas, pts, style)

    def counting_path_data(*args):
        calls.append(1)
        return path_data(*args)

    monkeypatch.setattr(cli._SvgCanvas, "polyline", counting_polyline)
    monkeypatch.setattr(cli, "_path_data", counting_path_data)
    assert cli.main(argv) == 0
    assert 0 < len(calls) <= -(-sum(points) // cli._ROWS_PER_PASS) + 1
    monkeypatch.undo()
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.0 * 2**20
