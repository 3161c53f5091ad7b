"""Singular points of the direction field: spectra, curve tracing, and
transversality along the singular locus."""

from __future__ import annotations

import numpy as np
import pytest

from finslerflow import flow
from finslerflow import metric as mt
from finslerflow import singular as sg

from helpers import halfplane_metric, parabola_metric, random_metric


def scurve_x(y: float, alpha: float = 1.0) -> float:
    """Closed form of the slope-carrying singular curve of
    F = p**2 + alpha*y**2 - x."""
    return alpha * y * y - 1.0 / (48.0 * alpha * alpha * y * y)


class TestSpectra:
    def test_halfplane_origin(self):
        m = halfplane_metric()
        spt = sg.classify_singular(m, 0.0, 0.0, 0.0)
        eigs = np.sort_complex(spt.eigenvalues).real
        np.testing.assert_allclose(eigs, [-6.0, -4.0, 0.0], atol=1e-8)
        assert spt.kind == sg.RESONANT_32
        assert spt.transversal is True

    def test_three_two_ratio_for_generic_boundary(self):
        # any c with c(0,0) = 0 and c_x(0,0) != 0 gives the same ratio
        rng = np.random.default_rng(9)
        for _ in range(10):
            cx = float(rng.uniform(0.4, 2.0) * rng.choice([-1.0, 1.0]))
            cy = float(rng.uniform(-1.5, 1.5))
            cxy = float(rng.uniform(-1.5, 1.5))
            text = f"{cx}*x + {cy}*y + {cxy}*x*y"
            m = mt.metric_from_strings(3, [text, "0", "1", "0"])
            spt = sg.classify_singular(m, 0.0, 0.0, 0.0)
            assert spt.kind == sg.RESONANT_32
            lam = np.sort(spt.eigenvalues.real)
            lam = lam[np.argsort(-np.abs(lam))]
            assert abs(lam[0] / lam[1]) == pytest.approx(1.5, abs=1e-8)
            # both scale linearly with the transversal derivative
            assert lam[0] == pytest.approx(6.0 * cx, rel=1e-7)
            assert lam[1] == pytest.approx(4.0 * cx, rel=1e-7)

    def test_kinds_switch_along_singular_curve(self):
        m = parabola_metric(1.0)
        ystar = 48.0 ** -0.25
        for y in (0.25, 0.3):
            spt = sg.classify_singular(m, scurve_x(y), y, sg.lift_to_slope(m, scurve_x(y), y))
            assert spt.kind == sg.IMAGINARY_PAIR
            assert abs(spt.eigenvalues[0].real) < 1e-6 * abs(spt.eigenvalues[0])
        for y in (0.45, 1.0):
            spt = sg.classify_singular(m, scurve_x(y), y, sg.lift_to_slope(m, scurve_x(y), y))
            assert spt.kind == sg.REAL_PAIR
            assert spt.eigenvalues[0].real * spt.eigenvalues[1].real < 0
        # the pair degenerates to zero where the kinds meet
        p = sg.lift_to_slope(m, 0.0, ystar)
        spt = sg.classify_singular(m, 0.0, ystar, p)
        assert np.abs(spt.eigenvalues).max() < 1e-3

    def test_tangent_double_direction_is_not_transversal(self, monkeypatch):
        def tangent(*args):
            raise flow.TransversalityError("tangent")

        monkeypatch.setattr(flow, "check_transversality", tangent)
        spt = sg.classify_singular(halfplane_metric(), 0.0, 0.0, 0.0)
        assert spt.kind == sg.RESONANT_32
        assert spt.transversal is False

    def test_unrelated_error_in_transversality_check_propagates(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("bug in the check")

        monkeypatch.setattr(flow, "check_transversality", broken)
        with pytest.raises(RuntimeError, match="bug in the check"):
            sg.classify_singular(halfplane_metric(), 0.0, 0.0, 0.0)

    def test_regular_point_rejected(self):
        m = halfplane_metric()
        with pytest.raises(ValueError, match="not singular"):
            sg.classify_singular(m, -0.5, 0.0, 0.3)


class TestSingularCurves:
    def test_closed_form_parabola(self):
        for alpha in (1.0, 0.7):
            m = parabola_metric(alpha)
            curves = sg.singular_curves(m, (-1.5, 1.5, 0.05, 1.5), resolution=260)
            sing = [c for c in curves if c.label == "singular"]
            assert sing
            checked = 0
            for px, py in sing[0].points:
                if py < 0.2:
                    continue
                assert px == pytest.approx(scurve_x(py, alpha), abs=1e-5)
                checked += 1
            assert checked > 50

    def test_sampled_points_are_singular(self):
        m = parabola_metric(1.0)
        curves = sg.singular_curves(m, (-1.5, 1.5, 0.05, 1.5), resolution=260)
        sing = [c for c in curves if c.label == "singular"][0]
        for px, py in sing.points[:: len(sing.points) // 12]:
            p = sg.lift_to_slope(m, float(px), float(py))
            sg.classify_singular(m, float(px), float(py), p)

    def test_boundary_component_traces_parabola(self):
        m = parabola_metric(1.0)
        curves = sg.singular_curves(m, (-1.5, 1.5, 0.05, 1.5), resolution=260)
        bnd = [c for c in curves if c.label == "boundary"]
        assert bnd
        for px, py in bnd[0].points[::20]:
            assert px == pytest.approx(py * py, abs=1e-5)

    def test_degree_two_locus_is_the_boundary(self):
        # denom = -disc_F for n = 2: no singular curve lies off the boundary
        rng = np.random.default_rng(5)
        metrics = [mt.metric_from_strings(2, ["y^2 - x", "x*y", "1"])]
        metrics += [random_metric(rng, 2) for _ in range(4)]
        for m in metrics:
            curves = sg.singular_curves(m, (-1.0, 1.0, -1.0, 1.0), resolution=80)
            assert curves
            assert all(c.label == "boundary" for c in curves)

    def test_halfplane_locus_is_vertical_axis(self):
        m = halfplane_metric()
        curves = sg.trace_implicit_curve(
            sg.resultant_grid_fn(m), (-1.0, 1.0, -1.0, 1.0)
        )
        assert curves
        assert np.abs(curves[0].points[:, 0]).max() < 1e-8


class TestTangency:
    def test_failure_point_alpha_one(self):
        m = parabola_metric(1.0)
        curves = sg.singular_curves(m, (-1.5, 1.5, 0.05, 1.5), resolution=260)
        sing = [c for c in curves if c.label == "singular"][0]
        fails = sg.find_tangency_failures(m, sing)
        assert len(fails) == 1
        fx, fy = fails[0]
        assert fx == pytest.approx(0.0, abs=1e-5)
        assert fy == pytest.approx(48.0 ** -0.25, abs=1e-5)

    def test_failure_point_scales_with_alpha(self):
        alpha = 0.7
        m = parabola_metric(alpha)
        curves = sg.singular_curves(m, (-1.5, 1.5, 0.05, 1.5), resolution=300)
        sing = [c for c in curves if c.label == "singular"][0]
        fails = sg.find_tangency_failures(m, sing)
        assert len(fails) == 1
        fx, fy = fails[0]
        assert fx == pytest.approx(0.0, abs=1e-5)
        assert fy == pytest.approx((48.0 * alpha**3) ** -0.25, abs=1e-5)

    def test_reportedly_tangent_point_is_transversal(self):
        # (47/48, 1) lies on the curve but the field is not tangent there;
        # the linearization carries a clean opposite real pair
        m = parabola_metric(1.0)
        rep = sg.tangency_report(m, 47.0 / 48.0, 1.0)
        assert rep.transversal
        assert abs(rep.direction_dot) > 0.1
        assert rep.eigenvalues_nonzero and rep.consistent
        lam = rep.eigenvalues
        assert lam[0].real == pytest.approx(-lam[1].real, rel=1e-6)
        assert abs(lam[0]) == pytest.approx(3.4278, abs=1e-3)

    def test_report_consistency_away_from_failure(self):
        m = parabola_metric(1.0)
        for y in (0.3, 0.6, 1.0):
            rep = sg.tangency_report(m, scurve_x(y), y)
            assert rep.consistent


class TestResultantFactorization:
    def test_quadratic_in_slope_family(self):
        # for F = p**2 + c the resultant is -1536 * c * (12 c c_y^2 - c_x^2)
        rng = np.random.default_rng(5)
        alpha = 0.8
        m = parabola_metric(alpha)
        for x, y in rng.uniform(-1.2, 1.2, (25, 2)):
            c = alpha * y * y - x
            cx, cy = -1.0, 2.0 * alpha * y
            want = -1536.0 * c * (12.0 * c * cy * cy - cx * cx)
            got = sg.resultant_at(m, float(x), float(y))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_vanishes_exactly_on_singular_curve(self):
        m = parabola_metric(1.0)
        for y in (0.3, 0.5, 0.9):
            val = sg.resultant_at(m, scurve_x(y), y)
            off = sg.resultant_at(m, scurve_x(y) + 0.1, y)
            assert abs(val) < 1e-10 * abs(off)


class TestLiftAndAdmissible:
    def test_lift_finds_the_common_root(self):
        m = parabola_metric(1.0)
        for y in (0.3, 0.6, 1.0):
            x = scurve_x(y)
            p = sg.lift_to_slope(m, x, y)
            assert abs(mt.denom_poly(m, x, y)(p)) < 1e-9
            assert abs(mt.numer_poly(m, x, y)(p)) < 1e-8

    def test_lift_requires_real_denominator_root(self):
        m = parabola_metric(1.0)
        with pytest.raises(sg.StratumError):
            sg.lift_to_slope(m, 1.0, 0.0)

    def test_admissible_directions_quadratic(self):
        m2 = mt.metric_from_strings(2, ["-x", "0", "1"])
        assert sg.admissible_directions(m2, 0.0, 0.3) == [0.0]
        with pytest.raises(sg.StratumError):
            sg.admissible_directions(m2, 0.5, 0.0)
        with pytest.raises(sg.StratumError):
            sg.admissible_directions(halfplane_metric(), 0.0, 0.0)


class TestSingularDirections:
    def test_double_root_of_denominator(self):
        m = halfplane_metric()
        lo, hi = sg.singular_directions(m, -0.3, 0.0)
        np.testing.assert_allclose(sorted([lo, hi]), [-np.sqrt(0.9), np.sqrt(0.9)], atol=1e-9)
