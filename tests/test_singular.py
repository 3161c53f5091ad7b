"""Singular points of the direction field: spectra, curve tracing, and
transversality along the singular locus."""

from __future__ import annotations

import itertools
import math
import operator
import types
from pathlib import Path

import numpy as np
import pytest
import sympy
from numpy.polynomial import polynomial as npoly

from finslerflow import cli
from finslerflow import flow
from finslerflow import metric as mt
from finslerflow import poly
from finslerflow import singular as sg

from helpers import (halfplane_metric, parabola_metric, random_metric, random_poly_text,
                     real_roots_reference, singular_directions, singular_grid_fn,
                     slope_rows_reference, to_sympy)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def random_rational_quadratic(rng) -> str:
    """A random quadratic in x and y with coefficients k/4, |k| <= 8."""
    terms = ["1", "x", "y", "x^2", "x*y", "y^2"]
    return " + ".join(f"{int(k) / 4}*{t}" for k, t in zip(rng.integers(-8, 9, 6), terms))


def scurve_x(y: float, alpha: float = 1.0) -> float:
    """Closed form of the slope-carrying singular curve of
    F = p**2 + alpha*y**2 - x."""
    return alpha * y * y - 1.0 / (48.0 * alpha * alpha * y * y)


def polished_singular_points(m, rng, count):
    """Up to count points (x, y, p) with D = N = 0, each from a random
    (x, y) in [-1, 1]^2 and a real root p of D there, by minimum-norm
    Newton steps on (D, N) in (x, y, p)."""
    pts = []
    for _ in range(10 * count):
        x, y = rng.uniform(-1.0, 1.0, 2)
        roots = poly.real_roots_many([m.table("denom").values_at(x, y)])[0]
        if not roots:
            continue
        u = np.array([x, y, roots[rng.integers(len(roots))][0]])
        for _ in range(30):
            A = sg.jacobian_at(m, *u)[[0, 2]]
            r = [m.table("denom").poly_value(*u), m.table("numer").poly_value(*u)]
            step = A.T @ np.linalg.solve(A @ A.T, r)
            u -= step
            if np.linalg.norm(step) < 1e-15 * (1.0 + np.linalg.norm(u)):
                break
        if np.all(np.isfinite(u)) and np.abs(u[:2]).max() < 2.0:
            pts.append(u.tolist())
        if len(pts) == count:
            break
    return pts


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


class TestTraceAndInvariant:
    """J = jacobian_at: tr J and T = D_p (N_x + p N_y) - N_p (D_x + p D_y)
    decide the pair kinds and the tangency test."""

    def test_jacobian_structure_of_generic_cubic(self, monkeypatch):
        # the weight formulas of metric.py, run on sympy functions a_i(x, y)
        x, y, p = sympy.symbols("x y p")
        a = [sympy.Function(f"a{i}")(x, y) for i in range(4)]
        monkeypatch.setattr(mt, "ex", types.SimpleNamespace(
            ZERO=sympy.S.Zero, const=sympy.Integer, sadd=operator.add, smul=operator.mul,
            diff=lambda e, var: sympy.diff(e, {"x": x, "y": y}[var]),
        ))
        cubic = types.SimpleNamespace(degree=3, coeff_exprs=lambda: a)
        D = sum(c * p**k for k, c in enumerate(mt._denom_exprs(cubic)))
        N = sum(c * p**k for k, c in enumerate(mt._numer_exprs(cubic)))
        J = sympy.Matrix([D, p * D, N]).jacobian([x, y, p])
        assert sympy.expand(J.row(1) - p * J.row(0) - sympy.Matrix([[0, 0, D]])).is_zero_matrix
        T = D.diff(p) * (N.diff(x) + p * N.diff(y)) - N.diff(p) * (D.diff(x) + p * D.diff(y))
        sigma2 = (J.trace() ** 2 - (J * J).trace()) / 2
        assert sympy.expand(sigma2 + T + D * N.diff(y)) == 0
        assert sympy.expand(J.trace() - (D.diff(x) + p * D.diff(y) + N.diff(p))) == 0
        # jacobian_at is this J for a rational cubic
        monkeypatch.undo()
        rng = np.random.default_rng(16)
        m = mt.metric_from_strings(3, [random_rational_quadratic(rng) for _ in range(4)])
        at = {x: sympy.Rational(3, 7), y: sympy.Rational(-2, 5), p: sympy.Rational(5, 3)}
        coeffs = {ai: to_sympy(e, x, y) for ai, e in zip(a, m.coeff_exprs())}
        want = np.array(J.subs(coeffs).doit().subs(at), dtype=float)
        got = sg.jacobian_at(m, *(float(at[v]) for v in (x, y, p)))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("degree", [3, 4])
    def test_trace_vanishes_and_pair_squares_to_t(self, degree):
        # at Newton-polished singular points away from double isotropic
        # directions: tr J = 0, and the nonzero pair is +-sqrt(T)
        rng = np.random.default_rng(degree)
        checked = 0
        for _ in range(4):
            m = random_metric(rng, degree)
            for x, y, p in polished_singular_points(m, rng, 20):
                f = mt.coeff_values(m, x, y)
                scale = np.abs(f).max() * (1.0 + abs(p)) ** degree
                fv, dv = npoly.polyval(p, f), npoly.polyval(p, npoly.polyder(f))
                if max(abs(fv), abs(dv)) < 1e-6 * scale:
                    continue
                J = sg.jacobian_at(m, x, y, p)
                jn = np.linalg.norm(J)
                eigs = np.linalg.eigvals(J)
                lam = eigs[np.argmax(np.abs(eigs))]
                assert abs(np.trace(J)) < 1e-10 * jn
                assert abs(lam * lam - sg._invariant_t(J, p)) < 1e-12 * jn * jn
                # the closed-form spectrum of classify_singular: 0 and +-sqrt(T)
                got = sg.classify_singular(m, x, y, p).eigenvalues
                assert got[2] == 0
                assert abs(got[0] - lam) < 1e-8 * jn or abs(got[1] - lam) < 1e-8 * jn
                assert abs(got[0] + got[1]) < 1e-9 * jn
                checked += 1
        assert checked >= 40


def assert_same_bits(got, want):
    """Equal values and signs; a nan matches any nan (the float path's
    _div gives math.nan, numpy's 0/0 sets the sign bit)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got) | np.isnan(got), np.signbit(want) | np.isnan(want))


class TestSlopeRows:
    """_slope_rows is one call of the metric's generated slope rows, on
    arrays; the point reports call the same function on floats."""

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_generated_rows_match_the_layer_grids(self, degree):
        rng = np.random.default_rng(40 + degree)
        metrics = [random_metric(rng, degree) for _ in range(3)]
        # a pole on the line x = 0.25
        texts = [random_poly_text(rng) for _ in range(degree)] + ["1.3"]
        texts[0] += " + 0.2/(x - 0.25)"
        metrics.append(mt.metric_from_strings(degree, texts))
        special = [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e300]
        x = np.concatenate([rng.uniform(-1.5, 1.5, 60), [0.25] * 6, [0.0, 1e200, 0.5] * 2])
        y = np.concatenate([rng.uniform(-1.5, 1.5, 60), rng.uniform(-1.0, 1.0, 12)])
        p = np.concatenate([rng.uniform(-3.0, 3.0, 60), special, special])
        p[rng.integers(0, 60, 12)] = special * 2
        P = np.array([x, y, p])
        for m in metrics:
            for names in (("denom", "numer"), ("F", "F_p")):
                r, J = sg._slope_rows(m, names, P)
                want_r, want_J = slope_rows_reference(m, names, P)
                assert_same_bits(r, want_r)
                assert_same_bits(J, want_J)
            # jacobian_at on floats: the rows of the array path
            r, (d, n) = sg._slope_rows(m, ("denom", "numer"), P)
            with np.errstate(all="ignore"):
                row2 = p * d + np.array([np.zeros_like(p), np.zeros_like(p), r[0]])
            assert not np.all(np.isfinite(row2))
            for k in range(P.shape[1]):
                assert_same_bits(sg.jacobian_at(m, *P[:, k].tolist()),
                                 [d[:, k], row2[:, k], n[:, k]])

    def test_point_reports_make_one_generated_call(self, monkeypatch):
        # classify_singular and tangency_report take D, N and J from one
        # call of the generated slope rows, not from poly_value
        m = parabola_metric(1.0)
        calls = []
        rows = m.slope_rows_function

        def counted(names):
            fn = rows(names)

            def call(*args):
                calls.append((names, args))
                return fn(*args)

            return call

        def refused(*args):
            raise AssertionError("poly_value called")

        monkeypatch.setattr(m, "slope_rows_function", counted)
        monkeypatch.setattr(type(m.table("denom")), "poly_value", refused)
        y = 0.6
        x, p = scurve_x(y), sg.lift_to_slope(m, scurve_x(y), y)
        spt = sg.classify_singular(m, x, y, p)
        assert spt.kind == sg.REAL_PAIR
        rep = sg.tangency_report(m, x, y, p)
        assert rep.transversal
        assert calls == [(("denom", "numer"), (x, y, p))] * 2
        assert np.array_equal(rep.eigenvalues, spt.eigenvalues)


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

    @pytest.mark.parametrize("name", ["parabola", "parabola_neg"])
    def test_one_singular_component_on_shipped_configs(self, name):
        cfg = cli.load_config(str(CONFIGS / f"{name}.cfg"))
        curves = sg.singular_curves(cfg.metric_obj(), cfg.box, cfg.resolution)
        assert [c.label for c in curves].count("singular") == 1
        assert curves[0].label == "singular"

    @pytest.mark.parametrize("name", ["parabola", "parabola_neg"])
    def test_projected_points_stay_in_the_box(self, name):
        # the end samples of a polyline lie on the box edge, and the
        # projection can move them off it
        cfg = cli.load_config(str(CONFIGS / f"{name}.cfg"))
        x0, x1, y0, y1 = cfg.box
        for c in sg.singular_curves(cfg.metric_obj(), cfg.box, cfg.resolution):
            x, y = c.points.T
            assert np.all((x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)), c.label

    def test_disc_is_evaluated_once(self, monkeypatch):
        # the boundary is traced from disc_F's grid, which then becomes
        # the grid of resultant / disc_F
        m = parabola_metric(1.0)
        box, resolution = (-1.5, 1.5, 0.05, 1.5), 120
        want = sg.trace_implicit_curve(
            singular_grid_fn(m), sg._slope_equations(m, ("denom", "numer")), box,
            resolution, "singular",
            lambda xs, ys: np.array([xs, ys, np.arctan(sg.lift_to_slopes(m, xs, ys))]),
        ) + sg.boundary_curves(m, box, resolution)
        points = []
        disc_from_coeffs = mt.disc_from_coeffs

        def counted(metric, c):
            points.append(np.size(c[0]))
            return disc_from_coeffs(metric, c)

        monkeypatch.setattr(mt, "disc_from_coeffs", counted)
        got = sg.singular_curves(m, box, resolution)
        assert sum(points) == resolution**2
        assert [c.label for c in got] == [c.label for c in want]
        for a, b in zip(got, want):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.slopes, b.slopes)

    def test_degree_four_is_refused(self):
        m = mt.metric_from_strings(4, ["y^2 - x", "0", "1", "0", "0.3"])
        with pytest.raises(ValueError, match="degree 2 or 3"):
            sg.singular_curves(m, (-1.0, 1.0, -1.0, 1.0), resolution=40)

    def test_halfplane_locus_is_vertical_axis(self):
        # F = p^2 - x: the boundary is x = 0, with the double root p = 0
        m = halfplane_metric()
        curves = sg.singular_curves(m, (-1.0, 1.0, -1.0, 1.0))
        assert [c.label for c in curves] == ["boundary"]
        assert np.abs(curves[0].points[:, 0]).max() < 1e-8
        assert np.all(curves[0].slopes == 0.0)


def assert_spectrum_matches(m, rep):
    """The closed-form spectrum of a report against np.linalg.eigvals of
    the Jacobian, and its pair away from zero exactly where the point is
    transversal."""
    J = sg.jacobian_at(m, rep.x, rep.y, rep.p)
    jn = np.linalg.norm(J)
    want = np.linalg.eigvals(J)
    got = rep.eigenvalues
    assert min(
        np.abs(got[list(perm)] - want).max() for perm in itertools.permutations(range(3))
    ) < 1e-9 * jn + 4.0 * (1e-16 * jn**3) ** (1 / 3)
    assert got[2] == 0
    assert (abs(got[1]) > 1e-6 * jn) == rep.transversal


class TestTangency:
    def test_failure_point_alpha_one(self):
        m = parabola_metric(1.0)
        curves = sg.singular_curves(m, (-1.5, 1.5, 0.05, 1.5), resolution=260)
        sing = [c for c in curves if c.label == "singular"][0]
        fails = sg.find_tangency_failures(m, sing)
        assert len(fails) == 1
        fx, fy, fp = fails[0]
        assert fx == pytest.approx(0.0, abs=1e-5)
        assert fy == pytest.approx(48.0 ** -0.25, abs=1e-5)
        rep = sg.tangency_report(m, fx, fy, fp)
        assert not rep.transversal
        assert_spectrum_matches(m, rep)

    def test_failure_point_scales_with_alpha(self):
        alpha = 0.7
        m = parabola_metric(alpha)
        curves = sg.singular_curves(m, (-1.5, 1.5, 0.05, 1.5), resolution=300)
        sing = [c for c in curves if c.label == "singular"][0]
        fails = sg.find_tangency_failures(m, sing)
        assert len(fails) == 1
        fx, fy, fp = fails[0]
        assert fx == pytest.approx(0.0, abs=1e-5)
        assert fy == pytest.approx((48.0 * alpha**3) ** -0.25, abs=1e-5)
        assert not sg.tangency_report(m, fx, fy, fp).transversal

    def test_reportedly_tangent_point_is_transversal(self):
        # (47/48, 1) lies on the curve but the field is not tangent there;
        # the linearization carries a clean opposite real pair
        m = parabola_metric(1.0)
        rep = sg.tangency_report(m, 47.0 / 48.0, 1.0, sg.lift_to_slope(m, 47.0 / 48.0, 1.0))
        assert rep.transversal
        assert abs(rep.direction_dot) > 0.1
        assert_spectrum_matches(m, rep)
        lam = rep.eigenvalues
        assert lam[0].real == pytest.approx(-lam[1].real, rel=1e-6)
        assert abs(lam[0]) == pytest.approx(3.4278, abs=1e-3)

    def test_report_consistency_away_from_failure(self):
        m = parabola_metric(1.0)
        for y in (0.3, 0.6, 1.0):
            rep = sg.tangency_report(m, scurve_x(y), y, sg.lift_to_slope(m, scurve_x(y), y))
            assert rep.transversal
            assert_spectrum_matches(m, rep)


class TestResultantFactorization:
    def test_quadratic_in_slope_family(self):
        # for F = p**2 + c the resultant is -1536 * c * (12 c c_y^2 - c_x^2)
        # and disc_F = -4 c, so the traced function is 384 (12 c c_y^2 - c_x^2)
        rng = np.random.default_rng(5)
        alpha = 0.8
        m = parabola_metric(alpha)
        x, y = rng.uniform(-1.2, 1.2, (2, 25))
        c = alpha * y * y - x
        cx, cy = -1.0, 2.0 * alpha * y
        want = 384.0 * (12.0 * c * cy * cy - cx * cx)
        got = singular_grid_fn(m)(x, y)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_vanishes_exactly_on_singular_curve(self):
        m = parabola_metric(1.0)
        g = singular_grid_fn(m)
        for y in (0.3, 0.5, 0.9):
            val = g(scurve_x(y), y)
            off = g(scurve_x(y) + 0.1, y)
            assert abs(val) < 1e-10 * abs(off)

    @pytest.mark.parametrize("seed", range(3))
    def test_discriminant_divides_resultant_once(self, seed):
        # exact, on a random rational line x = x0 + u t, y = y0 + v t:
        # disc_F | R and gcd(R / disc_F, disc_F) = 1; the third metric
        # has a_3 = 0, as the shipped configs of degree 3 do
        rng = np.random.default_rng(seed)
        t, p = sympy.symbols("t p")
        x0, y0, u, v = (sympy.Rational(int(k), 7) for k in rng.integers(-9, 10, 4))
        texts = [random_rational_quadratic(rng) for _ in range(4)]
        if seed == 2:
            texts[3] = "0"
        m = mt.metric_from_strings(3, texts)
        xs, ys = x0 + u * t, y0 + v * t

        def on_line(layer):
            return [to_sympy(e, xs, ys) for e in m._expr_layer(layer)]

        denom = sum(c * p**k for k, c in enumerate(on_line("denom")))
        numer = sum(c * p**k for k, c in enumerate(on_line("numer")))
        res = sympy.Poly(sympy.resultant(denom, numer, p), t)
        # the formula's integer weights are floats: make them exact first
        cs = sympy.symbols("c0:4")
        disc = sympy.nsimplify(mt.disc_from_coeffs(m, cs), rational=True)
        disc = sympy.Poly(disc.subs(dict(zip(cs, on_line("F")))), t)
        assert disc.degree() > 0
        quot, rem = sympy.div(res, disc)
        assert rem.is_zero and not quot.is_zero
        assert sympy.gcd(quot, disc).degree() == 0


class TestLiftAndAdmissible:
    def test_lift_finds_the_common_root(self):
        m = parabola_metric(1.0)
        for y in (0.3, 0.6, 1.0):
            x = scurve_x(y)
            p = sg.lift_to_slope(m, x, y)
            assert abs(m.table("denom").poly_value(x, y, p)) < 1e-9
            assert abs(m.table("numer").poly_value(x, y, p)) < 1e-8

    @staticmethod
    def lift_reference(m, x, y):
        """The first root of the row-by-row pipeline with the smallest
        |numer| relative to its terms, nan where there is none."""
        roots = real_roots_reference(m.table("denom").values_at(x, y))
        P = m.table("numer").values_at(x, y)

        def rel(r):
            v = abs(npoly.polyval(r, P)) / npoly.polyval(abs(r), np.abs(P))
            return np.inf if np.isnan(v) else v

        return min((r for r, _ in roots), key=rel, default=np.nan)

    def check_batched_lift(self, m, pts):
        got = sg.lift_to_slopes(m, pts[:, 0], pts[:, 1])
        want = [self.lift_reference(m, x, y) for x, y in pts.tolist()]
        np.testing.assert_array_equal(got, want)
        for (x, y), p in zip(pts.tolist(), got.tolist()):
            if np.isnan(p):
                with pytest.raises(sg.StratumError):
                    sg.lift_to_slope(m, x, y)
            else:
                assert sg.lift_to_slope(m, x, y) == p
        return got

    @pytest.mark.parametrize("cfg", ["parabola.cfg", "parabola_neg.cfg"])
    def test_batched_lift_on_the_singular_curves(self, cfg):
        config = cli.load_config(str(CONFIGS / cfg))
        m = config.metric_obj()
        curves = [
            c for c in sg.singular_curves(m, config.box, config.resolution)
            if c.label == "singular"
        ]
        assert sum(len(c) for c in curves) > 300
        for c in curves:
            got = self.check_batched_lift(m, c.points)
            assert np.all(np.isfinite(got))

    def test_batched_lift_on_random_cubics(self):
        rng = np.random.default_rng(18)
        missing = 0
        for _ in range(6):
            m = random_metric(rng, 3)
            pts = rng.uniform(-1.5, 1.5, (200, 2))
            got = self.check_batched_lift(m, pts)
            missing += int(np.isnan(got).sum())
        # points with and without a real denominator root both occur
        assert 50 < missing < 1000

    def test_lift_requires_real_denominator_root(self):
        m = parabola_metric(1.0)
        with pytest.raises(sg.StratumError):
            sg.lift_to_slope(m, 1.0, 0.0)


class TestSingularDirections:
    def test_double_root_of_denominator(self):
        m = halfplane_metric()
        lo, hi = singular_directions(m, -0.3, 0.0)
        np.testing.assert_allclose(sorted([lo, hi]), [-np.sqrt(0.9), np.sqrt(0.9)], atol=1e-9)
