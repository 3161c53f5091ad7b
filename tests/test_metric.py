"""Metric layer: slope polynomials, strata, and the tangent-bundle oracle."""

from __future__ import annotations

import math
import struct
import warnings

import numpy as np
import pytest

from finslerflow import expr as ex
from finslerflow import metric as mt
from finslerflow import singular as sg
from helpers import (
    degree,
    evaluate,
    fbar,
    halfplane_metric,
    parabola_metric,
    random_metric,
    random_poly_text,
)


def _closed_form_cubic(c_text: str):
    """Reference denominator/numerator for F = p**2 + c(x, y)."""
    e = ex.parse(c_text)
    fields = (e, ex.diff(e, "x"), ex.diff(e, "y"))

    def dv(x, y, p):
        return 2.0 * (3.0 * evaluate(e, x, y) - p * p)

    def nv(x, y, p):
        c, cx, cy = (evaluate(f, x, y) for f in fields)
        return 7.0 * cy * p * p + 4.0 * cx * p + 3.0 * c * cy

    return dv, nv


class TestClosedForms:
    """Weight-built slope polynomials against hand-derived references."""

    @pytest.mark.parametrize("c_text", ["-x", "1*y^2 - x", "-1*y^2 - x"])
    def test_cubic_with_unit_quadratic_term(self, c_text):
        m = mt.metric_from_strings(3, [c_text, "0", "1", "0"])
        dv, nv = _closed_form_cubic(c_text)
        rng = np.random.default_rng(42)
        for _ in range(50):
            x, y, p = rng.uniform(-1.5, 1.5, 3)
            assert m.table("denom").poly_value(x, y, p) == pytest.approx(
                dv(x, y, p), rel=1e-12, abs=1e-12
            )
            assert m.table("numer").poly_value(x, y, p) == pytest.approx(
                nv(x, y, p), rel=1e-12, abs=1e-12
            )

    def test_degree_bounds(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4, 5):
            m = random_metric(rng, n)
            x, y = rng.uniform(-1, 1, 2)
            assert degree(m.table("denom").values_at(x, y)) <= 2 * n - 4
            assert degree(m.table("numer").values_at(x, y)) <= 2 * n - 1


class TestTangentBundleOracle:
    """The acceleration-system determinants tie the slope polynomials to
    an independent construction."""

    def test_identities_random_metrics(self):
        rng = np.random.default_rng(2026)
        for n in (2, 3, 4, 5):
            for _ in range(6):
                m = random_metric(rng, n)
                for _ in range(8):
                    x, y = rng.uniform(-1, 1, 2)
                    xd = float(rng.uniform(0.3, 1.6) * rng.choice([-1, 1]))
                    yd = float(rng.uniform(-1.6, 1.6))
                    H, H1, H2 = mt.accel_determinants(m, x, y, xd, yd)
                    p = yd / xd
                    dv = m.table("denom").poly_value(x, y, p)
                    nv = m.table("numer").poly_value(x, y, p)
                    want_H = xd ** (2 * n - 4) * (n - 1) * dv
                    want_P = xd ** (2 * n - 2) * (n - 1) * nv
                    assert H == pytest.approx(want_H, rel=1e-9, abs=1e-9)
                    assert H2 - p * H1 == pytest.approx(want_P, rel=1e-9, abs=1e-9)

    def test_homogeneity_of_velocity_polynomial(self):
        rng = np.random.default_rng(9)
        m = random_metric(rng, 4)
        x, y, xd, yd = 0.3, -0.2, 0.7, -1.1
        base = fbar(m, x, y, xd, yd)
        for lam in (0.5, 2.0, 3.7):
            scaled = fbar(m, x, y, lam * xd, lam * yd)
            assert scaled == pytest.approx(lam**4 * base, rel=1e-12)

    def test_fbar_restricts_to_slope_polynomial(self):
        rng = np.random.default_rng(10)
        m = random_metric(rng, 3)
        for _ in range(20):
            x, y, p = rng.uniform(-1, 1, 3)
            assert fbar(m, x, y, 1.0, p) == pytest.approx(
                m.table("F").poly_value(x, y, p), rel=1e-12, abs=1e-12
            )

    def test_determinants_overflow_to_ieee(self):
        # F = p^2 - x: H = -4x whatever the velocity, while the velocity
        # powers in G1, G2 overflow and meet 0 * inf
        m = mt.metric_from_strings(2, ["-x", "0", "1"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H, H1, H2 = mt.accel_determinants(m, 0.1, 0.0, 1e200, 1e120)
        assert H == pytest.approx(-0.4, rel=1e-15)
        assert not math.isfinite(H1) and not math.isfinite(H2)

    @pytest.mark.parametrize("xdot", [1e200, -1e200])
    def test_fbar_overflows_to_inf(self, xdot):
        # -x * xdot^2 + ydot^2 at x = 0.1
        m = mt.metric_from_strings(2, ["-x", "0", "1"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fbar(m, 0.1, 0.0, xdot, 1e120) == -math.inf


class TestDiscriminants:
    def test_denominator_discriminant_factor(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            m = random_metric(rng, 3)
            x, y = rng.uniform(-1, 1, 2)
            dd = mt.disc_denom(m, x, y)
            df = mt.disc_metric(m, x, y)
            sc = (1.0 + mt.metric_scale(m, x, y)) ** 4
            assert abs(dd + 12.0 * df) <= 1e-9 * sc

    @pytest.mark.parametrize("degree", [2, 3])
    def test_grid_equals_pointwise(self, degree):
        # every coefficient, the leading ones included, varies over the box
        rng = np.random.default_rng(40 + degree)
        xs, ys = rng.uniform(-1.5, 1.5, (2, 400))
        for _ in range(5):
            texts = [random_poly_text(rng, 3) for _ in range(degree + 1)]
            m = mt.metric_from_strings(degree, texts)
            want = [mt.disc_metric(m, x, y) for x, y in zip(xs, ys)]
            assert np.array_equal(sg.disc_grid_fn(m)(xs, ys), want)
            if degree == 3:
                _, disc = mt.strata_on_grid(m, xs, ys)
                assert np.array_equal(disc, want)

    def test_degree_guards(self):
        m5 = random_metric(np.random.default_rng(3), 5)
        with pytest.raises(ValueError):
            mt.disc_metric(m5, 0.0, 0.0)
        with pytest.raises(ValueError):
            mt.disc_denom(m5, 0.0, 0.0)


class TestStrata:
    def test_halfplane_split(self):
        m = halfplane_metric()
        assert mt.classify_point(m, -0.5, 0.3) is mt.Stratum.MMinus
        assert mt.classify_point(m, 0.5, -0.8) is mt.Stratum.MPlus
        assert mt.classify_point(m, 0.0, 1.2) is mt.Stratum.M01

    def test_parabola_boundary(self):
        m = parabola_metric(1.0)
        assert mt.classify_point(m, 0.25, 0.5) is mt.Stratum.M01
        assert mt.classify_point(m, 0.3, 0.5) is mt.Stratum.MPlus
        assert mt.classify_point(m, 0.2, 0.5) is mt.Stratum.MMinus

    def test_triple_direction_is_m00(self):
        m = mt.metric_from_strings(3, ["-x^3", "3*x^2", "-3*x", "1"])
        assert mt.classify_point(m, 0.5, 0.0) is mt.Stratum.M00

    def test_isotropic_direction_count_by_stratum(self):
        m = halfplane_metric()
        left = mt.isotropic_directions(m, -1.0, 0.0)
        right = mt.isotropic_directions(m, 1.0, 0.0)
        finite_left = [r for r in left if not r.at_infinity]
        finite_right = [r for r in right if not r.at_infinity]
        assert len(finite_left) == 0
        assert sorted(r.value for r in finite_right) == pytest.approx([-1.0, 1.0])
        assert any(r.at_infinity for r in left) and any(r.at_infinity for r in right)

    def test_double_root_on_boundary(self):
        m = parabola_metric(1.0)
        roots = mt.isotropic_directions(m, 0.25, 0.5)
        finite = [r for r in roots if not r.at_infinity]
        assert len(finite) == 1 and finite[0].multiplicity == 2
        assert finite[0].value == pytest.approx(0.0, abs=1e-7)

    def test_degenerate_point_raises(self):
        m = mt.metric_from_strings(3, ["x", "0", "x", "0"])
        with pytest.raises(mt.DegeneratePointError):
            mt.isotropic_directions(m, 0.0, 0.7)

    def test_pole_is_a_degenerate_point(self):
        # coefficients [inf, 0, 1, 0] at x = 0: neither a triple direction
        # nor a triple root at infinity
        m = mt.metric_from_strings(3, ["1/x - y", "0", "1", "0"])
        for f in (mt.classify_point, mt.isotropic_directions):
            with pytest.raises(mt.DegeneratePointError, match="not finite"):
                f(m, 0.0, 0.3)
        with pytest.raises(mt.DegeneratePointError, match="vanish"):
            mt.classify_point(mt.metric_from_strings(3, ["x", "y", "0", "x + y"]), 0.0, 0.0)

    @pytest.mark.parametrize("a3", ["1e300", "1e100"])
    def test_band_that_overflows_is_a_degenerate_point(self, a3):
        # scale^4 overflows, so the band holds every discriminant; at
        # 1e300 scale^2 overflows as well
        m = mt.metric_from_strings(3, ["y^2 - x", "0", "1", a3])
        with pytest.raises(mt.DegeneratePointError, match="band is not finite"):
            mt.classify_point(m, 0.5, 0.5)
        X, Y = np.meshgrid([0.0, 0.5], [0.5, 1.0])
        with pytest.raises(mt.DegeneratePointError, match=r"band is not finite at \(0.0, 0.5\)"):
            mt.strata_on_grid(m, X, Y)
        # a band that stays finite still classifies: 1e70 (p-1)(p-2)(p-3)
        m = mt.metric_from_strings(3, ["-6e70", "11e70", "-6e70", "1e70"])
        assert mt.classify_point(m, 0.5, 0.5) is mt.Stratum.MPlus


def test_derived_layers_drop_zero_terms_at_a_pole():
    # dropping a term 0*b changes a value only where b is not finite:
    # at x = 0 the products 0 * (1/x) are gone instead of nan
    m = mt.metric_from_strings(3, ["1/x - y", "0", "1", "0"])
    inf = math.inf
    assert m.table("F_y").values_at(0.0, 0.3)[0] == -1.0
    assert m.table("numer").values_at(0.0, 0.3).tolist() == [-inf, -inf, -7.0, 0.0, 0.0, 0.0]
    assert mt.fdp_values(m, 0.0, 0.3, 0.2) == (inf, inf, -inf)


@pytest.mark.parametrize(
    "texts",
    [
        ["-x", "0", "1"],
        ["1/x", "y", "x*y - 1", "0.5"],  # inf at x = 0
        ["x/x - 1", "-1/x", "1"],  # nan and -inf at x = 0
        ["1e300*x^2", "0", "-1e300*y"],  # overflows to inf
    ],
)
def test_metric_scale_matches_numpy_max(texts):
    m = mt.metric_from_strings(len(texts) - 1, texts)
    rng = np.random.default_rng(9)
    points = [(0.0, 0.3), (0.0, -0.0), (1e200, 1e200)]
    points += [tuple(v) for v in rng.uniform(-2.0, 2.0, (50, 2)).tolist()]
    for x, y in points:
        want = float(np.max(np.abs(mt.coeff_values(m, x, y))))
        got = mt.metric_scale(m, x, y)
        assert type(got) is float
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert struct.pack("<d", got) == struct.pack("<d", want)


def test_dual_metric_swaps_charts():
    m = parabola_metric(0.8)
    d = m.dual()
    rng = np.random.default_rng(15)
    for _ in range(25):
        x, y, p = rng.uniform(-1.2, 1.2, 3)
        if abs(p) < 0.2:
            continue
        q = 1.0 / p
        # F changes charts with the weight p**n
        lhs = d.table("F").poly_value(y, x, q)
        rhs = m.table("F").poly_value(x, y, p) * q**3
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)
    assert m.dual().dual() is m


def test_dual_skips_the_zero_coefficient_probe():
    m = parabola_metric(0.8)
    d = m.dual()
    # the probe would have compiled the dual's F point function
    assert "F" not in d._tables


def test_coeff_exprs_roundtrip_text():
    m = mt.metric_from_strings(3, ["y*x - 1", "x + 2*y", "1", "x*y"])
    vals = mt.coeff_values(m, 0.3, -0.7)
    want = [0.3 * -0.7 - 1, 0.3 + 2 * -0.7, 1.0, 0.3 * -0.7]
    np.testing.assert_allclose(vals, want, rtol=1e-13)
