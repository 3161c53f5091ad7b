"""Induced metrics on immersed surfaces and the blow-up of a double
isotropic direction."""

from __future__ import annotations

import numpy as np
import pytest

from finslerflow import berwald_moor as bm
from finslerflow import expr as ex
from finslerflow import metric as mt

from helpers import evaluate, quartic_product_metric


def tangency_immersion() -> bm.SurfaceImmersion:
    """Graph surface whose second and third isotropic directions collide
    along x = 0."""
    return bm.SurfaceImmersion(("x", "y", "y - 2*x^2"))


class TestInducedMetric:
    def test_tangency_surface_coefficients(self):
        m = bm.induced_metric(tangency_immersion())
        assert m.degree == 3
        rng = np.random.default_rng(0)
        for x, y in rng.uniform(-1.0, 1.0, (30, 2)):
            got = mt.coeff_values(m, float(x), float(y))
            np.testing.assert_array_equal(got, [0.0, -4.0 * x, 1.0, 0.0])

    def test_matches_direct_construction(self):
        m = bm.induced_metric(tangency_immersion())
        direct = quartic_product_metric()
        rng = np.random.default_rng(1)
        for x, y in rng.uniform(-1.0, 1.0, (10, 2)):
            np.testing.assert_allclose(
                mt.coeff_values(m, float(x), float(y)),
                mt.coeff_values(direct, float(x), float(y)),
                atol=1e-14,
            )

    def test_product_structure(self):
        # F is the product of the directional derivatives of the components
        imm = bm.SurfaceImmersion(("x + 0.5*y", "y - x", "y + 2*x + x*y"))
        m = bm.induced_metric(imm)
        rng = np.random.default_rng(2)
        for x, y, p in rng.uniform(-1.0, 1.0, (30, 3)):
            want = 1.0
            for f in imm.components:
                fx, fy = ex.diff(f, "x"), ex.diff(f, "y")
                want *= evaluate(fx, x, y) + evaluate(fy, x, y) * p
            assert mt.fdp_values(m, x, y, p)[0] == pytest.approx(
                want, rel=1e-12, abs=1e-12
            )

    def test_degenerate_component_rejected(self):
        with pytest.raises(ValueError, match="degenerate differential"):
            bm.SurfaceImmersion(("x", "y", "x^2 + y^2"))

    def test_needs_three_components(self):
        with pytest.raises(ValueError, match="three components"):
            bm.SurfaceImmersion(("x", "y"))


class TestDoubleDirectionLocus:
    def test_collision_line(self):
        imm = tangency_immersion()
        curves = bm.double_direction_locus(imm, 1, 2, (-1.0, 1.0, -1.0, 1.0))
        assert curves
        assert np.abs(curves[0].points[:, 0]).max() < 1e-8

    def test_pole_in_box_gives_curves(self):
        # the Jacobian 4x + 1/(x - 0.5)^2 is infinite on the grid column
        # x = 0.5; those cells are skipped, not raised on
        imm = bm.SurfaceImmersion(("x", "y", "y - 2*x^2 + 1/(x - 0.5)"))
        box = (-1.0, 1.0, -1.0, 1.0)
        assert 0.5 in np.linspace(box[0], box[1], 201)
        curves = bm.double_direction_locus(imm, 1, 2, box, resolution=201)
        assert len(curves) == 1
        # the zero set is the line at the real root of x (x - 0.5)^2 = -1/4
        roots = np.roots([1.0, -1.0, 0.25, 0.25])
        (root,) = roots[np.abs(roots.imag) < 1e-12].real
        np.testing.assert_allclose(curves[0].points[:, 0], root, atol=1e-9)
        assert np.ptp(curves[0].points[:, 1]) > 1.9

    def test_transversal_pair_has_no_locus(self):
        imm = tangency_immersion()
        assert bm.double_direction_locus(imm, 0, 1, (-1.0, 1.0, -1.0, 1.0)) == []

    def test_distinct_indices_required(self):
        with pytest.raises(ValueError):
            bm.double_direction_locus(tangency_immersion(), 1, 1, (-1, 1, -1, 1))


class TestAdaptedChart:
    def test_reconstruction_from_immersion(self):
        alm = bm.adapted_from_immersion(tangency_immersion(), 2, 1)
        a, b, _ = alm.values(0.0, 0.0)
        assert a == pytest.approx(-4.0)
        assert b == pytest.approx(1.0)
        assert alm.n == 3

    def test_full_metric_round_trip(self):
        alm = bm.adapted_from_immersion(tangency_immersion(), 2, 1)
        m = bm.full_metric(alm)
        direct = quartic_product_metric()
        rng = np.random.default_rng(3)
        for x, y in rng.uniform(-1.0, 1.0, (10, 2)):
            np.testing.assert_allclose(
                mt.coeff_values(m, float(x), float(y)),
                mt.coeff_values(direct, float(x), float(y)),
                atol=1e-12,
            )

    def test_equal_adapted_metrics_share_full_metric(self):
        first = bm.adapted_from_immersion(tangency_immersion(), 2, 1)
        second = bm.adapted_from_immersion(tangency_immersion(), 2, 1)
        assert first.a is not second.a
        assert bm.full_metric(first) is bm.full_metric(second)
        other = bm.AdaptedLocalMetric("-3", "1", extra=(("1", "0"),))
        assert bm.full_metric(other) is not bm.full_metric(first)

    def test_position_validation(self):
        imm = tangency_immersion()
        with pytest.raises(ValueError, match="vertical component depends on x"):
            bm.adapted_from_immersion(imm, 2, 0)
        with pytest.raises(ValueError, match="not divisible by x"):
            bm.adapted_from_immersion(imm, 0, 1)

    def test_admissible_slopes(self):
        alm = bm.adapted_from_immersion(tangency_immersion(), 2, 1)
        assert bm.admissible_u(alm) == (0.0, 2.0, 4.0)

    def test_admissible_needs_nonzero_b(self):
        alm = bm.AdaptedLocalMetric("1", "y + 1", extra=(("1", "0"),))
        with pytest.raises(ValueError, match="b vanishes"):
            bm.admissible_u(alm, 0.0, -1.0)

    def test_field_pole_is_value_error(self):
        alm = bm.AdaptedLocalMetric("-4", "1/(1 - y)", extra=(("1", "0"),))
        with pytest.raises(ValueError, match="pole at"):
            bm.admissible_u(alm, 0.0, 1.0)
        with pytest.raises(ValueError, match="pole at"):
            bm.blowup_field_at(alm, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="pole at"):
            bm.AdaptedLocalMetric("1/x", "1", extra=(("1", "0"),))


class TestBlowup:
    def test_rest_line_field(self):
        alm = bm.adapted_from_immersion(tangency_immersion(), 2, 1)
        # the collision plane x = 0 is invariant
        for u in (0.5, 1.0, 3.0):
            fx, fy, _ = bm.blowup_field_at(alm, 0.0, 0.2, u)
            assert fx == 0.0 and fy == 0.0
        # frozen value of the slope component at u = 1
        _, _, du = bm.blowup_field_at(alm, 0.0, 0.0, 1.0)
        assert du == pytest.approx(-3.0 / 13.0, rel=1e-12)
        # rest points exactly at the admissible slopes
        for u in bm.admissible_u(alm):
            assert bm.blowup_field_at(alm, 0.0, 0.0, u)[2] == pytest.approx(0.0, abs=1e-12)

    def test_spectra_cubic(self):
        alm = bm.adapted_from_immersion(tangency_immersion(), 2, 1)
        np.testing.assert_allclose(bm.blowup_spectrum(alm, which=1), (1.0, 1.0 / 3.0, 0.0), atol=1e-8)
        np.testing.assert_allclose(bm.blowup_spectrum(alm, which=0), (1.0, -0.5, 0.0), atol=1e-8)
        np.testing.assert_allclose(bm.blowup_spectrum(alm, which=2), (1.0, -0.5, 0.0), atol=1e-8)

    def test_spectra_quartic_ambient(self):
        # one more transversal factor raises the degree; the middle rest
        # point carries (n-2)/n and the outer ones (n-2)/(1-n)
        alm = bm.AdaptedLocalMetric("-4", "1", extra=(("1", "0"), ("1", "1")))
        assert alm.n == 4
        np.testing.assert_allclose(bm.blowup_spectrum(alm, which=1), (1.0, 0.5, 0.0), atol=1e-7)
        np.testing.assert_allclose(bm.blowup_spectrum(alm, which=0), (1.0, -2.0 / 3.0, 0.0), atol=1e-7)

    @pytest.mark.parametrize("comps,middle,outer", [
        (("x", "y", "y - 2*x^2"), 1 / 3, -1 / 2),
        (("x", "y", "y - 2*x^2", "x + y"), 1 / 2, -2 / 3),
    ])
    def test_spectra_are_exact_on_the_shipped_immersions(self, comps, middle, outer):
        # the closed form P'(u0)/A(u0), to the last bit, along the rest line
        alm = bm.adapted_from_immersion(bm.SurfaceImmersion(comps), 2, 1)
        for y0 in (0.0, 0.1):
            got = [bm.blowup_spectrum(alm, y0=y0, which=which) for which in (0, 1, 2)]
            assert got == [(1.0, outer, 0.0), (1.0, middle, 0.0), (1.0, outer, 0.0)]

    def test_degenerate_tangency_guard(self):
        alm = bm.AdaptedLocalMetric("1 - y", "1", extra=(("1", "0"),))
        with pytest.raises(ValueError, match="does not apply"):
            bm.blowup_field_at(alm, 0.0, 1.0, 0.5)


class TestFamilyShoot:
    def test_members_approach_base_point(self):
        alm = bm.adapted_from_immersion(tangency_immersion(), 2, 1)
        members = bm.bm_family_shoot(alm, [0.0, 1.0], t0=0.15)
        assert len(members) == 4
        assert {m.eta_sign for m in members} == {-1, 1}
        for mem in members:
            d = np.hypot(mem.trace.x, mem.trace.y)
            assert d.min() < 5e-3

    def test_tongue_containment(self):
        # members launched inside the tongue stay between the isotropic
        # curves y = 0 and y = 2x^2
        alm = bm.adapted_from_immersion(tangency_immersion(), 2, 1)
        members = bm.bm_family_shoot(alm, [-0.5, 0.0, 0.5], t0=0.15)
        for mem in members:
            keep = np.abs(mem.trace.x) <= 0.2
            assert keep.sum() > 10
            ys = mem.trace.y[keep]
            xs = mem.trace.x[keep]
            assert np.all(ys >= -1e-6)
            assert np.all(ys <= 2.0 * xs * xs + 1e-6)
