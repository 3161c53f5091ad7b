"""Exact fractional-power series for geodesics entering a degenerate
point, the series that hold its results, and the reference series
arithmetic (helpers.Series) the solve is checked against."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from finslerflow import berwald_moor as bm
from finslerflow import metric as mt
from finslerflow import puiseux as pz
from finslerflow.puiseux import TruncatedSeries

from helpers import Series, integrated_curve, plan_expr_series, quartic_product_metric


def compose_scale(series: TruncatedSeries, lam) -> TruncatedSeries:
    """Substitute t -> lam * t."""
    lam = Fraction(lam)
    return TruncatedSeries([v * lam**i for i, v in enumerate(series.c)])


def free_indices(sol: pz.GeodesicSeries) -> list[int]:
    return [r.index for r in sol.rows if r.status == "FREE"]


class TestTruncatedSeries:
    """The results' series, and the arithmetic of the reference Series."""

    def test_exact_rational_coefficients(self):
        s = TruncatedSeries([0, 0.8, 1])
        assert s.c[1] == Fraction(4, 5)

    def test_ring_operations(self):
        a = Series([1, 2, 3, 0, 0])
        b = Series([0, 1, 0, -1, 0])
        prod = a * b
        assert prod.c == [
            Fraction(0), Fraction(1), Fraction(2), Fraction(2), Fraction(-2),
        ]
        assert (a + b - b).c == a.c
        assert (a**2).c == (a * a).c

    def test_invert_geometric(self):
        one_plus_t = Series([1, 1, 0, 0, 0, 0])
        inv = one_plus_t.invert()
        assert inv.c == [Fraction((-1) ** k) for k in range(6)]
        assert (one_plus_t * inv).c[0] == 1
        assert all(v == 0 for v in (one_plus_t * inv).c[1:])

    def test_invert_needs_unit(self):
        with pytest.raises(ZeroDivisionError):
            Series([0, 1, 1]).invert()

    def test_deriv_integrate_round_trip(self):
        s = Series([0, 3, -2, 5])
        back = s.deriv().integrate()
        assert back.c[: s.order + 1] == s.c

    def test_compose_scale(self):
        s = TruncatedSeries([1, 1, 1, 1])
        half = compose_scale(s, 0.5)
        assert half.c == [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]

    def test_evaluate_matches_horner(self):
        s = TruncatedSeries([2, -1, 3])
        assert s.evaluate(0.5) == pytest.approx(2 - 0.5 + 0.75)

    def test_evaluate_rounds_an_overflow_to_infinity(self):
        # a coefficient beyond the float range is +-inf, as IEEE rounds it,
        # not an OverflowError; a finite one keeps its nearest float
        huge = Fraction(10) ** 400
        assert TruncatedSeries([huge]).evaluate(0.5) == math.inf
        assert TruncatedSeries([1, -huge]).evaluate(0.5) == -math.inf
        assert math.isnan(TruncatedSeries([1, huge, -huge]).evaluate(1.0))
        for v in (Fraction(1, 3), Fraction(-7, 10) ** 9, Fraction(2) ** 1023 * 3 // 2):
            assert TruncatedSeries([v]).evaluate(0.25) == float(v)

    def test_expression_substitution(self):
        from finslerflow import expr as ex

        e = ex.parse("x^2 - 3*y + 1")
        xs = Series([0, 1, 0, 0, 0])
        ys = Series([0, 0, 2, 0, 0])
        out = plan_expr_series(e, xs, ys)
        assert out.c == [
            Fraction(1), Fraction(0), Fraction(-5), Fraction(0), Fraction(0),
        ]


class TestGeodesicRecurrence:
    """F = p*(p - 4x) under x = t**3: the solvable shape through the
    double-direction point."""

    def solve(self, order=12, free=None):
        return pz.solve_geodesic_series(
            quartic_product_metric(), s=3, seed={3: 2}, order=order, free=free
        )

    def test_offset_and_linear_coefficients(self):
        sol = self.solve()
        assert sol.offset == 5
        for row in sol.rows:
            assert row.linear_coeff == 12 * (row.index - 4)

    def test_single_free_index(self):
        sol = self.solve()
        assert free_indices(sol) == [4]
        assert not sol.obstructed
        assert sol.residual_order is None or sol.residual_order > sol.order + sol.offset

    def test_default_family_member_is_square_parabola(self):
        # with the free coefficient left at zero every other order dies
        sol = self.solve()
        assert sol.coeffs[3] == 2
        assert all(v == 0 for k, v in sol.coeffs.items() if k != 3)
        xs, ys = pz.series_to_curve(sol)
        # x = t^3, y = t^6: the curve y = x^2 exactly
        assert xs.c[3] == 1 and ys.c[6] == 1
        assert sum(v != 0 for v in xs.c) == 1
        assert sum(v != 0 for v in ys.c) == 1

    def test_forced_tail_with_unit_free_coefficient(self):
        sol = self.solve(free={4: 1})
        assert sol.coeffs[4] == 1
        assert sol.coeffs[6] == Fraction(-1, 6)
        assert sol.coeffs[8] == Fraction(7, 144)
        # odd orders beyond the seed stay zero
        assert all(sol.coeffs[k] == 0 for k in (1, 2, 5, 7, 9, 11))

    def test_forcing_is_cubic_in_the_free_coefficient(self):
        # the order-6 balance reads 24*a6 + 4*a4^3 = 0
        for a4 in (Fraction(1), Fraction(1, 2), Fraction(-3)):
            sol = self.solve(free={4: a4})
            row6 = next(r for r in sol.rows if r.index == 6)
            assert row6.forcing == 4 * a4**3
            assert sol.coeffs[6] == -4 * a4**3 / 24

    def test_other_admissible_seed_gives_double_parabola(self):
        sol = pz.solve_geodesic_series(
            quartic_product_metric(), s=3, seed={3: 4}, order=12
        )
        assert not sol.obstructed
        assert all(v == 0 for k, v in sol.coeffs.items() if k != 3)
        xs, ys = pz.series_to_curve(sol)
        assert ys.c[6] == 2  # y = 2 x^2

    def test_non_admissible_seed_obstructs(self):
        sol = pz.solve_geodesic_series(
            quartic_product_metric(), s=3, seed={3: 5}, order=12
        )
        assert sol.obstructed
        assert sol.obstruction_order == 8
        assert sol.rows[-1].status == "OBSTRUCTED"

    def test_wrong_leading_balance_rejected(self):
        with pytest.raises(ValueError, match="leading balance"):
            pz.solve_geodesic_series(
                quartic_product_metric(), s=3, seed={1: 1}, order=8
            )

    def test_input_validation(self):
        m = quartic_product_metric()
        with pytest.raises(ValueError):
            pz.solve_geodesic_series(m, s=0, seed={3: 2}, order=8)
        with pytest.raises(ValueError):
            pz.solve_geodesic_series(m, s=3, seed={}, order=8)
        with pytest.raises(ValueError):
            pz.solve_geodesic_series(m, s=3, seed={9: 1}, order=8)
        # a non-finite value is a ValueError, not an OverflowError
        for kwargs in ({"y0": math.inf}, {"y0": math.nan}, {"free": {4: math.inf}}):
            with pytest.raises(ValueError, match="not finite"):
                pz.solve_geodesic_series(m, s=3, seed={3: 2}, order=8, **kwargs)
        with pytest.raises(ValueError, match="not finite"):
            pz.solve_geodesic_series(m, s=3, seed={3: math.inf}, order=8)

    @pytest.mark.parametrize("a1", ["1/x", "y/x"])
    def test_pole_at_the_base_point_is_a_value_error(self, a1):
        # a coefficient with a pole (or 0/0) at (0, y0) has no series there;
        # the solve says so rather than raising ZeroDivisionError
        m = mt.metric_from_strings(3, ["0", a1, "1", "0"])
        for y0, text in ((0.0, "0"), (0.5, "1/2")):
            with pytest.raises(ValueError, match=rf"pole at the base point \(0, {text}\)"):
                pz.solve_geodesic_series(m, s=3, seed={3: 2}, order=8, y0=y0)

    def test_free_values_the_solve_would_drop_are_refused(self):
        m = quartic_product_metric()
        for free, match in (({5: 1, 40: 2}, "free index 40 lies outside 1..12"),
                            ({0: 1}, "free index 0 lies outside"),
                            ({3: 1}, "free index 3 is pinned by the seed"),
                            ({5: 1}, r"free index 5 is FORCED \(linear coefficient 12\)")):
            with pytest.raises(ValueError, match=match):
                pz.solve_geodesic_series(m, s=3, seed={3: 2}, order=12, free=free)

    def test_free_index_past_an_obstruction_is_allowed(self):
        # the solve stops at index 4 and never reaches the free index
        for free in ({4: 1}, {10: 1}):
            sol = pz.solve_geodesic_series(
                quartic_product_metric(), s=3, seed={3: 5}, order=12, free=free
            )
            assert sol.obstructed and sol.obstruction_order == 8

    def test_series_satisfies_the_flow_equation(self):
        # independent check: denominator * dp/dx - numerator vanishes to
        # truncation accuracy along the series curve
        sol = self.solve(free={4: 1})
        m = quartic_product_metric()
        ps = sol.p_series()
        xs, ys = pz.series_to_curve(sol)
        dp_dt, dx_dt = (TruncatedSeries(Series(v.c).deriv().c) for v in (ps, xs))
        for t in (0.04, 0.08, 0.12):
            x, y, p = xs.evaluate(t), ys.evaluate(t), ps.evaluate(t)
            _, dv, nv = mt.fdp_values(m, x, y, p)
            resid = dv * dp_dt.evaluate(t) / dx_dt.evaluate(t) - nv
            scale = abs(nv) + abs(dv) + 1.0
            assert abs(resid) < 1e4 * t ** (sol.order + 1) * scale

    def test_series_point_consistency(self):
        sol = self.solve(free={4: 1})
        x, y, p = pz.series_point(sol, 0.1)
        xs, ys = pz.series_to_curve(sol)
        assert x == pytest.approx(xs.evaluate(0.1), abs=0)
        assert y == pytest.approx(ys.evaluate(0.1), abs=0)
        assert p == pytest.approx(sol.p_series().evaluate(0.1), abs=0)

    def test_exact_base_height_is_kept(self):
        # the solve's y0 is kept as it is, not as a float read back
        # through its shortest decimal (3333333333333333/10**16)
        sol = pz.solve_geodesic_series(quartic_product_metric(), 3, {3: 2}, 8,
                                       y0=Fraction(1, 3))
        _, ys = pz.series_to_curve(sol)
        assert sol.y0 == ys.c[0] == Fraction(1, 3)
        assert ys.c[6] == 1  # y = 1/3 + x^2

    @pytest.mark.parametrize("adapted", [False, True])
    def test_curve_coefficients_match_the_integral(self, adapted):
        # y_j = s p_(j-s) / j gives the coefficients that multiplying p
        # by dx/dt and integrating gives, for every family member
        if adapted:
            alm = bm.adapted_from_immersion(
                bm.SurfaceImmersion(("x", "y", "y - 2*x^2", "x + y")), 2, 1)
            m, s = bm.full_metric(alm), alm.n
            seed = {s: bm.admissible_u(alm)[1]}
        else:
            m, s, seed = quartic_product_metric(), 3, {3: 2}
        for free in (Fraction(1), Fraction(-3, 7)):
            sol = pz.solve_geodesic_series(m, s, seed, 14, free={2 * s - 2: free},
                                           y0=Fraction(1, 3))
            assert not sol.obstructed
            got = pz.series_to_curve(sol)
            want = integrated_curve(s, sol.y0, sol.p_series())
            assert [c.c for c in got] == [c.c for c in want]

    def test_table_renders_every_row(self):
        sol = self.solve()
        text = sol.table()
        assert "FREE" in text and "FORCED" in text
        assert len(text.splitlines()) == len(sol.rows) + 1
