"""Projectivized geodesic integration against closed forms and the
second-order tangent-bundle oracle."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from finslerflow import codegen, flow
from finslerflow import metric as mt
from finslerflow import poly
from finslerflow import singular as sg
from finslerflow.flow import IntegratorConfig, PTMPoint

from helpers import (
    crop_to_ball,
    disc_gradient_at,
    halfplane_metric,
    hausdorff_distance,
    integrate_reference,
    isotropic_trace_reference,
    max_ode_residual,
    nondegenerate_state,
    parabola_metric,
    project_isotropic_reference,
    random_metric,
    tm_integrate_reference,
)

EVENT_KINDS = {
    "Cusp",
    "SingularApproach",
    "ChartSwitch",
    "IsotropicCross",
    "DomainExit",
    "StepUnderflow",
    "MaxSteps",
}


class TestDirectionField:
    def test_closed_form_components(self):
        # F = p^2 + c gives (dx, dy, dp) = (2(3c - p^2), p * that, 4c_x p + 7c_y p^2 + 3c c_y)
        m = parabola_metric(0.8)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y, p = rng.uniform(-1.2, 1.2, 3)
            c = 0.8 * y * y - x
            cx, cy = -1.0, 1.6 * y
            want = (
                2.0 * (3.0 * c - p * p),
                p * 2.0 * (3.0 * c - p * p),
                7.0 * cy * p * p + 4.0 * cx * p + 3.0 * c * cy,
            )
            got = flow.field_at(m, PTMPoint(x, y, p))
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11)

    def test_chart_field_consistency(self):
        # the q-chart field is the pushforward of the p-chart field
        m = halfplane_metric()
        rng = np.random.default_rng(2)
        for _ in range(40):
            x, y = rng.uniform(-1.2, -0.2, 2)
            p = rng.uniform(0.4, 1.8) * rng.choice([-1.0, 1.0])
            vx, vy, vp = flow.field_at(m, PTMPoint(x, y, p))
            wx, wy, wq = flow.field_at(m, PTMPoint(x, y, 1.0 / p, "q"))
            # same line element after dividing out the chart weight
            cross = np.cross([vx, vy, -vp / p**2], [wx, wy, wq])
            scale = np.linalg.norm([vx, vy, vp]) * np.linalg.norm([wx, wy, wq])
            assert np.linalg.norm(cross) <= 1e-9 * (scale + 1.0)


class TestIntegratorConfig:
    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "max_step"])
    @pytest.mark.parametrize("value", [0.0, -1e-3, -math.inf, math.nan])
    def test_step_settings_that_cannot_advance_are_refused(self, name, value):
        # a zero max_step repeats the seed until max_steps runs out, a nan
        # one caps nothing and a nan tolerance underflows at once
        with pytest.raises(ValueError, match=f"^{name} must be > 0"):
            IntegratorConfig(**{name: value})

    def test_infinite_max_step_is_no_cap(self):
        m = mt.metric_from_strings(2, ["-x", "0", "1"])
        seed, box = PTMPoint(0.5, 0.0, 0.3), (0.4, 0.6, -0.1, 0.1)
        uncapped = flow.integrate(m, seed, IntegratorConfig(max_step=math.inf, box=box))
        capped = flow.integrate(m, seed, IntegratorConfig(max_step=1e300, box=box))
        assert uncapped.stops == ("DomainExit", "DomainExit")
        for name in ("t", "x", "y", "slope", "F"):
            assert np.array_equal(getattr(uncapped, name), getattr(capped, name))


class TestTraceStructure:
    def test_bidirectional_parameter(self):
        m = halfplane_metric()
        tr = flow.integrate(m, PTMPoint(-0.5, 0.0, 0.3))
        assert tr.t[0] < 0.0 < tr.t[-1]
        assert np.all(np.diff(tr.t) >= 0)
        k = int(np.argmin(np.abs(tr.t)))
        assert tr.x[k] == pytest.approx(-0.5, abs=1e-12)
        assert tr.y[k] == pytest.approx(0.0, abs=1e-12)

    def test_one_sided(self):
        m = halfplane_metric()
        fwd = flow.integrate(m, PTMPoint(-0.5, 0.0, 0.3), direction=+1)
        back = flow.integrate(m, PTMPoint(-0.5, 0.0, 0.3), direction=-1)
        assert np.all(fwd.t >= 0.0)
        assert np.all(back.t <= 0.0)

    def test_event_bookkeeping(self):
        m = halfplane_metric()
        cfg = IntegratorConfig(box=(-0.8, 0.8, -0.8, 0.8))
        tr = flow.integrate(m, PTMPoint(-0.5, 0.0, 0.3), cfg)
        assert {e.kind for e in tr.events} <= EVENT_KINDS
        for e in tr.events:
            assert 0 <= e.index < len(tr)
            assert tr.t[e.index] == pytest.approx(e.t, abs=1e-9)
        assert "DomainExit" in {e.kind for e in tr.events}

    def test_exhausted_step_budget_ends_with_event(self):
        m = halfplane_metric()
        cfg = IntegratorConfig(max_steps=5)
        for direction in (+1, -1):
            tr = flow.integrate(m, PTMPoint(-0.5, 0.0, 0.3), cfg, direction)
            end = len(tr) - 1
            assert [(e.index, e.kind) for e in tr.events] == [(end, "MaxSteps")]
            assert tr.t[end] == pytest.approx(tr.events[0].t, abs=1e-12)
        tr = flow.integrate(m, PTMPoint(-0.5, 0.0, 0.3), cfg)
        assert [(e.index, e.kind) for e in tr.events] == [
            (0, "MaxSteps"), (len(tr) - 1, "MaxSteps")
        ]

    def test_both_stops_kept_when_sides_stop_at_the_seed(self):
        # F = p^2 + 1/x next to its pole: neither side takes a step, and
        # the one seed row can carry only one of the two stop events
        m = mt.metric_from_strings(2, ["1/x", "0", "1"])
        tr = flow.integrate(m, PTMPoint(1e-9, 0.0, 0.3))
        assert len(tr) == 1
        assert [(e.index, e.kind) for e in tr.events] == [(0, "StepUnderflow")]
        assert tr.stops == ("StepUnderflow", "StepUnderflow")

    def test_stops_name_each_side(self):
        m = halfplane_metric()
        cfg = IntegratorConfig(max_steps=5)
        tr = flow.integrate(m, PTMPoint(-0.5, 0.0, 0.3), cfg)
        assert tr.stops == ("MaxSteps", "MaxSteps")
        tr = flow.integrate(m, PTMPoint(-0.5, 0.0, 0.3), cfg, direction=-1)
        assert tr.stops == ("MaxSteps",)

    @pytest.mark.parametrize("a0", ["-1e300*x", "-1e200*x"])
    def test_huge_coefficient_stops_without_overflow(self, a0):
        # (1 + metric_scale)^2 overflows: an inf scale, not OverflowError
        m = mt.metric_from_strings(2, [a0, "0", "1"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = flow.integrate(m, PTMPoint(0.5, 0.0, 0.3))
            with pytest.raises(ValueError, match="degeneracy H = 0"):
                flow.tm_integrate(m, 0.5, 0.0, 1.0, 0.3)
        assert tr.stops == ("SingularApproach", "SingularApproach")
        assert tr.events[-1].kind == "SingularApproach"
        assert tr.events[-1].index == len(tr) - 1

    def test_sample_spacing_bounded(self):
        m = halfplane_metric()
        cfg = IntegratorConfig(max_ds=0.002)
        tr = flow.integrate(m, PTMPoint(-0.5, 0.0, 0.3), cfg)
        steps = np.hypot(np.diff(tr.x), np.diff(tr.y))
        assert steps.max() <= 0.002 * 1.2

    def test_chart_switch_on_steep_slopes(self):
        # seed pointing nearly vertically must switch to the reciprocal chart
        m = parabola_metric(1.0)
        tr = flow.integrate(m, PTMPoint(0.4, 0.3, 8.0))
        assert set(np.unique(tr.chart)) <= {"p", "q"}
        assert "q" in set(np.unique(tr.chart))

    @pytest.mark.parametrize(
        "seed", [(0.4, -0.3, math.nan), (math.nan, 0.3, 0.3), (0.4, -math.inf, 0.3)],
        ids=["nan-slope", "nan-x", "inf-y"],
    )
    def test_non_finite_seed_is_refused(self, seed):
        # a nan slope is no direction: it is refused, not traced as a
        # one-row StepUnderflow trace, and a nan or infinite point is not
        # reported as lying outside the box
        with pytest.raises(ValueError, match=r"^seed \(x, y, slope\) is not finite$"):
            flow.integrate(halfplane_metric(), PTMPoint(*seed))

    def test_infinite_slope_is_the_vertical_direction(self):
        m = halfplane_metric()
        vertical = flow.integrate(m, PTMPoint(-0.5, 0.1, math.inf))
        assert len(vertical) > 1
        q0 = flow.integrate(m, PTMPoint(-0.5, 0.1, 0.0, "q"))
        for name in ("t", "x", "y", "slope", "chart"):
            assert np.array_equal(getattr(vertical, name), getattr(q0, name))

    @pytest.mark.parametrize(
        # the last seed's trace switches chart once
        "seed", [(-0.5, 0.0, 0.3), (0.1, 0.0, 0.8), (0.1, 0.2, -1.1), (0.2, 0.05, 1.9)]
    )
    def test_step_end_field_values_computed_once(self, monkeypatch, seed):
        # a step's end values (F, denom, numer) are those of its last
        # stage, and the seed, each chart switch and each cusp row are
        # evaluated once: no scalar call of either chart's generated fdp
        # sees a state that an earlier call saw
        m = halfplane_metric()
        cfg = IntegratorConfig(box=(-1.0, 1.0, -1.0, 1.0))
        calls = []

        def counted(metric):
            fdp = metric.fdp_function

            def fn(*args):
                if not isinstance(args[0], np.ndarray):  # not the fill pass
                    calls.append((id(metric), args))
                return fdp(*args)

            monkeypatch.setattr(metric, "fdp_function", fn)

        counted(m)
        counted(m.dual())
        for direction in (1, -1):  # each side evaluates the seed
            calls.clear()
            tr = flow.integrate(m, PTMPoint(*seed), cfg, direction)
            assert len(calls) > len(tr) // 10
            assert len(set(calls)) == len(calls)


class TestOdeResidual:
    def test_halfplane(self):
        m = halfplane_metric()
        tr = flow.integrate(m, PTMPoint(-0.5, 0.0, 0.3))
        assert max_ode_residual(m, tr) < 1e-4

    def test_parabola(self):
        m = parabola_metric(1.0)
        tr = flow.integrate(m, PTMPoint(0.3, 0.6, -0.4))
        assert max_ode_residual(m, tr) < 1e-4

    def test_random_metrics(self):
        rng = np.random.default_rng(20260814)
        for _ in range(5):
            m = random_metric(rng, 3)
            state = nondegenerate_state(m, rng, (-1.0, 1.0, -1.0, 1.0))
            if state is None:
                continue
            x, y, p = state
            tr = flow.integrate(m, PTMPoint(x, y, p))
            assert {e.kind for e in tr.events} <= EVENT_KINDS
            assert max_ode_residual(m, tr) < 5e-4


class TestCusps:
    """Direction reversals happen exactly on the degeneracy locus."""

    def test_cusp_location_halfplane(self):
        # seeds in x > 0 heading left fold back on p^2 = -3x
        m = halfplane_metric()
        found = 0
        for p0 in (0.6, 0.8, 1.1):
            tr = flow.integrate(m, PTMPoint(0.1, 0.0, p0))
            for e in tr.events:
                if e.kind != "Cusp":
                    continue
                found += 1
                x, p = tr.x[e.index], tr.slope[e.index]
                assert str(tr.chart[e.index]) == "p"
                # the degeneracy locus of F = p^2 - x is p^2 = -3x
                assert p * p + 3.0 * x == pytest.approx(0.0, abs=1e-6)
                assert abs(tr.denom[e.index]) < 1e-6
        assert found >= 3

    def test_velocity_reverses_at_cusp(self):
        m = halfplane_metric()
        tr = flow.integrate(m, PTMPoint(0.1, 0.0, 0.8), direction=+1)
        cusps = [e for e in tr.events if e.kind == "Cusp"]
        assert cusps
        i = cusps[0].index
        j = max(i - 4, 0)
        k = min(i + 4, len(tr) - 1)
        before = np.array([tr.x[i] - tr.x[j], tr.y[i] - tr.y[j]])
        after = np.array([tr.x[k] - tr.x[i], tr.y[k] - tr.y[i]])
        assert float(before @ after) < 0.0

    def test_flattening_approach_to_boundary(self):
        # seeds in the three-direction region flatten onto the slope-zero
        # line and crawl into the boundary point instead of cusping
        m = halfplane_metric()
        tr = flow.integrate(m, PTMPoint(-0.5, 0.0, 0.3), direction=+1)
        assert "Cusp" not in {e.kind for e in tr.events}
        assert "SingularApproach" in {e.kind for e in tr.events}
        assert tr.x[-1] == pytest.approx(0.0, abs=1e-6)
        assert tr.slope[-1] == pytest.approx(0.0, abs=1e-6)

    def test_no_events_at_boundary_crossings_off_double_direction(self):
        # crossing x = 0 with slope away from the double direction p = 0
        # is unremarkable: any events happen elsewhere on the trace
        m = halfplane_metric()
        for p0 in (0.8, -1.1, 1.5):
            tr = flow.integrate(m, PTMPoint(0.1, 0.0, p0))
            sign_flip = np.nonzero(np.diff(np.sign(tr.x)))[0]
            crossings = [i for i in sign_flip if abs(tr.slope[i]) > 0.3]
            assert crossings
            for e in tr.events:
                for i in crossings:
                    assert abs(e.index - i) > 5


class TestIsotropicTraces:
    def test_invariance_halfplane(self):
        m = halfplane_metric()
        tr = flow.isotropic_trace(m, PTMPoint(0.5, 0.0, np.sqrt(0.5)))
        sc = np.array([mt.metric_scale(m, x, y) + 1.0 for x, y in zip(tr.x, tr.y)])
        assert np.max(np.abs(tr.F) / sc) < 1e-7
        assert "IsotropicCross" not in {e.kind for e in tr.events}

    def test_closed_form_halfplane(self):
        # isotropic curves of F = p^2 - x: y = y0 +- (2/3) x^(3/2)
        m = halfplane_metric()
        tr = flow.isotropic_trace(m, PTMPoint(0.5, 0.0, np.sqrt(0.5)))
        keep = tr.x > 1e-4
        resid = tr.y[keep] - (2.0 / 3.0) * (tr.x[keep] ** 1.5 - 0.5**1.5)
        assert np.max(np.abs(resid)) < 1e-6

    def test_seed_projection(self):
        m = halfplane_metric()
        tr = flow.isotropic_trace(m, PTMPoint(0.5, 0.0, 0.7))
        k = int(np.argmin(np.abs(tr.t)))
        assert tr.slope[k] == pytest.approx(np.sqrt(0.5), abs=1e-9)


class TestTangentBundleOverlay:
    def test_projections_agree(self):
        m = halfplane_metric()
        seed = (-0.5, 0.0, 0.3)
        ptm = flow.integrate(m, PTMPoint(*seed))
        tm = flow.tm_integrate(m, seed[0], seed[1], 1.0, seed[2])
        center = np.array(seed[:2])
        a = crop_to_ball(ptm.points(), center, 0.25)
        b = crop_to_ball(tm.points(), center, 0.25)
        assert len(a) > 50 and len(b) > 50
        assert hausdorff_distance(a, b) < 1e-5

    def test_speed_scaling_irrelevant(self):
        m = halfplane_metric()
        t1 = flow.tm_integrate(m, -0.5, 0.0, 1.0, 0.3)
        t2 = flow.tm_integrate(m, -0.5, 0.0, 2.0, 0.6)
        center = np.array([-0.5, 0.0])
        a = crop_to_ball(t1.points(), center, 0.2)
        b = crop_to_ball(t2.points(), center, 0.2)
        assert hausdorff_distance(a, b) < 1e-6

    def test_degenerate_seed_refused(self):
        m = halfplane_metric()
        # p^2 = -3x puts the second-order system on its degeneracy
        with pytest.raises(ValueError):
            flow.tm_integrate(m, -0.03, 0.0, 1.0, 0.3)

    def test_exhausted_step_budget_stops_untruncated(self):
        m = halfplane_metric()
        cfg = IntegratorConfig(max_steps=5)
        tm = flow.tm_integrate(m, -0.5, 0.0, 1.0, 0.3, cfg)
        assert tm.stops == ("MaxSteps", "MaxSteps")
        assert not tm.truncated

    def test_degeneracy_stop_truncates(self):
        # forward from this seed the velocity system runs into H = 0
        m = halfplane_metric()
        tm = flow.tm_integrate(m, -0.5, 0.0, 1.0, 0.3, direction=+1)
        assert tm.stops == ("SingularApproach",)
        assert tm.truncated

    def test_box_exit_stop(self):
        m = halfplane_metric()
        cfg = IntegratorConfig(box=(-0.6, -0.4, -0.1, 0.1))
        tm = flow.tm_integrate(m, -0.5, 0.0, 1.0, 0.3, cfg)
        assert tm.stops == ("DomainExit", "DomainExit")
        assert not tm.truncated
        assert tm.t[0] < 0.0 < tm.t[-1]

    def test_exact_degeneracy_inside_a_step(self):
        # F = p^2 - x has H = -4x; from x0 = -h/5 with unit speed the
        # second stage of the first step lands on x = 0 exactly
        m = mt.metric_from_strings(2, ["-x", "0", "1"])
        h = flow.INITIAL_STEP
        x0 = -(h * (0.2 * 1.0))
        assert x0 + h * (0.2 * 1.0) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tm = flow.tm_integrate(m, x0, 0.0, 1.0, 0.0, direction=+1)
        assert tm.stops == ("SingularApproach",)
        assert len(tm.t) > 1

    def test_step_end_determinants_computed_once(self, monkeypatch):
        # the H ~ 0 test at a step's end reuses the determinants of the
        # stage that ended there; recomputing them gives the same trace
        m = halfplane_metric()
        calls = []
        accel = mt.accel_determinants

        def counted(*args):
            calls.append(args)
            return accel(*args)

        def repeats():
            return sum(a == b for a, b in zip(calls, calls[1:]))

        monkeypatch.setattr(mt, "accel_determinants", counted)
        reused = flow.tm_integrate(m, -0.5, 0.0, 1.0, 0.3)
        assert calls and repeats() == 0

        steps = flow._dopri_steps

        def fresh_ends(step, u, fu, cfg):
            # each step's end point as a new tuple, so no stage matches it
            gen = steps(step, u, fu, cfg)
            while True:
                try:
                    t, h, u0, f0, u1, f1, err = next(gen)
                except StopIteration as end:
                    return end.value
                yield t, h, u0, f0, tuple(list(u1)), f1, err

        calls.clear()
        monkeypatch.setattr(flow, "_dopri_steps", fresh_ends)
        recomputed = flow.tm_integrate(m, -0.5, 0.0, 1.0, 0.3)
        assert repeats() > 0
        for name in ("t", "x", "y", "xdot", "ydot"):
            assert np.array_equal(getattr(reused, name), getattr(recomputed, name))
        assert reused.stops == recomputed.stops

    @pytest.mark.parametrize(
        "texts, speed",
        [
            # the velocity powers of the Cramer determinants overflow
            (["-x", "0", "1"], 1e200),
            # speed^(2n - 4) of the H test overflows
            (["-x", "0", "1", "0.5"], 1e160),
        ],
    )
    def test_overflowing_velocity_stops(self, texts, speed):
        m = mt.metric_from_strings(len(texts) - 1, texts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tm = flow.tm_integrate(m, 0.1, 0.0, speed, 1.0)
        # the field is nan from the seed on, so no step is ever accepted
        assert tm.stops == ("StepUnderflow", "StepUnderflow")
        assert tm.truncated and len(tm.t) == 1


def _assert_same_trace(got, want):
    """Equal columns, bit for bit, and equal events and stops."""
    for name in ("t", "x", "y", "slope", "chart", "F", "denom", "numer"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert [(e.index, e.kind, e.t) for e in got.events] == [
        (e.index, e.kind, e.t) for e in want.events
    ]
    assert got.stops == want.stops


# parabola.cfg: F = p^2 + y^2 - x
PARABOLA = ["y^2 - x", "0", "1", "0"]


class TestArrayAtATime:
    """integrate, tm_integrate and isotropic_trace compute their samples
    on arrays; each gives the bits of the per-sample reference in
    tests/helpers.py."""

    @pytest.mark.parametrize("seed", [(0.5, 0.7, 0.2), (-0.8, 0.4, 0.6), (0.3, 1.1, -0.4)])
    def test_parabola_config_traces(self, seed):
        # the seeds of parabola.cfg; the last two fill steps in the q chart
        m = mt.metric_from_strings(3, PARABOLA)
        cfg = IntegratorConfig(box=(-1.5, 1.5, 0.05, 1.5), max_steps=600)
        got = flow.integrate(m, PTMPoint(*seed), cfg)
        _assert_same_trace(got, integrate_reference(m, PTMPoint(*seed), cfg))
        if seed[0] < 0.5:
            assert np.count_nonzero(got.chart == "q") > 100

    @pytest.mark.parametrize(
        "metric, seed, box, kind",
        [
            (halfplane_metric, (0.1, 0.0, 0.8), (-1.0, 1.0, -1.0, 1.0), "Cusp"),
            (lambda: random_metric(np.random.default_rng(276), 2),
             (-0.22921831927564396, 0.6163822338532452, -0.7487779302885221),
             (-0.53, 0.07, 0.32, 0.92), "IsotropicCross"),
        ],
    )
    def test_mark_inside_a_filled_step(self, metric, seed, box, kind):
        m = metric()
        cfg = IntegratorConfig(box=box, max_ds=2e-4)
        got = flow.integrate(m, PTMPoint(*seed), cfg)
        _assert_same_trace(got, integrate_reference(m, PTMPoint(*seed), cfg))
        marks = [e for e in got.events if e.kind == kind]
        assert marks
        # the samples on both sides of the mark are interpolated: spaced
        # by at most max_ds, with an accepted step far longer
        for e in marks:
            near = slice(e.index - 2, e.index + 3)
            assert np.all(np.hypot(np.diff(got.x[near]), np.diff(got.y[near])) <= 2e-4)

    def test_fill_next_to_a_mark(self):
        # a fill sample within 1e-9 after a mark, or before the step's end,
        # is dropped, and so is one within 1e-9 after a kept fill sample
        got = flow._merge_marks([(0.3, "Cusp"), (0.5 + 5e-10, "IsotropicCross")], 1.0, 10)
        thetas = [th for th, _ in got]
        assert thetas == sorted(thetas) and 0.5 in thetas
        assert [th for th, kind in got if kind] == [0.3, 0.5 + 5e-10]
        assert len(got) == 10
        assert flow._merge_marks([], 1e-9, 400) == []
        # fill 1e-9 apart: each kept sample is at least 1e-9 after the last
        # kept one, and each dropped one less than that
        fill = [4e-7 * k / 400 for k in range(1, 400)]
        kept = [th for th, _ in flow._merge_marks([], 4e-7, 400)]
        assert 0 < len(kept) < len(fill) and set(kept) <= set(fill)
        last = -1.0
        for th in fill:
            assert (th in kept) == (th - last >= 1e-9 and 4e-7 - th >= 1e-9)
            last = th if th in kept else last

    def test_domain_exit_inside_a_filled_step(self):
        m = halfplane_metric()
        seed = PTMPoint(-0.5, 0.0, 0.3)
        cfg = IntegratorConfig(box=(-0.6, -0.45, -0.1, 0.1), max_ds=1e-4)
        got = flow.integrate(m, seed, cfg)
        _assert_same_trace(got, integrate_reference(m, seed, cfg))
        assert got.stops == ("DomainExit", "DomainExit")
        # the exits are interpolated samples on the box, not step ends
        assert np.isclose(abs(got.x[0] + 0.525), 0.075) or np.isclose(abs(got.y[0]), 0.1)
        assert np.isclose(abs(got.x[-1] + 0.525), 0.075) or np.isclose(abs(got.y[-1]), 0.1)

    @pytest.mark.parametrize("k", range(6))
    def test_random_metric_traces(self, k):
        rng = np.random.default_rng(100 + k)
        m = random_metric(rng, 2 + k % 4)
        x, y, p = nondegenerate_state(m, rng)
        cfg = IntegratorConfig(box=(x - 0.3, x + 0.3, y - 0.3, y + 0.3), max_steps=400)
        _assert_same_trace(
            flow.integrate(m, PTMPoint(x, y, p), cfg),
            integrate_reference(m, PTMPoint(x, y, p), cfg),
        )
        got = flow.tm_integrate(m, x, y, 1.0, p, cfg)
        want = tm_integrate_reference(m, x, y, 1.0, p, cfg)
        for name in ("t", "x", "y", "xdot", "ydot"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.stops == want.stops

    @pytest.mark.parametrize("seed", [(-0.5, 0.0, 0.3), (0.4, 0.3, 8.0)])
    def test_tm_traces(self, seed):
        m = mt.metric_from_strings(3, PARABOLA)
        cfg = IntegratorConfig(box=(-0.7, 0.7, 0.05, 0.7), max_ds=5e-4)
        got = flow.tm_integrate(m, seed[0], seed[1], 1.0, seed[2], cfg)
        want = tm_integrate_reference(m, seed[0], seed[1], 1.0, seed[2], cfg)
        for name in ("t", "x", "y", "xdot", "ydot"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.stops == want.stops == ("DomainExit", "DomainExit")

    def test_projection_matches_per_sample_newton(self):
        m = mt.metric_from_strings(3, PARABOLA)
        pole = mt.metric_from_strings(2, ["1/x", "0", "1"])
        nan0 = mt.metric_from_strings(2, ["x/x", "0", "1"])
        samples = [
            (m, 0.5, 0.3, 0.6, "p"),  # converges
            (m, 0.5, 0.3, 0.0, "p"),  # F_p = 2p vanishes: refused, kept
            (m, 0.3, 0.2, 0.05, "q"),  # the vertical direction, q = 0
            (m, 0.3, 0.2, 2.5, "q"),  # q^2 = 1 / (x - y^2)
            (m, 0.9, 0.1, 1e-3, "p"),  # no real direction: runs out of steps
            (pole, 0.0, 0.3, 0.4, "p"),  # coefficients inf: max(1.0, .) is inf
            (pole, 0.0, 0.3, 0.4, "q"),
            # a0 = 0/0 is nan, so max(1.0, nan) is 1.0 and F_p = 2p = 0 is
            # refused: the slope is kept, not stepped to nan
            (nan0, 0.0, 0.3, 0.0, "p"),
            (nan0, 0.0, 0.3, 0.1, "p"),
        ]
        for mm in (m, pole, nan0):
            x, y, s, charts = (np.array(v) for v in zip(*[r[1:] for r in samples if r[0] is mm]))
            tol = 1e-9 * (1.0 + np.arange(len(s)))
            got_s, got_ok = flow._project_isotropic(mm, x, y, s, charts == "q", tol)
            for i in range(len(s)):
                want_s, want_ok = project_isotropic_reference(
                    mm, x[i], y[i], s[i], str(charts[i]), tol[i]
                )
                assert got_ok[i] == want_ok
                # bit for bit; a nan matches any nan (numpy's 0/0 sets the
                # sign bit, the scalar code's math.nan does not)
                assert np.array_equal(got_s[i], want_s, equal_nan=True)
                assert np.signbit(got_s[i]) == np.signbit(want_s) or np.isnan(want_s)
        got = flow._project_isotropic(m, *(np.array([v]) for v in (0.5, 0.3, 0.0)),
                                      np.array([False]), 1e-9)
        assert got == (0.0, False)

    @pytest.mark.parametrize(
        "texts, seed, box",
        [
            (["-x", "0", "1", "0"], (0.5, 0.0, np.sqrt(0.5)), (-1.0, 1.0, -1.0, 1.0)),
            (PARABOLA, (1.0, 0.6, 0.8), (-1.5, 1.5, 0.05, 1.5)),
            # the isotropic line is steep: it drifts in the q chart
            (PARABOLA, (5.0, 0.3, -2.215851980616034), (4.5, 5.5, -0.2, 0.8)),
        ],
    )
    def test_isotropic_traces(self, texts, seed, box):
        m = mt.metric_from_strings(3, texts)
        cfg = IntegratorConfig(box=box)
        got = flow.isotropic_trace(m, PTMPoint(*seed), cfg)
        want = isotropic_trace_reference(m, PTMPoint(*seed), cfg)
        _assert_same_trace(got, want)
        # the projection pass moved samples of the integrated trace
        k = int(np.argmin(np.abs(got.t)))
        projected = PTMPoint(*seed[:2], float(got.slope[k]), str(got.chart[k]))
        raw = flow.integrate(m, projected, cfg)
        assert np.array_equal(raw.chart, got.chart)
        assert np.count_nonzero(raw.slope != got.slope) > 10


@pytest.mark.parametrize(
    "run, want",
    [
        # F's point function (the probe), then fdp in the p and q charts
        (lambda: flow.integrate(mt.metric_from_strings(3, PARABOLA), PTMPoint(-0.5, 0.0, 0.3)),
         {"x, y": 1, "x, y, p": 2}),
        # the q chart only: no p-chart fdp
        (lambda: flow.integrate(mt.metric_from_strings(3, PARABOLA), PTMPoint(0.4, 0.3, 8.0),
                                IntegratorConfig(box=(0.3, 0.5, 0.2, 0.4))),
         {"x, y": 1, "x, y, p": 1}),
        # the probe, F's Horner sum, fdp
        (lambda: flow.isotropic_trace(
            mt.metric_from_strings(3, ["-x", "0", "1", "0"]), PTMPoint(0.5, 0.0, np.sqrt(0.5))),
         {"x, y": 1, "x, y, p": 2}),
        # and in the q chart: the dual's fdp, F's point function and Horner sum
        (lambda: flow.isotropic_trace(
            mt.metric_from_strings(3, PARABOLA), PTMPoint(5.0, 0.3, -2.215851980616034),
            IntegratorConfig(box=(4.5, 5.5, -0.2, 0.8))),
         {"x, y": 2, "x, y, p": 3}),
        (lambda: flow.tm_integrate(mt.metric_from_strings(3, PARABOLA), -0.5, 0.0, 1.0, 0.3),
         {"x, y": 3}),
    ],
)
def test_first_pass_compiles(monkeypatch, run, want):
    # each generated function compiles on its first use, a cost that the
    # first trace on a metric pays: the traces on a fresh metric compile
    # only the point functions they call; the step kernels are cached for
    # the process
    codegen.dopri_step(3), codegen.dopri_step(4)
    codegen.chart_step("p"), codegen.chart_step("q")
    compiled = []
    compile_function = codegen._function

    def counted(name, args, body, result):
        compiled.append(args)
        return compile_function(name, args, body, result)

    monkeypatch.setattr(codegen, "_function", counted)
    run()
    assert {a: compiled.count(a) for a in compiled} == want


class TestShooting:
    def test_transversality_value(self):
        # disc of F = p^2 - x is proportional to x; along (1, 0) it varies
        m = halfplane_metric()
        val = flow.check_transversality(m, 0.0, 0.0, 0.0)
        assert abs(val) > 1e-6

    def test_transversality_matches_disc_gradient_at_double_root(self):
        # at a double root p0 of F, grad disc_F is a nonzero multiple of
        # (F_x, F_y): the exact cosine of F_x + p0 F_y agrees in size with
        # the central-difference cosine of disc_F, and so does the decision
        rng = np.random.default_rng(20261019)
        metrics = [halfplane_metric(), parabola_metric(1.0)]
        metrics += [random_metric(rng, n) for n in (2, 3, 3, 3, 2)]
        checked = 0
        for m in metrics:
            for c in sg.boundary_curves(m, (-1.0, 1.0, -1.0, 1.0), 60):
                for x, y in c.points[::5].tolist():
                    f = mt.coeff_values(m, x, y)
                    p0 = min(
                        (r for r, _ in poly.real_roots_many([npoly.polyder(f)])[0]),
                        key=lambda r: abs(npoly.polyval(r, f)),
                    )
                    gx, gy = disc_gradient_at(m, x, y)
                    want = (gx + p0 * gy) / (np.hypot(gx, gy) * np.hypot(1.0, p0))
                    fx = m.table("F_x").poly_value(x, y, p0)
                    fy = m.table("F_y").poly_value(x, y, p0)
                    try:
                        got = flow.check_transversality(m, x, y, p0)
                    except flow.TransversalityError:
                        assert abs(want) <= 1e-6
                        continue
                    got /= np.hypot(fx, fy) * np.hypot(1.0, p0)
                    assert abs(abs(got) - abs(want)) < 1e-8 and abs(want) > 1e-6
                    checked += 1
        assert checked > 100

    def test_family_members_end_at_base(self):
        m = halfplane_metric()
        members = flow.shoot_boundary_family(m, 0.0, 0.0, 0.0, [0.0, 1.0])
        assert len(members) == 4
        for mem in members:
            assert mem.eta_sign in (-1, 1)
            d = np.hypot(mem.trace.x - 0.0, mem.trace.y - 0.0)
            assert d.min() < 5e-3
