"""Direction nets traced in lockstep (finslerflow.nets)."""

from __future__ import annotations

import numpy as np
import pytest

from finslerflow import metric as mt
from finslerflow import nets, poly

from helpers import halfplane_metric, parabola_metric

HALFPLANE_BOX = (-1.0, 1.0, -1.0, 1.0)
PARABOLA_BOX = (-1.5, 1.5, 0.05, 1.5)


def scalar_net_curves(m, box, layer, seeds_per_axis):
    """Reference: the nets traced seed by seed with scalar RK4, choosing
    curves while tracing.

    Coefficients come from the pointwise table interpreter, which rounds
    as the array interpreter does (x^2 is x*x), so the two agree exactly.
    """
    tables = [m.table(name) for name in (layer, layer + "_x", layer + "_y")]

    def rhs(state):
        x, y, p = state
        c, cx, cy = (t.values_at(x, y) for t in tables)
        powers = p ** np.arange(c.size)
        dcdp = float(np.sum(np.arange(1, c.size) * c[1:] * powers[:-1]))
        val = float(np.dot(cx, powers)) + p * float(np.dot(cy, powers))
        return np.array([dcdp, p * dcdp, -val])

    ds = float(np.hypot(box[1] - box[0], box[3] - box[2])) / 500.0
    pad_x = 0.02 * (box[1] - box[0])
    pad_y = 0.02 * (box[3] - box[2])
    cell = max(box[1] - box[0], box[3] - box[2]) / 150.0
    visited = set()

    def key_of(x, y, p):
        return (
            int(np.floor((x - box[0]) / cell)),
            int(np.floor((y - box[2]) / cell)),
            int(np.floor((np.arctan(p) + np.pi / 2) / (np.pi / 24))),
        )

    def trace_from(x0, y0, p0, sign):
        state = np.array([x0, y0, p0])
        pts = [state[:2].copy()]
        for _ in range(nets.NET_STEPS):
            k1 = rhs(state)
            nrm = float(np.linalg.norm(k1))
            if nrm < 1e-12:
                break
            h = sign * ds / nrm
            k2 = rhs(state + 0.5 * h * k1)
            k3 = rhs(state + 0.5 * h * k2)
            k4 = rhs(state + h * k3)
            step = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if float(np.linalg.norm(step[:2])) < 1e-10:
                break
            state = state + step
            x, y, p = state
            if not (
                box[0] - pad_x <= x <= box[1] + pad_x
                and box[2] - pad_y <= y <= box[3] + pad_y
            ) or abs(p) > nets.NET_PMAX:
                break
            visited.add(key_of(x, y, p))
            pts.append(state[:2].copy())
        return np.array(pts)

    curves = []
    xs = np.linspace(box[0], box[1], seeds_per_axis + 2)[1:-1]
    ys = np.linspace(box[2], box[3], seeds_per_axis + 2)[1:-1]
    for y0 in ys:
        for x0 in xs:
            c = tables[0].values_at(x0, y0)
            for p0, mult in poly.RealPolynomial(c).real_roots():
                if mult > 1 or abs(p0) > nets.NET_PMAX or key_of(x0, y0, p0) in visited:
                    continue
                fwd = trace_from(x0, y0, p0, +1.0)
                back = trace_from(x0, y0, p0, -1.0)
                joined = np.vstack([back[::-1], fwd[1:]]) if len(back) > 1 else fwd
                if len(joined) >= 2:
                    curves.append(joined)
    return curves


MIXED = mt.metric_from_strings(
    3, ["x*y - 0.3*y^2 + 0.5*x", "0.4*x - 0.2*y", "1 + 0.1*x*y", "0.2*x"]
)


@pytest.mark.parametrize(
    "metric, box, layer, seeds_per_axis",
    [
        (halfplane_metric(), HALFPLANE_BOX, "F", 4),
        (halfplane_metric(), HALFPLANE_BOX, "denom", 4),
        (MIXED, HALFPLANE_BOX, "F", 2),
    ],
)
def test_lockstep_matches_seed_by_seed_reference(metric, box, layer, seeds_per_axis):
    # powers above 2 would round differently in the two interpreters; with
    # none, the lockstep trace does the same float operations per lane
    want = scalar_net_curves(metric, box, layer, seeds_per_axis)
    got = nets.net_curves(metric, box, layer, seeds_per_axis)
    assert len(want) > 1
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "layer, weight, tol",
    [
        # F = p^2 + c vanishes on dy^2 + c dx^2 = 0
        ("F", 1.0, 2e-3),
        # Delta = 2 (p^2 - 3c) for this F: degenerate directions dy^2 = 3c dx^2
        ("denom", -3.0, 2e-4),
    ],
)
def test_halfplane_net_follows_its_directions(layer, weight, tol):
    curves = nets.net_curves(halfplane_metric(), HALFPLANE_BOX, layer)
    assert curves
    for pts in curves:
        d = np.diff(pts, axis=0)
        c = -0.5 * (pts[1:, 0] + pts[:-1, 0])
        resid = (d[:, 1] ** 2 + weight * c * d[:, 0] ** 2) / (
            np.sum(d * d, axis=1) * (1.0 + np.abs(c))
        )
        assert np.max(np.abs(resid)) < tol


@pytest.mark.parametrize(
    "metric, box, layer, count",
    [
        (halfplane_metric(), HALFPLANE_BOX, "F", 101),
        (halfplane_metric(), HALFPLANE_BOX, "denom", 79),
        (parabola_metric(), PARABOLA_BOX, "F", 37),
        (parabola_metric(), PARABOLA_BOX, "denom", 133),
    ],
)
def test_curve_counts_are_pinned(metric, box, layer, count):
    assert len(nets.net_curves(metric, box, layer)) == count


def test_curves_stay_in_padded_box():
    for pts in nets.net_curves(halfplane_metric(), HALFPLANE_BOX, "F"):
        assert pts.ndim == 2 and pts.shape[1] == 2 and len(pts) >= 2
        assert np.all(np.isfinite(pts))
        # the box is padded by 2 % of its width on each side
        assert np.all(np.abs(pts) <= 1.04 + 1e-12)


def test_no_real_roots_gives_no_curves():
    m = mt.metric_from_strings(2, ["1 + x^2", "0", "1"])
    assert nets.net_curves(m, HALFPLANE_BOX, "F") == []


def test_seeds_on_a_pole_are_skipped():
    m = mt.metric_from_strings(3, ["1/x - y", "0", "1", "0"])
    curves = nets.net_curves(m, HALFPLANE_BOX, "F", seeds_per_axis=5)
    assert curves
    assert all(np.all(np.isfinite(pts)) for pts in curves)
