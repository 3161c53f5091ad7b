"""Direction nets traced in lockstep (finslerflow.nets)."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from finslerflow import cli, codegen
from finslerflow import metric as mt
from finslerflow import nets

from helpers import (
    halfplane_metric,
    lifted_field_reference,
    parabola_metric,
    real_roots_reference,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
HALFPLANE_BOX = (-1.0, 1.0, -1.0, 1.0)
PARABOLA_BOX = (-1.5, 1.5, 0.05, 1.5)


def scalar_net_curves(m, box, layer, seeds_per_axis):
    """Reference: the nets traced seed by seed with scalar RK4, choosing
    curves while tracing.

    Coefficients come from the generated point functions, which round as
    the lifted field's lines do, and the lifted field is summed by
    Horner's rule from the top coefficient as the net kernel sums it
    (``helpers.lifted_field_reference``), so the two agree exactly.
    """
    tables = [m.table(name) for name in (layer, layer + "_x", layer + "_y")]

    def rhs(state):
        x, y, p = state
        return np.array(
            lifted_field_reference(*(t.values_at(x, y) for t in tables), p)
        )

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
            for p0, mult in real_roots_reference(c):
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
# F = p^2 - 1: constant coefficients, so C_x and C_y vanish identically
CONSTANT = mt.metric_from_strings(2, ["-1", "0", "1"])


@pytest.mark.parametrize(
    "metric, box, layer, seeds_per_axis",
    [
        (halfplane_metric(), HALFPLANE_BOX, "F", 4),
        (halfplane_metric(), HALFPLANE_BOX, "denom", 4),
        (MIXED, HALFPLANE_BOX, "F", 2),
        (CONSTANT, HALFPLANE_BOX, "F", 3),
        # roots are circles about the origin and rays: 8 lanes run all steps
        (mt.metric_from_strings(2, ["-x*y", "x^2 - y^2", "x*y"]), HALFPLANE_BOX, "F", 2),
    ],
)
def test_lockstep_matches_seed_by_seed_reference(metric, box, layer, seeds_per_axis):
    # the lockstep trace does the same float operations per lane
    want = scalar_net_curves(metric, box, layer, seeds_per_axis)
    [got] = nets.net_curves(metric, box, (layer,), seeds_per_axis)
    assert len(want) > 1
    _assert_same_curves(got, want)


def _assert_same_curves(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "metric, seeds_per_axis", [(halfplane_metric(), 4), (MIXED, 2)], ids=["halfplane", "mixed"]
)
def test_joint_run_matches_seed_by_seed_reference(metric, seeds_per_axis):
    # the lanes of both layers advance in one loop; each layer's curves
    # are still those of its own seed-by-seed trace
    layers = ("F", "denom")
    joint = nets.net_curves(metric, HALFPLANE_BOX, layers, seeds_per_axis)
    assert len(joint) == 2
    for layer, got in zip(layers, joint):
        want = scalar_net_curves(metric, HALFPLANE_BOX, layer, seeds_per_axis)
        assert len(want) > 1
        _assert_same_curves(got, want)


@pytest.mark.parametrize(
    "name", ["halfplane", "parabola", "parabola_neg", "berwald_moor_tangency"]
)
def test_joint_run_matches_each_layer_traced_alone(name):
    cfg = cli.load_config(str(CONFIGS / f"{name}.cfg"))
    m = cfg.metric_obj()
    joint = nets.net_curves(m, cfg.box, ("F", "denom"))
    for layer, got in zip(("F", "denom"), joint):
        [alone] = nets.net_curves(m, cfg.box, (layer,))
        _assert_same_curves(got, alone)
    assert joint[0]


# F = p^2 - x - 0.05: the isotropic net lives on x > -0.05, while the
# degeneracy combination 4 (-x - 0.05) has no root in p, so "denom" has no
# seeds and its block of lanes is empty
NO_DENOM_ROOTS = mt.metric_from_strings(2, ["-x - 0.05", "0", "1"])


@pytest.mark.parametrize("layers", [("denom", "F"), ("F", "denom")], ids=["first", "last"])
def test_a_layer_without_seeds_is_an_empty_block(layers):
    got = dict(zip(layers, nets.net_curves(NO_DENOM_ROOTS, HALFPLANE_BOX, layers)))
    assert got["denom"] == []
    [alone] = nets.net_curves(NO_DENOM_ROOTS, HALFPLANE_BOX, ("F",))
    assert len(alone) > 1
    _assert_same_curves(got["F"], alone)


def test_lanes_that_go_non_finite_leave_the_other_layer_alone(monkeypatch):
    # a0 has a pole on x = 0.1, inside the box, and a1 = 1e150 x squares
    # past the float range in the degeneracy combination: the "denom"
    # lanes evaluate to inf or nan and stop there, while the "F" lanes go
    # on as if they had run by themselves
    m = mt.metric_from_strings(3, ["0.2/(x - 0.1) - y", "1e150*x", "0.5*x", "1"])
    non_finite = []
    compile_field = nets.lifted_field_function

    def watched(*rows):
        field = compile_field(*rows)
        index = len(non_finite)
        non_finite.append(False)

        def run(x, y, p):
            rows = field(x, y, p)
            non_finite[index] |= not all(np.all(np.isfinite(r)) for r in rows)
            return rows

        return run

    monkeypatch.setattr(nets, "lifted_field_function", watched)
    layers = ("F", "denom")
    joint = nets.net_curves(m, HALFPLANE_BOX, layers)
    assert non_finite == [False, True]
    assert joint[0]
    for layer, got in zip(layers, joint):
        [alone] = nets.net_curves(m, HALFPLANE_BOX, (layer,))
        _assert_same_curves(got, alone)
        assert all(np.all(np.isfinite(pts)) for pts in got)


def test_joint_run_compiles_one_field_per_layer(monkeypatch):
    # the field of each layer is generated once per call, not per block
    # bound or per step
    compiled = []
    compile_function = codegen._function

    def counted(name, args, body, result):
        compiled.append(name)
        return compile_function(name, args, body, result)

    monkeypatch.setattr(codegen, "_function", counted)
    nets.net_curves(parabola_metric(), PARABOLA_BOX, ("F", "denom"))
    assert compiled.count("lifted_field") == 2


@pytest.mark.parametrize(
    "metric, box", [(halfplane_metric(), HALFPLANE_BOX), (parabola_metric(), PARABOLA_BOX)],
    ids=["halfplane", "parabola"],
)
def test_lanes_are_reindexed_once_per_chunk_of_steps(monkeypatch, metric, box):
    # the stop tests run once per chunk of steps, so the block bounds are
    # found again at most once per chunk, however many steps stop lanes
    calls = []
    spans = nets._spans

    def counted(lane, blocks):
        calls.append(1)
        return spans(lane, blocks)

    monkeypatch.setattr(nets, "_spans", counted)
    nets.net_curves(metric, box, ("F", "denom"))
    assert 1 < len(calls) <= math.ceil(nets.NET_STEPS / nets._CELL_CHUNK) + 1


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
    [curves] = nets.net_curves(halfplane_metric(), HALFPLANE_BOX, (layer,))
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
        (CONSTANT, HALFPLANE_BOX, "F", 67),
    ],
)
def test_curve_counts_are_pinned(metric, box, layer, count):
    assert [len(c) for c in nets.net_curves(metric, box, (layer,))] == [count]


def test_curves_stay_in_padded_box():
    [curves] = nets.net_curves(halfplane_metric(), HALFPLANE_BOX, ("F",))
    for pts in curves:
        assert pts.ndim == 2 and pts.shape[1] == 2 and len(pts) >= 2
        assert np.all(np.isfinite(pts))
        # the box is padded by 2 % of its width on each side
        assert np.all(np.abs(pts) <= 1.04 + 1e-12)


def test_no_real_roots_gives_no_curves():
    m = mt.metric_from_strings(2, ["1 + x^2", "0", "1"])
    assert nets.net_curves(m, HALFPLANE_BOX, ("F",)) == [[]]


def test_seeds_on_a_pole_are_skipped():
    m = mt.metric_from_strings(3, ["1/x - y", "0", "1", "0"])
    [curves] = nets.net_curves(m, HALFPLANE_BOX, ("F",), seeds_per_axis=5)
    assert curves
    assert all(np.all(np.isfinite(pts)) for pts in curves)


# a hand-written lifted field, one behaviour per band of the start slope:
#   |p| < 0.5        (1, 0, 0): moves in x by ds per step until it leaves the box
#   0.5 <= p < 1.5   rest
#   1.5 <= p < 2.5   (1, 0, 0) for x < 0.2, then (0, 0, 1): stalls in the plane
#   2.5 <= p < 3.5   (-y, x, 0): circles the origin inside the box
#   p >= 3.5         (1, 0, 10): p passes NET_PMAX
#   -10 <= p <= -0.5 rest
#   -20 <= p < -10   (-y, x, -0.023): circles while p falls slowly
#   p < -20          (0.001, 0, -1): p falls by about ds per step, past
#                    -NET_PMAX; nan for x > 0.9
def _banded_field(x, y, p):
    move = np.abs(p) < 0.5
    stall = (1.5 <= p) & (p < 2.5)
    turn = (2.5 <= p) & (p < 3.5)
    steep = p >= 3.5
    spiral = (-20.0 <= p) & (p < -10.0)
    fall = p < -20.0
    return (
        np.where(
            move | steep | (stall & (x < 0.2)),
            1.0,
            np.where(turn | spiral, -y, np.where(fall, np.where(x > 0.9, np.nan, 1e-3), 0.0)),
        ),
        np.where(turn | spiral, x, 0.0),
        np.where(
            steep,
            10.0,
            np.where(
                stall & (x >= 0.2),
                1.0,
                np.where(spiral, -0.023, np.where(fall, -1.0, 0.0)),
            ),
        ),
    )


def _swapped_field(x, y, p):
    """_banded_field with the roles of x and y exchanged."""
    rows = _banded_field(y, x, p)
    return rows[1], rows[0], rows[2]


def _lane_by_itself(field, start, sign, ds, lo, hi):
    """Reference: one lane traced with Python control flow, step by step."""

    def lifted(s):
        out = np.empty((3, 1))
        out[0], out[1], out[2] = field(*s[:, None])
        return out[:, 0]

    s, states = np.array(start, dtype=float), []
    for _ in range(nets.NET_STEPS):
        k1 = lifted(s)
        nrm = np.sqrt(np.vecdot(k1, k1))
        if nrm < 1e-12:
            break
        h = sign * ds / nrm
        k2 = lifted(s + 0.5 * h * k1)
        k3 = lifted(s + 0.5 * h * k2)
        k4 = lifted(s + h * k3)
        step = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.sqrt(np.vecdot(step[:2], step[:2])) < 1e-10:
            break
        s = s + step
        x, y, p = s
        if not (lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1] and abs(p) <= nets.NET_PMAX):
            break
        states.append(s)
    return np.array(states).reshape(-1, 3)


@pytest.mark.parametrize(
    "lanes, counts",
    [
        (
            [
                ((0.0, 0.0, 1.0), 1.0),  # at a rest point
                ((0.0, 0.0, 2.0), 1.0),  # one step, then no progress
                ((0.0, 0.0, 0.0), 1.0),  # x = 0.25 .. 1.0, then past hi
                ((0.0, 0.3, 0.0), -1.0),  # x = -0.25, -0.5, then past lo
                ((0.0, 0.0, 39.0), 1.0),  # p = 39.25 .. 39.99, then past 40
                ((0.5, 0.0, 3.0), 1.0),  # circles: the step cap
                ((0.0, 0.3, 3.0), -1.0),
            ],
            [0, 1, 4, 2, 4, nets.NET_STEPS, nets.NET_STEPS],
        ),
        (
            [
                ((0.0, 0.0, 1.0), -1.0),  # at a rest point
                ((0.3, 0.0, 2.0), 1.0),  # no progress
                ((1.05, 0.0, 0.0), 1.0),  # first point past hi
                ((0.0, 0.0, 39.9), 1.0),  # first point past 40
            ],
            [0, 0, 0, 0],
        ),
        (
            # lanes that stop inside a chunk of steps, at its last step, at
            # the first step of the next one, and in the final partial
            # chunk, while another lane runs all steps
            [
                # from p = -40 + (n + 0.5) ds, p passes -40 after n steps
                ((0.0, 0.0, -40.0 + (nets._CELL_CHUNK - 0.5) * 0.25), 1.0),
                ((0.0, 0.0, -40.0 + (nets._CELL_CHUNK + 0.5) * 0.25), 1.0),
                ((0.0, 0.0, -40.0 + (nets._CELL_CHUNK + 1.5) * 0.25), 1.0),
                # circles, reaches p < -20 after about 818 steps, then falls
                # past -40 at step 898, in the last chunk (steps 896 .. 899)
                ((0.5, 0.0, -10.08), 1.0),
                # x = 0.9 - 0.01006 + 0.00025 t: step 40's second stage is
                # at x > 0.9, where the field is nan, so its state is nan
                ((0.9 - 2.5e-4 * 40.25, 0.0, -21.0), 1.0),
                ((0.5, 0.0, 3.0), 1.0),  # circles: the step cap
            ],
            [
                nets._CELL_CHUNK - 1,
                nets._CELL_CHUNK,
                nets._CELL_CHUNK + 1,
                898,
                40,
                nets.NET_STEPS,
            ],
        ),
    ],
)
def test_trace_lanes_bookkeeping_matches_lanes_traced_alone(lanes, counts):
    # two blocks of lanes on two fields: the listed lanes on _banded_field,
    # then the same lanes mirrored in the diagonal on _swapped_field, which
    # stop after the same counts, since the box is symmetric in x and y
    box, lo, hi, ds = (-0.5, 1.0, -0.5, 1.0), (-0.6, -0.6), (1.1, 1.1), 0.25
    cells = nets._CellIndex(box, lo, hi)
    fields = (_banded_field, _swapped_field)
    runs = [(_banded_field, s, d) for s, d in lanes]
    runs += [(_swapped_field, (y, x, p), d) for (x, y, p), d in lanes]
    start = np.array([s for _, s, _ in runs]).T
    sign = np.array([d for _, _, d in runs])
    blocks = np.array([0, len(lanes), 2 * len(lanes)])
    xy, cell, bounds = nets._trace_lanes(fields, blocks, start, sign, ds, lo, hi, cells)

    alone = [_lane_by_itself(f, s, d, ds, lo, hi) for f, s, d in runs]
    assert [len(a) for a in alone] == counts + counts
    np.testing.assert_array_equal(bounds, np.concatenate([[0], np.cumsum(counts + counts)]))
    assert xy.shape == (bounds[-1], 2) and cell.shape == (bounds[-1],)
    for k, a in enumerate(alone):
        rows = slice(bounds[k], bounds[k + 1])
        np.testing.assert_array_equal(xy[rows], a[:, :2])
        np.testing.assert_array_equal(cell[rows], cells(a.T))
