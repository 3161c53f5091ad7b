"""Direction nets traced in lockstep (finslerflow.nets)."""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from finslerflow import cli, codegen
from finslerflow import metric as mt
from finslerflow import nets

from helpers import (
    halfplane_metric,
    lifted_field_reference,
    net_lanes_rk4_reference,
    parabola_metric,
    polyline_deviation,
    real_roots_reference,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
HALFPLANE_BOX = (-1.0, 1.0, -1.0, 1.0)
PARABOLA_BOX = (-1.5, 1.5, 0.05, 1.5)


def lane_alone(field, start, sign, ds0, lo, hi, scale, cell):
    """Reference: one lane of ``nets._trace_lanes`` traced by itself,
    round by round with Python control flow.

    ``field`` maps a (3,) state to its (3,) lifted field.  Each round runs
    the float operations that the lockstep loop runs on the lane's column:
    a Bogacki-Shampine 3(2) step of length ds, its error and chord in px,
    the acceptance and the next ds.  Returns the accepted states (n, 3),
    the (x, y, arctan p) points their chords mark (m, 3), the stop reason
    and the rounds run, the stopping one included.
    """
    B, E = nets._BS_B, nets._BS_E
    px = np.array(scale, dtype=float)
    reach, ds_min, ds_max = nets.NET_STEPS * ds0, ds0 * 1e-6, 2.0 * cell
    angle_cell = np.pi / 24
    x, k1, ds, arc = np.array(start, dtype=float), field(start), ds0, 0.0
    states, marks, reason = [], [], "round cap"
    with np.errstate(all="ignore"):
        for rounds in range(1, nets.NET_STEPS + 1):
            nrm = np.sqrt(np.vecdot(k1, k1))
            if nrm < 1e-12:
                reason = "rest"
                break
            h = sign * ds / nrm
            k2 = field(x + (0.5 * h) * k1)
            k3 = field(x + (0.75 * h) * k2)
            step = h * ((B[0] * k1 + B[1] * k2) + B[2] * k3)
            end = x + step
            k4 = field(end)
            err = px * (h * (((E[0] * k1[:2] + E[1] * k2[:2]) + E[2] * k3[:2]) + E[3] * k4[:2]))
            e = np.hypot(err[0], err[1])
            chord = np.hypot(*(px * step[:2]))
            tol = np.minimum(
                np.maximum(nets.NET_TOL_REL * chord, nets.NET_TOL_FLOOR_PX), nets.NET_TOL_PX
            )
            fac = np.maximum(np.minimum(0.9 * np.cbrt(tol / e), 5.0), 0.2)
            if e > tol and np.isfinite(e):
                ds = np.minimum(ds * np.minimum(fac, 1.0), ds_max)
                if ds < ds_min:
                    reason = "step underflow"
                    break
                continue
            arc, ds = arc + ds, np.minimum(ds * fac, ds_max)
            reason = (
                "no progress" if chord < 1e-8
                else "non-finite" if not np.all(np.isfinite(end))
                else "box" if not (lo[0] <= end[0] <= hi[0] and lo[1] <= end[1] <= hi[1])
                else "|p|" if not abs(end[2]) <= nets.NET_PMAX
                else "arclength cap" if arc > reach
                else None
            )
            if reason:
                break
            angle_a, angle_b = np.arctan(x[2]), np.arctan(end[2])
            d = (end[0] - x[0], end[1] - x[1], angle_b - angle_a)
            extent = max(max(abs(d[0]) / cell, abs(d[1]) / cell), abs(d[2]) / angle_cell)
            n = max(int(np.ceil(extent)), 1)
            for j in range(1, n + 1):
                t = j / n
                marks.append((x[0] + d[0] * t, x[1] + d[1] * t, angle_a + d[2] * t))
            x, k1 = end, k4
            states.append(x)
        else:
            reason = "round cap"
    return np.array(states).reshape(-1, 3), np.array(marks).reshape(-1, 3), reason, rounds


def scalar_net_curves(m, box, layer, seeds_per_axis):
    """Reference: the nets traced seed by seed with ``lane_alone``,
    choosing curves while tracing.

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
    lo, hi = (box[0] - pad_x, box[2] - pad_y), (box[1] + pad_x, box[3] + pad_y)
    scale = (560.0 / (box[1] - box[0]), 560.0 / (box[3] - box[2]))
    cell = max(box[1] - box[0], box[3] - box[2]) / 150.0
    visited = set()

    def key_of(x, y, angle):
        return (
            int(np.floor((x - box[0]) / cell)),
            int(np.floor((y - box[2]) / cell)),
            int(np.floor((angle + np.pi / 2) / (np.pi / 24))),
        )

    curves = []
    xs = np.linspace(box[0], box[1], seeds_per_axis + 2)[1:-1]
    ys = np.linspace(box[2], box[3], seeds_per_axis + 2)[1:-1]
    for y0 in ys:
        for x0 in xs:
            c = tables[0].values_at(x0, y0)
            for p0, mult in real_roots_reference(c):
                if mult > 1 or abs(p0) > nets.NET_PMAX:
                    continue
                if key_of(x0, y0, np.arctan(p0)) in visited:
                    continue
                seed = np.array([x0, y0, p0])
                fwd, fwd_marks, _, _ = lane_alone(rhs, seed, 1.0, ds, lo, hi, scale, cell)
                back, back_marks, _, _ = lane_alone(rhs, seed, -1.0, ds, lo, hi, scale, cell)
                visited.update(key_of(*mark) for mark in np.vstack([fwd_marks, back_marks]))
                if len(fwd) or len(back):
                    curves.append(np.vstack([back[::-1, :2], seed[:2], fwd[:, :2]]))
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
        # roots are circles about the origin and rays: 8 lanes circle to the
        # arclength cap, and 3 run into the rest point at the origin
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
        (halfplane_metric(), HALFPLANE_BOX, "F", 105),
        (halfplane_metric(), HALFPLANE_BOX, "denom", 81),
        (parabola_metric(), PARABOLA_BOX, "F", 40),
        (parabola_metric(), PARABOLA_BOX, "denom", 140),
        (CONSTANT, HALFPLANE_BOX, "F", 80),
    ],
)
def test_curve_counts_are_pinned(metric, box, layer, count):
    assert [len(c) for c in nets.net_curves(metric, box, (layer,))] == [count]


@pytest.mark.parametrize(
    "name", ["halfplane", "parabola", "parabola_neg", "berwald_moor_tangency"]
)
def test_lanes_lie_near_fixed_step_rk4_at_a_quarter_step(monkeypatch, name):
    # every lane of a shipped net, start included, lies within 0.05 canvas
    # px of the same lane traced with fixed RK4 steps of ds0 / 4 for the
    # same reach
    cfg = cli.load_config(str(CONFIGS / f"{name}.cfg"))
    m = cfg.metric_obj()
    traced = []
    trace = nets._trace_lanes

    def kept(*args):
        traced.append((args, trace(*args)))
        return traced[-1][1]

    monkeypatch.setattr(nets, "_trace_lanes", kept)
    nets.net_curves(m, cfg.box, ("F", "denom"))
    [((fields, blocks, start, sign, ds, lo, hi, _, scale), lanes)] = traced
    fine = net_lanes_rk4_reference(fields, blocks, start, sign, ds / 4, lo, hi, 4 * nets.NET_STEPS)
    px = np.array(scale)
    worst = max(
        polyline_deviation(
            np.vstack([start[:2, k], lanes.xy[lanes.bounds[k] : lanes.bounds[k + 1]]]) * px,
            np.vstack([start[:2, k], fine[k]]) * px,
        )
        for k in range(start.shape[1])
    )
    assert worst < 0.05


def test_polyline_deviation_is_exact_at_a_cusp():
    # b runs out along y = 0 and back along y = 0.3 with a vertex every
    # unit; a's end (5, 0.01) is 0.01 from b's first segment, while b's
    # vertex nearest to it, (5, 0.3), is on the way back
    a = np.array([[0.0, 0.0], [5.0, 0.01]])
    b = np.array([[0.0, 0.0], [10.0, 0.0]] + [[10.0 - k, 0.3] for k in range(11)])
    nearest = b[np.argmin(np.hypot(*(b - a[-1]).T))]
    np.testing.assert_array_equal(nearest, [5.0, 0.3])
    assert polyline_deviation(a, b) == pytest.approx(0.01, abs=1e-15)
    assert polyline_deviation(b, a) == pytest.approx(0.01, abs=1e-15)
    # past the span the two lines share, b is not compared
    assert polyline_deviation(a, np.vstack([b, [[0.0, 5.0]]])) == pytest.approx(0.01, abs=1e-15)


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
#   |p| < 0.5        (1, 0, 0): moves in x, ds0 and then two cells a round,
#                    until it leaves the box
#   0.5 <= p < 1.5   rest
#   1.5 <= p < 2.5   (1, 0, 0) for x < 0.2, then (0, 0, 1): stalls in the plane
#   2.5 <= p < 3.5   (-y, x, 0): circles the origin inside the box
#   3.5 <= p < 4.5   (0.2 - x, 0, 0): creeps towards the rest line x = 0.2
#   p >= 4.5         (1, 0, 10): p passes NET_PMAX
#   -20 <= p <= -0.5 rest
#   p < -20          (0.001, 0, -1): p falls, past -NET_PMAX; nan for x > 0.9
def _banded_field(x, y, p):
    move = np.abs(p) < 0.5
    stall = (1.5 <= p) & (p < 2.5)
    turn = (2.5 <= p) & (p < 3.5)
    sink = (3.5 <= p) & (p < 4.5)
    steep = p >= 4.5
    fall = p < -20.0
    return (
        np.where(
            move | steep | (stall & (x < 0.2)),
            1.0,
            np.where(
                turn,
                -y,
                np.where(
                    sink, 0.2 - x, np.where(fall, np.where(x > 0.9, np.nan, 1e-3), 0.0)
                ),
            ),
        ),
        np.where(turn, x, 0.0),
        np.where(
            steep,
            10.0,
            np.where(
                stall & (x >= 0.2),
                1.0,
                np.where(fall, -1.0, 0.0),
            ),
        ),
    )


def _swapped_field(x, y, p):
    """_banded_field with the roles of x and y exchanged."""
    rows = _banded_field(y, x, p)
    return rows[1], rows[0], rows[2]


def _lane_by_itself(field, start, sign, ds0, lo, hi, scale, cell):
    """``lane_alone`` on a field of the lockstep loop's kind."""

    def lifted(s):
        out = np.empty((3, 1))
        out[0], out[1], out[2] = field(*np.asarray(s, dtype=float)[:, None])
        return out[:, 0]

    return lane_alone(lifted, start, sign, ds0, lo, hi, scale, cell)


class _LaneSet(NamedTuple):
    """Lanes of the bookkeeping test: each run is (start, direction, the
    stop reason), traced with upper box corner (hi, hi) and first step ds0."""

    hi: float
    ds0: float
    runs: list


# the bookkeeping box, whose cells are 0.01 wide, and its lower corner
BOX, LO = (-0.5, 1.0, -0.5, 1.0), (-0.6, -0.6)
DS0 = float(np.hypot(1.5, 1.5)) / 500.0
# two cells, the largest step: a lane that moves in x takes ds0 and then
# STRIDE a round
STRIDE = 0.02


# the bookkeeping cases: lanes and the rounds each one runs
BOOKKEEPING = [
    (
        _LaneSet(
            1.1,
            DS0,
            [
                ((0.0, 0.0, 1.0), 1.0, "rest"),
                ((0.3, 0.0, 2.0), 1.0, "no progress"),  # moves in p only
                # x = DS0 + STRIDE (n - 1) passes 1.1 after 56 rounds
                ((0.0, 0.0, 0.0), 1.0, "box"),
                ((0.0, 0.3, 0.0), -1.0, "box"),  # and -0.6 after 31
                ((0.0, 0.0, 39.0), 1.0, "|p|"),
                ((0.5, 0.0, 3.0), 1.0, "arclength cap"),  # circles
                ((0.0, 0.3, 3.0), -1.0, "arclength cap"),
                # comes to x = 0.2, where it moves in p only
                ((0.0, 0.0, 2.0), 1.0, "no progress"),
                # creeps towards x = 0.2 until a rejected ds underflows
                ((0.0, 0.0, 4.0), 1.0, "step underflow"),
                # a stage at x > 0.9 is nan
                ((0.9 - 2e-4, 0.0, -21.0), 1.0, "non-finite"),
                # a circle of radius 1e-3 keeps ds short
                ((1e-3, 0.0, 3.0), 1.0, "round cap"),
            ],
        ),
        [1, 1, 56, 31, 52, 192, 217, 64, 175, 12, nets.NET_STEPS],
    ),
    (
        # lanes that stop in their first round
        _LaneSet(
            1.1,
            DS0,
            [
                ((0.0, 0.0, 1.0), -1.0, "rest"),
                ((0.3, 0.0, 2.0), 1.0, "no progress"),
                ((1.099, 0.0, 0.0), 1.0, "box"),
                ((0.0, 0.0, 39.999), 1.0, "|p|"),
                ((0.95, 0.0, -21.0), 1.0, "non-finite"),
            ],
        ),
        [1, 1, 1, 1, 1],
    ),
    (
        # lanes that stop inside a chunk of rounds, at its last round,
        # at the first round of the next one, and in the final partial
        # chunk, while another lane runs all rounds: with a first step
        # of STRIDE, x = x0 + STRIDE n after n rounds, and the reach is
        # NET_STEPS strides
        _LaneSet(
            18.5,
            STRIDE,
            [
                ((18.5 - STRIDE * (nets._CELL_CHUNK - 1.5), 0.0, 0.0), 1.0, "box"),
                ((18.5 - STRIDE * (nets._CELL_CHUNK - 0.5), 0.0, 0.0), 1.0, "box"),
                ((18.5 - STRIDE * (nets._CELL_CHUNK + 0.5), 0.0, 0.0), 1.0, "box"),
                ((18.5 - STRIDE * 897.5, 0.0, 0.0), 1.0, "box"),
                ((0.9 - 2e-4, 0.0, -21.0), 1.0, "non-finite"),
                ((1e-3, 0.0, 3.0), 1.0, "round cap"),
            ],
        ),
        [
            nets._CELL_CHUNK - 1,
            nets._CELL_CHUNK,
            nets._CELL_CHUNK + 1,
            898,
            11,
            nets.NET_STEPS,
        ],
    ),
]


@pytest.mark.parametrize("lanes, counts", BOOKKEEPING)
def test_trace_lanes_bookkeeping_matches_lanes_traced_alone(lanes, counts):
    # two blocks of lanes on two fields: the listed lanes on _banded_field,
    # then the same lanes mirrored in the diagonal on _swapped_field, which
    # stop in the same round for the same reason, since the box is
    # symmetric in x and y
    hi = (lanes.hi, lanes.hi)
    cells = nets._CellIndex(BOX, LO, hi)
    scale = (nets.NET_CANVAS_PX / 1.5, nets.NET_CANVAS_PX / 1.5)
    fields = (_banded_field, _swapped_field)
    runs = [(_banded_field, s, d) for s, d, _ in lanes.runs]
    runs += [(_swapped_field, (y, x, p), d) for (x, y, p), d, _ in lanes.runs]
    start = np.array([s for _, s, _ in runs]).T
    sign = np.array([d for _, _, d in runs])
    blocks = np.array([0, len(lanes.runs), 2 * len(lanes.runs)])
    got = nets._trace_lanes(fields, blocks, start, sign, lanes.ds0, LO, hi, cells, scale)

    alone = [_lane_by_itself(f, s, d, lanes.ds0, LO, hi, scale, cells.cell) for f, s, d in runs]
    stops = [stop for _, _, stop in lanes.runs]
    assert [a[2] for a in alone] == stops + stops
    assert [a[3] for a in alone] == counts + counts
    assert [nets.STOP_REASONS[k] for k in got.stops] == stops + stops
    np.testing.assert_array_equal(got.rounds, counts + counts)
    np.testing.assert_array_equal(got.bounds, np.cumsum([0] + [len(a[0]) for a in alone]))
    np.testing.assert_array_equal(got.mark_bounds, np.cumsum([0] + [len(a[1]) for a in alone]))
    assert got.xy.shape == (got.bounds[-1], 2)
    assert got.marks.dtype == np.int32 and got.marks.shape == (got.mark_bounds[-1],)
    for k, (states, marks, _, _) in enumerate(alone):
        np.testing.assert_array_equal(got.xy[got.bounds[k] : got.bounds[k + 1]], states[:, :2])
        np.testing.assert_array_equal(
            got.marks[got.mark_bounds[k] : got.mark_bounds[k + 1]], cells.at(*marks.T)
        )


def test_every_stop_reason_has_a_lane():
    # the bookkeeping lanes stop for every reason there is
    reasons = {stop for lanes, _ in BOOKKEEPING for _, _, stop in lanes.runs}
    assert reasons == set(nets.STOP_REASONS)
