"""The grid paths of the locus commands against cell-by-cell and
point-by-point references (tests/helpers.py): marching squares, the
projection onto the loci and the classify raster must agree exactly."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest

from finslerflow import cli
from finslerflow import metric as mt
from finslerflow import singular as sg
from finslerflow.codegen import _CHUNK

from helpers import (
    HEAVIER_CUBIC_BOX,
    cell_marching_squares,
    cell_strata_rows,
    fmt,
    halfplane_metric,
    heavier_cubic_metric,
    point_project,
    random_poly_text,
    resultant_at,
    singular_at,
    singular_grid_fn,
    slope_residual,
    stitch_reference,
    strata_on_whole_grid,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
LOCUS_CONFIGS = ["halfplane", "parabola", "parabola_neg"]


def shipped(name):
    return cli.load_config(str(CONFIGS / f"{name}.cfg"))


def random_cubic(rng, pole=False):
    """F with four random polynomial coefficients; with a pole on x = 0."""
    texts = [random_poly_text(rng) for _ in range(4)]
    if pole:
        texts[0] += " + 0.3/x"
    return mt.metric_from_strings(3, texts)


def grid(box, resolution):
    xs = np.linspace(box[0], box[1], resolution)
    ys = np.linspace(box[2], box[3], resolution)
    return xs, ys, *np.meshgrid(xs, ys, indexing="ij")


def saddle_count(vals):
    v = (vals[:-1, :-1], vals[1:, :-1], vals[1:, 1:], vals[:-1, 1:])
    case = sum((vk < 0).astype(int) << k for k, vk in enumerate(v))
    return int(np.sum(np.isin(case, (5, 10)) & np.all(np.isfinite(v), axis=0)))


def locus_functions(m):
    """(name, grid function, scalar function) of the resultant and of the
    two traced loci, the singular curves and the boundary."""
    return [
        ("resultant", sg.resultant_grid_fn(m), lambda x, y: resultant_at(m, x, y)),
        ("singular", singular_grid_fn(m), lambda x, y: singular_at(m, x, y)),
        ("disc", sg.disc_grid_fn(m), lambda x, y: mt.disc_metric(m, x, y)),
    ]


# the equations of the singular curves and of the boundary
LOCI = {"singular": ("denom", "numer"), "disc": ("F", "F_p")}


def lifted(m, what, pts):
    """Planar points lifted as the traces lift them: (x, y, arctan p)."""
    xs, ys = pts[:, 0], pts[:, 1]
    if what == "singular":
        p = sg.lift_to_slopes(m, xs, ys)
    else:
        c = m.table("F").values_on_grid(xs, ys)
        p = sg._lift(sg._deriv(c), c)
    return np.array([xs, ys, np.arctan(p)])


def assert_projection_agrees(m, what, P):
    got = sg._project(sg._slope_equations(m, LOCI[what]), P)
    want = point_project(slope_residual(m, LOCI[what]), P.T)
    assert np.array_equal(got.T, want, equal_nan=True), what


@pytest.mark.parametrize("name", LOCUS_CONFIGS)
def test_configs_match_references(name):
    cfg = shipped(name)
    m = cfg.metric_obj()
    xs, ys, X, Y = grid(cfg.box, cfg.resolution)
    cell = max(xs[1] - xs[0], ys[1] - ys[0])
    for what, g, scalar in locus_functions(m):
        vals = g(X, Y)
        segs = sg._marching_squares(vals, xs, ys)
        # F = p^2 - x has R / disc_F = -384, which has no zero
        assert (len(segs) > 0) != (name == "halfplane" and what == "singular"), what
        assert np.array_equal(segs, cell_marching_squares(vals, xs, ys)), what
        if what in LOCI:
            for line in sg._stitch(segs, snap=1e-6 * cell):
                assert_projection_agrees(m, what, lifted(m, what, line))


@pytest.mark.parametrize("name", LOCUS_CONFIGS)
def test_strata_csv_matches_cells(name, tmp_path):
    cfg = shipped(name)
    assert cli.main(
        ["classify", "--config", str(CONFIGS / f"{name}.cfg"), "--out", str(tmp_path)]
    ) == 0
    with open(tmp_path / f"{cfg.out_prefix}_strata.csv", newline="") as fh:
        rows = [tuple(r) for r in csv.reader(fh)]
    xs = np.linspace(cfg.box[0], cfg.box[1], cfg.resolution)
    ys = np.linspace(cfg.box[2], cfg.box[3], cfg.resolution)
    assert rows[0] == ("x", "y", "stratum", "disc")
    assert rows[1:] == cell_strata_rows(cfg.metric_obj(), xs, ys)


@pytest.mark.parametrize("seed", range(4))
def test_random_metrics_match_references(seed):
    rng = np.random.default_rng(seed)
    m = random_cubic(rng, pole=seed % 2 == 1)
    box = (-1.0, 1.0, -1.0, 1.0)
    xs, ys, X, Y = grid(box, 41)
    for what, g, scalar in locus_functions(m):
        vals = g(X, Y)
        if seed % 2:
            assert not np.all(np.isfinite(vals)), what
        segs = sg._marching_squares(vals, xs, ys)
        assert np.array_equal(segs, cell_marching_squares(vals, xs, ys)), what
        if what in LOCI:
            starts = np.concatenate([segs.reshape(-1, 2), rng.uniform(-1, 1, (20, 2))])
            P = lifted(m, what, starts)
            # points that do not lift start from a random slope angle
            P[2, np.isnan(P[2])] = rng.uniform(-1.5, 1.5, np.isnan(P[2]).sum())
            assert_projection_agrees(m, what, P)
    if seed % 2:
        # a pole on the grid has no stratum: both refuse its first cell
        with pytest.raises(mt.DegeneratePointError, match="not finite") as got:
            mt.strata_on_grid(m, X.T, Y.T)
        with pytest.raises(mt.DegeneratePointError) as want:
            cell_strata_rows(m, xs, ys)
        assert str(got.value) == str(want.value)
        # the finite cells off the pole column still match
        xs = xs[xs != 0.0]
        X, Y = np.meshgrid(xs, ys, indexing="ij")
    strata, disc = mt.strata_on_grid(m, X.T, Y.T)
    want = cell_strata_rows(m, xs, ys)
    assert [(mt.STRATA[st], fmt(d)) for st, d in zip(strata.ravel(), disc.ravel())] == [
        r[2:] for r in want
    ]


@pytest.mark.parametrize("resolution", [220, 41])
def test_blocked_grids_match_whole_grid_calls(resolution):
    # 220^2 points are five blocks of _CHUNK points and a partial one;
    # 41^2 are fewer than one block
    assert resolution**2 % _CHUNK != 0
    cfg = shipped("parabola")
    rng = np.random.default_rng(resolution)
    cases = [
        (cfg.metric_obj(), cfg.box),
        (heavier_cubic_metric(), HEAVIER_CUBIC_BOX),
        (random_cubic(rng), (-1.0, 1.0, -1.0, 1.0)),
    ]
    for m, box in cases:
        xs, ys, X, Y = grid(box, resolution)
        for g in (singular_grid_fn(m), sg.disc_grid_fn(m)):
            assert np.array_equal(sg._grid_values(g, xs, ys), g(X, Y), equal_nan=True)
        # singular_curves' grid: disc_F turned into resultant / disc_F in place
        vals = sg._grid_values(sg.disc_grid_fn(m), xs, ys)
        res = sg.resultant_grid_fn(m)
        got = sg._grid_values(lambda x, y, disc: res(x, y) / disc, xs, ys, vals)
        assert got is vals
        assert np.array_equal(vals, singular_grid_fn(m)(X, Y), equal_nan=True)
        # classify's grid, one row per y
        got = mt.strata_on_grid(m, X.T, Y.T)
        want = strata_on_whole_grid(m, X.T, Y.T)
        assert got[0].shape == got[1].shape == X.shape
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1], equal_nan=True)


def test_marching_squares_on_saddles_and_non_finite_cells():
    rng = np.random.default_rng(5)
    # rounded values: exact zeros and equal neighbours (the 0.5 midpoint)
    vals = np.round(rng.standard_normal((40, 50)), 1)
    for bad in (np.nan, np.inf, -np.inf):
        vals[rng.random(vals.shape) < 0.03] = bad
    xs = np.linspace(-2.0, 1.0, 40)
    ys = np.cumsum(rng.uniform(0.01, 0.1, 50))
    assert saddle_count(vals) > 20
    with np.errstate(invalid="ignore"):
        assert np.any(vals == 0.0) and np.any(np.diff(vals, axis=0) == 0.0)
    segs = sg._marching_squares(vals, xs, ys)
    assert np.array_equal(segs, cell_marching_squares(vals, xs, ys))


def assert_same_lines(segs, snap):
    got = sg._stitch(segs, snap)
    want = stitch_reference(segs.tolist(), snap)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    return got


def test_stitch_matches_the_round_keyed_reference():
    rng = np.random.default_rng(40)
    # rounded values: contours through grid nodes, where up to four
    # segments meet at one endpoint, and saddles
    vals = np.round(rng.standard_normal((30, 35)), 1)
    xs, ys = np.linspace(-2.0, 1.0, 30), np.linspace(-1.0, 1.5, 35)
    segs = sg._marching_squares(vals, xs, ys)
    on_nodes = np.isin(segs[..., 0], xs) & np.isin(segs[..., 1], ys)
    assert on_nodes.sum() > 50
    for snap in (1e-6 * (xs[1] - xs[0]), 0.5 * (xs[1] - xs[0]), 0.3):
        assert_same_lines(segs, snap)
    # endpoints at -0.0 and +0.0: round gives the int 0 for both
    zeros = np.array([
        [[-0.0, 0.0], [1.0, 0.0]],
        [[0.0, -0.0], [-1.0, 0.0]],
        [[-1.0, 0.0], [-1.0, -0.0]],
        [[0.25, -0.25], [-0.0, -0.0]],
        [[1.0, 0.0], [1.0, 1.0]],
    ])
    for snap in (1.0, 1e-3):
        assert_same_lines(zeros, snap)
    assert [len(line) for line in sg._stitch(zeros, 1e-3)] == [5, 2]
    # a box offset so far that |pt / snap| > 2^63: the keys are integral
    # floats beyond int64, grouped as round's ints are
    xs = np.linspace(3e12 - 1.0, 3e12 + 1.0, 30)
    ys = np.linspace(-1.0, 1.0, 30)
    X, Y = np.meshgrid(xs - 3e12, ys, indexing="ij")
    vals = X * X + Y * Y - 0.3
    segs = sg._marching_squares(vals, xs, ys)
    snap = 1e-6 * (ys[1] - ys[0])
    assert np.abs(segs[..., 0] / snap).min() > 2.0**63
    assert len(assert_same_lines(segs, snap)) >= 1
    assert len(sg._stitch(np.zeros((0, 2, 2)), 1.0)) == 0


def test_no_crossing_gives_no_segments():
    vals, xs, ys = np.ones((5, 6)), np.arange(5.0), np.arange(6.0)
    segs = sg._marching_squares(vals, xs, ys)
    assert segs.shape == (0, 2, 2)
    assert np.array_equal(segs, cell_marching_squares(vals, xs, ys))


def test_band_cells_go_through_classify_point():
    # the grid holds the axis x = 0 of F = p^2 - x, where disc = 0
    m = halfplane_metric()
    xs = np.linspace(-1.0, 1.0, 21)
    ys = np.linspace(-1.0, 1.0, 7)
    assert 0.0 in xs
    X, Y = np.meshgrid(xs, ys)
    strata, disc = mt.strata_on_grid(m, X, Y)
    assert {mt.STRATA[st] for st in strata[:, 10]} == {"M01"}
    assert [(mt.STRATA[st], fmt(d)) for st, d in zip(strata.ravel(), disc.ravel())] == [
        r[2:] for r in cell_strata_rows(m, xs, ys)
    ]


def test_one_equation_step_is_the_gradient_newton_step():
    # one step of the projection on g = 0 in the plane: the equations
    # report g = 0 on the second call, which stops every point
    rng = np.random.default_rng(21)
    P = rng.uniform(-1.0, 1.0, (2, 200))
    calls = []

    def equations(Q):
        x, y = Q
        v = x * x * x - 2.0 * x * y + y * y - 0.3
        calls.append(len(x))
        if len(calls) > 1:
            v = 0.0 * v
        return v[None], np.array([[3.0 * x * x - 2.0 * y, 2.0 * y - 2.0 * x]])

    got = sg._project(equations, P)
    x, y = P
    v = x * x * x - 2.0 * x * y + y * y - 0.3
    gx, gy = 3.0 * x * x - 2.0 * y, 2.0 * y - 2.0 * x
    g2 = gx * gx + gy * gy
    assert calls == [200, 200]
    assert np.array_equal(got, [x - v * gx / g2, y - v * gy / g2])
