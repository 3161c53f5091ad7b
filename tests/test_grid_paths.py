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

from helpers import (
    cell_marching_squares,
    cell_strata_rows,
    fmt,
    halfplane_metric,
    point_project,
    random_poly_text,
    resultant_at,
    singular_at,
    slope_residual,
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
        ("singular", sg.singular_grid_fn(m), lambda x, y: singular_at(m, x, y)),
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
            for line in sg._stitch(segs.tolist(), snap=1e-6 * cell):
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
    assert [(st, fmt(d)) for st, d in zip(strata.ravel(), disc.ravel())] == [
        r[2:] for r in want
    ]


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
    assert set(strata[:, 10]) == {"M01"}
    assert [(st, fmt(d)) for st, d in zip(strata.ravel(), disc.ravel())] == [
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
