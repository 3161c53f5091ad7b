"""Direction nets: integral curves of the line fields C(x, y, dy/dx) = 0.

A slope polynomial C(x, y, p) = sum_i c_i(x, y) p^i (a coefficient layer
of the metric: "F" gives the isotropic net, "denom" the net of degenerate
directions) assigns to each point the directions dy = p dx of its simple
real roots.  The curves are traced in (x, y, p) space along the lifted
field

    (C_p, p C_p, -(C_x + p C_y)),

which is tangent to the surface C = 0, so a curve started on a root stays
on it, and folds of the net (C_p = 0) are passed without dividing by C_p.
The projection to the plane is the net curve.

Seeds sit on an 11 x 11 grid inside the box.  Every (seed, simple root,
direction +1 or -1) is one lane, and all lanes advance together as one
(L, 3) RK4 state with a step of fixed length ds in (x, y, p).  A lane
stops on the first of these tests that fails, and its last step is then
dropped:

1. |k1| < 1e-12 (a rest point of the lifted field);
2. |step_xy| < 1e-10 (no progress in the plane);
3. the new point is outside the box padded by 2 % of its width on each
   side;
4. |p| > 40 (the direction turned vertical in this chart);
5. 900 steps.

NaN compares false, so a lane whose new state is not finite fails test 3
or 4; near a pole of a coefficient the lane stops there.

Each step stores only the points its surviving lanes accepted and their
visited cells, so the history costs what the lanes actually traced, not
900 steps for every lane.

Curves are then chosen by replaying the seeds in y-major, then x, then
root order.  Each traced state marks a cell (x, y, arctan p) as visited;
a seed whose own cell is already visited by an earlier curve is skipped,
and otherwise its backward and forward lanes are joined into one curve
and mark their cells.  The marks of one lane never affect the lane
itself, so tracing every lane first and replaying the choice afterwards
selects the same curves as tracing seed by seed.
"""

from __future__ import annotations

import numpy as np

from . import metric as mt
from . import poly

NET_STEPS = 900
NET_SEED_AXIS = 11
NET_PMAX = 40.0


def net_curves(
    m: mt.PseudoFinslerMetric,
    box: tuple[float, float, float, float],
    layer: str,
    seeds_per_axis: int = NET_SEED_AXIS,
) -> list[np.ndarray]:
    """Integral curves of the direction net of coefficient layer ``layer``.

    Returns (N, 2) polylines in seed order.  Seeds where a coefficient is
    not finite (a pole of a rational coefficient) are skipped.
    """
    tables = (m.table(layer), m.table(layer + "_x"), m.table(layer + "_y"))
    xs = np.linspace(box[0], box[1], seeds_per_axis + 2)[1:-1]
    ys = np.linspace(box[2], box[3], seeds_per_axis + 2)[1:-1]
    gx, gy = np.meshgrid(xs, ys)
    coeffs = tables[0].values_on_grid(gx.ravel(), gy.ravel()).T

    seeds = []
    for (x0, y0), c in zip(zip(gx.ravel(), gy.ravel()), coeffs):
        if not np.all(np.isfinite(c)):
            continue
        for p0, mult in poly.RealPolynomial(c).real_roots():
            if mult > 1 or abs(p0) > NET_PMAX:
                continue
            seeds.append((x0, y0, p0))
    if not seeds:
        return []
    seeds = np.array(seeds)

    diag = float(np.hypot(box[1] - box[0], box[3] - box[2]))
    ds = diag / 500.0
    pad_x = 0.02 * (box[1] - box[0])
    pad_y = 0.02 * (box[3] - box[2])
    lo = (box[0] - pad_x, box[2] - pad_y)
    hi = (box[1] + pad_x, box[3] + pad_y)
    cells = _CellIndex(box, lo, hi)

    # lane 2k runs seed k forward, lane 2k + 1 backward
    start = np.repeat(seeds, 2, axis=0)
    sign = np.tile([1.0, -1.0], len(seeds))
    xy, cell, bounds = _trace_lanes(tables, start, sign, ds, lo, hi, cells)

    visited = np.zeros(cells.size, dtype=bool)
    curves: list[np.ndarray] = []
    for k, seed_cell in enumerate(cells(seeds)):
        if visited[seed_cell]:
            continue
        f0, f1, b1 = bounds[2 * k : 2 * k + 3]
        if f1 > f0 or b1 > f1:
            curves.append(np.vstack([xy[f1:b1][::-1], seeds[k, :2], xy[f0:f1]]))
        visited[cell[f0:b1]] = True
    return curves


class _CellIndex:
    """Flat index of the visited cell of a state (x, y, p).

    A cell is 1/150 of the longer box side in x and y and 1/24 of a half
    turn in arctan p.  Every state a lane accepts lies in the padded box
    with |p| <= NET_PMAX, so the cells of its corners bound the index.
    """

    def __init__(self, box, lo, hi):
        self.box = box
        self.cell = max(box[1] - box[0], box[3] - box[2]) / 150.0
        corners = np.array([[lo[0], lo[1], -NET_PMAX], [hi[0], hi[1], NET_PMAX]])
        self.first, last = self._keys(corners)
        self.dims = tuple(last - self.first + 1)
        self.size = int(np.prod(self.dims))

    def _keys(self, s: np.ndarray) -> np.ndarray:
        return np.column_stack(
            [
                np.floor((s[:, 0] - self.box[0]) / self.cell),
                np.floor((s[:, 1] - self.box[2]) / self.cell),
                np.floor((np.arctan(s[:, 2]) + np.pi / 2) / (np.pi / 24)),
            ]
        ).astype(np.int64)

    def __call__(self, s: np.ndarray) -> np.ndarray:
        keys = self._keys(s) - self.first
        return np.ravel_multi_index(tuple(keys.T), self.dims).astype(np.int32)


def _lifted_field(tables, s: np.ndarray) -> np.ndarray:
    """(C_p, p C_p, -(C_x + p C_y)) at each row (x, y, p) of ``s``."""
    c, cx, cy = (
        np.ascontiguousarray(t.values_on_grid(s[:, 0], s[:, 1]).T) for t in tables
    )
    n = c.shape[1]
    p = s[:, 2]
    powers = p[:, None] ** np.arange(n)
    dcdp = (np.arange(1, n) * c[:, 1:] * powers[:, :-1]).sum(axis=1)
    val_x = np.vecdot(cx, powers)
    val_y = np.vecdot(cy, powers)
    return np.column_stack([dcdp, p * dcdp, -(val_x + p * val_y)])


def _trace_lanes(tables, start, sign, ds, lo, hi, cells):
    """RK4 on all lanes in lockstep until each one stops.

    Returns the accepted points (M, 2) and their cells (M,), grouped by
    lane, and the L + 1 bounds of the L lane groups; start states are not
    included.

    Lanes only ever stop, so the lanes accepted at step t are exactly
    those with more than t accepted steps, in lane order: each step keeps
    its points and cells, and the lane ids follow from the counts.
    """
    lane = np.arange(len(start))
    counts = np.zeros(len(start), dtype=np.int64)
    s = start
    steps: list[tuple[np.ndarray, np.ndarray]] = []
    with np.errstate(all="ignore"):
        for _ in range(NET_STEPS):
            if not lane.size:
                break
            k1 = _lifted_field(tables, s)
            nrm = np.sqrt(np.vecdot(k1, k1))
            go = ~(nrm < 1e-12)
            lane, s, sign, k1, nrm = lane[go], s[go], sign[go], k1[go], nrm[go]
            h = (sign * ds / nrm)[:, None]
            k2 = _lifted_field(tables, s + 0.5 * h * k1)
            k3 = _lifted_field(tables, s + 0.5 * h * k2)
            k4 = _lifted_field(tables, s + h * k3)
            step = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            moved = ~(np.sqrt(np.vecdot(step[:, :2], step[:, :2])) < 1e-10)
            s = s + step
            x, y, p = s.T
            keep = (
                moved
                & (lo[0] <= x)
                & (x <= hi[0])
                & (lo[1] <= y)
                & (y <= hi[1])
                & (np.abs(p) <= NET_PMAX)
            )
            lane, s, sign = lane[keep], s[keep], sign[keep]
            counts[lane] += 1
            steps.append((s[:, :2].copy(), cells(s)))

    bounds = np.concatenate([[0], np.cumsum(counts)])
    xy = np.empty((bounds[-1], 2))
    cell = np.empty(bounds[-1], dtype=np.int32)
    for t in range(len(steps)):
        rows = bounds[:-1][counts > t] + t
        xy[rows], cell[rows] = steps[t]
        steps[t] = None
    return xy, cell, bounds
