"""Direction nets: integral curves of the line fields C(x, y, dy/dx) = 0.

A slope polynomial C(x, y, p) = sum_i c_i(x, y) p^i (a coefficient layer
of the metric: "F" gives the isotropic net, "denom" the net of degenerate
directions) assigns to each point the directions dy = p dx of its simple
real roots.  The curves are traced in (x, y, p) space along the lifted
field

    (C_p, p C_p, -(C_x + p C_y)),

which is tangent to the surface C = 0, so a curve started on a root stays
on it, and folds of the net (C_p = 0) are passed without dividing by C_p.
The projection to the plane is the net curve.  The field is one generated
array function (``codegen.lifted_field_function``): the coefficients of
C, C_x and C_y share one value numbering and are summed in p by Horner's
rule, one call per RK4 stage.

Seeds sit on an 11 x 11 grid inside the box; the roots at all of them
come from one ``poly.real_roots_many`` call.  Every (seed, simple root,
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

A step's array work does not depend on how many lanes it stops: the lane
arrays are indexed only on a step where some lane stops, and each step
keeps its new states by reference, so the history costs what the lanes
actually traced, not 900 steps for every lane.  The visited cells are
computed a chunk of steps at a time, and the points are laid out lane by
lane after the loop.

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
from .codegen import lifted_field_function

NET_STEPS = 900
NET_SEED_AXIS = 11
NET_PMAX = 40.0
# steps of lane history turned into points and cells at once
_CELL_CHUNK = 32


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
    xs = np.linspace(box[0], box[1], seeds_per_axis + 2)[1:-1]
    ys = np.linspace(box[2], box[3], seeds_per_axis + 2)[1:-1]
    gx, gy = np.meshgrid(xs, ys)
    coeffs = m.table(layer).values_on_grid(gx.ravel(), gy.ravel()).T

    # a seed with a non-finite coefficient has no roots
    seeds = []
    for x0, y0, roots in zip(gx.ravel(), gy.ravel(), poly.real_roots_many(coeffs)):
        for p0, mult in roots:
            if mult > 1 or not abs(p0) <= NET_PMAX:
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
    field = lifted_field_function(
        *(m.table(name).exprs for name in (layer, layer + "_x", layer + "_y"))
    )
    xy, cell, bounds = _trace_lanes(field, start, sign, ds, lo, hi, cells)

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


def _lifted(field, s: np.ndarray) -> np.ndarray:
    """The lifted field at each row (x, y, p) of ``s``, as rows."""
    k = np.empty_like(s)
    field(*s.T, k.T)
    return k


def _trace_lanes(field, start, sign, ds, lo, hi, cells):
    """RK4 on all lanes in lockstep until each one stops.

    Returns the accepted points (M, 2) and their cells (M,), grouped by
    lane, and the L + 1 bounds of the L lane groups; start states are not
    included.

    A step that stops no lane costs a fixed few array operations: the
    lane arrays are indexed only on a step where some lane stops, and a
    lane's count is the index of the step that stopped it (NET_STEPS if
    none did).  Each step keeps its new states and its lane ids by
    reference; every _CELL_CHUNK steps the kept states become their
    points and cells in one ``cells`` call, so the history holds (x, y)
    and a cell per point, not (x, y, p).  Lanes only ever stop, so a lane
    accepted at step t has more than t steps and its point there goes to
    row ``bounds[lane] + t``; this lane-major scatter runs after the loop,
    a chunk at a time, and frees each chunk as it is written.
    """
    lane = np.arange(len(start))
    counts = np.full(len(start), NET_STEPS, dtype=np.int64)
    s = start
    sds = sign * ds
    # -NET_PMAX <= p <= NET_PMAX is |p| <= NET_PMAX, and false for nan
    lo3 = np.array([lo[0], lo[1], -NET_PMAX])
    hi3 = np.array([hi[0], hi[1], NET_PMAX])
    lanes: list[np.ndarray] = []
    states: list[np.ndarray] = []
    chunks: list[tuple[np.ndarray, np.ndarray]] = []
    with np.errstate(all="ignore"):
        for t in range(NET_STEPS):
            if not lane.size:
                break
            k1 = _lifted(field, s)
            nrm = np.sqrt(np.vecdot(k1, k1))
            rest = nrm < 1e-12
            if rest.any():
                counts[lane[rest]] = t
                go = ~rest
                lane, s, sds, k1, nrm = lane[go], s[go], sds[go], k1[go], nrm[go]
            h = (sds / nrm)[:, None]
            k2 = _lifted(field, s + 0.5 * h * k1)
            k3 = _lifted(field, s + 0.5 * h * k2)
            k4 = _lifted(field, s + h * k3)
            step = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            moved = ~(np.sqrt(np.vecdot(step[:, :2], step[:, :2])) < 1e-10)
            s = s + step
            keep = moved & ((lo3 <= s) & (s <= hi3)).all(axis=1)
            if not keep.all():
                counts[lane[~keep]] = t
                lane, s, sds = lane[keep], s[keep], sds[keep]
            lanes.append(lane)
            states.append(s)
            if len(states) == _CELL_CHUNK:
                chunks.append(_points_and_cells(states, cells))
                states = []
    if states:
        chunks.append(_points_and_cells(states, cells))

    bounds = np.concatenate([[0], np.cumsum(counts)])
    xy = np.empty((bounds[-1], 2))
    cell = np.empty(bounds[-1], dtype=np.int32)
    # popped in step order, so each chunk is freed once it is written
    chunks.reverse()
    for t0 in range(0, len(lanes), _CELL_CHUNK):
        ids = lanes[t0 : t0 + _CELL_CHUNK]
        rows = bounds[np.concatenate(ids)] + np.repeat(
            np.arange(t0, t0 + len(ids)), [len(i) for i in ids]
        )
        xy[rows], cell[rows] = chunks.pop()
    return xy, cell, bounds


def _points_and_cells(states, cells):
    """The (x, y) rows and the cells of a run of steps' states."""
    s = np.concatenate(states)
    return s[:, :2].copy(), cells(s)
