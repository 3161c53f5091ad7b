"""Direction nets: integral curves of the line fields C(x, y, dy/dx) = 0.

A slope polynomial C(x, y, p) = sum_i c_i(x, y) p^i (a coefficient layer
of the metric: "F" gives the isotropic net, "denom" the net of degenerate
directions) assigns to each point the directions dy = p dx of its simple
real roots.  The curves are traced in (x, y, p) space along the lifted
field

    (C_p, p C_p, -(C_x + p C_y)),

which is tangent to the surface C = 0, so a curve started on a root stays
on it, and folds of the net (C_p = 0) are passed without dividing by C_p.
The projection to the plane is the net curve.  The field of each layer is
one generated function (``codegen.lifted_field_function``), run on arrays
of lanes: the coefficients of C, C_x and C_y share one value numbering and
are summed in p by Horner's rule.

Seeds sit on an 11 x 11 grid inside the box; the roots of a layer at all
of them come from one ``poly.real_roots_many`` call.  Every (seed, simple
root, direction +1 or -1) is one lane.  The lanes of all requested layers
advance together in one RK4 loop with a step of fixed length ds in
(x, y, p); the state is held as (3, L) rows, and the lanes of each layer
form one contiguous block of columns, in the order of the layers.  Each
RK4 stage calls each layer's field once, on the column slice of its
block.  A lane stops on the first of these tests that fails, and its last
step is then dropped:

1. |k1| < 1e-12 (a rest point of the lifted field);
2. |step_xy| < 1e-10 (no progress in the plane);
3. the new point is outside the box padded by 2 % of its width on each
   side;
4. |p| > 40 (the direction turned vertical in this chart);
5. 900 steps.

NaN compares false, so a lane whose new state is not finite fails test 3
or 4; near a pole of a coefficient the lane stops there, and the other
lanes, of its layer or another, go on as if it had never run.

The steps run in chunks of 32 (_CELL_CHUNK), and within a chunk the
lane set is fixed: a step runs only the four stages and writes its new
states, |k1| and step into the chunk's buffers.  Tests 1 to 4 run once
at the chunk's end, on all its steps at once, and a lane's count is its
first failing step.  A lane that stops inside a chunk is carried to the
chunk's end, as every operation is elementwise, and its states past the
stop are dropped; so up to its stop each lane runs the float operations
it would run alone.  The stopped lanes leave the lane arrays once per
chunk, and the chunk's accepted states are laid out there as points and
cells, lane by lane, so the history costs what the lanes actually
traced, about 20 bytes a point, not 900 steps for every lane.

Curves are then chosen per layer by replaying its seeds in y-major, then
x, then root order.  Each traced state marks a cell (x, y, arctan p) as
visited; a seed whose own cell is already visited by an earlier curve of
its layer is skipped, and otherwise its backward and forward lanes are
joined into one curve and mark their cells.  The marks of one lane never
affect the lane itself, so tracing every lane first and replaying the
choice afterwards selects the same curves as tracing seed by seed.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import metric as mt
from . import poly
from .codegen import lifted_field_function

NET_STEPS = 900
NET_SEED_AXIS = 11
NET_PMAX = 40.0
# steps run between two rounds of stop tests, lane compaction and point
# layout
_CELL_CHUNK = 32


def net_curves(
    m: mt.PseudoFinslerMetric,
    box: tuple[float, float, float, float],
    layers: Sequence[str],
    seeds_per_axis: int = NET_SEED_AXIS,
) -> list[list[np.ndarray]]:
    """Integral curves of the direction nets of the coefficient layers
    ``layers``, all traced in one run.

    Returns one list of (N, 2) polylines per layer, in the order of
    ``layers``, each in seed order.  Seeds where a coefficient is not
    finite (a pole of a rational coefficient) are skipped.
    """
    xs = np.linspace(box[0], box[1], seeds_per_axis + 2)[1:-1]
    ys = np.linspace(box[2], box[3], seeds_per_axis + 2)[1:-1]
    gx, gy = np.meshgrid(xs, ys)
    seed_sets = [_seeds(m.table(layer), gx.ravel(), gy.ravel()) for layer in layers]

    diag = float(np.hypot(box[1] - box[0], box[3] - box[2]))
    ds = diag / 500.0
    pad_x = 0.02 * (box[1] - box[0])
    pad_y = 0.02 * (box[3] - box[2])
    lo = (box[0] - pad_x, box[2] - pad_y)
    hi = (box[1] + pad_x, box[3] + pad_y)
    cells = _CellIndex(box, lo, hi)

    fields = [
        lifted_field_function(*(m.table(layer + d).exprs for d in ("", "_x", "_y")))
        for layer in layers
    ]
    # in the block of a layer, lane 2k runs its seed k forward, 2k + 1 backward
    blocks = np.concatenate([[0], np.cumsum([2 * len(s) for s in seed_sets])])
    start = np.repeat(np.concatenate(seed_sets), 2, axis=0).T.copy()
    sign = np.tile([1.0, -1.0], start.shape[1] // 2)
    xy, cell, bounds = _trace_lanes(fields, blocks, start, sign, ds, lo, hi, cells)

    per_layer = []
    for seeds, first in zip(seed_sets, blocks):
        visited = np.zeros(cells.size, dtype=bool)
        curves: list[np.ndarray] = []
        for k, seed_cell in enumerate(cells(seeds.T)):
            if visited[seed_cell]:
                continue
            f0, f1, b1 = bounds[first + 2 * k : first + 2 * k + 3]
            if f1 > f0 or b1 > f1:
                curves.append(np.vstack([xy[f1:b1][::-1], seeds[k, :2], xy[f0:f1]]))
            visited[cell[f0:b1]] = True
        per_layer.append(curves)
    return per_layer


def _seeds(table, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (x, y, p) rows of the simple real roots |p| <= NET_PMAX of a
    slope polynomial at the points (x, y); a point with a non-finite
    coefficient has no roots."""
    seeds = [
        (x0, y0, p0)
        for x0, y0, roots in zip(x, y, poly.real_roots_many(table.values_on_grid(x, y).T))
        for p0, mult in roots
        if mult == 1 and abs(p0) <= NET_PMAX
    ]
    return np.array(seeds).reshape(-1, 3)


class _CellIndex:
    """Flat index of the visited cell of each column (x, y, p) of a
    (3, M) array of states.

    A cell is 1/150 of the longer box side in x and y and 1/24 of a half
    turn in arctan p.  Every state a lane accepts lies in the padded box
    with |p| <= NET_PMAX, so the cells of its corners bound the index.
    """

    def __init__(self, box, lo, hi):
        self.box = box
        self.cell = max(box[1] - box[0], box[3] - box[2]) / 150.0
        corners = np.array([[lo[0], hi[0]], [lo[1], hi[1]], [-NET_PMAX, NET_PMAX]])
        self.first, last = self._keys(corners).T
        self.dims = tuple(last - self.first + 1)
        self.size = int(np.prod(self.dims))

    def _keys(self, s: np.ndarray) -> np.ndarray:
        return np.array(
            [
                np.floor((s[0] - self.box[0]) / self.cell),
                np.floor((s[1] - self.box[2]) / self.cell),
                np.floor((np.arctan(s[2]) + np.pi / 2) / (np.pi / 24)),
            ]
        ).astype(np.int64)

    def __call__(self, s: np.ndarray) -> np.ndarray:
        keys = self._keys(s) - self.first[:, None]
        return np.ravel_multi_index(tuple(keys), self.dims).astype(np.int32)


def _trace_lanes(fields, blocks, start, sign, ds, lo, hi, cells):
    """RK4 on all lanes in lockstep until each one stops.

    ``start`` holds the (3, L) start states of the lanes, and lanes
    ``blocks[j]`` to ``blocks[j + 1] - 1`` run along ``fields[j]``, a
    lifted field (x, y, p) -> its three rows on arrays, each row an array
    or a constant.  Returns the accepted points (M, 2) and their cells
    (M,), grouped by lane, and the L + 1 bounds of the L lane groups;
    start states are not included.

    The steps run in chunks of _CELL_CHUNK, and the lane set is fixed
    within a chunk: a step runs only the four stages and writes its new
    states, its |k1| and its step into the chunk's (T, 3, L) and (T, L)
    buffers.  The current state, the stage slopes and the stage argument
    are buffers for the chunk's lanes, and the column views of each
    layer's block in them are made once per chunk.  At the chunk's end
    the stop tests run once on the stacked arrays, and a lane's count is
    the index of its first failing step (NET_STEPS if none fails).  A
    lane that stops inside a chunk is carried to its end: the lanes are
    independent elementwise, so its extra steps change no other lane, and
    its states past the stop are dropped.  The stopped lanes leave the
    lane arrays then, and the column bounds of the blocks are found again
    by one ``searchsorted`` (stopping keeps the lane order, so the blocks
    stay contiguous).

    The chunk's accepted states become their points and cells there, lane
    by lane, so the history holds (x, y) and a cell per point, not
    (x, y, p).  Lanes only ever stop, so the points of a lane in the chunk
    from step t0 go to the rows from ``bounds[lane] + t0`` on; they are
    written there after the loop, a chunk at a time, and each chunk is
    freed once it is written.
    """
    lane = np.arange(start.shape[1])
    counts = np.full(lane.size, NET_STEPS, dtype=np.int64)
    s = start
    sds = sign * ds
    # -NET_PMAX <= p <= NET_PMAX is |p| <= NET_PMAX, and false for nan
    lo3 = np.array([[lo[0]], [lo[1]], [-NET_PMAX]])
    hi3 = np.array([[hi[0]], [hi[1]], [NET_PMAX]])
    spans = _spans(lane, blocks)
    chunks = []
    with np.errstate(all="ignore"):
        for t0 in range(0, NET_STEPS, _CELL_CHUNK):
            if not lane.size:
                break
            T, L = min(_CELL_CHUNK, NET_STEPS - t0), lane.size
            states, steps, norms = np.empty((T, 3, L)), np.empty((T, 3, L)), np.empty((T, L))
            # the four stage slopes and the stage argument, contiguous for
            # the chunk's lanes (numpy is several times slower on a column
            # prefix of a wider buffer), and each step's h, h / 2 and h / 6
            k1, k2, k3, k4, u = np.empty((5, 3, L))
            h, hh, h6 = np.empty((3, L))
            live = [(field, slice(a, b)) for field, (a, b) in zip(fields, spans) if a < b]
            # the current state: each step makes its new state in x and
            # copies it into the chunk's states
            x = s.copy()
            # each stage's calls: a layer's field on its block of the stage
            # argument (x or u), written into its block of the slope
            calls = [
                [(field, a[0, c], a[1, c], a[2, c], k[:, c]) for field, c in live]
                for a, k in ((x, k1), (u, k2), (u, k3), (u, k4))
            ]

            def lifted(stage):
                for field, px, py, pp, kb in calls[stage]:
                    kb[0], kb[1], kb[2] = field(px, py, pp)

            for i in range(T):
                lifted(0)
                nrm = np.sqrt(np.vecdot(k1, k1, axis=0, out=norms[i]), out=norms[i])
                np.divide(sds, nrm, out=h)
                np.multiply(0.5, h, out=hh)
                np.add(x, np.multiply(hh, k1, out=u), out=u)
                lifted(1)
                np.add(x, np.multiply(hh, k2, out=u), out=u)
                lifted(2)
                np.add(x, np.multiply(h, k3, out=u), out=u)
                lifted(3)
                # (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), summed into k2
                step = np.add(k1, np.multiply(2.0, k2, out=k2), out=k2)
                step = np.add(step, np.multiply(2.0, k3, out=k3), out=step)
                step = np.add(step, k4, out=step)
                np.multiply(np.divide(h, 6.0, out=h6), step, out=steps[i])
                states[i] = np.add(x, steps[i], out=x)
            # stop tests 1 to 4 on every step of the chunk; a lane keeps
            # the states before its first failing step
            ok = ~(norms < 1e-12)
            ok &= ~(np.sqrt(np.vecdot(steps[:, :2], steps[:, :2], axis=1)) < 1e-10)
            ok &= ((lo3 <= states) & (states <= hi3)).all(axis=1)
            ok = np.logical_and.accumulate(ok, axis=0)
            n = ok.sum(axis=0)
            kept = states.transpose(1, 2, 0)[:, ok.T]
            chunks.append((t0, lane, n, kept[:2].copy(), cells(kept)))
            go = n == T
            s = states[-1][:, go]
            if not go.all():
                counts[lane[~go]] = t0 + n[~go]
                lane, sds = lane[go], sds[go]
                spans = _spans(lane, blocks)

    bounds = np.concatenate([[0], np.cumsum(counts)])
    xy = np.empty((2, bounds[-1]))
    cell = np.empty(bounds[-1], dtype=np.int32)
    # popped in step order, so each chunk is freed once it is written
    chunks.reverse()
    while chunks:
        t0, ids, n, points, point_cells = chunks.pop()
        rows = np.repeat(bounds[ids] + t0 - (np.cumsum(n) - n), n) + np.arange(n.sum())
        xy[:, rows], cell[rows] = points, point_cells
    return xy.T, cell, bounds


def _spans(lane: np.ndarray, blocks: np.ndarray) -> list[tuple[int, int]]:
    """The column slice of each block in the lane ids ``lane``, which are
    increasing."""
    edges = np.searchsorted(lane, blocks).tolist()
    return list(zip(edges[:-1], edges[1:]))
