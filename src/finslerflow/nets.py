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
advance together in one loop of lockstep rounds; the state is held as
(3, L) rows, and the lanes of each layer form one contiguous block of
columns, in the order of the layers.

Each round tries one Bogacki-Shampine 3(2) step on every lane (Hairer,
Norsett & Wanner, Solving ODEs I, II.4; Bogacki & Shampine, Appl. Math.
Lett. 2 (1989) 321-325).  The slope at the step's end is the next step's
first (FSAL), so a round calls each layer's field three times, on the
column slice of its block.  Each lane carries its own step length ds in
(x, y, p) arclength, starting from ds0 = diag / 500, and the step's
parameter length is ds over the norm of the field at its start.  The
difference of the 3rd- and 2nd-order solutions, in canvas pixels of the
NET_CANVAS_PX plot area of the box, is the step's error; the step is
accepted when the error is at most

    min(NET_TOL_PX, max(NET_TOL_REL * chord, NET_TOL_FLOOR_PX)),

where chord is the step's own xy chord in pixels, or when the error is
not finite (the lane's new state then stops it below).  After the round
ds becomes ds * 0.9 (tol / err)^(1/3), the factor clipped to [0.2, 5]
and, after a rejected step, to at most 1; ds never exceeds two cells of
the curve selection below.  A rejected lane keeps its state and retries
at its smaller ds in the next round.

A lane stops on the first of these tests that fails, and the step that
fails it is dropped (STOP_REASONS names the codes):

1. rest: the field's norm at the state is below 1e-12;
2. no progress: an accepted step's chord is below 1e-8 px;
3. non-finite: an accepted step's state is not finite;
4. box: the state is outside the box padded by 2 % of its width on each
   side;
5. |p|: |p| > NET_PMAX (the direction turned vertical in this chart);
6. arclength cap: the lane's accepted ds add up to more than
   NET_STEPS * ds0, the reach of NET_STEPS steps of ds0;
7. step underflow: a rejected step leaves ds below ds0 * 1e-6;
8. round cap: the lane has run NET_STEPS rounds.

Near a pole of a coefficient the lane stops there, and the other lanes,
of its layer or another, go on as if it had never run.

The rounds run in chunks of 32 (_CELL_CHUNK), and within a chunk the
lane set is fixed: a round runs only the three stages and the step
control, and writes the new states, the field norm, the chord, the
acceptance, ds and the arclength into the chunk's buffers.  The stop
tests run once at the chunk's end, on all its rounds at once, and a
lane's rounds end at its first failing test.  A lane that stops inside a
chunk is carried to the chunk's end, as every operation is elementwise,
and its rounds past the stop are dropped; so up to its stop each lane
runs the float operations it would run alone.  The stopped lanes leave
the lane arrays once per chunk, and the chunk's accepted steps are laid
out there, lane by lane, as their end points and the cells they mark.

Curves are then chosen per layer by replaying its seeds in y-major, then
x, then root order.  Each accepted step marks the cells (x, y, arctan p)
of points along its chord, at most one cell apart, its end included; a
seed whose own cell is already marked by an earlier curve of its layer
is skipped, and otherwise its backward and forward lanes are joined into
one curve and mark their cells.  The marks of one lane never affect the
lane itself, so tracing every lane first and replaying the choice
afterwards selects the same curves as tracing seed by seed.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import metric as mt
from . import poly
from .codegen import lifted_field_function

# rounds a lane runs at most; NET_STEPS steps of the first ds are its reach
NET_STEPS = 900
NET_SEED_AXIS = 11
NET_PMAX = 40.0
# the plot area of a portrait canvas in px (cli._SvgCanvas: 640 px less
# two 40 px margins), the unit of the step error
NET_CANVAS_PX = 560.0
# a step is accepted when its error in px is at most
# min(NET_TOL_PX, max(NET_TOL_REL * its chord in px, NET_TOL_FLOOR_PX))
NET_TOL_PX = 1e-3
NET_TOL_REL = 1e-4
NET_TOL_FLOOR_PX = 1e-6
# rounds run between two passes of the stop tests, lane compaction and
# point layout
_CELL_CHUNK = 32

# the Bogacki-Shampine 3(2) pair: stage nodes 1/2 and 3/4, the weights of
# the 3rd-order step and the error weights (3rd-order less 2nd-order, the
# last on the slope at the step's end)
_BS_B = (2 / 9, 1 / 3, 4 / 9)
_BS_E = (2 / 9 - 7 / 24, 1 / 3 - 1 / 4, 4 / 9 - 1 / 3, -1 / 8)

# why a lane stopped: _Lanes.stops holds indices into this tuple
STOP_REASONS = (
    "rest",
    "no progress",
    "non-finite",
    "box",
    "|p|",
    "arclength cap",
    "step underflow",
    "round cap",
)
(_REST, _NO_PROGRESS, _NON_FINITE, _BOX, _PMAX, _ARCLENGTH, _UNDERFLOW, _ROUND_CAP) = range(
    len(STOP_REASONS)
)


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
    scale = (NET_CANVAS_PX / (box[1] - box[0]), NET_CANVAS_PX / (box[3] - box[2]))

    fields = [
        lifted_field_function(*(m.table(layer + d).exprs for d in ("", "_x", "_y")))
        for layer in layers
    ]
    # in the block of a layer, lane 2k runs its seed k forward, 2k + 1 backward
    blocks = np.concatenate([[0], np.cumsum([2 * len(s) for s in seed_sets])])
    start = np.repeat(np.concatenate(seed_sets), 2, axis=0).T.copy()
    sign = np.tile([1.0, -1.0], start.shape[1] // 2)
    lanes = _trace_lanes(fields, blocks, start, sign, ds, lo, hi, cells, scale)
    xy, bounds, marks, mark_bounds = lanes.xy, lanes.bounds, lanes.marks, lanes.mark_bounds

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
            m0, m1 = mark_bounds[[first + 2 * k, first + 2 * k + 2]]
            visited[marks[m0:m1]] = True
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
    """Flat index of the cell of each column (x, y, p) of a (3, M) array
    of states, or of points given by x, y and the angle arctan p.

    A cell is 1/150 of the longer box side in x and y and 1/24 of a half
    turn (``ANGLE``) in arctan p.  Every state a lane accepts lies in the
    padded box with |p| <= NET_PMAX, and so does every point on the chord
    between two of them, so the cells of its corners bound the index.
    """

    ANGLE = np.pi / 24

    def __init__(self, box, lo, hi):
        self.box = box
        self.cell = max(box[1] - box[0], box[3] - box[2]) / 150.0
        corners = np.arctan([-NET_PMAX, NET_PMAX])
        self.first, last = self._keys(np.array([lo[0], hi[0]]), np.array([lo[1], hi[1]]), corners).T
        self.dims = tuple(last - self.first + 1)
        self.size = int(np.prod(self.dims))

    def _keys(self, x: np.ndarray, y: np.ndarray, angle: np.ndarray) -> np.ndarray:
        return np.array(
            [
                np.floor((x - self.box[0]) / self.cell),
                np.floor((y - self.box[2]) / self.cell),
                np.floor((angle + np.pi / 2) / self.ANGLE),
            ]
        ).astype(np.int64)

    def at(self, x: np.ndarray, y: np.ndarray, angle: np.ndarray) -> np.ndarray:
        keys = self._keys(x, y, angle) - self.first[:, None]
        # a chord's end, a + (b - a) * 1, may round past b by an ulp
        return np.ravel_multi_index(tuple(keys), self.dims, mode="clip").astype(np.int32)

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return self.at(s[0], s[1], np.arctan(s[2]))

    def chord_marks(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cells marked by the chords from the columns of ``a`` to
        those of ``b``, (3, K) states, and the number of marks of each.

        A chord of n = ceil(its largest extent in cells), at least 1,
        marks the cells of the points a + (b - a) (j / n), j = 1 .. n, in
        (x, y, arctan p), so two marks are at most one cell apart.
        """
        angle_a, angle_b = np.arctan(a[2]), np.arctan(b[2])
        d = np.array([b[0] - a[0], b[1] - a[1], angle_b - angle_a])
        extent = np.maximum(np.abs(d[0]) / self.cell, np.abs(d[1]) / self.cell)
        extent = np.maximum(extent, np.abs(d[2]) / self.ANGLE)
        n = np.maximum(np.ceil(extent), 1.0).astype(np.int64)
        chord = np.repeat(np.arange(n.size), n)
        t = (np.arange(chord.size) - np.repeat(np.cumsum(n) - n, n) + 1) / n[chord]
        return (
            self.at(
                a[0, chord] + d[0, chord] * t,
                a[1, chord] + d[1, chord] * t,
                angle_a[chord] + d[2, chord] * t,
            ),
            n,
        )


class _Lanes(NamedTuple):
    """What ``_trace_lanes`` traced, lane by lane."""

    # (M, 2) accepted points; lane k's are rows bounds[k] .. bounds[k + 1] - 1
    xy: np.ndarray
    bounds: np.ndarray
    # int32 marked cells; lane k's are mark_bounds[k] .. mark_bounds[k + 1] - 1
    marks: np.ndarray
    mark_bounds: np.ndarray
    # why each lane stopped, an index into STOP_REASONS
    stops: np.ndarray
    # the rounds each lane ran, its stopping round included
    rounds: np.ndarray


def _trace_lanes(fields, blocks, start, sign, ds0, lo, hi, cells, scale) -> _Lanes:
    """Bogacki-Shampine 3(2) steps with a step length per lane, on all
    lanes in lockstep rounds until each one stops.

    ``start`` holds the (3, L) start states of the lanes, ``sign`` their
    directions and ``ds0`` the first step length; lanes ``blocks[j]`` to
    ``blocks[j + 1] - 1`` run along ``fields[j]``, a lifted field
    (x, y, p) -> its three rows on arrays, each row an array or a
    constant.  ``scale`` is px per unit in x and y, ``cells`` the
    ``_CellIndex`` whose cells the steps mark.  Start states are not among
    the points.

    The rounds run in chunks of _CELL_CHUNK, and the lane set is fixed
    within a chunk.  The chunk's states are one (T + 1, 3, L) history,
    row 0 the state at its start and row i + 1 the state after round i
    (the state before it, if its step was rejected); the field norm, the
    chord, the acceptance, ds and the arclength after each round go into
    (T, L) buffers.  The stage slopes and arguments are buffers for the
    chunk's lanes, and each stage's calls on the column views of each
    layer's block in them are listed once per chunk.  The slope at the
    state, k1, is carried from round to round: an accepted step takes the
    slope at its end.

    At the chunk's end the stop tests run once on the stacked arrays, and
    a lane's rounds end at its first failing test.  A lane that stops
    inside a chunk is carried to its end: the lanes are independent
    elementwise, so its extra rounds change no other lane, and they are
    dropped.  The stopped lanes leave the lane arrays then, and the
    column bounds of the blocks are found again by one ``searchsorted``
    (stopping keeps the lane order, so the blocks stay contiguous).  The
    chunk's accepted steps become their end points and marked cells
    there, lane by lane, and each lane's count of them is added to its
    running count, which places them: they are written into the result
    after the loop, a chunk at a time, and each chunk is freed once it is
    written.
    """
    n_lanes = start.shape[1]
    lane = np.arange(n_lanes)
    stops = np.full(n_lanes, _ROUND_CAP, dtype=np.int8)
    rounds = np.full(n_lanes, NET_STEPS, dtype=np.int64)
    n_points = np.zeros(n_lanes, dtype=np.int64)
    n_marks = np.zeros(n_lanes, dtype=np.int64)
    reach, ds_min, ds_max = NET_STEPS * ds0, ds0 * 1e-6, 2.0 * cells.cell
    to_px = np.array(scale, dtype=float)[:, None]
    lo2, hi2 = np.array(lo)[:, None], np.array(hi)[:, None]
    spans = _spans(lane, blocks)
    s = start
    ds = np.full(n_lanes, ds0)
    arc = np.zeros(n_lanes)
    k1 = np.empty_like(start)
    chunks = []
    with np.errstate(all="ignore"):
        for field, (a, b) in zip(fields, spans):
            k1[0, a:b], k1[1, a:b], k1[2, a:b] = field(s[0, a:b], s[1, a:b], s[2, a:b])
        for t0 in range(0, NET_STEPS, _CELL_CHUNK):
            if not lane.size:
                break
            T, L = min(_CELL_CHUNK, NET_STEPS - t0), lane.size
            hist = np.empty((T + 1, 3, L))
            hist[0] = s
            norms, chords, dss, arcs = np.empty((4, T, L))
            accepted = np.empty((T, L), dtype=bool)
            # the stage slopes, the stage argument u (which then holds the
            # step), the step's end and a temporary, contiguous for the
            # chunk's lanes (numpy is several times slower on a column
            # prefix of a wider buffer)
            k2, k3, k4, u, end, tmp = np.empty((6, 3, L))
            err, e2 = np.empty((2, 2, L))
            h, hs, tol, fac = np.empty((4, L))
            rejected = np.empty(L, dtype=bool)
            live = [(field, slice(a, b)) for field, (a, b) in zip(fields, spans) if a < b]
            # each stage's calls: a layer's field on its block of the stage
            # argument, written into its block of the slope
            calls = [
                [(field, a[0, c], a[1, c], a[2, c], k[:, c]) for field, c in live]
                for a, k in ((u, k2), (u, k3), (end, k4))
            ]

            def lifted(stage):
                for field, px, py, pp, kb in calls[stage]:
                    kb[0], kb[1], kb[2] = field(px, py, pp)

            for i in range(T):
                x = hist[i]
                nrm = np.sqrt(np.vecdot(k1, k1, axis=0, out=norms[i]), out=norms[i])
                np.divide(np.multiply(sign, ds, out=h), nrm, out=h)
                np.add(x, np.multiply(np.multiply(0.5, h, out=hs), k1, out=u), out=u)
                lifted(0)
                np.add(x, np.multiply(np.multiply(0.75, h, out=hs), k2, out=u), out=u)
                lifted(1)
                # the step h (2/9 k1 + 1/3 k2 + 4/9 k3), made in u
                step = np.multiply(_BS_B[0], k1, out=u)
                np.add(step, np.multiply(_BS_B[1], k2, out=tmp), out=step)
                np.add(step, np.multiply(_BS_B[2], k3, out=tmp), out=step)
                np.multiply(h, step, out=step)
                np.add(x, step, out=end)
                lifted(2)
                # the error h sum_j E_j k_j in x and y, in px
                np.multiply(_BS_E[0], k1[:2], out=err)
                for ej, kj in zip(_BS_E[1:], (k2, k3, k4)):
                    np.add(err, np.multiply(ej, kj[:2], out=e2), out=err)
                np.multiply(to_px, np.multiply(h, err, out=err), out=err)
                e = np.hypot(err[0], err[1], out=hs)
                chord = np.hypot(*np.multiply(to_px, step[:2], out=e2), out=chords[i])
                np.minimum(
                    np.maximum(np.multiply(NET_TOL_REL, chord, out=tol), NET_TOL_FLOOR_PX, out=tol),
                    NET_TOL_PX,
                    out=tol,
                )
                # a non-finite error is accepted
                np.logical_and(np.greater(e, tol, out=rejected), np.isfinite(e), out=rejected)
                acc = np.logical_not(rejected, out=accepted[i])
                # the next ds: ds 0.9 (tol / err)^(1/3), the factor in
                # [0.2, 5], and at most 1 after a rejection
                np.multiply(0.9, np.cbrt(np.divide(tol, e, out=fac), out=fac), out=fac)
                np.maximum(np.minimum(fac, 5.0, out=fac), 0.2, out=fac)
                np.minimum(fac, 1.0, out=fac, where=rejected)
                np.add(arc, ds, out=arcs[i])
                np.copyto(arcs[i], arc, where=rejected)
                arc = arcs[i]
                ds = np.minimum(np.multiply(ds, fac, out=dss[i]), ds_max, out=dss[i])
                np.copyto(hist[i + 1], x)
                np.copyto(hist[i + 1], end, where=acc)
                np.copyto(k1, k4, where=acc)

            # the stop code of each round, -1 if it passed every test; a
            # code set later has the higher priority, and comparisons with
            # nan are false
            states = hist[1:]
            inside = ((lo2 <= states[:, :2]) & (states[:, :2] <= hi2)).all(axis=1)
            code = np.where(~accepted & (dss < ds_min), _UNDERFLOW, -1).astype(np.int8)
            code[accepted & (arcs > reach)] = _ARCLENGTH
            code[accepted & ~(np.abs(states[:, 2]) <= NET_PMAX)] = _PMAX
            code[accepted & ~inside] = _BOX
            code[accepted & ~np.isfinite(states).all(axis=1)] = _NON_FINITE
            code[accepted & (chords < 1e-8)] = _NO_PROGRESS
            code[norms < 1e-12] = _REST
            ok = np.logical_and.accumulate(code < 0, axis=0)
            n = ok.sum(axis=0)
            # the accepted steps before each lane's stop, lane by lane
            kept = (ok & accepted).T
            traced = hist.transpose(1, 2, 0)
            a, b = traced[:, :, :-1][:, kept], traced[:, :, 1:][:, kept]
            marks, per_step = cells.chord_marks(a, b)
            per_round = np.zeros((L, T), dtype=np.int64)
            per_round[kept] = per_step
            steps, marked = kept.sum(axis=1), per_round.sum(axis=1)
            chunks.append((lane, n_points[lane], steps, b[:2].copy(), n_marks[lane], marked, marks))
            n_points[lane] += steps
            n_marks[lane] += marked
            go = n == T
            s = hist[-1][:, go]
            if not go.all():
                stopped = ~go
                stops[lane[stopped]] = code[n[stopped], stopped]
                rounds[lane[stopped]] = t0 + n[stopped] + 1
                lane, sign, k1 = lane[go], sign[go], k1[:, go]
                ds, arc = ds[go], arc[go]
                spans = _spans(lane, blocks)

    bounds = np.concatenate([[0], np.cumsum(n_points)])
    mark_bounds = np.concatenate([[0], np.cumsum(n_marks)])
    xy = np.empty((2, bounds[-1]))
    cell = np.empty(mark_bounds[-1], dtype=np.int32)
    # popped in round order, so each chunk is freed once it is written
    chunks.reverse()
    while chunks:
        ids, p0, steps, points, m0, marked, marks = chunks.pop()
        xy[:, _rows(bounds[ids] + p0, steps)] = points
        cell[_rows(mark_bounds[ids] + m0, marked)] = marks
    return _Lanes(xy.T, bounds, cell, mark_bounds, stops, rounds)


def _rows(first: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The rows first[k] .. first[k] + n[k] - 1 of every k, in order."""
    return np.repeat(first - (np.cumsum(n) - n), n) + np.arange(n.sum())


def _spans(lane: np.ndarray, blocks: np.ndarray) -> list[tuple[int, int]]:
    """The column slice of each block in the lane ids ``lane``, which are
    increasing."""
    edges = np.searchsorted(lane, blocks).tolist()
    return list(zip(edges[:-1], edges[1:]))
