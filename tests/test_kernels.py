"""Generated evaluators (codegen.py) against the guarded tree walk.

The tree walk ``helpers.evaluate`` takes integer powers from libm ``pow``
while the generated code multiplies (x**2 and x*x differ by one ulp on
about 0.08% of inputs), so agreement with it is checked to a tolerance.
Grid and pointwise results run the same operations and must be equal,
and so must the point functions run elementwise on arrays.
"""

from __future__ import annotations

import cProfile
import functools
import math
import pstats
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from finslerflow import berwald_moor as bm
from finslerflow import cli, codegen, flow
from finslerflow import expr as ex
from finslerflow import metric as mt
from finslerflow import singular as sg
from finslerflow.codegen import (
    LayerTable,
    _div,
    chart_step,
    dopri_step,
    lifted_field_function,
)

from helpers import (
    EvalDomainError,
    chart_rhs,
    dopri_step_reference,
    dopri_steps_reference,
    evaluate,
    heavier_cubic_metric,
    lifted_field_reference,
    random_poly_text,
    unrenamed_lines,
)

LAYERS = (
    "F", "F_x", "F_y",
    "denom", "denom_x", "denom_y",
    "numer", "numer_x", "numer_y",
)


def _table(texts):
    return LayerTable([ex.parse(t) for t in texts])


def _close(got, want):
    want = np.asarray(want, dtype=float)
    scale = 1.0 + np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-11 * scale)


def test_table_point_matches_tree():
    texts = ["-x", "x*y + 1", "y^2 - x^2", "0.5"]
    tbl = _table(texts)
    rng = np.random.default_rng(0)
    for _ in range(40):
        x, y = rng.uniform(-2, 2, 2)
        got = tbl.values_at(x, y)
        want = [evaluate(ex.parse(t), x, y) for t in texts]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def _p_derivative_row(c):
    """npoly.polyder of a row; of a constant, one +0.0 as
    codegen.p_derivative gives (npoly.polyder's 0 * c would carry the
    sign of c, and be nan at an infinite c)."""
    return npoly.polyder(c) if len(c) > 1 else np.zeros(1)


def test_fused_functions_are_horner_sums_of_rows(monkeypatch):
    texts = ["1 - x", "y", "x*y", "2"]
    tbl = _table(texts)
    horner = codegen.horner_function([tbl.exprs])
    rng = np.random.default_rng(1)
    for _ in range(40):
        x, y, p = rng.uniform(-1.5, 1.5, 3).tolist()
        c = tbl.values_at(x, y)
        acc = 0.0
        for v in c[::-1]:
            acc = acc * p + v
        assert horner(x, y, p) == (acc,)
    # a slope polynomial is its row: fdp_function's F, denom and numer are
    # npoly.polyval of their rows, and slope_rows_function's C, C_x, C_y
    # and C_p are npoly.polyval of the rows of C, C_x and C_y and of
    # npoly.polyder of C's, bit for bit, on random metrics and their
    # duals, at signed zeros, moderate slopes and slopes near 1e6
    names = ("F", "denom", "numer")
    for k in range(16):
        m = _random_metric(rng, 2 + k % 4, bool(k // 4 % 2))
        for mm in (m, m.dual()):
            fused = mm.slope_rows_function(names)
            for x, y in rng.uniform(-1.5, 1.5, (4, 2)).tolist():
                rows = [[mm.table(name + s).values_at(x, y) for s in ("", "_x", "_y")]
                        for name in names]
                big = 1e6 * rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
                for p in (0.0, -0.0, *rng.uniform(-3.0, 3.0, 2).tolist(), big):
                    want = [struct.pack("<d", npoly.polyval(p, r)) for c, cx, cy in rows
                            for r in (c, cx, cy, _p_derivative_row(c))]
                    assert [struct.pack("<d", v) for v in fused(x, y, p)] == want
                    got = mm.fdp_function(x, y, p)
                    assert [struct.pack("<d", v) for v in got] == want[::4]
                _assert_polyval_at_non_finite_slopes(mm, names, x, y)
    # metrics whose top coefficients are structural zeros: each Horner
    # sum starts at its first other coefficient, which is exact at every
    # slope; parabola.cfg's fdp is 17 lines, where the sums from the
    # highest coefficient took 21
    bodies = {}
    compile_function = codegen._function

    def captured(name, args, body, result):
        bodies[name] = body
        return compile_function(name, args, body, result)

    monkeypatch.setattr(codegen, "_function", captured)
    zero_tops = [
        mt.metric_from_strings(3, ["y^2 - x", "0", "1", "0"]),
        mt.metric_from_strings(5, ["1 - x*y", "y", "x^2 - 2", "0.5*x", "0", "0"]),
        mt.metric_from_strings(4, ["-x", "0", "1", "0", "0"]),
    ]
    for m in zero_tops:
        for mm in (m, m.dual()):
            fused, fdp = mm.slope_rows_function(names), mm.fdp_function
            for x, y in rng.uniform(-1.5, 1.5, (4, 2)).tolist():
                rows = [[mm.table(name + s).values_at(x, y) for s in ("", "_x", "_y")]
                        for name in names]
                for p in (0.0, -0.0, *rng.uniform(-3.0, 3.0, 2).tolist(), -1e6):
                    want = [struct.pack("<d", npoly.polyval(p, r)) for c, cx, cy in rows
                            for r in (c, cx, cy, _p_derivative_row(c))]
                    assert [struct.pack("<d", v) for v in fused(x, y, p)] == want
                    assert [struct.pack("<d", v) for v in fdp(x, y, p)] == want[::4]
                _assert_polyval_at_non_finite_slopes(mm, names, x, y)
    parabola = mt.metric_from_strings(3, ["y^2 - x", "0", "1", "0"])
    parabola.fdp_function
    assert len(bodies["fdp"]) == 17
    assert sum(line.startswith("h") and " = 0.0 * p + " in line for line in bodies["fdp"]) == 3


def _assert_polyval_at_non_finite_slopes(m, names, x, y):
    """slope_rows_function and fdp_function at slopes inf, -inf and nan
    are npoly.polyval of the rows, a nan matching any nan."""
    rows = [[m.table(name + s).values_at(x, y) for s in ("", "_x", "_y")] for name in names]
    for p in (math.inf, -math.inf, math.nan):
        with np.errstate(all="ignore"):
            want = [npoly.polyval(p, r) for c, cx, cy in rows
                    for r in (c, cx, cy, _p_derivative_row(c))]
        _assert_same_bits(m.slope_rows_function(names)(x, y, p), want)
        _assert_same_bits(m.fdp_function(x, y, p), want[::4])


def test_grid_evaluation_matches_pointwise():
    texts = ["x^2 - y", "x + y^3", "1/(x - y^5)", "2"]
    tbl = _table(texts)
    xs, ys = np.meshgrid(np.linspace(-1, 1, 17), np.linspace(-2, 2, 13))
    grid = tbl.values_on_grid(xs, ys)
    assert grid.shape == (4, 13, 17)
    for i in range(13):
        for j in range(17):
            np.testing.assert_array_equal(
                grid[:, i, j], tbl.values_at(xs[i, j], ys[i, j])
            )


def test_points_and_grids_run_one_generated_function(monkeypatch):
    # a layer evaluated at a point and on a grid of more than one chunk
    # compiles one function, the scalar lines, and no generated body
    # computes into an out= buffer
    m = mt.metric_from_strings(3, ["y^2 - x", "0.3*y/(1 + x^2)", "1 - x*y", "0.5*x"])
    tbl = m.table("numer")
    bodies = []
    compile_function = codegen._function

    def captured(name, args, body, result):
        bodies.append((name, body))
        return compile_function(name, args, body, result)

    monkeypatch.setattr(codegen, "_function", captured)
    xs = np.linspace(-1.0, 1.0, codegen._CHUNK + 5)
    grid = tbl.values_on_grid(xs, xs[::-1])
    for k in (0, codegen._CHUNK - 1, codegen._CHUNK, xs.size - 1):
        np.testing.assert_array_equal(grid[:, k], tbl.values_at(xs[k], xs[-1 - k]))
    assert [name for name, _ in bodies] == ["point_function"]
    # every other generated function is the same shape of code
    m.fdp_many(xs, xs, xs)
    field = lifted_field_function(*(m.table("F" + d).exprs for d in ("", "_x", "_y")))
    field(xs, xs, xs)
    assert [name for name, _ in bodies] == ["point_function", "fdp", "lifted_field"]
    assert not [line for _, body in bodies for line in body if "out=" in line]


def test_integer_powers():
    tbl = _table(["x^5", "y^3", "(x + y)^4", "x^-2", "y^0"])
    got = tbl.values_at(1.2, -0.7)
    np.testing.assert_allclose(
        got, [1.2**5, (-0.7) ** 3, 0.5**4, 1.2**-2, 1.0], rtol=1e-13
    )


def _random_metric(rng, degree: int, rational: bool) -> mt.PseudoFinslerMetric:
    texts = [random_poly_text(rng, int(rng.integers(1, 4))) for _ in range(degree)]
    if rational:
        texts[0] = f"({texts[0]})/(2 + x^2 + {rng.uniform(0.1, 0.9):.3f}*y)"
        texts[1] = f"{texts[1]} + 0.25/(3 - y)^2"
    texts.append(f"{rng.uniform(0.6, 1.8):.6f}")
    return mt.metric_from_strings(degree, texts)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize("rational", [False, True])
def test_random_metric_layers_match_tree_eval(degree, rational):
    rng = np.random.default_rng(100 * degree + rational)
    for _ in range(3):
        m = _random_metric(rng, degree, rational)
        pts = rng.uniform(-1.5, 1.5, (12, 3))
        for name in LAYERS:
            tbl = m.table(name)
            exprs = m._expr_layer(name)
            grid = tbl.values_on_grid(pts[:, 0], pts[:, 1])
            for k, (x, y, p) in enumerate(pts):
                got = tbl.values_at(x, y)
                want = [evaluate(e, x, y) for e in exprs]
                _close(got, want)
                np.testing.assert_array_equal(grid[:, k], got)
        # the fused sums against the tree walk's: (C, C_x, C_y, C_p) of F,
        # denom and numer, and fdp, which is their C's
        rows = m.slope_rows_function(("F", "denom", "numer"))
        for x, y, p in pts.tolist():
            fused = rows(x, y, p)
            sums = [v for k, v in enumerate(fused) if k % 4 != 3]
            for name, got in zip(LAYERS, sums):
                want = [evaluate(e, x, y) for e in m._expr_layer(name)]
                _close(got, sum(w * p**i for i, w in enumerate(want)))
            assert mt.fdp_values(m, x, y, p) == fused[::4]


def _structural_zeros(e, seen) -> list[ex.Expr]:
    """The nodes of e that add a Const 0, or multiply by a Const 0 or 1."""
    if id(e) in seen:
        return []
    seen.add(id(e))
    out = []
    if isinstance(e, (ex.Add, ex.Mul)):
        ones = (0.0, 1.0) if isinstance(e, ex.Mul) else (0.0,)
        if any(isinstance(v, ex.Const) and v.value in ones for v in (e.a, e.b)):
            out.append(e)
    for child in getattr(e, "__dict__", {}).values():
        if isinstance(child, ex.Expr):
            out += _structural_zeros(child, seen)
    return out


def _assert_folded(m, layers):
    for name in layers:
        seen = set()
        for e in m._expr_layer(name):
            assert _structural_zeros(e, seen) == [], name
            if isinstance(e, ex.Const) and e.value == 0.0:
                assert e is ex.ZERO and not math.copysign(1.0, e.value) < 0.0, name


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize("rational", [False, True])
def test_derived_layers_fold_structural_zeros(degree, rational):
    rng = np.random.default_rng(100 * degree + rational)
    for _ in range(3):
        # F is the parsed coefficients, kept as written
        _assert_folded(_random_metric(rng, degree, rational), LAYERS[1:])


def test_berwald_moor_metrics_fold_structural_zeros():
    imm = bm.SurfaceImmersion(("x", "y", "y - 2*x^2", "x + y"))
    alm = bm.adapted_from_immersion(bm.SurfaceImmersion(("x", "y", "y - 2*x^2")), 2, 1)
    # their coefficients are expanded products, derived trees as well
    for m in (bm.induced_metric(imm), bm.full_metric(alm)):
        _assert_folded(m, LAYERS)
    assert bm.full_metric(alm).coeffs == (ex.ZERO, ex.Mul(ex.Const(-4.0), ex.X), ex.ONE, ex.ZERO)


def test_pole_gives_inf_or_nan_without_exception():
    tbl = _table(["1/x", "-1/x", "x/x", "x^-2", "y/(x*x)"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tbl.values_at(0.0, 1.0)
        grid = tbl.values_on_grid(np.zeros(3), np.ones(3))
        horner = codegen.horner_function([tbl.exprs])(0.0, 1.0, 0.5)[0]
    assert got[0] == np.inf and got[1] == -np.inf
    assert np.isnan(got[2])
    assert got[3] == np.inf and got[4] == np.inf
    np.testing.assert_array_equal(grid, np.repeat(got[:, None], 3, axis=1))
    assert np.isnan(horner)
    with pytest.raises(EvalDomainError):
        evaluate(ex.parse("1/x"), 0.0, 1.0)


@pytest.mark.parametrize(
    "x, expected", [(1e150, np.inf), (-1e150, -np.inf)]
)
def test_power_overflow_gives_inf(x, expected):
    tbl = _table(["x^3", "x^4"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tbl.values_at(x, 0.0)
        grid = tbl.values_on_grid(np.array([x]), np.array([0.0]))
        horner = codegen.horner_function([[ex.parse("x^3")]])(x, 0.0, 0.7)[0]
    assert got[0] == expected and got[1] == np.inf
    np.testing.assert_array_equal(grid[:, 0], got)
    assert horner == expected


def test_constant_only_nodes_run_their_ieee_operation():
    # the parser folds constant subtrees; built raw, each node is a line
    # that gives the IEEE result when called, on floats and on arrays
    c = ex.Const
    tbl = LayerTable([ex.Div(c(1.0), c(0.0)), ex.Mul(c(1e300), c(1e300)), ex.Neg(c(0.0)),
                      ex.Pow(c(0.0), -1), ex.Div(c(0.0), c(0.0))])
    # 0.0**-1 is the line 1.0 / 0.0 itself
    assert len(tbl._code.lines) == 4
    xs = np.array([0.5, 0.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tbl.values_at(0.5, 1.0)
        on_arrays = tbl.point_function(xs, np.ones(3))
        grid = tbl.values_on_grid(xs, np.ones(3))
    _assert_same_bits(got, [math.inf, math.inf, -0.0, math.inf, math.nan])
    assert np.signbit(got[2])
    _assert_same_bits(on_arrays, got)
    for col in grid.T:
        _assert_same_bits(col, got)


def test_common_subexpressions_computed_once():
    e = ex.parse("(x*y + 1)^2")
    tbl = LayerTable([e, ex.add(e, ex.parse("x*y"))])
    # x*y, + 1, square, and the final sum
    assert len(tbl._code.lines) == 4
    assert tbl.values_at(2.0, 0.5)[1] == 5.0


def test_exact_identities_keep_signed_zero_inf_and_nan():
    tbl = _table(["x*1", "x/1", "x - 0", "x + 0", "0*x"])
    # x*1, x/1 and x + (-0.0) are x itself; x + 0.0 and 0*x are computed
    assert len(tbl._code.lines) == 2
    xs = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1.5])
    grid = tbl.values_on_grid(xs, np.zeros_like(xs))
    for k, x in enumerate(xs):
        with np.errstate(invalid="ignore"):
            want = np.array([x * 1.0, x / 1.0, x + -0.0, x + 0.0, 0.0 * x])
        for got in (tbl.values_at(x, 0.0), grid[:, k]):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize(
    "texts",
    [
        ["x*y - 0.3*y^2 + 0.5*x", "0.4*x - 0.2*y", "1 + 0.1*x*y", "0.2*x"],
        ["1/(x - 2) + y^3", "x^4", "-y", "x*y^2", "0.5"],
        # C_p of a one-coefficient layer is the constant 0.0, returned as its row
        ["-1"],
        ["-1", "0", "1"],
    ],
)
def test_lifted_field_matches_scalar_horner(texts):
    layer = [ex.parse(t) for t in texts]
    tables = [LayerTable(ex.diff(e, v) for e in layer) for v in "xy"]
    field = lifted_field_function(layer, tables[0].exprs, tables[1].exprs)
    rng = np.random.default_rng(4)
    x, y, p = rng.uniform(-1.5, 1.5, (3, 200))
    got = np.empty((3, x.size))
    got[0], got[1], got[2] = field(x, y, p)
    c = LayerTable(layer)
    for k in range(x.size):
        want = lifted_field_reference(
            c.values_at(x[k], y[k]),
            tables[0].values_at(x[k], y[k]),
            tables[1].values_at(x[k], y[k]),
            p[k],
        )
        np.testing.assert_array_equal(got[:, k], want)


def _bits(values) -> list[bytes]:
    # every nan alike: the sign a nan gets depends on which of the
    # interpreter's float paths (generic or specialized) computed it
    return [struct.pack("<d", v) if v == v else b"nan" for v in values]


def _smooth(u):
    d = len(u)
    return tuple(u[i] * u[(i + 1) % d] - 0.7 * u[i - 1] + 0.1 * i for i in range(d))


def _pole(u):
    # inf or nan wherever a stage crosses u_0 = 0.25
    return tuple(_div(1.0 + i, u[0] - 0.25) for i in range(len(u)))


def _non_finite(u):
    return tuple((math.inf, -math.inf, math.nan, 1.0)[: len(u)])


def _one_attempt_reference(rhs, u, h, rel_tol, abs_tol):
    """What the generated step returns after one attempt of length h from
    u at t = 0 with one attempt left, from dopri_step_reference and the
    controller of dopri_steps_reference."""
    unew, fnew, err = dopri_step_reference(rhs, u, rhs(u), h, rel_tol, abs_tol)
    if not math.isfinite(err) or not all(map(math.isfinite, unew)):
        return (flow.MAX_STEPS, h * 0.25)
    if err > 1.0:
        return (flow.MAX_STEPS, h * max(0.2, 0.9 * err ** -0.2))
    grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
    return (None, h, h * grow, 0, unew, fnew)


def _step_result_bits(res):
    # the floats and the tuples of a step's result as bits, the stop and
    # the attempts left as they are
    return [_bits(v if isinstance(v, tuple) else [v]) if isinstance(v, (float, tuple)) else v
            for v in res]


@pytest.mark.parametrize("d", [3, 4])
def test_dopri_step_matches_loop_reference(d):
    """One attempt of the generated step gives the loop reference's bits:
    the 5th-order solution (the last stage's argument itself) and its rhs
    where it is accepted, and the length it tries next, which the error
    norm sets; also on signed zeros, inf, nan, a rhs that leaves the
    floats and an error whose square overflows.  The random cases have
    tolerances that put the norm near 1, where the controller does not
    clamp the length it proposes.  Every case runs again at rel_tol 0 and
    abs_tol inf, where each error term is a zero and every attempt that
    stays finite is accepted, so the solution and its rhs are compared on
    all random states and on the signed-zero ones too."""
    step = dopri_step(d)
    assert dopri_step(d) is step
    rng = np.random.default_rng(30 + d)
    cases = []
    for _ in range(40):
        u = tuple(rng.normal(size=d).tolist())
        h = float(rng.uniform(1e-4, 0.05))
        err1 = dopri_step_reference(_smooth, u, _smooth(u), h, 1.0, 1.0)[2]
        tol = err1 / float(rng.uniform(0.05, 10.0))
        cases.append((_smooth, u, h, tol, tol))
    special = [
        (-0.0,) * d,
        (0.0, -0.0) + (1.0,) * (d - 2),
        (math.inf,) + (0.5,) * (d - 1),
        (0.5, math.nan) + (-0.0,) * (d - 2),
        (0.24,) + (1e300,) * (d - 1),
    ]
    for u in special:
        for rhs in (_smooth, _pole, _non_finite):
            cases.append((rhs, u, 0.05, 1e-10, 1e-12))
    # tiny tolerances: (e / sc)**2 overflows, the norm is inf and the
    # attempt is retried at a quarter of its length
    cases.append((_smooth, (1.0,) * d, 0.05, 1e-300, 1e-300))
    cases += [(rhs, u, h, 0.0, math.inf) for rhs, u, h, _, _ in cases]
    kinds, accepted = set(), set()
    for n, (rhs, u, h, rel_tol, abs_tol) in enumerate(cases):
        args = []

        def seen(v, rhs=rhs):
            args.append(v)
            return rhs(v)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = step(seen, rel_tol, abs_tol, math.inf, u, rhs(u), 0.0, h, 1)
        assert len(args) == 6
        want = _one_attempt_reference(rhs, u, h, rel_tol, abs_tol)
        if want[0] is None:
            assert got[4] is args[-1]
            kinds.add("accepted")
            accepted.add(n)
        else:
            assert got[3] == 0 and got[4:] == (None, None)
            got = got[:2]
            kinds.add("retried" if want[1] == h * 0.25 else "rejected")
        assert _step_result_bits(got) == _step_result_bits(want)
    assert kinds == {"accepted", "rejected", "retried"}
    # at the second tolerances: the 40 random states, and _smooth from
    # the two signed-zero states (each special state has three cases)
    n_first = len(cases) // 2
    assert set(range(n_first, n_first + 40)) | {n_first + 40, n_first + 43} <= accepted
    assert step(_smooth, 1e-300, 1e-300, math.inf, (1.0,) * d, _smooth((1.0,) * d),
                0.0, 0.05, 1)[:2] == (flow.MAX_STEPS, 0.05 * 0.25)


def test_chart_step_matches_dopri_step_on_the_chart_field():
    """Each chart's generated step gives the bits of dopri_step(3) driven
    by the chart's field function (helpers.chart_rhs): the stop, the
    lengths, the attempts left, unew and fnew, and its end values are fdp
    at unew.  On random metrics of degree 2-5 (half of them rational) and
    their duals, both signs, up to three attempts from states where fdp is
    inf or nan, all of them refused: poles at x or y = 3, an overflowing
    coordinate, inf and nan entries."""
    rng = np.random.default_rng(41)
    special = [
        (3.0, 0.5, 0.2), (0.5, 3.0, -0.3), (0.4, 2.9999, 1.1), (1e200, 0.5, 0.3),
        (math.inf, 0.2, 0.3), (0.5, math.nan, 0.1), (-0.0, 0.0, -0.0),
    ]
    refused = 0
    for chart in ("p", "q"):
        step = chart_step(chart)
        assert chart_step(chart) is step
        for k in range(16):
            m = _random_metric(rng, 2 + k % 4, bool(k // 4 % 2))
            for mm in (m, m.dual()):
                at = mm if chart == "p" else mm.dual()
                states = [tuple(rng.uniform(-1.5, 1.5, 3).tolist()) for _ in range(3)]
                for u in states + special:
                    h = float(rng.uniform(1e-4, 0.05))
                    for sign in (1.0, -1.0):
                        rhs = chart_rhs(mm, chart, sign)
                        fu = rhs(u)
                        want = dopri_step(3)(rhs, 1e-10, 1e-12, 0.05, u, fu, 0.0, h, 3)
                        with warnings.catch_warnings():
                            warnings.simplefilter("error")
                            got = step(at.fdp_function, sign, 1e-10, 1e-12, 0.05, u, fu, 0.0, h, 3)
                        assert _step_result_bits(got[:6]) == _step_result_bits(want)
                        if got[0] is not None:
                            assert got[6] is None
                            refused += u in special
                            continue
                        w = got[4] if chart == "p" else (got[4][1], got[4][0], got[4][2])
                        end = at.fdp_function(*w)
                        assert _bits(got[6]) == _bits(end)
    assert refused > 50


def _controller_run(step, u, fu, cfg):
    """The accepted steps (t, h, u0, f0, u1, f1) of a generated step run
    from u at t = 0 under cfg, and its stop and the time reached."""
    t, h_next, left, run = 0.0, flow.INITIAL_STEP, cfg.max_steps, []
    while True:
        stop, h, h_next, left, unew, fnew = step(u, fu, t, h_next, left)[:6]
        if stop is not None:
            return run, (stop, t)
        run.append((t, h, u, fu, unew, fnew))
        t += h
        u, fu = unew, fnew


def _reference_run(rhs, u, cfg):
    """_controller_run's results by helpers.dopri_steps_reference on
    dopri_step_reference."""
    gen = dopri_steps_reference(functools.partial(dopri_step_reference, rhs), u, rhs(u), cfg)
    run = []
    while True:
        try:
            run.append(next(gen)[:6])
        except StopIteration as end:
            return run, end.value


def _runs_bits(run):
    steps, (stop, t) = run
    return [[_bits([t, h]), _bits(u0), _bits(f0), _bits(u1), _bits(f1)]
            for t, h, u0, f0, u1, f1 in steps], stop, _bits([t])


def _leaves_the_floats(u):
    # a steady field that is nan from u_0 = 0.3 on
    return tuple(math.nan if u[0] >= 0.3 else 1.0 - 0.1 * i for i in range(len(u)))


def _blows_up(u):
    # du_0/dt = 1 / (0.3 - u_0): finite up to the pole, where steps shrink
    return tuple(_div(1.0, 0.3 - u[0]) * (1.0 + 0.5 * i) for i in range(len(u)))


def _fdp_leaving_the_floats(x, y, p):
    # (F, denom, numer) of a steady field that is nan from x = 0.3 on
    return (math.nan,) * 3 if x >= 0.3 else (0.0, 1.0, 0.2 * p)


@pytest.mark.parametrize("kernel", ["chart_step", "dopri_step_4"])
def test_generated_controller_matches_the_reference(kernel):
    """The controller that codegen writes into each step reproduces the
    reference generator (helpers.dopri_steps_reference) bit for bit: every
    accepted step (start, length, ends and fields), the stop and the time
    reached, and every field call, so every attempt's length, over whole
    runs with refused attempts, capped lengths, StepUnderflow where the
    field leaves the floats or blows up, and MaxSteps at small
    max_steps."""
    m = mt.metric_from_strings(3, ["y^2 - x", "0.3*y/(1 + x^2)", "1 - x*y", "0.5*x"])
    configs = [
        flow.IntegratorConfig(max_steps=300),
        flow.IntegratorConfig(rel_tol=1e-5, abs_tol=1e-7, max_step=0.3, max_steps=300),
        flow.IntegratorConfig(max_step=0.01, max_steps=150),
        flow.IntegratorConfig(max_steps=1),
        flow.IntegratorConfig(max_steps=7),
    ]

    def recorded(f, calls):
        def call(*args):
            calls.append(args)
            return f(*args)
        return call

    def chart_field(fdp, chart, sign):
        # helpers.chart_rhs on any fdp
        def rhs(v):
            _, d, n = fdp(*v) if chart == "p" else fdp(v[1], v[0], v[2])
            k = (sign * d, sign * (v[2] * d), sign * n)
            return k if chart == "p" else (k[1], k[0], k[2])
        return rhs

    def tm_rhs(u):
        h, h1, h2 = mt.accel_determinants(m, *u)
        return (u[2], u[3], _div(h1, h), _div(h2, h))

    if kernel == "chart_step":
        cases = [
            (fdp, chart, sign, u)
            for chart, fdp in (("p", m.fdp_function), ("q", m.dual().fdp_function))
            for sign, u in ((1.0, (-0.5, 0.1, 0.3)), (-1.0, (0.2, -0.4, -1.1)))
        ]
        cases += [(_fdp_leaving_the_floats, chart, 1.0, (0.0, 0.0, 0.5)) for chart in "pq"]
    else:
        cases = [(tm_rhs, (-0.5, 0.1, 1.0, 0.3)), (_leaves_the_floats, (0.0,) * 4),
                 (_blows_up, (0.0, 0.1, -0.2, 0.3))]
    stops, accepted, attempts = set(), 0, 0
    for case in cases:
        for cfg in configs:
            got_calls, want_calls = [], []
            controls = (cfg.rel_tol, cfg.abs_tol, cfg.max_step)
            if kernel == "chart_step":
                fdp, chart, sign, u = case
                step = functools.partial(
                    chart_step(chart), recorded(fdp, got_calls), sign, *controls
                )
                fu = chart_field(recorded(fdp, got_calls), chart, sign)(u)
                want_rhs = chart_field(recorded(fdp, want_calls), chart, sign)
            else:
                rhs, u = case
                step = functools.partial(dopri_step(4), recorded(rhs, got_calls), *controls)
                fu = recorded(rhs, got_calls)(u)
                want_rhs = recorded(rhs, want_calls)
            got = _controller_run(step, u, fu, cfg)
            want = _reference_run(want_rhs, u, cfg)
            assert _runs_bits(got) == _runs_bits(want)
            assert [_bits(_flat(a)) for a in got_calls] == [_bits(_flat(a)) for a in want_calls]
            stops.add(got[1][0])
            accepted += len(got[0])
            attempts += (len(got_calls) - 1) // 6
    assert stops == {flow.MAX_STEPS, flow.STEP_UNDERFLOW}
    assert attempts > accepted  # some attempts were refused


def _flat(args):
    return [v for a in args for v in (a if isinstance(a, tuple) else (a,))]


def _assert_same_bits(got, want):
    """Equal bit patterns, signed zeros and infinities included; a nan
    matches any nan (numpy's 0/0 sets the sign bit, math.nan does not)."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@functools.cache
def _array_bits_metrics():
    configs = Path(__file__).resolve().parents[1] / "configs"
    out = [cli.load_config(str(p)).metric_obj() for p in sorted(configs.glob("*.cfg"))]
    rng = np.random.default_rng(25)
    out += [_random_metric(rng, n, rational) for n in (2, 3, 4, 5) for rational in (False, True)]
    # a pole at x = 0: F = p^2 + 1/x
    out.append(mt.metric_from_strings(2, ["1/x", "0", "1"]))
    # a coefficient that overflows its products
    out.append(mt.metric_from_strings(3, ["1e300*x", "y", "x^2 - 1", "1"]))
    return out


@pytest.mark.parametrize("k", range(14))
def test_generated_functions_give_float_bits_on_arrays(k):
    # the scalar code run elementwise on arrays: fdp, the slope rows of F,
    # denom and numer, and every layer's coefficients, in both charts,
    # with no RuntimeWarning
    m = _array_bits_metrics()[k]
    rng = np.random.default_rng(k)
    xs = np.concatenate((rng.uniform(-1.5, 1.5, 40), [0.0, -0.0, 0.0, 1e200, np.inf, np.nan]))
    ys = np.concatenate((rng.uniform(-1.5, 1.5, 40), [0.3, 0.0, -0.0, 2.0, 1.0, 0.5]))
    ps = np.concatenate((rng.uniform(-3.0, 3.0, 40), [0.5, 0.0, -1e160, 0.7, 0.2, 1.0]))
    points = list(zip(xs.tolist(), ys.tolist(), ps.tolist()))
    for mm in (m, m.dual()):
        want = np.transpose([mm.fdp_function(x, y, p) for x, y, p in points])
        _assert_same_bits(mm.fdp_many(xs, ys, ps), want)
        rows = mm.slope_rows_function(("F", "denom", "numer"))
        want = np.transpose([rows(x, y, p) for x, y, p in points])
        _assert_same_bits(codegen.on_arrays(12, rows, xs, ys, ps), want)
        for name in LAYERS:
            tbl = mm.table(name)
            want = np.transpose([tbl.point_function(x, y) for x, y, _ in points])
            _assert_same_bits(tbl.values_on_grid(xs, ys), want.reshape(tbl.n, -1))


def test_temporaries_reuse_names_with_the_unrenamed_bits():
    # the heavier cubic's numer: a dead temporary's name is taken by the
    # next target, the roots keep theirs, and floats and arrays give the
    # bits of the lines that keep every value number
    code = heavier_cubic_metric().table("numer")._code
    body = code.scalar_lines()
    targets = [line.split(" = ")[0] for line in body]
    assert len(code.lines) == 149 and len(set(targets)) <= 30
    roots = [r for r in code.roots if isinstance(r, str)]
    assert all(targets.count(r) == 1 for r in roots)
    result = "(" + ", ".join(codegen._atom(r) for r in code.roots) + ",)"
    renamed = codegen._function("numer", "x, y", body, result)
    plain = codegen._function("numer", "x, y", unrenamed_lines(code), result)
    rng = np.random.default_rng(31)
    xs = np.concatenate((rng.uniform(-1.5, 1.5, 300), [0.0, -0.0, 1e200, np.inf, np.nan]))
    ys = np.concatenate((rng.uniform(-1.5, 1.5, 300), [-0.0, 0.0, 3.0, 1.0, 0.5]))
    for x, y in zip(xs.tolist(), ys.tolist()):
        _assert_same_bits(renamed(x, y), plain(x, y))
    with np.errstate(all="ignore"):
        _assert_same_bits(renamed(xs, ys), plain(xs, ys))


def test_generated_functions_have_their_own_names():
    # each kind of generated function is its own (file, name) pair, so a
    # profile does not merge the chart steps, fdp and the layer functions
    m = mt.metric_from_strings(3, ["y^2 - x", "0", "1", "0"])
    tbl = m.table("F")
    functions = [
        dopri_step(3), dopri_step(4), chart_step("p"), chart_step("q"), m.fdp_function,
        tbl.point_function, m.slope_rows_function(("denom", "numer")),
        lifted_field_function(*(m.table("F" + d).exprs for d in ("", "_x", "_y"))),
    ]
    keys = {(f.__code__.co_filename, f.__code__.co_name) for f in functions}
    assert len(keys) == len(functions)
    profile = cProfile.Profile()
    profile.runcall(flow.integrate, m, flow.PTMPoint(-0.5, 0.0, 0.3))
    listed = set(pstats.Stats(profile).stats)
    assert ("<finslerflow chart_step_p>", 1, "chart_step_p") in listed
    assert ("<finslerflow fdp>", 1, "fdp") in listed
    profile = cProfile.Profile()
    profile.runcall(sg.jacobian_at, m, 0.1, 0.2, 0.3)
    assert ("<finslerflow slope_rows>", 1, "slope_rows") in set(pstats.Stats(profile).stats)


def test_division_on_floats_and_arrays():
    # a zero divisor gives the IEEE result on floats as numpy gives it on
    # arrays
    a = [1.0, -1.0, 0.0, math.nan, 2.5, -0.0]
    b = [0.0, -0.0, 0.0, 0.0, -4.0, 3.0]
    with np.errstate(divide="ignore", invalid="ignore"):
        got = _div(np.array(a), np.array(b))
    _assert_same_bits(got, [_div(x, y) for x, y in zip(a, b)])
    assert _div(1.0, -0.0) == -math.inf and math.isnan(_div(0.0, 0.0))
