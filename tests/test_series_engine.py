"""The value-numbered series engine against the tree-walk reference
(tests/helpers.py), where every series, coefficient and report row must
agree exactly, and against a sympy expansion of the residual; a count of
exact products pins the work of a solve."""

from __future__ import annotations

import gc
import random
from fractions import Fraction

import pytest
import sympy

from finslerflow import berwald_moor as bm
from finslerflow import expr as ex
from finslerflow import metric as mt
from finslerflow import puiseux as pz
from finslerflow.puiseux import TruncatedSeries

from helpers import (Jet, plan_expr_series, quartic_product_metric, to_sympy,
                     tree_expr_series, tree_geodesic_series)

FIELDS = ("coeffs", "rows", "offset", "norm", "residual_order", "obstructed",
          "obstruction_order")
Y_METRICS = [("x*y", "-4*x + y^2", "1", "0"), ("y^2", "-4*x", "1 + y/(1 + x)", "0")]


def random_tree(rng, depth, pool):
    """A random expression built from the node classes themselves (no
    constant folding), reusing earlier subtrees from ``pool``."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.15:
        leaf = rng.choice(["x", "y", "c"])
        if leaf == "c":
            return ex.Const(rng.choice([0.0, 1.0, -2.0, 0.8, 3.5, -0.25]))
        return ex.Var(leaf)
    kind = rng.choice(["+", "*", "/", "-", "^"])
    a = random_tree(rng, depth - 1, pool)
    if kind == "-":
        out = ex.Neg(a)
    elif kind == "^":
        out = ex.Pow(a, rng.choice([-2, -1, 0, 2, 3]))
    else:
        b = random_tree(rng, depth - 1, pool)
        out = {"+": ex.Add, "*": ex.Mul, "/": ex.Div}[kind](a, b)
    pool.append(out)
    return out


def random_series(rng, order, jets=False):
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(order + 1)]
    coeffs[0] = Fraction(rng.choice([1, -2, 3]), rng.randint(1, 3))
    if jets:
        coeffs = [Jet(v, Fraction(rng.randint(-2, 2), 3)) for v in coeffs]
    return TruncatedSeries(coeffs)


def outcome(fn, *args):
    try:
        out = fn(*args)
    except ZeroDivisionError:
        return "ZeroDivisionError"
    return out.order, out.c


@pytest.mark.parametrize("jets", [False, True])
def test_random_trees_match_tree_walk(jets):
    rng = random.Random(7 if jets else 5)
    raised = 0
    for _ in range(60):
        e = random_tree(rng, 5, [])
        xs = random_series(rng, rng.randint(2, 6))
        ys = random_series(rng, rng.randint(2, 6), jets)
        want = outcome(tree_expr_series, e, xs, ys)
        assert outcome(plan_expr_series, e, xs, ys) == want
        raised += want == "ZeroDivisionError"
    assert raised < 30  # most trees evaluate


def test_operand_order_is_kept():
    # a/b and b/a share operands but not a value
    xs = TruncatedSeries([2, 1, 0, -1, 3])
    ys = TruncatedSeries([-3, Fraction(1, 2), 2, 0, 1])
    for text in ("x/y - y/x", "x^2/(1 + y) + (1 + y)/x^2"):
        e = ex.parse(text)
        assert plan_expr_series(e, xs, ys).c == tree_expr_series(e, xs, ys).c


def test_zero_constant_divisor_raises():
    xs = TruncatedSeries.monomial(3, 1, 8)
    ys = TruncatedSeries.constant(1, 8)
    with pytest.raises(ZeroDivisionError):
        plan_expr_series(ex.parse("1/x"), xs, ys)
    m = mt.metric_from_strings(3, ["1/x", "-4*x", "1", "0"])
    with pytest.raises(ZeroDivisionError):
        pz.solve_geodesic_series(m, 3, {3: 2}, 12)


def assert_same_solve(m, *args, **kwargs):
    got = pz.solve_geodesic_series(m, *args, **kwargs)
    want = tree_geodesic_series(m, *args, **kwargs)
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    return got


@pytest.mark.parametrize("seed,free", [({3: 2}, None), ({3: 2}, {4: Fraction(3, 7)}),
                                       ({3: 5}, None)])
def test_product_metric_solves_match(seed, free):
    assert_same_solve(quartic_product_metric(), 3, seed, 12, free=free)


@pytest.mark.parametrize("comps", [("x", "y", "y - 2*x^2"),
                                   ("x", "y", "y - 2*x^2", "x + y")])
def test_adapted_metric_solves_match(comps):
    alm = bm.adapted_from_immersion(bm.SurfaceImmersion(comps), 2, 1)
    m = bm.full_metric(alm)
    u1 = bm.admissible_u(alm)[1]
    for order, free in ((12, Fraction(1, 3)), (14, Fraction(-2, 5))):
        assert_same_solve(m, alm.n, {alm.n: u1}, order, free={2 * alm.n - 2: free})


def test_y_dependent_metrics_back_to_back():
    # the second metric's trees may reuse the ids of the first one's
    for texts in Y_METRICS:
        m = mt.metric_from_strings(3, list(texts))
        sol = assert_same_solve(m, 3, {3: 2}, 12, free={4: Fraction(3, 7)})
        assert not sol.obstructed
        del m, sol
        gc.collect()


def test_product_metric_matches_at_order_24():
    assert_same_solve(quartic_product_metric(), 3, {3: 2}, 24, free={4: Fraction(3, 7)})


def random_cubic(rng):
    """F = a0 + a1 p + a2 p^2 + a3 p^3 with a_i random quadratics in x and
    y (coefficients k/4), a base height y0 where the degeneracy
    polynomial's constant term D0 is nonzero, and D0 and N0 there."""
    terms = ["x", "y", "x^2", "x*y", "y^2"]
    zero = TruncatedSeries.constant(0, 0)
    while True:
        texts = [" + ".join([str(rng.randint(-4, 4) / 4) if i < 3 else "1"]
                            + [f"{rng.randint(-8, 8) / 4}*{t}" for t in terms
                               if rng.random() < 0.5])
                 for i in range(4)]
        m = mt.metric_from_strings(3, texts)
        y0 = Fraction(rng.randint(-2, 2), 2)
        base = TruncatedSeries.constant(y0, 0)
        d0, n0 = (tree_expr_series(m._expr_layer(name)[0], zero, base).c[0]
                  for name in ("denom", "numer"))
        if d0 != 0:
            return m, y0, d0, n0


@pytest.mark.parametrize("seed", range(10))
def test_random_cubic_solves_match(seed):
    # a regular base point: with s = 1 the seed a1 = N0/D0 clears the
    # leading balance and every later order is FORCED; with s = 2 the
    # seed a2 = N0/D0 + 1/2 obstructs at the first order
    m, y0, d0, n0 = random_cubic(random.Random(100 + seed))
    sol = assert_same_solve(m, 1, {1: n0 / d0}, 8, y0=y0)
    assert not sol.obstructed and {r.status for r in sol.rows} == {"FORCED"}
    sol = assert_same_solve(m, 2, {2: n0 / d0 + Fraction(1, 2)}, 8, y0=y0)
    assert sol.obstructed and sol.obstruction_order == 1


@pytest.mark.parametrize("texts,free,order", [
    (("0", "-4*x", "1", "0"), {4: Fraction(1)}, 14),
    (("x*y", "-4*x + y^2", "1", "0"), {4: Fraction(3, 7)}, 12),
])
def test_solved_series_clears_the_residual_exactly(texts, free, order):
    # independent of the series engine: expand D(p) dp/dt - N(p) dx/dt
    # with sympy polynomials in t, from the solved coefficients alone
    m = mt.metric_from_strings(3, list(texts))
    sol = pz.solve_geodesic_series(m, 3, {3: 2}, order, free=free)
    assert not sol.obstructed and sol.coeffs[4] == free[4]
    t = sympy.Symbol("t")
    p = sympy.Poly(sum(sympy.Rational(v) * t**i for i, v in sol.coeffs.items()),
                   t, domain="QQ")
    x = sympy.Poly(t**3, t, domain="QQ")
    y = (p * x.diff(t)).integrate()  # y0 = 0

    def layer(name):
        out = sympy.Poly(0, t, domain="QQ")
        for i, e in enumerate(m._expr_layer(name)):
            out += to_sympy(e, x, y) * p**i
        return out

    r = layer("denom") * p.diff(t) - layer("numer") * x.diff(t)
    top = order + sol.offset
    assert all(r.coeff_monomial(t**j) == 0 for j in range(top + 1))
    assert not r.is_zero  # truncating p leaves a residual above order + offset


def test_product_solve_counts_coefficient_products(monkeypatch):
    # exact products in solves of F = p(p - 4x) with a4 = 1, where every
    # even slope coefficient is nonzero; re-evaluating the whole truncated
    # residual for every unknown took 2341 at order 12 and 9412 at order 24
    count = [0]
    for name in ("__mul__", "__rmul__"):
        def counted(a, b, op=getattr(Fraction, name)):
            count[0] += 1
            return op(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    got = {}
    for order in (12, 24):
        count[0] = 0
        pz.solve_geodesic_series(quartic_product_metric(), 3, {3: 2}, order, free={4: 1})
        got[order] = count[0]
    assert 0 < got[12] <= 700 and got[24] <= 2400
