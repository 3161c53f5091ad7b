"""The value-numbered series engine against the tree-walk reference
(tests/helpers.py), where every series, coefficient and report row must
agree exactly, and against a sympy expansion of the residual; a count of
exact products pins the work of a solve."""

from __future__ import annotations

import gc
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy

from finslerflow import berwald_moor as bm
from finslerflow import expr as ex
from finslerflow import metric as mt
from finslerflow import puiseux as pz

from helpers import (Series, plan_expr_series, quartic_product_metric, to_sympy,
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


def random_series(rng, order):
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(order + 1)]
    coeffs[0] = Fraction(rng.choice([1, -2, 3]), rng.randint(1, 3))
    return Series(coeffs)


def outcome(fn, *args):
    try:
        out = fn(*args)
    except ZeroDivisionError:
        return "ZeroDivisionError"
    return out.order, out.c


# rational coefficients only, since the plan's columns hold no other
# ring; the one case keeps the id test_random_trees_match_tree_walk[False]
@pytest.mark.parametrize("jets", [False])
def test_random_trees_match_tree_walk(jets):
    rng = random.Random(5)
    raised = 0
    for _ in range(60):
        e = random_tree(rng, 5, [])
        xs = random_series(rng, rng.randint(2, 6))
        ys = random_series(rng, rng.randint(2, 6))
        want = outcome(tree_expr_series, e, xs, ys)
        assert outcome(plan_expr_series, e, xs, ys) == want
        raised += want == "ZeroDivisionError"
    assert raised < 30  # most trees evaluate


def test_operand_order_is_kept():
    # a/b and b/a share operands but not a value
    xs = Series([2, 1, 0, -1, 3])
    ys = Series([-3, Fraction(1, 2), 2, 0, 1])
    for text in ("x/y - y/x", "x^2/(1 + y) + (1 + y)/x^2"):
        e = ex.parse(text)
        assert plan_expr_series(e, xs, ys).c == tree_expr_series(e, xs, ys).c


def test_zero_constant_divisor_raises():
    xs = Series.monomial(3, 1, 8)
    ys = Series.constant(1, 8)
    with pytest.raises(ZeroDivisionError):
        plan_expr_series(ex.parse("1/x"), xs, ys)
    # the solve reports the divisor that vanishes at the base point as a
    # pole there, a ValueError
    m = mt.metric_from_strings(3, ["1/x", "-4*x", "1", "0"])
    with pytest.raises(ValueError, match="pole at the base point"):
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


ADAPTED = [("x", "y", "y - 2*x^2"), ("x", "y", "y - 2*x^2", "x + y")]


@pytest.mark.parametrize("comps", ADAPTED)
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


def random_cubic(rng, zero=None):
    """F = a0 + a1 p + a2 p^2 + a3 p^3 with a_i random quadratics in x and
    y (coefficients k/4), a_zero = 0 if ``zero`` is an index, a base
    height y0 where the degeneracy polynomial's constant term D0 is
    nonzero, and D0 and N0 there."""
    terms = ["x", "y", "x^2", "x*y", "y^2"]
    zero_series = Series.constant(0, 0)
    while True:
        texts = [" + ".join([str(rng.randint(-4, 4) / 4) if i < 3 else "1"]
                            + [f"{rng.randint(-8, 8) / 4}*{t}" for t in terms
                               if rng.random() < 0.5])
                 for i in range(4)]
        if zero is not None:
            texts[zero] = "0"
        m = mt.metric_from_strings(3, texts)
        y0 = Fraction(rng.randint(-2, 2), 2)
        base = Series.constant(y0, 0)
        d0, n0 = (tree_expr_series(m._expr_layer(name)[0], zero_series, base).c[0]
                  for name in ("denom", "numer"))
        if d0 != 0:
            return m, y0, d0, n0


@pytest.mark.parametrize("seed,zero", [pytest.param(seed, None, id=str(seed))
                                       for seed in range(10)]
                         + [pytest.param(seed, zero, id=f"{seed}-a{zero}=0")
                            for seed, zero in ((0, 3), (1, 3), (2, 3), (3, 3), (4, 0), (5, 0))])
def test_random_cubic_solves_match(seed, zero):
    # a regular base point: with s = 1 the seed a1 = N0/D0 clears the
    # leading balance and every later order is FORCED; with s = 2 the
    # seed a2 = N0/D0 + 1/2 obstructs at the first order.  An identically
    # zero a_i leaves exact zero constants in the denom and numer trees,
    # which the plan folds away
    m, y0, d0, n0 = random_cubic(random.Random(100 + seed), zero)
    if zero is not None:
        assert any(op == "c" and a == 0 for _, op, a, _ in pz._SeriesPlan.for_metric(m).steps)
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


def solve_capturing_run(monkeypatch, m, *args, run_class=pz._SeriesRun, **kwargs):
    """The solve and the _SeriesRun (a ``run_class``) it made."""
    runs = []

    class Captured(run_class):
        def __init__(self, *a):
            super().__init__(*a)
            runs.append(self)

    monkeypatch.setattr(pz, "_SeriesRun", Captured)
    return pz.solve_geodesic_series(m, *args, **kwargs), runs.pop()


def value_steps(plan):
    """The number of value steps: they come before the first derivative
    leaf."""
    return next(i for i, st in enumerate(plan.steps) if st[1] in "qQz")


@pytest.mark.parametrize("case", ["product", "y0", "y1", "cubic"])
def test_settled_columns_match_a_fresh_run(case, monkeypatch):
    # each solved a_k is settled into value columns computed with a_k = 0;
    # after the solve every value column must hold what a fresh run
    # computes from the final coefficients, and no column's count of
    # leading zeros may pass its first nonzero coefficient
    if case == "product":
        sol, run = solve_capturing_run(monkeypatch, quartic_product_metric(), 3, {3: 2},
                                       12, free={4: Fraction(3, 7)})
    elif case == "cubic":
        m, y0, d0, n0 = random_cubic(random.Random(105))
        sol, run = solve_capturing_run(monkeypatch, m, 1, {1: n0 / d0}, 8, y0=y0)
    else:
        m = mt.metric_from_strings(3, list(Y_METRICS[int(case[1])]))
        sol, run = solve_capturing_run(monkeypatch, m, 3, {3: 2}, 12,
                                       free={4: Fraction(3, 7)})
    assert not sol.obstructed and any(r.value for r in sol.rows)
    p = sol.p_series()
    x, y = pz.series_to_curve(sol)
    src = {"x": x.c, "X": Series(x.c).deriv().c, "y": y.c, "p": p.c,
           "P": Series(p.c).deriv().c}
    fresh = pz._SeriesRun(run.plan, lambda op, j: src[op][j] if j < len(src[op]) else 0)
    values = value_steps(run.plan)
    fresh.extend(max(len(c) for c in run.vals[:values]) - 1, upto=values)
    for slot, col in enumerate(run.vals[:values]):
        assert col == fresh.vals[slot][: len(col)], slot
        lead = next((j for j, v in enumerate(col) if v != 0), len(col))
        assert run.zeros[slot] <= lead, slot


def test_product_solve_computes_each_value_coefficient_about_once(monkeypatch):
    # the entries _SeriesRun.extend appends to the value columns: each one
    # from _coeff or, below the step's valuation, the zero without a call.
    # The folded plan's value columns hold 399 coefficients, appended in
    # 465 entries (532 in 640 before exact zeros were folded); cutting
    # every column a_k reaches back to index k - 1 once it was solved
    # computed the 532 unfolded ones 2044 times
    appended = Counter()

    class Counted(pz._SeriesRun):
        def extend(self, top, upto=None):
            before = [len(col) for col in self.vals]
            super().extend(top, upto)
            for slot, n in enumerate(before):
                appended[slot] += len(self.vals[slot]) - n

    _, run = solve_capturing_run(monkeypatch, quartic_product_metric(), 3, {3: 2}, 12,
                                 free={4: 1}, run_class=Counted)
    values = [slot for slot, op, _, _ in run.plan.steps[:value_steps(run.plan)]
              if op not in "xyXpP"]
    distinct = sum(len(run.vals[slot]) for slot in values)
    assert 380 < distinct <= sum(appended[slot] for slot in values) <= 2 * distinct


def test_product_solve_counts_coefficient_products(monkeypatch):
    # exact term products u_i w_(j-i) that the * steps form in solves of
    # F = p(p - 4x) with a4 = 1, where every even slope coefficient is
    # nonzero; re-evaluating the whole truncated residual for every
    # unknown took 2341 Fraction products at order 12 and 9412 at order
    # 24, and cutting every column a_k reaches back to index k - 1 once
    # it was solved, to be computed again, took 609 and 2133 (settles and
    # leaves included); the * steps form 193 and 484 terms
    count = [0]

    def counted(op, a, b, vals, zeros, slot, j, coeff=pz._coeff):
        if op == "*":
            A, B = vals[a], vals[b]
            count[0] += sum(A[i] != 0 and B[j - i] != 0
                            for i in range(zeros[a], j - zeros[b] + 1))
        return coeff(op, a, b, vals, zeros, slot, j)

    monkeypatch.setattr(pz, "_coeff", counted)
    got = {}
    for order in (12, 24):
        count[0] = 0
        pz.solve_geodesic_series(quartic_product_metric(), 3, {3: 2}, order, free={4: 1})
        got[order] = count[0]
    assert 0 < got[12] <= 400 and got[24] <= 1000


@pytest.mark.parametrize("make,most", [
    (quartic_product_metric, 41),
    (lambda: bm.full_metric(bm.adapted_from_immersion(bm.SurfaceImmersion(ADAPTED[0]), 2, 1)), 41),
    (lambda: bm.full_metric(bm.adapted_from_immersion(bm.SurfaceImmersion(ADAPTED[1]), 2, 1)), 79),
], ids=["product", "adapted3", "adapted4"])
def test_no_step_reads_an_exact_zero(make, most):
    # 0 * u, 0 + u and -0 fold as the plan is made: the top coefficients
    # of numer are the constant 0, and without the fold the plans took 57,
    # 57 and 95 steps
    plan = pz._SeriesPlan.for_metric(make())
    zero = {slot for slot, op, a, _ in plan.steps if op == "c" and a == 0}
    assert zero and not [st for st in plan.steps if st[1] in "+*-" and zero & {st[2], st[3]}]
    assert len(plan.steps) <= most


def test_numerator_or_both_polynomials_fold_to_zero():
    # F = p^2 has N = 0, so the residual is D(p) P alone; F = 1 has
    # D = N = 0, a residual that folds to the zero constant and has the
    # derivative 0, and the solve refuses it
    m = mt.metric_from_strings(3, ["0", "0", "1", "0"])
    sol = assert_same_solve(m, 3, {3: 2}, 8)
    plan = pz._SeriesPlan.for_metric(m)
    assert sol.obstructed and plan.steps[plan.root][1] == "*"
    with pytest.raises(ValueError, match="vanishes identically"):
        pz.solve_geodesic_series(mt.metric_from_strings(3, ["1", "0", "0", "0"]), 3, {3: 2}, 8)


def test_product_solve_skips_coefficients_below_the_valuation(monkeypatch):
    # a * coefficient below the sum of its operands' leading zeros, or a +
    # coefficient below both, is the zero without a _coeff call: 2411
    # calls before the fold and the skip, 832 after
    calls = [0]

    def counted(*args, coeff=pz._coeff):
        calls[0] += 1
        return coeff(*args)

    monkeypatch.setattr(pz, "_coeff", counted)
    pz.solve_geodesic_series(quartic_product_metric(), 3, {3: 2}, 12, free={4: 1})
    assert 0 < calls[0] <= 900


def test_one_plan_per_metric(monkeypatch):
    # the residual plan depends only on the metric: the eleven product
    # solves of the series benchmark build it once
    built = [0]

    def counted(self, exprs, init=pz._SeriesPlan.__init__):
        built[0] += 1
        init(self, exprs)

    monkeypatch.setattr(pz._SeriesPlan, "__init__", counted)
    m = quartic_product_metric()
    for free in [None] + [{4: Fraction(k, 7)} for k in range(-5, 6) if k]:
        pz.solve_geodesic_series(m, 3, {3: 2}, 12, free=free)
    assert built[0] == 1
    pz.solve_geodesic_series(quartic_product_metric(), 3, {3: 2}, 12)
    assert built[0] == 2


def random_column(rng, n, lead):
    """n coefficients, the first ``lead`` of them zero, the rest random
    rationals of either sign with unequal denominators, or zero."""
    out = [pz._ZERO] * lead
    for _ in range(lead, n):
        v = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 7, 12, 35, 1024]))
        out.append(v if v else pz._ZERO)
    return out


def test_product_coefficients_are_the_plain_fraction_sums():
    rng = random.Random(11)
    for _ in range(200):
        n, za, zb = rng.randint(1, 14), rng.randint(0, 3), rng.randint(0, 3)
        vals = [random_column(rng, n, za), random_column(rng, n, zb)]
        zeros = [next((i for i, v in enumerate(c) if v), n) for c in vals]
        for j in range(n):
            want = sum((vals[0][i] * vals[1][j - i] for i in range(j + 1)), Fraction(0))
            got = pz._coeff("*", 0, 1, vals, zeros, 2, j)
            assert got == want and type(got) is Fraction
            assert (got is pz._ZERO) == (want == 0)
    # a sum that cancels: (1/2)(1/3) + (-1/3)(1/2) is the one zero object
    vals = [[Fraction(1, 2), Fraction(-1, 3)], [Fraction(1, 2), Fraction(1, 3)]]
    assert pz._coeff("*", 0, 1, vals, [0, 0], 2, 1) is pz._ZERO


def test_settled_coefficients_are_the_plain_fraction_sums():
    rng = random.Random(12)
    plan = SimpleNamespace(steps=[None, None], dslot={0: 1})  # column 1 is 0's derivative
    for _ in range(200):
        k = rng.randint(2, 8)
        n = 2 * k - 2 + rng.randint(0, 3)
        run = pz._SeriesRun(plan, None)
        run.vals = [random_column(rng, n, 0), random_column(rng, n, k - 1)]
        v = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 60))
        col, dcol = list(run.vals[0]), run.vals[1]
        run.settle(k, v)
        want = col[:k - 1] + [col[j] + v * dcol[j] for j in range(k - 1, 2 * k - 2)]
        assert run.vals[0] == want
        assert all((u is pz._ZERO) == (u == 0) for u in run.vals[0])
    # u + v w that cancels is the one zero object
    run = pz._SeriesRun(plan, None)
    run.vals = [[Fraction(0), Fraction(3, 4)], [Fraction(0), Fraction(-3, 2)]]
    run.settle(2, Fraction(1, 2))
    assert run.vals[0][1] is pz._ZERO
