"""Dense real polynomials: roots, discriminants, resultants."""

from __future__ import annotations

import numpy as np
import pytest
import sympy
from numpy.polynomial import polynomial as npoly

from finslerflow import poly

from helpers import degree, quadratic_resultant, real_roots_reference, resultant, sylvester


def test_real_roots_simple_and_multiplicity():
    q = npoly.polyfromroots([1.0, 1.0, -2.0]) * 3.0
    roots = poly.real_roots_many([q])[0]
    assert len(roots) == 2
    (r1, m1), (r2, m2) = sorted(roots)
    assert (r1, m1) == (pytest.approx(-2.0), 1)
    assert (r2, m2) == (pytest.approx(1.0, abs=1e-7), 2)


def test_real_roots_drop_complex_pairs():
    assert poly.real_roots_many([[1.0, 0.0, 1.0]]) == [[]]  # p^2 + 1
    (q2,) = poly.real_roots_many([[-1.0, 0.0, 0.0, 0.0, 1.0]])  # p^4 - 1
    r = sorted(v for v, _ in q2)
    np.testing.assert_allclose(r, [-1.0, 1.0], atol=1e-10)


def _random_root_stack(rng, count: int = 600, width: int = 8) -> np.ndarray:
    """Rows of trimmed degree 0-5 padded with trailing zeros: random
    coefficients, double roots, conjugate pairs, small integers and
    all-zero rows."""
    C = np.zeros((count, width))
    for row in C:
        d = int(rng.integers(0, 6))
        kind = int(rng.integers(0, 5))
        if kind == 1 and d >= 2:
            r = rng.normal(size=d - 1)
            c = npoly.polyfromroots(np.append(r, r[0])) * rng.normal()
        elif kind == 2 and d >= 2:
            a, b = rng.normal(size=2)
            pair = [a * a + b * b, -2.0 * a, 1.0]
            c = npoly.polymul(pair, npoly.polyfromroots(rng.normal(size=d - 2)))
        elif kind == 3:
            c = rng.integers(-3, 4, size=d + 1).astype(float)
        elif kind == 4 and d == 0:
            c = [0.0]
        else:
            c = rng.normal(size=d + 1)
        row[: len(c)] = c
    return C


# roots at zero of either sign, double and triple roots
EDGE_ROWS = [
    [0.0, 3.0], [0.0, -2.0], [-0.0, 1.0], [0.0, 0.0, 1.0], [1.0, -2.0, 1.0],
    [0.0, 0.0, 0.0, -1.0], [1.0, 0.0, 1.0], [2.0],
]


def _bits(roots):
    return [(np.float64(r).tobytes(), k) for r, k in roots]


def test_real_roots_many_matches_row_by_row_reference():
    rng = np.random.default_rng(18)
    C = _random_root_stack(rng)
    for k, row in enumerate(EDGE_ROWS):
        C[k * 50, :] = 0.0
        C[k * 50, : len(row)] = row
    got = poly.real_roots_many(C)
    want = [real_roots_reference(c) for c in C]
    assert [_bits(g) for g in got] == [_bits(w) for w in want]
    # every kind of row occurs
    assert sum(not np.any(c) for c in C) > 5
    assert sum(k == 2 for roots in got for _, k in roots) > 20
    degrees = [degree(c) for c in C]
    assert sum(len(roots) < d for roots, d in zip(got, degrees)) > 50
    # one row alone runs the same pipeline
    assert [_bits(poly.real_roots_many([c])[0]) for c in C[:50]] == [
        _bits(w) for w in want[:50]
    ]


def test_real_roots_many_non_finite_rows_have_no_roots():
    # eigvals raises for a stack with a non-finite companion entry; these
    # rows are dropped first, so their neighbours keep their roots
    rng = np.random.default_rng(19)
    C = _random_root_stack(rng, count=60)
    bad = rng.choice(len(C), 20, replace=False)
    for k, v in zip(bad, [np.nan, np.inf, -np.inf] * 7):
        C[k, rng.integers(0, 3)] = v
    got = poly.real_roots_many(C)
    for k, (c, roots) in enumerate(zip(C, got)):
        if k in bad:
            assert roots == []
        else:
            assert _bits(roots) == _bits(real_roots_reference(c))
    # one row alone, of degree 1 and of degree 2
    assert poly.real_roots_many([[1.0, np.inf]]) == [[]]
    assert poly.real_roots_many([[np.nan, 0.0, 1.0]]) == [[]]
    # c0/c2 overflows, alone and beside a row of the same degree
    assert poly.real_roots_many([[1e300, 0.0, 1e-300]]) == [[]]
    got = poly.real_roots_many([[1e300, 0.0, 1e-300], [-1.0, 0.0, 1.0]])
    assert got == [[], real_roots_reference([-1.0, 0.0, 1.0])]
    assert poly.real_roots_many(np.zeros((0, 3))) == []


def test_disc_quadratic_and_cubic_signs():
    assert poly.disc_quadratic([-1.0, 0.0, 1.0]) > 0
    assert poly.disc_quadratic([1.0, 0.0, 1.0]) < 0
    assert poly.disc_quadratic([0.0, 0.0, 1.0]) == pytest.approx(0.0)
    # (p-1)(p-2)(p-3) has positive discriminant, p^3 - 1 negative
    c3 = np.array([-6.0, 11.0, -6.0, 1.0])
    assert poly.disc_cubic(c3) > 0
    assert poly.disc_cubic([-1.0, 0.0, 0.0, 1.0]) < 0
    assert poly.disc_cubic([0.0, 0.0, 0.0, 1.0]) == pytest.approx(0.0)


def test_disc_cubic_standard_formula():
    rng = np.random.default_rng(8)
    for _ in range(60):
        c = rng.uniform(-2, 2, 4)
        c[3] = c[3] + np.sign(c[3]) * 0.5 if c[3] else 1.0
        d, cq, b, a = c[0], c[1], c[2], c[3]
        want = (
            18 * a * b * cq * d
            - 4 * b**3 * d
            + b**2 * cq**2
            - 4 * a * cq**3
            - 27 * a**2 * d**2
        )
        assert poly.disc_cubic(c) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_resultant_vanishes_iff_common_root():
    f = npoly.polyfromroots([1.0, 2.0])
    g = npoly.polyfromroots([2.0, 5.0])
    assert poly.resultant_grid(f, g) == pytest.approx(0.0, abs=1e-9)
    g2 = npoly.polyfromroots([3.0, 5.0])
    assert abs(poly.resultant_grid(f, g2)) > 1e-6


def test_resultant_product_formula():
    rng = np.random.default_rng(13)
    for _ in range(25):
        fr = rng.uniform(-2, 2, 3)
        gr = rng.uniform(-2, 2, 2)
        lf = float(rng.uniform(0.5, 2.0))
        lg = float(rng.uniform(0.5, 2.0))
        f = npoly.polyfromroots(fr) * lf
        g = npoly.polyfromroots(gr) * lg
        want = lf ** len(gr) * lg ** len(fr)
        for a in fr:
            for b in gr:
                want *= a - b
        got = poly.resultant_grid(f, g)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-9)


def test_sylvester_shape():
    s = sylvester([1.0, 0.0, 1.0], [2.0, 1.0])
    assert s.shape == (3, 3)


def test_resultant_grid_matches_scalar():
    rng = np.random.default_rng(2)
    fc = rng.uniform(-1, 1, (4, 5))
    gc = rng.uniform(-1, 1, (3, 5))
    grid = poly.resultant_grid(fc, gc)
    assert grid.shape == (5,)
    for j in range(5):
        assert grid[j] == resultant(fc[:, j], gc[:, j], 3, 2)


@pytest.mark.parametrize("k", range(1, 6))
def test_quadratic_resultant_is_exact_on_symbols(k):
    # the closed form takes no float constant, so on object arrays of
    # symbols it is the polynomial itself
    p = sympy.Symbol("p")
    d = sympy.symbols("d0:3")
    n = sympy.symbols(f"n0:{k + 1}")
    got = poly.resultant_grid(np.array(d, dtype=object), np.array(n, dtype=object))
    want = sympy.resultant(
        sum(c * p**i for i, c in enumerate(d)), sum(c * p**i for i, c in enumerate(n)), p
    )
    assert sympy.expand(got - want) == 0


def _abs_terms(dc, nc):
    """The closed form's sum with every term made positive."""
    d0, d1, d2 = np.abs(dc)
    n = np.abs(nc)
    k = len(n) - 1
    e = d0 * d2
    s = [None, d1, d1 * d1 + 2.0 * e]
    for j in range(3, k + 1):
        s.append(d1 * s[j - 1] + e * s[j - 2])
    total = 0.0
    for j in range(k + 1):
        inner = n[j] * d0**j + sum(n[i] * d0**i * s[j - i] for i in range(j))
        total = total + n[j] * d2 ** (k - j) * inner
    return total


@pytest.mark.parametrize("k", range(1, 6))
def test_quadratic_resultant_matches_sylvester(k):
    rng = np.random.default_rng(30 + k)
    cols = 300
    dc = rng.normal(size=(3, cols)) * 10.0 ** rng.integers(-3, 4, (3, cols))
    nc = rng.normal(size=(k + 1, cols)) * 10.0 ** rng.integers(-3, 4, (k + 1, cols))
    # d2 = 0 (D of degree 1 at nominal degree 2) and all-zero columns
    dc[2, :30] = 0.0
    dc[:, 30:40] = 0.0
    nc[:, 35:45] = 0.0
    got = poly.resultant_grid(dc, nc)
    want = np.array([resultant(dc[:, j], nc[:, j], 2, k) for j in range(cols)])
    assert np.all(np.abs(got - want) <= 1e-13 * _abs_terms(dc, nc))
    assert np.all(got[30:45] == 0.0)
    # the scalar reference runs the same float operations
    assert [quadratic_resultant(dc[:, j], nc[:, j]) for j in range(cols)] == got.tolist()


def test_resultant_overflow_is_silent():
    # pytest turns RuntimeWarning into an error
    big = np.full((3, 2), 1e300)
    assert not np.any(np.isfinite(poly.resultant_grid(big, np.full((6, 2), 1e300))))
    assert not np.any(np.isfinite(poly.resultant_grid(np.full((4, 2), 1e300), big)))
