"""The degeneracy combination n*phi*phi'' - (n-1)*phi'**2 of a slope
polynomial and the correspondence of its real zeros with multiple roots.

When phi splits into real linear factors the combination equals

    -sum_{i<j} (r_i - r_j)**2 * prod_{k != i,j} (p - r_k)**2,

so it is nonpositive on the real line and its real zeros are exactly the
multiple roots of phi; at a double root its second derivative is
(2 - n) * phi''(root)**2.  None of this survives complex roots: p**3 + p
has real degeneracy zeros that are nowhere near a multiple root.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from finslerflow import metric as mt
from finslerflow import poly

from helpers import degree, pairwise_expansion


def _size(c) -> float:
    return float(np.max(np.abs(c)))


def _roots(c) -> list[tuple[float, int]]:
    return poly.real_roots_many([c])[0]


def _term_scale(phi, n: int) -> float:
    """Size of the two terms of the combination, which cancel at a
    multiple root; the evaluation noise of the combination scales with
    it."""
    d1 = npoly.polyder(phi)
    terms = _size(float(n) * npoly.polymul(phi, npoly.polyder(d1)))
    return max(terms + _size(npoly.polymul(d1, d1)) * (n - 1), 1.0)


class TestExactExpansions:
    """Hand-expanded reference values for small cases."""

    def test_cubic_with_simple_roots(self):
        # phi = p^3 + p, n = 3: combination is 6*p^2 - 2
        got = poly.degeneracy_poly([0.0, 1.0, 0.0, 1.0], 3)
        np.testing.assert_allclose(got, [-2.0, 0.0, 6.0], atol=1e-13)

    def test_quartic_even(self):
        # phi = p^4 + 6p^2 + 1, n = 4: combination is 48*(p^2 - 1)^2
        got = poly.degeneracy_poly([1.0, 0.0, 6.0, 0.0, 1.0], 4)
        np.testing.assert_allclose(got, [48.0, 0.0, -96.0, 0.0, 48.0], atol=1e-11)

    def test_power_of_binomial_collapses(self):
        # phi = (p + g)^n makes the combination vanish identically
        for n, g in [(3, 0.7), (4, -1.2), (5, 0.3)]:
            got = poly.degeneracy_poly(npoly.polyfromroots([-g] * n), n)
            assert np.all(np.abs(got) <= 1e-10)

    def test_degree_bound_enforced_exactly(self):
        rng = np.random.default_rng(4)
        for n in (3, 4, 5, 6):
            phi = npoly.polyfromroots(rng.uniform(-2, 2, n)) * 1.7
            assert degree(poly.degeneracy_poly(phi, n)) <= 2 * n - 4


class TestPairwiseIdentity:
    """The combination equals minus a sum of squared root differences
    times squared cofactor products; this is the independent oracle."""

    def test_matches_direct_construction(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            n = int(rng.integers(2, 7))
            roots = np.sort(rng.uniform(-2, 2, n))
            if rng.uniform() < 0.3 and n >= 3:
                roots[1] = roots[0]
            leading = float(rng.uniform(0.5, 2.0))
            a = poly.degeneracy_poly(npoly.polyfromroots(roots) * leading, n)
            b = pairwise_expansion(roots, leading)
            size = max(a.size, b.size)
            ca, cb = np.zeros(size), np.zeros(size)
            ca[: a.size] = a
            cb[: b.size] = b
            scale = 1.0 + np.abs(ca).max() + np.abs(cb).max()
            np.testing.assert_allclose(ca, cb, atol=1e-10 * scale)

    def test_nonpositive_on_reals_for_real_rooted(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            delta = poly.degeneracy_poly(npoly.polyfromroots(rng.uniform(-2, 2, n)), n)
            vals = npoly.polyval(rng.uniform(-3, 3, 40), delta)
            assert np.all(vals <= 1e-8 * (1.0 + np.abs(vals).max()))


class TestCorrespondence:
    def test_double_root_second_derivative_identity(self):
        # phi = p^2 (p - 4): combination is -32 p^2, second derivative -64
        phi = npoly.polyfromroots([0.0, 0.0, 4.0])
        assert [k for _, k in _roots(phi)] == [2, 1]
        delta = poly.degeneracy_poly(phi, 3)
        got = npoly.polyval(0.0, npoly.polyder(delta, 2))
        want = (2 - 3) * npoly.polyval(0.0, npoly.polyder(phi, 2)) ** 2
        assert got == pytest.approx(-64.0, rel=1e-10)
        assert want == pytest.approx(-64.0, rel=1e-12)

    def test_distinct_roots_give_no_real_zeros(self):
        phi = npoly.polyfromroots([1.0, 2.0, 3.0])
        assert all(k == 1 for _, k in _roots(phi))
        assert _roots(poly.degeneracy_poly(phi, 3)) == []

    def test_all_roots_equal_regime(self):
        phi = npoly.polyfromroots([0.7, 0.7, 0.7]) * 2.0
        delta = poly.degeneracy_poly(phi, 3)
        assert np.all(np.abs(delta) <= 1e-10 * _term_scale(phi, 3))

    def test_mixed_roots_regime_from_coefficients(self):
        # p^3 + p has one simple real root and a conjugate pair, yet its
        # combination 6 p^2 - 2 has two real zeros away from any root
        phi = [0.0, 1.0, 0.0, 1.0]
        assert _roots(phi) == [(0.0, 1)]
        zeros = _roots(poly.degeneracy_poly(phi, 3))
        assert [k for _, k in zeros] == [1, 1]
        np.testing.assert_allclose(
            [z for z, _ in zeros], [-(1 / 3) ** 0.5, (1 / 3) ** 0.5], atol=1e-9
        )

    def test_coefficient_input_with_double_root(self):
        phi = npoly.polyfromroots([0.0, 0.0, 4.0])
        (r, k), = [rk for rk in _roots(phi) if rk[1] > 1]
        assert k == 2 and r == pytest.approx(0.0, abs=1e-9)
        delta = poly.degeneracy_poly(phi, 3)
        assert abs(npoly.polyval(r, delta)) <= 1e-8 * _term_scale(phi, 3)
        assert all(abs(z - r) <= 1e-6 for z, _ in _roots(delta))

    def test_random_sweep_separated_or_equal(self):
        rng = np.random.default_rng(20260814)
        for _ in range(500):
            n = int(rng.integers(3, 6))
            while True:
                roots = np.sort(rng.uniform(-2.0, 2.0, n))
                if np.min(np.diff(roots)) > 0.05:
                    break
            multiple = []
            if rng.uniform() < 0.5:
                j = int(rng.integers(0, n - 1))
                roots[j + 1] = roots[j]
                multiple.append(float(roots[j]))
            phi = npoly.polyfromroots(roots) * float(rng.uniform(0.5, 2.0))
            delta = poly.degeneracy_poly(phi, n)
            env = 1e-8 * _term_scale(phi, n)
            # forward, by evaluation: a tangential zero of the combination
            # may round into a conjugate pair and drop out of the real roots
            for r in multiple:
                assert abs(npoly.polyval(r, delta)) <= env * (1.0 + abs(r)) ** degree(delta), roots
                d2 = npoly.polyder(delta, 2)
                want = (2 - n) * npoly.polyval(r, npoly.polyder(phi, 2)) ** 2
                noise = _size(d2) * (1.0 + abs(r)) ** max(degree(d2), 0)
                got = npoly.polyval(r, d2)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-9 * (1.0 + noise)), roots
            # backward: phi and phi' vanish at every real zero of the
            # combination (a double zero rounds apart by about sqrt(eps),
            # so a distance test would need that slack)
            d1 = npoly.polyder(phi)
            for z, _ in _roots(delta):
                lift = 1.0 + abs(z)
                bound = 1e-7 * (1.0 + _size(phi) * lift ** degree(phi))
                assert abs(npoly.polyval(z, phi)) <= bound, roots
                bound = 1e-7 * (1.0 + _size(d1) * lift ** degree(d1))
                assert abs(npoly.polyval(z, d1)) <= bound, roots
                assert multiple, roots

    def test_ambient_degree_validation(self):
        phi = [0.0, 1.0, 0.0, 1.0]
        with pytest.raises(ValueError):
            poly.degeneracy_poly(phi, 2)
        with pytest.raises(ValueError):
            poly.degeneracy_poly(phi, 1)


def test_metric_denominator_is_the_degeneracy_combination():
    m = mt.metric_from_strings(3, ["y*x - 1", "x + 2*y", "1", "x*y"])
    rng = np.random.default_rng(6)
    for _ in range(30):
        x, y = rng.uniform(-1.5, 1.5, 2)
        built = poly.degeneracy_poly(mt.coeff_values(m, x, y), 3)
        direct = m.table("denom").values_at(x, y)
        size = max(built.size, direct.size)
        a, b = np.zeros(size), np.zeros(size)
        a[: built.size] = built
        b[: direct.size] = direct
        np.testing.assert_allclose(a, b, atol=1e-11 * (1.0 + np.abs(b).max()))
