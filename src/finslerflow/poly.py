"""Univariate real polynomials with ascending coefficients.

Thin wrapper around numpy.polynomial plus the root-extraction pipeline
used throughout the package: companion-matrix eigenvalues, a relative
cutoff on imaginary parts, one Newton polish step, and clustering of
nearby roots into multiplicities.  Also the degeneracy combination of a
slope polynomial and the discriminants and resultants of the strata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

IMAG_CUTOFF_REL = 1e-8
CLUSTER_RADIUS = 1e-6


@dataclass(frozen=True)
class RealPolynomial:
    """Polynomial sum(coeffs[i] * p**i); trailing zeros are trimmed."""

    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        nz = np.nonzero(c)[0]
        c = c[: nz[-1] + 1].copy() if nz.size else np.zeros(1)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        """Degree of the trimmed polynomial; -1 for the zero polynomial."""
        if self.coeffs.size == 1 and self.coeffs[0] == 0.0:
            return -1
        return self.coeffs.size - 1

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))

    def __call__(self, p):
        return npoly.polyval(p, self.coeffs)

    def deriv(self) -> "RealPolynomial":
        return RealPolynomial(npoly.polyder(self.coeffs))

    def __add__(self, other: "RealPolynomial") -> "RealPolynomial":
        return RealPolynomial(npoly.polyadd(self.coeffs, other.coeffs))

    def __sub__(self, other: "RealPolynomial") -> "RealPolynomial":
        return RealPolynomial(npoly.polysub(self.coeffs, other.coeffs))

    def __mul__(self, other) -> "RealPolynomial":
        if isinstance(other, RealPolynomial):
            return RealPolynomial(npoly.polymul(self.coeffs, other.coeffs))
        return RealPolynomial(self.coeffs * float(other))

    __rmul__ = __mul__

    def scale(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def real_roots(self) -> list[tuple[float, int]]:
        """Real roots with multiplicities, ascending.

        Complex companion eigenvalues whose imaginary part exceeds the
        relative cutoff are discarded; surviving roots get one Newton
        polish step (skipped where the derivative is tiny, i.e. at
        multiple roots) and are then clustered into multiplicities.
        """
        if self.degree <= 0:
            return []
        roots = npoly.polyroots(self.coeffs)
        radius = float(np.max(np.abs(roots))) if roots.size else 0.0
        cutoff = IMAG_CUTOFF_REL * radius
        reals = [float(r.real) for r in roots if abs(r.imag) <= cutoff]
        if not reals:
            return []
        dp = npoly.polyder(self.coeffs)
        cscale = self.scale()
        polished = []
        for r in reals:
            d = npoly.polyval(r, dp)
            if abs(d) > 1e-12 * max(cscale, 1.0):
                r = r - float(npoly.polyval(r, self.coeffs)) / float(d)
            polished.append(r)
        polished.sort()
        clusters: list[tuple[float, int]] = []
        group = [polished[0]]
        for r in polished[1:]:
            if r - group[-1] <= CLUSTER_RADIUS:
                group.append(r)
            else:
                clusters.append((float(np.mean(group)), len(group)))
                group = [r]
        clusters.append((float(np.mean(group)), len(group)))
        return clusters


def from_roots(roots, leading: float = 1.0) -> RealPolynomial:
    return RealPolynomial(npoly.polyfromroots(roots) * float(leading))


def degeneracy_poly(phi: RealPolynomial, n: int) -> RealPolynomial:
    """n*phi*phi'' - (n-1)*phi'**2 as a polynomial.

    For the slope polynomial phi of a metric of degree n this is the
    denominator of the geodesic field; its common zeros with phi are the
    double isotropic directions.  ``n`` plays the role of the ambient
    degree and may exceed deg(phi); it must not be smaller.
    """
    if n < 2:
        raise ValueError("ambient degree must be at least 2")
    if phi.degree > n:
        raise ValueError("polynomial degree exceeds the ambient degree")
    d1 = phi.deriv()
    d2 = d1.deriv()
    combo = float(n) * (phi * d2) - float(n - 1) * (d1 * d1)
    # the top coefficients cancel exactly for deg(phi) <= n; drop their
    # rounding residue, which otherwise plants spurious far-away roots
    return RealPolynomial(combo.coeffs[: max(2 * n - 3, 1)])


def disc_quadratic(c):
    """Discriminant c1^2 - 4*c2*c0 of c0 + c1 p + c2 p^2.

    The c[k] are floats or arrays of one shape; powers are written as
    products, so a point gives the same bits either way.
    """
    c0, c1, c2 = c[:3]
    return c1 * c1 - 4.0 * c2 * c0


def disc_cubic(c):
    """Discriminant of c0 + c1 p + c2 p^2 + c3 p^3 (c3 = 0 allowed), on
    floats or arrays as disc_quadratic."""
    c0, c1, c2, c3 = c[:4]
    return (
        18.0 * c3 * c2 * c1 * c0
        - 4.0 * (c2 * c2 * c2) * c0
        + (c2 * c2) * (c1 * c1)
        - 4.0 * c3 * (c1 * c1 * c1)
        - 27.0 * (c3 * c3) * (c0 * c0)
    )


def resultant_grid(fc: np.ndarray, gc: np.ndarray) -> np.ndarray:
    """Resultants of coefficient stacks, fc of shape (m+1, ...) and gc of
    shape (n+1, ...), ascending: Sylvester determinants at the nominal
    degrees m and n, so families whose leading coefficient vanishes at
    isolated points stay continuous."""
    m = fc.shape[0] - 1
    n = gc.shape[0] - 1
    shape = fc.shape[1:]
    size = m + n
    mats = np.zeros(shape + (size, size))
    for i in range(n):
        for j in range(m + 1):
            mats[..., i, i + m - j] = fc[j]
    for i in range(m):
        for j in range(n + 1):
            mats[..., n + i, i + n - j] = gc[j]
    return np.linalg.det(mats)
