"""Reference computations made apart from finslerflow.

Nothing here imports the package under test.  The geodesic field is
rebuilt from the Euler-Lagrange equations of the homogeneous metric
Fbar(x, y, u, v) = sum_i a_i(x, y) u^(n-i) v^i, differentiated by sympy
and integrated by scipy; the metrics F = p^2 + c of the shipped configs
also get their closed-form field.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np
import sympy as sp
from scipy.integrate import solve_ivp
from scipy.spatial import cKDTree

X, Y, U, V, P = sp.symbols("x y u v p", real=True)

RTOL = 1e-12
ATOL = 1e-14


def sym(text: str) -> sp.Expr:
    """A coefficient text of a config or a generated metric, as sympy with
    exact rational constants."""
    return sp.sympify(text.replace("^", "**"), locals={"x": X, "y": Y}, rational=True)


@functools.lru_cache(maxsize=None)
def euler_lagrange(coeff_texts: tuple[str, ...]) -> "ELField":
    return ELField(coeff_texts)


class ELField:
    """Cramer form of the Euler-Lagrange accelerations of Fbar.

    The system Fbar_uu a + Fbar_uv b = G1, Fbar_uv a + Fbar_vv b = G2 for
    the accelerations (a, b) = (x'', y'') has determinant H and Cramer
    numerators H1, H2.  On the slope chart (u, v) = (1, p) the path
    satisfies dp/dx = (H2 - p H1) / H, so (H, p H, H2 - p H1) is a
    polynomial field whose orbits are the projectivized geodesics.
    """

    def __init__(self, coeff_texts: tuple[str, ...]):
        n = len(coeff_texts) - 1
        self.degree = n
        self.coeffs = [sym(t) for t in coeff_texts]
        gens = (X, Y, U, V)
        fbar = sp.Poly(sum(a * U ** (n - i) * V**i for i, a in enumerate(self.coeffs)),
                       *gens, domain="QQ")
        fu, fv = fbar.diff(U), fbar.diff(V)
        fuu, fuv, fvv = fu.diff(U), fu.diff(V), fv.diff(V)
        u, v = sp.Poly(U, *gens, domain="QQ"), sp.Poly(V, *gens, domain="QQ")
        g1 = fbar.diff(X) - u * fu.diff(X) - v * fu.diff(Y)
        g2 = fbar.diff(Y) - u * fv.diff(X) - v * fv.diff(Y)
        self.H = (fuu * fvv - fuv**2).as_expr()
        self.H1 = (g1 * fvv - g2 * fuv).as_expr()
        self.H2 = (fuu * g2 - fuv * g1).as_expr()
        self.fbar = fbar.as_expr()
        self._h = sp.lambdify(gens, (self.H, self.H1, self.H2), "math")
        self._h_np = sp.lambdify(gens, self.H, "numpy")
        self._fbar_np = sp.lambdify(gens, self.fbar, "numpy")
        self._coef_np = [sp.lambdify((X, Y), a, "numpy") for a in self.coeffs]

    # pointwise -----------------------------------------------------------

    def coeff_values(self, x: float, y: float) -> list[float]:
        return [float(f(x, y)) for f in self._coef_np]

    def scale(self, x, y) -> np.ndarray:
        """max_i |a_i(x, y)|, vectorized."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.max(
            [np.abs(np.broadcast_to(f(x, y), x.shape)) for f in self._coef_np], axis=0
        )

    def velocity(self, slope, chart):
        """(u, v) of a chart slope: (1, p) on chart p, (q, 1) on chart q."""
        slope = np.asarray(slope, dtype=float)
        qchart = np.asarray(chart) == "q"
        u = np.where(qchart, slope, 1.0)
        v = np.where(qchart, 1.0, slope)
        return u, v

    def fbar_at(self, x, y, slope, chart):
        u, v = self.velocity(slope, chart)
        return np.broadcast_to(self._fbar_np(np.asarray(x, float), np.asarray(y, float), u, v), u.shape)

    def h_at(self, x, y, slope, chart):
        u, v = self.velocity(slope, chart)
        return np.broadcast_to(self._h_np(np.asarray(x, float), np.asarray(y, float), u, v), u.shape)

    # fields --------------------------------------------------------------

    def proj_field(self, t, s):
        x, y, p = s
        h, h1, h2 = self._h(x, y, 1.0, p)
        return (h, p * h, h2 - p * h1)

    def tm_field(self, t, s):
        x, y, u, v = s
        h, h1, h2 = self._h(x, y, u, v)
        return (u, v, h1 / h, h2 / h)


class ClosedFormField:
    """F = p^2 + c(x, y) with n = 3: the field of the shipped configs.

    denom = 2(3c - p^2), numer = 7 c_y p^2 + 4 c_x p + 3 c c_y, and the
    discriminant of F in p is -4c.
    """

    def __init__(self, c_text: str):
        c = sym(c_text)
        cx, cy = sp.diff(c, X), sp.diff(c, Y)
        denom = 2 * (3 * c - P**2)
        numer = 7 * cy * P**2 + 4 * cx * P + 3 * c * cy
        field = sp.Matrix([denom, P * denom, numer])
        jac = field.jacobian([X, Y, P])
        self._c = sp.lambdify((X, Y), c, "numpy")
        self._denom = sp.lambdify((X, Y, P), denom, "numpy")
        self._field = sp.lambdify((X, Y, P), list(field), "math")
        self._jac = sp.lambdify((X, Y, P), jac, "numpy")

    def c(self, x, y):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self._c(x, np.asarray(y, dtype=float)), x.shape)

    def disc(self, x, y):
        return -4.0 * self.c(x, y)

    def denom(self, x, y, p):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self._denom(x, np.asarray(y, float), np.asarray(p, float)), x.shape)

    def proj_field(self, t, s):
        return self._field(*s)

    def jacobian(self, x, y, p) -> np.ndarray:
        return np.asarray(self._jac(x, y, p), dtype=float)


# ---------------------------------------------------------------------------
# integration


def solve(field, state0, t_end, t_eval=None, events=None):
    """scipy DOP853 from t = 0 to t_end at the reference tolerances."""
    return solve_ivp(
        field, (0.0, t_end), list(state0), method="DOP853", rtol=RTOL, atol=ATOL,
        t_eval=t_eval, dense_output=True, events=events,
    )


def box_exit_events(box):
    """Terminal events for leaving box = (x0, x1, y0, y1)."""
    evs = []
    for idx, bound, sign in ((0, box[0], 1.0), (0, box[1], -1.0), (1, box[2], 1.0),
                             (1, box[3], -1.0)):
        def ev(t, s, idx=idx, bound=bound, sign=sign):
            return sign * (s[idx] - bound)

        ev.terminal = True
        evs.append(ev)
    return evs


def reference_arc(field, state0, box, direction, t_max=50.0, samples=4000):
    """Orbit of field from state0 until it leaves box, densely sampled."""
    sol = solve(lambda t, s: [direction * v for v in field(t, s)], state0, t_max,
                events=box_exit_events(box))
    return sol.sol(np.linspace(0.0, sol.t[-1], samples)).T


# ---------------------------------------------------------------------------
# geometry


def polyline_distance(points: np.ndarray, line: np.ndarray) -> np.ndarray:
    """Distance from each point to the polyline through line's rows."""
    points = np.asarray(points, dtype=float)[:, :2]
    line = np.asarray(line, dtype=float)[:, :2]
    # repeated vertices (a chart switch repeats its point) make empty
    # segments, which would hide the real neighbours of the nearest vertex
    keep = np.ones(len(line), dtype=bool)
    keep[1:] = np.any(np.diff(line, axis=0) != 0.0, axis=1)
    line = line[keep]
    if len(line) == 1:
        return np.hypot(*(points - line[0]).T)
    _, idx = cKDTree(line).query(points)
    best = np.full(len(points), np.inf)
    for lo in (idx - 1, idx):
        lo = np.clip(lo, 0, len(line) - 2)
        a, b = line[lo], line[lo + 1]
        ab = b - a
        denom = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
        t = np.clip(np.einsum("ij,ij->i", points - a, ab) / denom, 0.0, 1.0)
        d = np.hypot(*(a + t[:, None] * ab - points).T)
        best = np.minimum(best, d)
    return best


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two polylines."""
    return float(max(polyline_distance(a, b).max(), polyline_distance(b, a).max()))


# ---------------------------------------------------------------------------
# exact series


def _mul(a: list, b: list, n: int) -> list:
    """Product of two coefficient lists, truncated after t^n."""
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai:
            for j in range(min(len(b), n + 1 - i)):
                out[i + j] += ai * b[j]
    return out


def series_residual_order(el: ELField, s: int, y0, coeffs: dict, trunc: int) -> int | None:
    """First power of t with a nonzero coefficient in H p' - (H2 - p H1) x'.

    The curve is x = t^s, y = y0 + integral of p dx, p = sum coeffs[k] t^k,
    all exact rationals, and (u, v) = (1, p); the residual is formed
    through t^trunc.  Returns None when it vanishes through that order.
    """
    n = trunc
    p = [Fraction(0)] * (n + 1)
    for k, v in coeffs.items():
        if k <= n:
            p[k] = Fraction(v)
    x = [Fraction(0)] * (n + 1)
    dx = [Fraction(0)] * (n + 1)
    if s <= n:
        x[s] = Fraction(1)
    dx[s - 1] = Fraction(s)
    dp = [k * p[k] for k in range(1, n + 1)] + [Fraction(0)]
    integrand = _mul(p, dx, n)
    y = [Fraction(str(y0))] + [integrand[k - 1] / k for k in range(1, n + 1)]

    powers: dict = {}

    def power(series, k):
        key = (id(series), k)
        if key not in powers:
            powers[key] = (
                [Fraction(1)] + [Fraction(0)] * n if k == 0
                else _mul(power(series, k - 1), series, n)
            )
        return powers[key]

    def evaluate(expr):
        total = [Fraction(0)] * (n + 1)
        for (i, j, k), c in sp.Poly(expr, X, Y, V).terms():
            c = Fraction(int(c.p), int(c.q))
            term = _mul(_mul(power(x, i), power(y, j), n), power(p, k), n)
            for m in range(n + 1):
                total[m] += c * term[m]
        return total

    h = evaluate(el.H.subs(U, 1))
    numer = evaluate(sp.expand((el.H2 - V * el.H1).subs(U, 1)))
    res = [a - b for a, b in zip(_mul(h, dp, n), _mul(numer, dx, n))]
    return next((k for k, v in enumerate(res) if v != 0), None)
