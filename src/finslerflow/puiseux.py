"""Exact truncated series and an order-by-order geodesic family solver.

Fractional-power geodesic branches through a degenerate point become
ordinary power series after the substitution x = t**s.  Writing the slope
as p(t) = sum a_i t**i with the base slope zero, the curve data is

    x = t**s,    y = y0 + integral of p dx,

and the defining relation

    denom(x, y, p) * dp/dt - numer(x, y, p) * dx/dt = 0

turns into a recurrence for the a_i: each index is either FORCED (its
linear coefficient in the residual is nonzero), FREE (linear coefficient
and forcing both vanish, so it parametrizes the family), or OBSTRUCTED
(zero linear coefficient against nonzero forcing, meaning no branch of
this shape exists).  All arithmetic uses rationals, so reported linear
coefficients and forcing terms are exact; they are normalized by the
leading slope coefficient of the degeneracy polynomial at the base point
so that the printed recurrence has integer-looking entries for simple
models.

Expressions are evaluated on series through one value-numbered pass
(_SeriesPlan) over the denominator and numerator coefficient trees
together, so a subexpression used in several places is one series
operation.  Only y = y0 + integral of p dx changes while a solve runs, so
the nodes that do not read y are computed once per solve and each
residual recomputes only the nodes that read y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from .metric import PseudoFinslerMetric

__all__ = [
    "TruncatedSeries",
    "evaluate_expr_series",
    "SeriesOrderRow",
    "GeodesicSeries",
    "solve_geodesic_series",
    "series_to_curve",
    "series_point",
]


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, np.integer)):
        return Fraction(int(v))
    f = float(v)
    if not math.isfinite(f):
        raise ValueError(f"series value {f} is not finite")
    # read floats through their shortest decimal form, so a config
    # value like 0.8 becomes 4/5 rather than its binary neighbour
    return Fraction(str(f))


class _Jet:
    """val + eps * d with d**2 = 0: exact value plus first derivative.

    Used to linearize the residual in one unknown coefficient without
    finite differences, so the extracted linear coefficient is exact and
    untouched by terms of higher degree in the unknown.
    """

    __slots__ = ("val", "eps")

    def __init__(self, val, eps=0):
        self.val = _frac(val)
        self.eps = _frac(eps)

    def _lift(self, other) -> "_Jet | None":
        if isinstance(other, _Jet):
            return other
        if isinstance(other, (int, np.integer, float, Fraction)):
            return _Jet(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _Jet(self.val + o.val, self.eps + o.eps)

    __radd__ = __add__

    def __neg__(self):
        return _Jet(-self.val, -self.eps)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _Jet(self.val - o.val, self.eps - o.eps)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _Jet(o.val - self.val, o.eps - self.eps)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _Jet(self.val * o.val, self.val * o.eps + self.eps * o.val)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.val == 0:
            raise ZeroDivisionError("jet division by a zero-value jet")
        return _Jet(
            self.val / o.val, (self.eps * o.val - self.val * o.eps) / (o.val**2)
        )

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.val == o.val and self.eps == o.eps

    def __repr__(self) -> str:
        return f"_Jet({self.val}, {self.eps})"


def _coerce(v):
    return v if isinstance(v, _Jet) else _frac(v)


class TruncatedSeries:
    """Power series in t kept exactly through a fixed truncation order.

    Coefficients are rationals; floats convert exactly, so results are
    deterministic.  Binary operations truncate to the smaller order.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs, order: int | None = None):
        vals = [_coerce(v) for v in coeffs]
        if order is not None:
            order = int(order)
            if order < 0:
                raise ValueError("truncation order must be nonnegative")
            vals = vals[: order + 1]
            vals.extend(Fraction(0) for _ in range(order + 1 - len(vals)))
        if not vals:
            vals = [Fraction(0)]
        self.c = vals

    @classmethod
    def constant(cls, v, order: int) -> "TruncatedSeries":
        return cls([_coerce(v)], order)

    @classmethod
    def monomial(cls, power: int, v, order: int) -> "TruncatedSeries":
        coeffs: list = [Fraction(0)] * (order + 1)
        if 0 <= power <= order:
            coeffs[power] = _coerce(v)
        return cls(coeffs)

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def first_nonzero(self) -> int | None:
        for i, v in enumerate(self.c):
            if v != 0:
                return i
        return None

    def __add__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.order)
        n = min(self.order, other.order)
        return TruncatedSeries([self.c[i] + other.c[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-v for v in self.c])

    def __sub__(self, other) -> "TruncatedSeries":
        return self + (-other if isinstance(other, TruncatedSeries)
                       else TruncatedSeries.constant(-_coerce(other), self.order))

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            v = _coerce(other)
            return TruncatedSeries([ci * v for ci in self.c])
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.c[: n + 1]):
            if a == 0:
                continue
            top = n - i
            for j, b in enumerate(other.c[: top + 1]):
                if b != 0:
                    out[i + j] += a * b
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def invert(self) -> "TruncatedSeries":
        if self.c[0] == 0:
            raise ZeroDivisionError(
                "series division needs a nonzero constant term"
            )
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = 1 / self.c[0]
        for k in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                if j < len(self.c) and self.c[j] != 0:
                    acc += self.c[j] * out[k - j]
            out[k] = -acc / self.c[0]
        return TruncatedSeries(out)

    def __truediv__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return self * other.invert()
        return self * (1 / _coerce(other))

    def __pow__(self, k: int) -> "TruncatedSeries":
        k = int(k)
        base = self
        if k < 0:
            base = self.invert()
            k = -k
        out = TruncatedSeries.constant(1, self.order)
        for _ in range(k):
            out = out * base
        return out

    def deriv(self) -> "TruncatedSeries":
        if self.order == 0:
            return TruncatedSeries([Fraction(0)])
        return TruncatedSeries([i * self.c[i] for i in range(1, self.order + 1)])

    def integrate(self) -> "TruncatedSeries":
        out = [Fraction(0)] * (self.order + 2)
        for i, v in enumerate(self.c):
            out[i + 1] = v / (i + 1)
        return TruncatedSeries(out)

    def compose_scale(self, lam) -> "TruncatedSeries":
        """Substitute t -> lam * t."""
        lam = _frac(lam)
        power = Fraction(1)
        out = []
        for v in self.c:
            out.append(v * power)
            power *= lam
        return TruncatedSeries(out)

    def evaluate(self, t: float) -> float:
        acc = 0.0
        for v in reversed(self.c):
            acc = acc * t + float(v)
        return acc

    def __repr__(self) -> str:
        shown = ", ".join(str(v) for v in self.c[: min(8, len(self.c))])
        tail = ", ..." if len(self.c) > 8 else ""
        return f"TruncatedSeries([{shown}{tail}], order={self.order})"


def _operands(op: str, a, b) -> tuple:
    """The slots a step of _SeriesPlan reads."""
    if op in "+*/":
        return (a, b)
    if op in "-^":
        return (a,)
    return ()


class _SeriesPlan:
    """One value-numbered pass over a list of expressions, on exact series.

    ``steps`` holds (slot, op, a, b) in evaluation order, with op one of
    c (constant a), x, y, + * / (slots a and b), - (negate slot a) and ^
    (slot a to the integer power b); ``roots`` holds each expression's
    slot.  Nodes are memoized by identity and keyed by their operator and
    operand slots, so equal subexpressions are computed once and no
    expression tree is hashed; the identity memo lives only while
    numbering.  A step reads y when y is one of its leaves: the steps
    that do not (``fixed``) are the same for every y series of one order.
    """

    def __init__(self, exprs):
        self.steps: list[tuple] = []
        self.reads_y: list[bool] = []
        self._keys: dict[tuple, int] = {}
        self._seen: dict[int, int] = {}
        self.roots = [self._visit(e) for e in exprs]
        del self._keys, self._seen  # needed only while numbering
        self.fixed = [st for st in self.steps if not self.reads_y[st[0]]]
        self.moving = [st for st in self.steps if self.reads_y[st[0]]]
        # the fixed values that the results and the y-dependent steps read
        kept = set(self.roots)
        for _, op, a, b in self.moving:
            kept.update(_operands(op, a, b))
        self.kept = sorted(i for i in kept if not self.reads_y[i])

    def _step(self, op: str, a=None, b=None) -> int:
        key = (op, a, b)
        if op in "+*" and b < a:
            key = (op, b, a)
        slot = self._keys.get(key)
        if slot is None:
            slot = len(self.steps)
            self._keys[key] = slot
            self.steps.append((slot, op, a, b))
            self.reads_y.append(
                op == "y" or any(self.reads_y[i] for i in _operands(op, a, b))
            )
        return slot

    def _visit(self, e: ex.Expr) -> int:
        got = self._seen.get(id(e))
        if got is not None:
            return got
        if isinstance(e, ex.Const):
            out = self._step("c", _frac(e.value))
        elif isinstance(e, ex.Var):
            out = self._step("x" if e.name == "x" else "y")
        elif isinstance(e, ex.Add):
            out = self._step("+", self._visit(e.a), self._visit(e.b))
        elif isinstance(e, ex.Mul):
            out = self._step("*", self._visit(e.a), self._visit(e.b))
        elif isinstance(e, ex.Div):
            out = self._step("/", self._visit(e.a), self._visit(e.b))
        elif isinstance(e, ex.Neg):
            out = self._step("-", self._visit(e.a))
        elif isinstance(e, ex.Pow):
            out = self._step("^", self._visit(e.base), e.exponent)
        else:
            raise TypeError(f"not an expression node: {e!r}")
        self._seen[id(e)] = out
        return out

    @staticmethod
    def run(steps, vals: list, xs, ys, order: int) -> list:
        """Compute ``steps`` into ``vals``, constants at ``order``."""
        for slot, op, a, b in steps:
            if op == "c":
                v = TruncatedSeries.constant(a, order)
            elif op == "x":
                v = xs
            elif op == "y":
                v = ys
            elif op == "+":
                v = vals[a] + vals[b]
            elif op == "*":
                v = vals[a] * vals[b]
            elif op == "/":
                v = vals[a] / vals[b]
            elif op == "-":
                v = -vals[a]
            else:
                v = vals[a] ** b
            vals[slot] = v
        return vals


def evaluate_expr_series(
    e: ex.Expr, xs: TruncatedSeries, ys: TruncatedSeries
) -> TruncatedSeries:
    """Substitute series for x and y in an expression tree, exactly."""
    plan = _SeriesPlan([e])
    vals = plan.run(plan.steps, [None] * len(plan.steps), xs, ys,
                    min(xs.order, ys.order))
    return vals[plan.roots[0]]


@dataclass(frozen=True)
class SeriesOrderRow:
    """One resolved slope coefficient of the recurrence."""

    index: int
    slot: int
    linear_coeff: Fraction
    forcing: Fraction
    value: Fraction
    status: str


@dataclass
class GeodesicSeries:
    """Solved family data: coefficients, per-order report, residual state."""

    s: int
    y0: float
    order: int
    coeffs: dict[int, Fraction]
    rows: tuple[SeriesOrderRow, ...]
    offset: int
    norm: Fraction
    obstructed: bool
    obstruction_order: int | None
    residual_order: int | None

    def p_series(self, order: int | None = None) -> TruncatedSeries:
        n = self.order if order is None else int(order)
        coeffs = [Fraction(0)] * (n + 1)
        for i, v in self.coeffs.items():
            if i <= n:
                coeffs[i] = v
        return TruncatedSeries(coeffs)

    def free_indices(self) -> list[int]:
        return [r.index for r in self.rows if r.status == "FREE"]

    def table(self) -> str:
        lines = ["order  linear_coeff  status      value"]
        for r in self.rows:
            lines.append(
                f"{r.index:>5}  {str(r.linear_coeff):>12}  {r.status:<10}  {r.value}"
            )
        return "\n".join(lines)


def _curve_series(s: int, y0, p: TruncatedSeries):
    # dx/dt is the exact monomial s*t**(s-1), so y_j depends only on
    # p_{j-s}: with p known through its order n, y is known through n+s.
    n = p.order
    x = TruncatedSeries.monomial(s, 1, n + s)
    padded = TruncatedSeries(list(p.c), order=n + s - 1)
    y = TruncatedSeries.constant(y0, n + s) + (padded * x.deriv()).integrate()
    return x, y


def _leading_norm(m: PseudoFinslerMetric, y0) -> Fraction:
    zero = TruncatedSeries.constant(0, 0)
    base_y = TruncatedSeries.constant(y0, 0)
    lead = Fraction(0)
    for e in m._expr_layer("denom"):
        v = evaluate_expr_series(e, zero, base_y).c[0]
        if v != 0:
            lead = v
    if lead == 0:
        raise ValueError(
            "degeneracy polynomial vanishes identically at the base point"
        )
    return lead


def _horner(cs, p: TruncatedSeries, order: int) -> TruncatedSeries:
    """sum_i cs[i] * p**i through ``order``, by Horner's rule started
    from the top coefficient."""
    acc = TruncatedSeries(cs[-1].c[: order + 1])
    for c in reversed(cs[:-1]):
        acc = acc * p + c
    return acc


def solve_geodesic_series(
    m: PseudoFinslerMetric,
    s: int,
    seed,
    order: int,
    free: dict[int, float] | None = None,
    y0: float = 0.0,
) -> GeodesicSeries:
    """Determine slope coefficients a_1..a_order under x = t**s.

    ``seed`` pins leading coefficients before solving, as a dict
    {index: value} or a TruncatedSeries whose nonzero coefficients are
    taken as pins; it must satisfy the leading balance (the residual with
    seed alone must not start below the first unknown's slot).  ``free``
    supplies chosen values for indices the recurrence leaves FREE.  A
    zero linear coefficient against nonzero forcing stops the solve and
    marks the family OBSTRUCTED at that index.  A request it cannot solve,
    a non-finite seed, free value or y0 among them, raises ValueError.
    """
    s = int(s)
    if s < 1:
        raise ValueError("substitution exponent must be a positive integer")
    order = int(order)
    if order < 1:
        raise ValueError("need at least one coefficient order")
    if isinstance(seed, TruncatedSeries):
        seed_map = {i: v for i, v in enumerate(seed.c) if v != 0 and i >= 1}
        if seed.c[0] != 0:
            raise ValueError("seed slope must vanish at the base point")
    else:
        seed_map = {int(k): _frac(v) for k, v in dict(seed).items()}
    if not seed_map:
        raise ValueError("need a nonempty seed")
    if any(k < 1 or k > order for k in seed_map):
        raise ValueError("seed indices must lie in 1..order")
    free_map = {int(k): _frac(v) for k, v in (free or {}).items()}
    y0f = _frac(y0)

    denom_exprs = m._expr_layer("denom")
    plan = _SeriesPlan(denom_exprs + m._expr_layer("numer"))
    n_denom = len(denom_exprs)
    norm = _leading_norm(m, y0f)
    unknowns = [k for k in range(1, order + 1) if k not in seed_map]
    if not unknowns:
        raise ValueError("every order is pinned by the seed")

    # Only y = y0 + integral of p dx changes between residuals: x = t**s
    # is fixed, so the steps that do not read y are computed once per
    # solve, at the first truncation order asked for, and cut to any
    # lower one (truncated arithmetic is exact through its order).
    fixed: dict[int, dict[int, TruncatedSeries]] = {}

    def fixed_at(n_trunc: int) -> dict[int, TruncatedSeries]:
        got = fixed.get(n_trunc)
        if got is None:
            top = min((k for k in fixed if k > n_trunc), default=None)
            if top is None:
                xs = TruncatedSeries.monomial(s, 1, n_trunc + s)
                vals = plan.run(plan.fixed, [None] * len(plan.steps), xs, None,
                                n_trunc + s)
                got = {i: vals[i] for i in plan.kept}
            else:
                got = {i: TruncatedSeries(v.c[: n_trunc + s + 1])
                       for i, v in fixed[top].items()}
            fixed[n_trunc] = got
        return got

    def residual(values: dict[int, Fraction], n_trunc: int) -> TruncatedSeries:
        coeffs = [Fraction(0)] * (n_trunc + 1)
        for i, v in values.items():
            if i <= n_trunc:
                coeffs[i] = v
        p = TruncatedSeries(coeffs)
        x, y = _curve_series(s, y0f, p)
        vals = [None] * len(plan.steps)
        for i, v in fixed_at(n_trunc).items():
            vals[i] = v
        plan.run(plan.moving, vals, x, y, n_trunc + s)
        layer = [vals[r] for r in plan.roots]
        dpoly = _horner(layer[:n_denom], p, n_trunc)
        npoly_ = _horner(layer[n_denom:], p, n_trunc)
        return dpoly * p.deriv() - npoly_ * x.deriv()

    def split(series: TruncatedSeries):
        vals_, eps_ = [], []
        for v in series.c:
            if isinstance(v, _Jet):
                vals_.append(v.val)
                eps_.append(v.eps)
            else:
                vals_.append(v)
                eps_.append(Fraction(0))
        return vals_, eps_

    def first_nonzero(seq) -> int | None:
        for i, v in enumerate(seq):
            if v != 0:
                return i
        return None

    # Locate the residual slot of the first unknown with an exact jet;
    # the derivative component is free of higher-degree contamination.
    n_probe = order + 3 * s + 4
    k0 = unknowns[0]
    rv, re = split(residual({**seed_map, k0: _Jet(0, 1)}, n_probe))
    mk = first_nonzero(re)
    if mk is None:
        raise ValueError("could not detect the leading balance for the first unknown")
    offset = mk - k0
    j0 = first_nonzero(rv)
    if j0 is not None and j0 < mk:
        raise ValueError(
            f"seed does not match the leading balance: residual starts at "
            f"order {j0}, below the first resolvable slot {mk}"
        )

    n_trunc = max(order + offset + 2, mk + 1)
    values: dict[int, Fraction] = dict(seed_map)
    rows: list[SeriesOrderRow] = []
    obstructed = False
    obstruction_order: int | None = None

    for k in unknowns:
        slot = k + offset
        rv, re = split(residual({**values, k: _Jet(0, 1)}, n_trunc))
        j = first_nonzero(rv)
        if j is not None and j < slot:
            # an earlier order failed to clear (for instance through a
            # nonlinear feedback); no series of this shape exists
            obstructed = True
            obstruction_order = j
            rows.append(
                SeriesOrderRow(k, j, Fraction(0), rv[j] / norm, Fraction(0),
                               "OBSTRUCTED")
            )
            break
        forcing = rv[slot] / norm
        lin = re[slot] / norm
        if lin != 0:
            value = -forcing / lin
            status = "FORCED"
        elif forcing != 0:
            obstructed = True
            obstruction_order = slot
            rows.append(SeriesOrderRow(k, slot, lin, forcing, Fraction(0),
                                       "OBSTRUCTED"))
            break
        else:
            value = free_map.get(k, Fraction(0))
            status = "FREE"
        values[k] = value
        rows.append(SeriesOrderRow(k, slot, lin, forcing, value, status))

    residual_order: int | None = None
    if not obstructed:
        rf = residual(values, n_trunc)
        residual_order = rf.first_nonzero()
        if residual_order is not None and residual_order <= order + offset:
            raise ValueError(
                f"recurrence inconsistent: residual persists at order "
                f"{residual_order} after solving"
            )

    return GeodesicSeries(
        s=s,
        y0=float(y0),
        order=order,
        coeffs=values,
        rows=tuple(rows),
        offset=offset,
        norm=norm,
        obstructed=obstructed,
        obstruction_order=obstruction_order,
        residual_order=residual_order,
    )


def series_to_curve(sol: GeodesicSeries | TruncatedSeries, s: int | None = None,
                    y0: float = 0.0):
    """(x(t), y(t)) series from a slope series, integrating p dx termwise."""
    if isinstance(sol, GeodesicSeries):
        return _curve_series(sol.s, _frac(sol.y0), sol.p_series())
    if s is None:
        raise ValueError("need the substitution exponent s")
    return _curve_series(int(s), _frac(y0), sol)


def series_point(sol: GeodesicSeries, t: float):
    """Evaluate (x, y, slope) of the solved family at parameter t."""
    p = sol.p_series()
    x, y = _curve_series(sol.s, _frac(sol.y0), p)
    return (x.evaluate(t), y.evaluate(t), p.evaluate(t))
