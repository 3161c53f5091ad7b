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

The residual denom(p) * dp/dt - numer(p) * dx/dt is one value-numbered
plan (_SeriesPlan) over the denominator and numerator coefficient trees,
their two Horner sums in p and the two products, so a subexpression used
in several places is one series operation; the trees are numbered by
codegen, whose lines the float evaluators also run, and the plan is
built once per metric.  Making its steps folds the identities 0 * u = 0,
0 + u = u and -0 = 0, exact over the rationals (not in IEEE floats,
where inf * 0 is nan, so the float code keeps them), so the constant
zero top coefficients of the numerator cost no step.  The plan is
evaluated one exact coefficient at a time, each from the coefficients
below it (relaxed power-series arithmetic); a coefficient below a
step's valuation is the zero without being computed, and a product's
coefficient sums its terms as integers and is reduced once.
Setting a_k changes no residual coefficient below index k - 1, so a
solve computes the steps that read neither y nor p only once, and
carries the exact derivative in a_k (steps added to the plan by forward
differentiation) only on the indices k - 1 .. k + offset that a_k can
reach.  The other columns are computed with a_k = 0 and, once a_k = v
is solved, settled: v times each one's derivative column is added on
the indices k - 1 .. 2k - 3.  a_k first enters at index k - 1 (through
dp/dt), so its square enters a product or a quotient at index 2k - 2 at
the earliest; below that the columns are affine in a_k and the settle
is exact.  Only from 2k - 2 on are they dropped, to be computed again
with a_k set.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codegen import _Code
from .metric import PseudoFinslerMetric

__all__ = [
    "TruncatedSeries",
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


def _float(v) -> float:
    # the nearest float, or an infinity beyond the float range, as IEEE
    # rounds an overflow
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _coerce(v):
    # numbers become rationals; a coefficient from another exact ring
    # (dual numbers, say) is kept as it is
    return _frac(v) if isinstance(v, (numbers.Number, str)) else v


_ZERO, _ONE = Fraction(0), Fraction(1)


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

    def evaluate(self, t: float) -> float:
        acc = 0.0
        for v in reversed(self.c):
            acc = acc * t + _float(v)
        return acc

    def __repr__(self) -> str:
        shown = ", ".join(str(v) for v in self.c[: min(8, len(self.c))])
        tail = ", ..." if len(self.c) > 8 else ""
        return f"TruncatedSeries([{shown}{tail}], order={self.order})"


class _SeriesPlan:
    """One value-numbered plan over a list of expressions, on exact series.

    The numbering is codegen's: each line (t, op, a, b) of ``_Code(exprs)``
    becomes one step, a name operand the slot of its line or the leaf x or
    y, and a float operand a c step (its value read by ``_frac``).
    ``steps`` holds (slot, op, a, b) in evaluation order, with op one of
    c (constant a), the leaves x, y, p (the slope), P (dp/dt) and X
    (dx/dt), + * / (slots a and b) and - (negate slot a).  ``roots``
    holds each expression's slot.  Steps are keyed by their operator and
    operand slots, so equal subexpressions are computed once, and a step
    with an exact zero constant operand is folded as it is made: 0 * u
    and -0 are that zero's slot and 0 + u is u's (a quotient is kept,
    so that 0 / u still fails where u vanishes at t = 0).  A step
    moves when it reads y, the slope or a derivative leaf (q, Q, z: the
    derivatives of p, P and y in one slope coefficient); ``dslot`` maps
    each moving step of the residual to the slot of its derivative.

    A solve reads ``for_metric(m)``: the plan of m's residual, which
    depends only on the metric (not on s, y0, the seed or the order), so
    it is built on m's first solve and kept with m beside its layer
    tables.
    """

    def __init__(self, exprs):
        self.steps: list[tuple] = []
        self.moves: list[bool] = []
        self.dslot: dict[int, int] = {}
        self._keys: dict[tuple, int] = {}
        code = _Code(exprs)
        slots: dict[str, int] = {}

        def operand(v):
            if isinstance(v, float):
                return self.step("c", _frac(v))
            return slots[v] if v in slots else self.step(v)

        for t, op, a, b in code.lines:
            slots[t] = self.step(op, operand(a), None if b is None else operand(b))
        self.roots = [operand(r) for r in code.roots]

    @classmethod
    def for_metric(cls, m: PseudoFinslerMetric) -> "_SeriesPlan":
        plan = m._series_plan
        if plan is None:
            denom = m._expr_layer("denom")
            plan = cls(denom + m._expr_layer("numer"))
            plan.residual(len(denom))
            m._series_plan = plan
        return plan

    def step(self, op: str, a=None, b=None) -> int:
        if op in "+*-":
            zero = self._keys.get(("c", _ZERO, None))
            if zero is not None and zero in (a, b):  # exact over the rationals
                return (b if a == zero else a) if op == "+" else zero
        key = (op, a, b)
        if op in "+*" and b < a:
            key = (op, b, a)
        slot = self._keys.get(key)
        if slot is None:
            slot = len(self.steps)
            self._keys[key] = slot
            self.steps.append((slot, op, a, b))
            reads = (a, b) if op in "+*/" else (a,) if op == "-" else ()
            self.moves.append(op in "ypPqQz" or any(self.moves[i] for i in reads))
        return slot

    def residual(self, n_denom: int) -> None:
        """Add R = D(p) * P - N(p) * X, where the first ``n_denom`` roots
        are the coefficients of D in p and the rest those of N, each sum
        by Horner's rule from the top coefficient, and then its
        derivative; ``lead`` holds the slots of D's coefficients and
        ``root`` and ``droot`` those of R and its derivative."""
        # the leaves first, so that every step after the root is one of
        # its derivative's
        p, P, X = (self.step(op) for op in "pPX")

        def horner(cs):
            acc = cs[-1]
            for c in reversed(cs[:-1]):
                acc = self.step("+", self.step("*", acc, p), c)
            return acc

        d = self.step("*", horner(self.roots[:n_denom]), P)
        n = self.step("*", horner(self.roots[n_denom:]), X)
        self.lead = self.roots[:n_denom]
        self.root = self.step("+", d, self.step("-", n))
        self.droot = self._derivative(self.root)

    def _derivative(self, root: int) -> int:
        """Add the steps of root's derivative by forward differentiation,
        from the leaves q, Q and z; a step that does not move has none."""
        def add(u, v):
            return v if u is None else u if v is None else self.step("+", u, v)

        def mul(u, v):  # u a derivative or None, v a value
            return None if u is None else self.step("*", u, v)

        d: dict[int, int | None] = {}
        for slot, op, a, b in self.steps[: root + 1]:
            if not self.moves[slot]:
                continue
            da, db = d.get(a), d.get(b)
            if op in "pPy":
                d[slot] = self.step("qQz"["pPy".index(op)])
            elif op == "+":
                d[slot] = add(da, db)
            elif op == "-":
                d[slot] = self.step("-", da)
            elif op == "*":
                d[slot] = add(mul(da, b), mul(db, a))
            else:  # (a / b)' = (a' - (a / b) b') / b
                neg = None if db is None else self.step("-", mul(db, slot))
                d[slot] = self.step("/", add(da, neg), b)
        self.dslot = d
        # a root that does not move (D and N folded to zero) has the
        # derivative 0
        return d[root] if root in d else self.step("c", _ZERO)


def _termwise(A, B, lo: int, hi: int, j: int):
    """Coefficient j of the product of columns A and B in a ring without
    numerators, summed term by term over A's indices lo .. hi."""
    acc = None
    for i in range(lo, hi + 1):
        u, w = A[i], B[j - i]
        if u is not _ZERO and w is not _ZERO:
            acc = u * w if acc is None else acc + u * w
    return acc


def _coeff(op: str, a, b, vals: list, zeros: list, slot: int, j: int):
    """Coefficient j of a non-leaf step, from the coefficients below j;
    ``zeros`` counts each column's leading zeros, and every zero the
    columns hold is the one object _ZERO.

    A * step sums its nonzero terms u_i w_(j-i) as integer numerators
    over one running denominator and makes one Fraction of the sum, or
    _ZERO, so the coefficient is reduced once rather than once per term;
    a coefficient ring without numerators (dual numbers, say) is summed
    term by term."""
    if op == "+":
        u, w = vals[a][j], vals[b][j]
        return (u + w if w is not _ZERO else u) if u is not _ZERO else w
    if op == "*":
        A, B = vals[a], vals[b]
        num = None
        try:
            for i in range(zeros[a], j - zeros[b] + 1):
                u = A[i]
                if u is not _ZERO:
                    w = B[j - i]
                    if w is not _ZERO:
                        n, d = u.numerator * w.numerator, u.denominator * w.denominator
                        if num is None:
                            num, den = n, d
                        elif d == den:
                            num += n
                        else:
                            num, den = num * d + n * den, den * d
        except AttributeError:
            return _termwise(A, B, zeros[a], j - zeros[b], j)
        return Fraction(num, den) if num else _ZERO
    if op == "/":
        # B * q = A, solved for q_j
        B, col = vals[b], vals[slot]
        acc = vals[a][j]
        for i in range(max(zeros[b], 1), j - zeros[slot] + 1):
            w = B[i]
            if w is not _ZERO:
                u = col[j - i]
                if u is not _ZERO:
                    acc -= w * u
        return acc / B[0]
    if op == "-":
        u = vals[a][j]
        return u if u is _ZERO else -u
    return a if j == 0 else _ZERO  # "c"


class _SeriesRun:
    """The coefficient columns of a plan's steps, each extended one index
    at a time; ``leaf(op, j)`` gives coefficient j of a leaf.  ``settle(k, v)``
    puts a solved a_k = v into the moving columns, which were computed
    with a_k = 0.

    a_k enters no leaf below index k - 1 (the coefficient of P there),
    so an a_k**2 term of a product or a quotient lies at index 2k - 2 or
    higher.  Below 2k - 2 a column is therefore affine in a_k, and adding
    v times its derivative column (``plan.dslot``) gives its value at
    a_k = v exactly; from 2k - 2 on it is dropped and recomputed when
    next extended."""

    def __init__(self, plan: _SeriesPlan, leaf):
        self.plan, self.leaf = plan, leaf
        self.vals: list[list] = [[] for _ in plan.steps]
        self.zeros = [0] * len(plan.steps)  # leading zeros of each column

    def extend(self, top: int, upto: int | None = None) -> None:
        """Compute the columns of the first ``upto`` steps (all of them by
        default) through index ``top``, one column at a time: a step
        reads only lower slots.  A coefficient below the step's
        valuation, known from its operands' leading zeros (a * step's
        index below their sum, a + step's below both), is the zero
        without a call to _coeff."""
        vals, zeros, leaf = self.vals, self.zeros, self.leaf
        for slot, op, a, b in self.plan.steps[:upto]:
            col = vals[slot]
            for j in range(len(col), top + 1):
                if (op == "*" and j < zeros[a] + zeros[b]
                        or op == "+" and j < zeros[a] and j < zeros[b]):
                    v = _ZERO  # below the step's valuation
                else:
                    v = (leaf(op, j) if op in "xyXpPqQz"
                         else _coeff(op, a, b, vals, zeros, slot, j))
                if v is _ZERO or not v:
                    v = _ZERO
                    if zeros[slot] == j:
                        zeros[slot] = j + 1
                col.append(v)

    def settle(self, k: int, v) -> None:
        """Each settled coefficient u + v w is summed as integer
        numerators over one denominator and made one Fraction, or _ZERO;
        a solve's columns hold rationals."""
        vals, zeros = self.vals, self.zeros
        vn, vd = v.numerator, v.denominator
        for slot, ds in self.plan.dslot.items():
            col, dcol = vals[slot], vals[ds]
            del col[2 * k - 2:]
            for j in range(k - 1, len(col)):
                w = dcol[j]
                if w is not _ZERO:
                    num, den = vn * w.numerator, vd * w.denominator
                    u = col[j]
                    if u is not _ZERO:
                        d = u.denominator
                        num, den = num * d + u.numerator * den, den * d
                    col[j] = Fraction(num, den) if num else _ZERO
            if zeros[slot] >= k - 1:  # the settled indices may end them elsewhere
                z = k - 1
                while z < len(col) and col[z] is _ZERO:
                    z += 1
                zeros[slot] = z


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
    y0: Fraction  # the exact base height the solve used
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

    def table(self) -> str:
        lines = ["order  linear_coeff  status      value"]
        for r in self.rows:
            lines.append(
                f"{r.index:>5}  {str(r.linear_coeff):>12}  {r.status:<10}  {r.value}"
            )
        return "\n".join(lines)


def _curve_series(s: int, y0, p: TruncatedSeries):
    # dx/dt is the exact monomial s*t**(s-1), so y = y0 + integral of p dx
    # has y_j = s p_(j-s) / j, as the solve's y leaf: with p known through
    # its order n, y is known through n+s.
    x = TruncatedSeries.monomial(s, 1, p.order + s)
    y = TruncatedSeries([y0] + [_ZERO] * (s - 1)
                        + [s * v / (i + s) for i, v in enumerate(p.c)])
    return x, y


def _first_nonzero(seq) -> int | None:
    return next((i for i, v in enumerate(seq) if v != 0), None)


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
    supplies chosen values for indices the recurrence leaves FREE; an
    index the seed pins, one outside 1..order and one the recurrence
    finds FORCED are refused.  A zero linear coefficient against nonzero
    forcing stops the solve and marks the family OBSTRUCTED at that
    index.  A request it cannot solve, a non-finite seed, free value or
    y0 among them, raises ValueError.
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
    for i in sorted(free_map):
        if i in seed_map:
            raise ValueError(f"free index {i} is pinned by the seed")
        if not 1 <= i <= order:
            raise ValueError(f"free index {i} lies outside 1..{order}")

    plan = _SeriesPlan.for_metric(m)
    root = plan.root
    a = [_ZERO] * (order + 1)  # a[i] = 0 until a_i is pinned or solved
    for i, v in seed_map.items():
        a[i] = v

    solving = 0  # the unknown a_k that q, Q and z differentiate in

    def leaf(op: str, j: int):
        k = solving
        if op == "x":
            return _ONE if j == s else _ZERO
        if op == "X":
            return Fraction(s) if j == s - 1 else _ZERO
        if op == "p":
            return a[j] if j <= order else _ZERO
        if op == "P":
            return (j + 1) * a[j + 1] if j < order else _ZERO
        if op == "y":  # y = y0 + integral of p dx, so y_j = s a_(j-s) / j
            if j == 0:
                return y0f
            return s * a[j - s] / j if s < j <= order + s else _ZERO
        if op == "q":
            return _ONE if j == k else _ZERO
        if op == "Q":
            return Fraction(k) if j == k - 1 else _ZERO
        return Fraction(s, k + s) if j == k + s else _ZERO  # "z"

    run = _SeriesRun(plan, leaf)
    residual, dres = run.vals[root], run.vals[plan.droot]
    # the norm: the top nonzero coefficient of D at the base point, index 0
    # of the columns of D's coefficients, which read only x (0 there) and
    # y (y0); a quotient's coefficient 0 divides by its divisor's value
    # there, so index 0 of the value columns also finds any pole
    try:
        run.extend(0, upto=root + 1)
    except ZeroDivisionError:
        raise ValueError(
            f"pole at the base point (0, {y0f}): a divisor in the metric's "
            f"coefficients vanishes there"
        ) from None
    norm = next((v for v in (run.vals[r][0] for r in reversed(plan.lead)) if v != 0), _ZERO)
    if norm == 0:
        raise ValueError(
            "degeneracy polynomial vanishes identically at the base point"
        )
    unknowns = [k for k in range(1, order + 1) if k not in seed_map]
    if not unknowns:
        raise ValueError("every order is pinned by the seed")

    def carry(k: int) -> None:
        # a_k reaches no coefficient below k - 1: start the derivative
        # columns there, with zeros below
        nonlocal solving
        solving = k
        for i in range(root + 1, len(plan.steps)):
            run.vals[i][:] = [_ZERO] * (k - 1)
            run.zeros[i] = k - 1

    # The leading balance: the first slot where the residual depends on
    # the first unknown, looked for through order + 3s + 3.
    k = unknowns[0]
    carry(k)
    mk = None
    for j in range(order + 3 * s + 4):
        run.extend(j)
        if dres[j] != 0:
            mk = j
            break
    if mk is None:
        raise ValueError("could not detect the leading balance for the first unknown")
    offset = mk - k
    j0 = _first_nonzero(residual[:mk])
    if j0 is not None:
        raise ValueError(
            f"seed does not match the leading balance: residual starts at "
            f"order {j0}, below the first resolvable slot {mk}"
        )

    values: dict[int, Fraction] = dict(seed_map)
    rows: list[SeriesOrderRow] = []
    obstructed = False
    obstruction_order: int | None = None

    for k in unknowns:
        slot = k + offset
        if k != solving:  # the leading balance carried the first one
            carry(k)
        run.extend(slot)
        j = _first_nonzero(residual[:slot])
        if j is not None:
            # an earlier order failed to clear (for instance through a
            # nonlinear feedback); no series of this shape exists
            obstructed = True
            obstruction_order = j
            rows.append(
                SeriesOrderRow(k, j, _ZERO, residual[j] / norm, _ZERO,
                               "OBSTRUCTED")
            )
            break
        forcing = residual[slot] / norm
        lin = dres[slot] / norm
        if lin != 0:
            if k in free_map:
                raise ValueError(
                    f"free index {k} is FORCED (linear coefficient {lin}), "
                    f"not free"
                )
            value = -forcing / lin
            status = "FORCED"
        elif forcing != 0:
            obstructed = True
            obstruction_order = slot
            rows.append(SeriesOrderRow(k, slot, lin, forcing, _ZERO,
                                       "OBSTRUCTED"))
            break
        else:
            value = free_map.get(k, _ZERO)
            status = "FREE"
        values[k] = a[k] = value
        rows.append(SeriesOrderRow(k, slot, lin, forcing, value, status))
        if value:
            run.settle(k, value)

    residual_order: int | None = None
    if not obstructed:
        run.extend(order + offset + 1, upto=root + 1)  # no derivative
        residual_order = _first_nonzero(residual)
        if residual_order is not None and residual_order <= order + offset:
            raise ValueError(
                f"recurrence inconsistent: residual persists at order "
                f"{residual_order} after solving"
            )

    return GeodesicSeries(
        s=s, y0=y0f, order=order, coeffs=values, rows=tuple(rows),
        offset=offset, norm=norm, obstructed=obstructed,
        obstruction_order=obstruction_order, residual_order=residual_order,
    )


def series_to_curve(sol: GeodesicSeries | TruncatedSeries, s: int | None = None,
                    y0: float = 0.0):
    """(x(t), y(t)) series from a slope series, integrating p dx termwise."""
    if isinstance(sol, GeodesicSeries):
        return _curve_series(sol.s, sol.y0, sol.p_series())
    if s is None:
        raise ValueError("need the substitution exponent s")
    return _curve_series(int(s), _frac(y0), sol)


def series_point(sol: GeodesicSeries, t: float):
    """Evaluate (x, y, slope) of the solved family at parameter t."""
    p = sol.p_series()
    x, y = _curve_series(sol.s, sol.y0, p)
    return (x.evaluate(t), y.evaluate(t), p.evaluate(t))
