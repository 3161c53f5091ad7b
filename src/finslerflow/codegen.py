"""Straight-line evaluators generated from expression trees.

A layer -- the coefficient fields c_0..c_{n-1} of one polynomial in the
slope p -- is value-numbered into one sequence of assignments, in which
equal subexpressions are computed once, and compiled with ``compile()``
into a plain Python function of (x, y) giving the coefficients at a point
(``LayerTable``).  Each function is compiled on its first use, under a
name that says what it is.  Generated code sums a polynomial in p only in
the fused functions: ``horner_function`` numbers layers together into
their values at a slope (the metric's ``fdp_function``),
``lifted_field_function`` numbers a layer and its x and y partials
together into the direction nets' lifted field, ``slope_rows_function``
numbers slope polynomials with their x, y and p partials into the
residuals and Jacobian rows that trace the loci, and ``dopri_step``
writes out one adaptive Dormand-Prince step, its step-size controller
included, for states of a given dimension; ``chart_step`` writes the
same for the geodesic flow in one chart, with the field's components
inline around a call of the metric's generated ``fdp``.

Every evaluator is one shape of code, the value-numbered lines, which run
on floats or, elementwise and with the same bits, on numpy arrays.  After
a temporary's last use its name goes to a free list and the next line's
target takes it, so a temporary dies when its name is taken, not when the
function returns; the results keep their own names.  ``on_arrays`` is the
one chunker of generated functions and of grids: it runs a function on
1-d arrays _CHUNK points at a time.  Grids of points
(``values_on_grid``) are raveled and go through it, as do the grid
functions of the loci (``singular._grid_values``), written in place
where a grid becomes another, and the strata
(``metric.strata_on_grid``).

The arithmetic is raw IEEE: a vanishing denominator gives inf/nan and an
overflowing power gives inf, never an exception.  Integer powers are
expanded by square-and-multiply and Horner's rule starts from 0.0 with
the highest coefficient that is not a constant +0.0 (the lifted field's
sums start from that coefficient itself), so a result is exactly what
that sequence of float operations gives.  This is the library's only
evaluator of expression trees; a caller that must refuse a pole tests
the values it gets for finiteness.  The exact series solve
(``puiseux._SeriesPlan``) runs the same value-numbered lines on
truncated series instead of floats.
"""

from __future__ import annotations

import math
from functools import cache, cached_property

import numpy as np

from . import expr as ex


def _div(a, b):
    """a / b with the IEEE result instead of ZeroDivisionError.  Floats
    raise only on a zero b; numpy divides arrays elementwise, warning
    unless the caller's np.errstate says otherwise."""
    try:
        return a / b
    except ZeroDivisionError:
        if a != a or not a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _ipow(b: float, k: int) -> float:
    """b**k for k >= 0; an overflow gives +-inf, as IEEE products do,
    not OverflowError."""
    if k <= 0:
        return 1.0
    try:
        return float(b) ** k
    except OverflowError:
        return math.copysign(math.inf, b) if k % 2 else math.inf


_COMMUTATIVE = ("+", "*")
# Arrays are evaluated in slices of this many points, so that each
# temporary stays small (64 KiB) whatever the array size.
_CHUNK = 8192


def _atom(v: str | float) -> str:
    """Source text of an operand: a name, or a float literal that
    evaluates to exactly ``v`` (inf and nan are names in the namespace)."""
    if isinstance(v, str):
        return v
    s = repr(v)
    return "(" + s + ")" if s.startswith("-") else s


class _Code:
    """Value-numbered straight-line code for a list of expressions.

    ``lines`` holds (target, op, a, b) with op one of + * / and - (negate
    a); operands are names (x, y, t<k>) or floats.  Nodes are memoized by
    identity and keyed by their operator and operand names, so no
    expression tree is ever hashed.  Constants are not folded here (the
    parser and ``expr``'s constructors fold them): a node whose operands
    are all constants is a line like any other.  The float writers
    (``scalar_lines``) and the exact series plan of ``puiseux`` both read
    these lines.
    """

    def __init__(self, exprs):
        self.lines: list[tuple[str, str, str | float, str | float | None]] = []
        self._keys: dict[tuple, str] = {}
        self._seen: dict[int, str | float] = {}
        self.roots = [self._visit(e) for e in exprs]
        del self._keys, self._seen  # needed only while numbering

    def _op(self, op: str, a, b=None):
        args = (_atom(a), None if b is None else _atom(b))
        # exact identities: v * 1.0, v / 1.0 and v + (-0.0) are v for
        # every float v, signed zeros, infinities and nan included
        if (op, args[0]) in (("*", "1.0"), ("+", "(-0.0)")):
            return b
        if (op, args[1]) in (("*", "1.0"), ("/", "1.0"), ("+", "(-0.0)")):
            return a
        key = (op,) + (tuple(sorted(args)) if op in _COMMUTATIVE else args)
        name = self._keys.get(key)
        if name is None:
            name = f"t{len(self.lines)}"
            self._keys[key] = name
            self.lines.append((name, op, a, b))
        return name

    def _pow(self, b, k: int):
        if k < 0:
            b, k = self._op("/", 1.0, b), -k
        r = None  # stands for 1.0; 1.0 * b is exactly b
        while k:
            if k & 1:
                r = b if r is None else self._op("*", r, b)
            k >>= 1
            if k:
                b = self._op("*", b, b)
        return 1.0 if r is None else r

    def _visit(self, e: ex.Expr):
        got = self._seen.get(id(e))
        if got is not None:
            return got
        if isinstance(e, ex.Const):
            out = float(e.value)
        elif isinstance(e, ex.Var):
            out = e.name
        elif isinstance(e, ex.Add):
            out = self._op("+", self._visit(e.a), self._visit(e.b))
        elif isinstance(e, ex.Mul):
            out = self._op("*", self._visit(e.a), self._visit(e.b))
        elif isinstance(e, ex.Div):
            out = self._op("/", self._visit(e.a), self._visit(e.b))
        elif isinstance(e, ex.Neg):
            out = self._op("-", self._visit(e.a))
        elif isinstance(e, ex.Pow):
            out = self._pow(self._visit(e.base), e.exponent)
        else:
            raise TypeError(f"not an expression node: {e!r}")
        self._seen[id(e)] = out
        return out

    def scalar_lines(self) -> list[str]:
        """The lines as source, with the same operations in the same
        order.  A temporary's name goes to a free list at its last use and
        the next target takes it, so a temporary dies when its name is
        taken; the roots keep their own names."""
        roots = {r for r in self.roots if isinstance(r, str)}
        # operand -> the index of the line that uses it last
        last = {v: k for k, (_, _, a, b) in enumerate(self.lines) for v in (a, b)}
        name, free, out = {}, [], []
        for k, (t, op, a, b) in enumerate(self.lines):
            for v in (a,) if a == b else (a, b):
                if last.get(v) == k and v in name and v not in roots:
                    free.append(name[v])
            a, b = name.get(a, a), name.get(b, b)
            name[t] = t if t in roots or not free else free.pop()
            t = name[t]
            if op == "-":
                out.append(f"{t} = -{_atom(a)}")
            elif op == "/":
                out.append(f"{t} = _div({_atom(a)}, {_atom(b)})")
            else:
                out.append(f"{t} = {_atom(a)} {op} {_atom(b)}")
        return out


def _function(name: str, args: str, body: list[str], result: str):
    """Compile ``def name(args): body; return result`` in the pseudo-file
    ``<finslerflow name>``, so that a profile lists each kind of generated
    function under its own name."""
    src = f"def {name}({args}):\n" + "".join(f"    {s}\n" for s in body + [
        f"return {result}"
    ])
    ns = {"_div": _div, "_ipow": _ipow, "_sqrt": math.sqrt, "inf": math.inf, "nan": math.nan}
    exec(compile(src, f"<finslerflow {name}>", "exec"), ns)
    return ns[name]


def _horner_rows(name: str, rows):
    """Compile ``name``(x, y, p) -> tuple of each row's polynomial value at
    slope p, sum_i row[i] p^i by Horner's rule from 0.0; the rows share one
    value numbering.

    A row's leading coefficients that are the constant +0.0 are skipped,
    all but its constant term: the sum starts at 0.0 * p + c_k with c_k
    the first other one.  That is exact for every p, as 0.0 * p + 0.0 is
    +0.0, or nan where p is infinite or nan, and so is the skipped start."""
    code = _Code([e for row in rows for e in row])
    body, results, at = code.scalar_lines(), [], 0
    for j, row in enumerate(rows):
        coeffs = [_atom(r) for r in reversed(code.roots[at : at + len(row)])]
        while len(coeffs) > 1 and coeffs[0] == "0.0":
            del coeffs[0]
        prev = "0.0"
        for k, r in enumerate(coeffs):
            body.append(f"h{j}_{k} = {prev} * p + {r}")
            prev = f"h{j}_{k}"
        at += len(row)
        results.append(prev)
    return _function(name, "x, y, p", body, "(" + ", ".join(results) + ",)")


def horner_function(layers):
    """(x, y, p) -> tuple of each layer's polynomial value at slope p;
    the layers share one value numbering.  It is compiled under the name
    ``fdp``, after its caller PseudoFinslerMetric.fdp_function."""
    return _horner_rows("fdp", layers)


def p_derivative(c):
    """The coefficients i * c[i] of the p-derivative of sum_i c[i] p^i;
    one zero for a constant.  ``ex.mul`` folds a constant c[i] into the
    float product, a signed zero included."""
    return [ex.mul(ex.const(i), a) for i, a in enumerate(c)][1:] or [ex.ZERO]


def slope_rows_function(polys):
    """(x, y, p) -> (C, C_x, C_y, C_p) of each slope polynomial C at slope
    p, flat, on floats or elementwise on arrays.  polys holds each
    polynomial's coefficient rows (c, cx, cy) of C, C_x and C_y; C_p's
    coefficients are i * c[i] (p_derivative).  The rows share one value
    numbering and each sum is Horner's from 0.0, as ``horner_function``'s;
    compiled under the name ``slope_rows``, after its caller
    PseudoFinslerMetric.slope_rows_function."""
    return _horner_rows(
        "slope_rows", [row for c, cx, cy in polys for row in (c, cx, cy, p_derivative(c))]
    )


def lifted_field_function(c, cx, cy):
    """(x, y, p) -> the rows (C_p, p C_p, -(C_x + p C_y)) of the slope
    polynomial C = sum_i c[i] p^i, on floats or elementwise on arrays; cx
    and cy are the coefficients of C_x and C_y.

    The rows are derived trees in one value numbering; each Horner sum in
    p starts from its top coefficient (C_p from 1 * c[1] .. (n-1) * c[n-1]).
    A row may be a constant or an argument itself.
    """
    p = ex.Var("p")

    def horner(coeffs):
        acc = coeffs[-1] if coeffs else ex.ZERO
        for a in reversed(coeffs[:-1]):
            acc = ex.sadd(ex.smul(acc, p), a)
        return acc

    dcdp = horner([ex.smul(ex.const(i), a) for i, a in enumerate(c)][1:])
    rhs = ex.neg(ex.sadd(horner(cx), ex.smul(p, horner(cy))))
    code = _Code([dcdp, ex.smul(p, dcdp), rhs])
    rows = ", ".join(_atom(r) for r in code.roots)
    return _function("lifted_field", "x, y, p", code.scalar_lines(), f"({rows},)")


# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5):
# the stage rows of the Butcher tableau, the last one giving the 5th-order
# solution, and the error weights b5 - b4.  The zero weights A[6][1] and
# E[1] are kept on purpose: their products turn a stage that met a pole
# into a nan that refuses the attempt, and the sums keep signed zeros.
DOPRI_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
DOPRI_E = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)
# the stops of the adaptive step, which the traces record as events
STEP_UNDERFLOW = "StepUnderflow"
MAX_STEPS = "MaxSteps"


def _names(stem: str, d: int) -> str:
    return ", ".join(f"{stem}{i}" for i in range(d)) + ","


def _dopri_function(name: str, field: str, d: int, stage, accepted: list[str]):
    """Compile the adaptive Dormand-Prince 5(4) step ``name``(field,
    rel_tol, abs_tol, max_step, u, fu, t, h, left) from the state u of d
    floats at time t, where the field is fu.  It makes at most left
    attempts, the first of length h, and returns (None, h, h_next, left,
    *accepted) for the first one accepted: its length, the length to try
    next and the attempts left; or (stop, h, h, left, None, ...) with stop
    STEP_UNDERFLOW or MAX_STEPS.

    Stage s's state has the entries u_i + h * (0.0 + A[s][0] * k0_i + ...),
    each sum taken left to right with its zero weights, as ``sum()`` adds
    floats on Python 3.11; the last stage's state w is the 5th-order
    solution.  stage(s, v) gives the lines that set k<s>_0 .. k<s>_(d-1),
    the field at the state named v[0] .. v[d-1].  The error norm is the
    root mean square of e_i / (abs_tol + rel_tol * max(|u_i|, |w_i|)),
    e_i = h * (0.0 + E[0] * k0_i + ...); a square that overflows is inf.
    An attempt is capped at max_step.  One that leaves the floats is
    retried at a quarter of its length, stopping below 1e-14; one whose
    norm exceeds 1 at max(0.2, 0.9 norm^-0.2) times it, stopping below
    1e-14 max(1, |t|).  An accepted one proposes min(5, max(0.2,
    0.9 norm^-0.2)) times its length, 5 at a zero norm.  Each max and min
    is the comparison the builtin makes, so a nan goes where it would.
    """

    def combo(coeffs, i):
        return "0.0" + "".join(
            f" + {_atom(c)} * k{j}_{i}" for j, c in enumerate(coeffs)
        )

    def terms(form):
        return "".join(form.format(i) for i in range(d))

    def stop(kind):
        return f"{kind!r}, h, h, left" + ", None" * len(accepted)

    body = [f"{_names('u', d)} = u", f"{_names('k0_', d)} = fu"]
    body += [f"a{i} = abs(u{i})" for i in range(d)]
    body += ["floor = abs(t)", "floor = 1e-14 * (floor if floor > 1.0 else 1.0)"]
    loop = ["left -= 1", "if max_step < h: h = max_step"]
    for s, row in enumerate(DOPRI_A[1:], start=1):
        v = "w" if s == len(DOPRI_A) - 1 else f"v{s}_"
        loop += [f"{v}{i} = u{i} + h * ({combo(row, i)})" for i in range(d)]
        loop += stage(s, [f"{v}{i}" for i in range(d)])
    for i in range(d):
        loop += [f"e{i} = h * ({combo(DOPRI_E, i)})", f"s{i} = abs(w{i})",
                 f"e{i} = e{i} / (abs_tol + rel_tol * (s{i} if s{i} > a{i} else a{i}))"]
    loop += f"""try:
    err = 0.0{terms(" + e{0} ** 2")}
except OverflowError:
    err = 0.0{terms(" + _ipow(e{0}, 2)")}
err = _sqrt(err / {d})
if not (err - err == 0.0{terms(" and w{0} - w{0} == 0.0")}):
    h *= 0.25
    if h < 1e-14: return {stop(STEP_UNDERFLOW)}
    continue
if err > 1.0:
    g = 0.9 * err ** -0.2
    h *= g if g > 0.2 else 0.2
    if h < floor: return {stop(STEP_UNDERFLOW)}
    continue
g = 5.0 if err == 0.0 else 0.9 * err ** -0.2
if not g > 0.2: g = 0.2
if not g < 5.0: g = 5.0
return None, h, h * g, left, {", ".join(accepted)}""".split("\n")
    body += ["while left > 0:"] + ["    " + line for line in loop]
    args = f"{field}, rel_tol, abs_tol, max_step, u, fu, t, h, left"
    return _function(name, args, body, stop(MAX_STEPS))


@cache
def dopri_step(d: int):
    """(rhs, rel_tol, abs_tol, max_step, u, fu, t, h, left) ->
    (stop, h, h_next, left, unew, fnew): the adaptive Dormand-Prince 5(4)
    step (_dopri_function) of du/dt = rhs(u) from a state u of d floats
    with fu = rhs(u); compiled on the first call for each d.

    Stage s calls rhs on the tuple of its state, the last one on unew
    itself, and fnew is that call's result.
    """
    last = len(DOPRI_A) - 1

    def stage(s, v):
        if s == last:
            return [f"unew = ({', '.join(v)},)", "fnew = rhs(unew)",
                    f"{_names(f'k{s}_', d)} = fnew"]
        return [f"{_names(f'k{s}_', d)} = rhs(({', '.join(v)},))"]

    return _dopri_function(f"dopri_step_{d}", "rhs", d, stage, ["unew", "fnew"])


@cache
def chart_step(chart: str):
    """(fdp, sign, rel_tol, abs_tol, max_step, u, fu, t, h, left) ->
    (stop, h, h_next, left, unew, fnew, end): dopri_step(3) on the
    direction field of one chart of the geodesic flow, with the field
    written into the stages; compiled on the first call for each chart.

    fdp is a metric's generated (x, y, p) -> (F, denom, numer), called on
    each stage state (x, y, s) as fdp(x, y, s) in the chart "p" and as
    fdp(y, x, s) in the chart "q", where it is the dual metric's.  The
    field is (sign * denom, sign * (s * denom), sign * numer) in "p" and
    (sign * (s * denom), sign * denom, sign * numer) in "q".  end is the
    last stage's (F, denom, numer), those at unew.
    """
    last = len(DOPRI_A) - 1

    def stage(s, v):
        x, y, p = v if chart == "p" else (v[1], v[0], v[2])
        k = ("sign * _d", f"sign * ({v[2]} * _d)", "sign * _n")
        if chart == "q":
            k = (k[1], k[0], k[2])
        if s == last:
            lines = [f"end = fdp({x}, {y}, {p})", "_, _d, _n = end"]
        else:
            lines = [f"_, _d, _n = fdp({x}, {y}, {p})"]
        return lines + [f"k{s}_{i} = {ki}" for i, ki in enumerate(k)]

    return _dopri_function(
        f"chart_step_{chart}", "fdp, sign", 3, stage,
        [f"({_names('w', 3)})", f"({_names(f'k{last}_', 3)})", "end"],
    )


class LayerTable:
    """Generated evaluators of the coefficient fields of one layer.

    Index i holds the coefficient of p^i when the table represents a
    polynomial in the slope p with coefficient fields over (x, y).
    """

    def __init__(self, exprs):
        self.exprs = tuple(exprs)
        self.n = len(self.exprs)

    @cached_property
    def _code(self) -> _Code:
        return _Code(self.exprs)

    @cached_property
    def point_function(self):
        """The generated (x, y) -> tuple of the coefficients, on floats or
        elementwise on arrays; values_at converts its arguments to floats
        and calls it, values_on_grid runs it on arrays."""
        roots = ", ".join(_atom(r) for r in self._code.roots)
        return _function("point_function", "x, y", self._code.scalar_lines(), f"({roots},)")

    def values_at(self, x: float, y: float) -> np.ndarray:
        return np.array(self.point_function(float(x), float(y)))

    def values_on_grid(self, xs, ys) -> np.ndarray:
        """The coefficients at arrays xs and ys of one shape, with the
        shape (n,) + xs.shape; bit for bit values_at at each point."""
        xs = np.asarray(xs, dtype=np.float64)
        out = on_arrays(self.n, self.point_function, xs.ravel(), np.ravel(ys))
        return out.reshape((self.n,) + xs.shape)


def on_arrays(n: int, fn, *args, out=None) -> np.ndarray:
    """The n results of a generated function run elementwise on 1-d float
    arrays, _CHUNK points at a time, as the rows of one (n, len) array; a
    result that is a constant fills its row.  Given out, that array takes
    the results: an argument may be a row of it, as each block's results
    are made before they are written."""
    args = [np.asarray(a, dtype=np.float64) for a in args]
    if out is None:
        out = np.empty((n, args[0].size))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in range(0, out.shape[1], _CHUNK):
            e = s + _CHUNK
            for row, v in zip(out[:, s:e], fn(*(a[s:e] for a in args))):
                row[...] = v
    return out
