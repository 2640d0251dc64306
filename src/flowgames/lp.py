"""One exact primal simplex for every LP in the package.

Written in-house because downstream code needs a genuine basic feasible
solution (the returned basis bounds the support) and bit-reproducible
tie-breaking, which off-the-shelf interior-point or presolving solvers do
not guarantee.

``exact_solve`` reads every entry as an exact rational (``Fraction(v)`` is
exact for ints, Fractions and floats alike) into columns of integer numerators
over a positive denominator, the form that ``_column_solve`` (which the design
LP calls directly) solves. It keeps B^-1 and x_B fraction-free: integer
numerators over one common denominator, with every entry and the denominator
divided by their gcd after each pivot (integer-preserving elimination in the
manner of Edmonds 1967). Duals, pricing and the ratio test are integer work
too; ``Fraction``s are made only for the returned ``Certificate``. It starts
from a primal feasible basis the caller gives (pivoted in from the unit basis)
or, without one, runs phase 1 from artificials on the equality rows and
slacks on the <= rows. Both phases share one pivot loop. It enters the column
with the most negative float reduced cost, once that column's exact reduced
cost is confirmed negative; the duals' floats are int quotients, correctly
rounded like a ``Fraction``'s. When floats see no such column, or after
``STALL_PIVOTS`` consecutive degenerate pivots, it enters by Bland's rule on
exact prices. The ratio test is exact, with Bland's tie-break, so the solve
always terminates (Bland 1977). It stops where exact pricing finds no
negative reduced cost, so the returned basis is exactly optimal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from ._numpy import np

PIVOT_TOL = 1e-10
# consecutive degenerate exact pivots before pricing by Bland's rule alone
STALL_PIVOTS = 30


@dataclass(frozen=True)
class Certificate:
    """An exactly verified optimal basis: x is feasible, y is dual feasible
    and objective = c . x = y . b."""

    x: tuple
    y: tuple
    objective: Fraction
    basis: tuple[int, ...]


def exact_solve(basis, c, a_eq=None, b_eq=None, a_ub=None, b_ub=None) -> Certificate:
    """An exactly optimal basis of min c.x subject to a_eq x = b_eq,
    a_ub x <= b_ub and x >= 0, with every entry read as an exact rational.

    ``basis`` names one column per row, structural (index < len(c)) or slack
    (len(c) + i for the i-th <= row). Raises ValueError when it is not such
    a list, its matrix is singular or its x_B has a negative entry. With
    ``basis`` None, phase 1 starts from an artificial on each equality row
    and the slack of each <= row, and raises ValueError on a negative
    right-hand side or an infeasible LP; an artificial left at 0 on a
    redundant equality row stays in the returned basis, past the slacks.
    Raises ValueError when the LP has no rows or is unbounded.
    """
    return _column_solve(basis, c, *_exact_data(a_eq, b_eq, a_ub, b_ub, len(c)))


def _column_solve(basis, c, columns, rhs, n_ub) -> Certificate:
    """:func:`exact_solve` on an LP in column form: (d, [(row, k)]) per
    structural column (see :func:`_column`), entries k / d with integer k
    and d > 0, or (None, [(row, v)]) with v ints, ``Fraction``s or floats,
    read exactly by :func:`_column`; the last ``n_ub`` rows are <= rows."""
    n, m, total = len(c), len(rhs), len(c) + n_ub
    n_eq = m - n_ub
    cost = [_exact(v) for v in c] + [0] * n_ub
    rhs = [_exact(v) for v in rhs]
    columns = [_column(col) if d is None else (d, col) for d, col in columns]
    columns += [(1, [(i, 1)]) for i in range(n_eq, m)]
    if not m:
        raise ValueError("LP needs at least one row")
    float_a = np.zeros((m, total))
    size = np.fromiter((len(col) for _, col in columns), np.intp, total)
    nnz = int(size.sum())
    float_a[
        np.fromiter((i for _, col in columns for i, _ in col), np.intp, nnz),
        np.repeat(np.arange(total), size),
    ] = np.fromiter((v / d for d, col in columns for _, v in col), float, nnz)
    # b: the right-hand side times its common denominator, so x_B = row[-1] / (den * scale)
    scale = math.lcm(*(v.denominator for v in rhs))
    b = [v.numerator * (scale // v.denominator) for v in rhs]
    if basis is None:
        if any(v < 0 for v in rhs):
            raise ValueError("phase 1 needs a nonnegative right-hand side")
        basis = [total + i for i in range(n_eq)] + list(range(n, total))
        rows, den = _factor(basis, columns, b, n_eq)
        # phase 1: minimize the sum of the artificials
        den = _simplex_phase(basis, rows, den, [0] * total + [1] * n_eq, columns, float_a)[0]
        if any(row[-1] for j, row in zip(basis, rows) if j >= total):
            raise ValueError("LP is infeasible")
    else:
        basis = list(basis)
        if len(basis) != m or len(set(basis)) != m or not all(0 <= j < total for j in basis):
            raise ValueError(f"a basis names {m} distinct columns below {total}")
        factored = _factor(basis, columns, b, n_eq)
        if factored is None:
            raise ValueError("singular basis")
        rows, den = factored
        if any(row[-1] < 0 for row in rows):
            raise ValueError("basis is not primal feasible")
    den, y, y_den = _simplex_phase(basis, rows, den, cost, columns, float_a)
    x = [Fraction(0)] * n
    for j, row in zip(basis, rows):
        if j < n:
            x[j] = Fraction(row[-1], den * scale)
    objective = sum((cost[j] * x[j] for j in range(n) if x[j]), Fraction(0))
    return Certificate(tuple(x), tuple(Fraction(v, y_den) for v in y), objective, tuple(basis))


def _simplex_phase(basis, rows, den, cost, columns, float_a):
    """Pivot from a primal feasible basis, updating ``basis`` and the rows
    [B^-1 | B^-1 b] over ``den`` (see :func:`_factor`) in place, until exact
    pricing finds no column with a negative reduced cost; returns (den, y_int,
    y_den) there, the duals being y_int / y_den.

    ``cost`` may run past the columns: an artificial (a basis index past the
    last column) costs its entry there, never enters, and leaves at step 0
    as soon as an entering column touches its row while it sits at 0, so it
    stays at 0 once there.
    """
    total = len(columns)
    float_cost = np.array(cost[:total], dtype=float)
    stalled = 0
    while True:
        y, y_den = _duals(basis, cost, rows, den)
        entering = None
        if stalled < STALL_PIVOTS:
            # most negative float reduced cost, if its exact one is negative;
            # int true division rounds correctly, so these are y's floats
            reduced = float_cost - np.array([v / y_den for v in y]) @ float_a
            j = int(np.argmin(reduced))
            if reduced[j] < -PIVOT_TOL:
                entering = _first_negative(y, y_den, cost, columns, (j,))
        if entering is None:
            entering = _first_negative(y, y_den, cost, columns, range(total))
            if entering is None:
                return den, y, y_den
        d, col = columns[entering]
        u = [sum(row[i] * v for i, v in col) for row in rows]  # B^-1 a_j times den * d
        # exact ratio test on x_i / u_i; ties leave by the smallest basic column (Bland)
        leaving, num, step_den = -1, 0, 1
        for i, (ui, row) in enumerate(zip(u, rows)):
            xi = row[-1]
            if ui > 0 or (ui and not xi and basis[i] >= total):
                p, q = (xi, ui) if ui > 0 else (0, 1)
                lhs, rhs = p * step_den, num * q
                if leaving < 0 or lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, num, step_den = i, p, q
        if leaving < 0:
            raise ValueError("LP is unbounded")
        den = _pivot(rows, den, u, leaving, d)
        basis[leaving] = entering
        stalled = stalled + 1 if num == 0 else 0


def _pivot(rows, den: int, u, leaving: int, d: int) -> int:
    """Pivot the rows [B^-1 | B^-1 b] / ``den`` in place on row ``leaving`` for
    the column a with B^-1 a = u / (den * d), u integer; returns the new
    common denominator, after dividing every entry and it by their gcd."""
    if u[leaving] < 0:
        u, d = [-v for v in u], -d
    ul, pivot = u[leaving], rows[leaving]
    for i, ui in enumerate(u):
        if i != leaving and (ui or ul != 1):
            row = rows[i]
            rows[i] = [a * ul - ui * b for a, b in zip(row, pivot)] if ui else [a * ul for a in row]
    rows[leaving] = [v * d * den for v in pivot]
    den *= ul
    g = math.gcd(den, *itertools.chain.from_iterable(rows))
    if g > 1:
        rows[:] = [[v // g for v in row] for row in rows]
        den //= g
    return den


def _exact_data(a_eq, b_eq, a_ub, b_ub, n):
    """An LP's rows as ``n`` columns, its right-hand side and its number of <= rows."""
    eq_rows, ub_rows = list(() if a_eq is None else a_eq), list(() if a_ub is None else a_ub)
    rhs, rows = list(b_eq if eq_rows else ()) + list(b_ub if ub_rows else ()), eq_rows + ub_rows
    return [_column(enumerate(row[j] for row in rows)) for j in range(n)], rhs, len(ub_rows)


def _column(entries):
    """(d, [(row, k)]) of the nonzero entries (row, v): v = k / d, d the lcm of their denominators."""
    exact = [(i, _exact(v)) for i, v in entries if v]
    d = math.lcm(*(v.denominator for _, v in exact))
    return d, [(i, v.numerator * (d // v.denominator)) for i, v in exact]


def _factor(basis, columns, b, n_eq: int):
    """(rows, den) of ``basis``: the rows [B^-1 | B^-1 b] of integers over a
    common denominator ``den``, for the integer right-hand side ``b``, or
    None when B is singular.

    Starts from the unit basis (the artificial of each of the first ``n_eq``
    rows, the slacks after) and pivots each other column of ``basis`` in
    on the first row whose unit column is not in ``basis``. A basis index
    past the last column is the artificial of row ``index - len(columns)``.
    """
    m, total = len(b), len(columns)
    n = total - (m - n_eq)
    rows = [[int(i == k) for k in range(m)] + [v] for i, v in enumerate(b)]
    at = [total + i if i < n_eq else n + i - n_eq for i in range(m)]  # the basic column of each row
    den, wanted = 1, set(basis)
    for j in basis:
        if j in at:
            continue
        d, col = columns[j]
        u = [sum(row[i] * v for i, v in col) for row in rows]
        r = next((i for i, ui in enumerate(u) if ui and at[i] not in wanted), None)
        if r is None:
            return None
        den = _pivot(rows, den, u, r, d)
        at[r] = j
    row_of = {j: i for i, j in enumerate(at)}
    return [rows[row_of[j]] for j in basis], den


def _duals(basis, cost, rows, den):
    """y = c_B B^-1 as (y_int, y_den) in lowest terms, skipping zero costs; a
    basis index past ``cost`` costs 0."""
    cb = [(cost[j] if j < len(cost) else 0, row) for j, row in zip(basis, rows)]
    c_den = math.lcm(*(c.denominator for c, _ in cb if c))
    y = [0] * len(rows)
    for c, row in cb:
        if c:
            k = c.numerator * (c_den // c.denominator)
            y = [a + k * v for a, v in zip(y, row)]  # zip stops before x_B
    y_den = c_den * den
    g = math.gcd(y_den, *y)
    return [v // g for v in y], y_den // g


def _first_negative(y, y_den, cost, columns, order):
    """The first column in ``order`` whose exact reduced cost c_j - y . a_j
    is negative, or None: with y = y_int / y_den and the column (d, entries),
    y . a_j = sum(y_int[i] * k) / (y_den * d)."""
    for j in order:
        d, entries = columns[j]
        if cost[j].numerator * y_den * d < cost[j].denominator * sum(y[i] * k for i, k in entries):
            return j
    return None


def _exact(v):
    return v if type(v) in (int, Fraction) else Fraction(v)
