"""One exact primal simplex for every LP in the package.

Written in-house because downstream code needs a genuine basic feasible
solution (the returned basis bounds the support) and bit-reproducible
tie-breaking, which off-the-shelf interior-point or presolving solvers do
not guarantee.

``exact_solve`` reads every entry as an exact rational (``Fraction(v)`` is
exact for ints, Fractions and floats alike) into columns of integer numerators
over a positive denominator, the form that ``_column_solve`` (which the design
LP calls directly) solves, keeping B^-1 in ``Fraction``s. It starts from a
primal feasible basis the caller gives or, without one, runs phase 1 from
artificials on the equality rows and slacks on the <= rows. Both phases share
one pivot loop. It enters the column with the most negative float reduced
cost, once that column's exact reduced cost is confirmed negative. When floats
see no such column, or after ``STALL_PIVOTS`` consecutive degenerate pivots,
it enters by Bland's rule on exact prices. The ratio test is exact, with
Bland's tie-break, so the solve always terminates (Bland 1977). It stops where
exact pricing finds no negative reduced cost, so the returned basis is
exactly optimal.
"""

from __future__ import annotations

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
    and d > 0; the last ``n_ub`` rows are <= rows."""
    n, m, total = len(c), len(rhs), len(c) + n_ub
    cost = [_exact(v) for v in c] + [0] * n_ub
    rhs = [_exact(v) for v in rhs]
    columns = list(columns) + [(1, [(i, 1)]) for i in range(m - n_ub, m)]
    if not m:
        raise ValueError("LP needs at least one row")
    float_a = np.zeros((m, total))
    for j, (d, col) in enumerate(columns):
        for i, v in col:
            float_a[i, j] = v / d
    if basis is None:
        if any(v < 0 for v in rhs):
            raise ValueError("phase 1 needs a nonnegative right-hand side")
        n_eq = m - n_ub
        basis = [total + i for i in range(n_eq)] + list(range(n, total))
        binv, x_b = _factor(basis, columns, rhs)
        # phase 1: minimize the sum of the artificials
        _simplex_phase(basis, binv, x_b, [0] * total + [1] * n_eq, columns, float_a)
        if any(v for j, v in zip(basis, x_b) if j >= total):
            raise ValueError("LP is infeasible")
    else:
        basis = list(basis)
        if len(basis) != m or len(set(basis)) != m or not all(0 <= j < total for j in basis):
            raise ValueError(f"a basis names {m} distinct columns below {total}")
        factored = _factor(basis, columns, rhs)
        if factored is None:
            raise ValueError("singular basis")
        binv, x_b = factored
        if any(v < 0 for v in x_b):
            raise ValueError("basis is not primal feasible")
    y = _simplex_phase(basis, binv, x_b, cost, columns, float_a)
    return _certificate(n, basis, x_b, y, cost)


def _simplex_phase(basis, binv, x_b, cost, columns, float_a):
    """Pivot from a primal feasible basis, updating ``basis``, B^-1 and x_B
    in place, until exact pricing finds no column with a negative reduced
    cost; returns the duals y there.

    ``cost`` may run past the columns: an artificial (a basis index past the
    last column) costs its entry there, never enters, and leaves at step 0
    as soon as an entering column touches its row while it sits at 0, so it
    stays at 0 once there.
    """
    total = len(columns)
    float_cost = np.array(cost[:total], dtype=float)
    stalled = 0
    while True:
        y = _duals(basis, cost, binv)
        entering = None
        if stalled < STALL_PIVOTS:
            # most negative float reduced cost, if its exact one is negative
            reduced = float_cost - np.array(y, dtype=float) @ float_a
            j = int(np.argmin(reduced))
            if reduced[j] < -PIVOT_TOL:
                entering = _first_negative(y, cost, columns, (j,))
        if entering is None:
            entering = _first_negative(y, cost, columns, range(total))
            if entering is None:
                return y
        d, col = columns[entering]
        u = [sum((row[i] * v for i, v in col), Fraction(0)) / d for row in binv]
        # exact ratio test; ties leave by the smallest basic column (Bland)
        leaving, step = -1, None
        for i, (ui, xi) in enumerate(zip(u, x_b)):
            if ui > 0 or (ui and not xi and basis[i] >= total):
                ratio = xi / ui
                if step is None or ratio < step or (ratio == step and basis[i] < basis[leaving]):
                    leaving, step = i, ratio
        if leaving < 0:
            raise ValueError("LP is unbounded")
        pivot_row = [v / u[leaving] for v in binv[leaving]]
        for i, ui in enumerate(u):
            if ui and i != leaving:
                binv[i] = [a - ui * b if b else a for a, b in zip(binv[i], pivot_row)]
                x_b[i] -= ui * step
        binv[leaving] = pivot_row
        x_b[leaving] = step
        basis[leaving] = entering
        stalled = stalled + 1 if step == 0 else 0


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


def _factor(basis, columns, rhs):
    """(B^-1, x_B) of ``basis`` over Fractions, or None when B is singular.

    A basis index past the last column is the artificial of row
    ``index - len(columns)``, a unit column.
    """
    m, total = len(rhs), len(columns)
    bmat = [[0] * m for _ in range(m)]
    for k, j in enumerate(basis):
        d, col = columns[j] if j < total else (1, [(j - total, 1)])
        for i, v in col:
            bmat[i][k] = Fraction(v, d)
    binv = _inverse(bmat)
    if binv is None:
        return None
    return binv, [sum((a * b for a, b in zip(row, rhs) if b), Fraction(0)) for row in binv]


def _duals(basis, cost, binv):
    """y = c_B B^-1, skipping zero costs; a basis index past ``cost`` costs 0."""
    y = [Fraction(0)] * len(binv)
    for j, row in zip(basis, binv):
        cj = cost[j] if j < len(cost) else 0
        if cj:
            y = [a + cj * b for a, b in zip(y, row)]
    return y


def _first_negative(y, cost, columns, order):
    """The first column in ``order`` whose exact reduced cost c_j - y . a_j
    is negative, or None.

    Prices in integers: with y = y_int / scale and the column (d, entries),
    y . a_j = sum(y_int[i] * k) / (scale * d).
    """
    scale = math.lcm(*(v.denominator for v in y))
    y_int = [v.numerator * (scale // v.denominator) for v in y]
    for j in order:
        d, entries = columns[j]
        if cost[j].numerator * scale * d < cost[j].denominator * sum(y_int[i] * k for i, k in entries):
            return j
    return None


def _certificate(n, basis, x_b, y, cost) -> Certificate:
    x = [Fraction(0)] * n
    for j, v in zip(basis, x_b):
        if j < n:
            x[j] = v
    objective = sum((cost[j] * x[j] for j in range(n) if x[j]), Fraction(0))
    return Certificate(tuple(x), tuple(y), objective, tuple(basis))


def _exact(v):
    return v if type(v) in (int, Fraction) else Fraction(v)


def _inverse(mat) -> list | None:
    """Gauss-Jordan inversion over Fractions; None when mat is singular."""
    m = len(mat)
    aug = [list(row) + [int(i == k) for k in range(m)] for i, row in enumerate(mat)]
    for k in range(m):
        p = next((i for i in range(k, m) if aug[i][k] != 0), None)
        if p is None:
            return None
        aug[k], aug[p] = aug[p], aug[k]
        pivot_row = aug[k]
        inv = 1 / Fraction(pivot_row[k])
        pivot_row[k:] = [v * inv for v in pivot_row[k:]]
        for i in range(m):
            f = aug[i][k]
            if i != k and f != 0:
                row = aug[i]
                for j in range(k, 2 * m):
                    if pivot_row[j]:
                        row[j] -= f * pivot_row[j]
    return [row[m:] for row in aug]
