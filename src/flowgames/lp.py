"""Simplex solvers: a dense float tableau for float data, and an exact
primal simplex for exact data.

Written in-house because downstream code needs a genuine basic feasible
solution (the returned basis certifies support bounds) and bit-reproducible
tie-breaking, which off-the-shelf interior-point or presolving solvers do
not guarantee. Scale target is desk-sized problems: hundreds of columns.

``lp_solve`` runs two phases in floats with Bland's rule. Bland's rule is
finite only in exact arithmetic: on degenerate LPs float roundoff can make
it revisit a basis, so each phase records the bases it visits and stops
with status "cycled" at the first revisit.

``exact_solve`` takes exact data and a primal feasible basis, so it needs
no phase 1. It keeps B^-1 in ``Fraction``s and updates it at each pivot.
It enters the column with the most negative float reduced cost, once that
column's exact reduced cost is confirmed negative. When floats see no such
column, or after ``STALL_PIVOTS`` consecutive degenerate pivots, it enters by
Bland's rule on exact prices. The ratio test is exact, with Bland's
tie-break, so the solve always terminates. It stops where exact pricing finds
no negative reduced cost, a basis that ``certify`` accepts. ``certify``
decides exactly whether a given basis is optimal: it factors only the m x m
basis, solves for x_B and the duals y, and prices every column once against y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._numpy import np

PIVOT_TOL = 1e-10
MAX_PIVOTS = 50000
# consecutive degenerate exact pivots before pricing by Bland's rule alone
STALL_PIVOTS = 30


@dataclass(frozen=True)
class LPResult:
    """Outcome of a float solve.

    status: "optimal", "infeasible", "unbounded", "cycled" (a phase revisited
        a basis) or "pivot_limit" (MAX_PIVOTS pivots in one phase).
    x: primal values for the structural variables (optimal only).
    objective: c . x for the returned x.
    basis: column indices (structural, then slack, then artificial on a
        redundant row) of the final basis.
    pivots: float pivots made in both phases (moving artificials out of the
        basis between them included), whatever the status.
    """

    status: str
    x: np.ndarray | None
    objective: float | None
    basis: tuple[int, ...] | None
    pivots: int | None


@dataclass(frozen=True)
class Certificate:
    """An exactly verified optimal basis: x is feasible, y is dual feasible
    and objective = c . x = y . b."""

    x: tuple
    y: tuple
    objective: Fraction
    basis: tuple[int, ...]


def lp_solve(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None) -> LPResult:
    """Minimize c.x subject to a_eq x = b_eq, a_ub x <= b_ub, x >= 0, in
    floats, pivoting with Bland's rule."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    rhs = []
    if a_eq is not None and len(a_eq):
        a_eq = np.asarray(a_eq, dtype=float)
        rhs.extend(np.asarray(b_eq, dtype=float))
        n_eq = a_eq.shape[0]
    else:
        n_eq = 0
    n_ub = 0
    if a_ub is not None and len(a_ub):
        a_ub = np.asarray(a_ub, dtype=float)
        n_ub = a_ub.shape[0]
        rhs.extend(np.asarray(b_ub, dtype=float))
    m = n_eq + n_ub
    if m == 0:
        raise ValueError("LP needs at least one row")
    # standard form: [A_eq 0; A_ub I] with slack columns for the <= rows
    a = np.zeros((m, n + n_ub))
    if n_eq:
        a[:n_eq, :n] = a_eq
    if n_ub:
        a[n_eq:, :n] = a_ub
        a[n_eq:, n : n + n_ub] = np.eye(n_ub)
    b = np.asarray(rhs, dtype=float)
    neg = b < 0
    a[neg] *= -1.0
    b = np.abs(b)

    total = n + n_ub
    tableau = np.zeros((m + 1, total + m + 1))
    tableau[:m, :total] = a
    tableau[:m, total : total + m] = np.eye(m)
    tableau[:m, -1] = b
    basis = list(range(total, total + m))
    # phase 1: price out artificials
    tableau[m, :] = 0.0
    for i in range(m):
        tableau[m, : total + m] -= tableau[i, : total + m]
        tableau[m, -1] -= tableau[i, -1]
    status, pivots = _pivot_loop(tableau, basis, total)
    if status != "optimal":
        return LPResult(status, None, None, None, pivots)
    if -tableau[m, -1] > 1e-8:
        return LPResult("infeasible", None, None, None, pivots)
    pivots += _drive_out_artificials(tableau, basis, total)

    # phase 2 over structural + slack columns
    tableau[m, :] = 0.0
    tableau[m, :n] = c
    for i, bi in enumerate(basis):
        if bi < total and tableau[m, bi] != 0.0:
            tableau[m, :] -= tableau[m, bi] * tableau[i, :]
    status, phase2 = _pivot_loop(tableau, basis, total)
    pivots += phase2
    if status != "optimal":
        return LPResult(status, None, None, None, pivots)

    x_full = np.zeros(total)
    for i, bi in enumerate(basis):
        if bi < total:
            x_full[bi] = tableau[i, -1]
    x = x_full[:n]
    return LPResult("optimal", x, float(c @ x), tuple(sorted(basis)), pivots)


def _pivot_loop(tableau, basis, allowed: int) -> tuple[str, int]:
    m = tableau.shape[0] - 1
    seen = {frozenset(basis)}
    for pivots in range(MAX_PIVOTS):
        row = tableau[m, :allowed]
        eligible = (row < -PIVOT_TOL).nonzero()[0]  # Bland: smallest index
        if not eligible.size:
            return "optimal", pivots
        entering = int(eligible[0])
        best_ratio = None
        leaving = -1
        for i, (coef, value) in enumerate(zip(tableau[:m, entering].tolist(), tableau[:m, -1].tolist())):
            if coef > PIVOT_TOL:
                ratio = value / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio - 1e-12
                    or (abs(ratio - best_ratio) <= 1e-12 and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded", pivots
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        key = frozenset(basis)
        if key in seen:
            return "cycled", pivots + 1
        seen.add(key)
    return "pivot_limit", MAX_PIVOTS


def _pivot(tableau, row: int, col: int):
    tableau[row, :] /= tableau[row, col]
    pivot_row = tableau[row]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    for i in factors.nonzero()[0].tolist():
        tableau[i] -= factors[i] * pivot_row


def _drive_out_artificials(tableau, basis, total: int) -> int:
    m = tableau.shape[0] - 1
    pivots = 0
    for i in range(m):
        if basis[i] < total:
            continue
        pivot_col = -1
        for j in range(total):
            if abs(tableau[i, j]) > PIVOT_TOL:
                pivot_col = j
                break
        if pivot_col >= 0:
            _pivot(tableau, i, pivot_col)
            basis[i] = pivot_col
            pivots += 1
        else:
            # redundant row: keep the zero-level artificial basic; it never
            # re-enters because phase 2 prices only real columns
            tableau[i, -1] = 0.0
    return pivots


def certify(basis, c, a_eq=None, b_eq=None, a_ub=None, b_ub=None) -> Certificate | None:
    """Decide exactly whether ``basis`` (as returned by ``lp_solve``) is an
    optimal basis of the LP with this data, read as exact rationals.

    Every entry is taken as ``Fraction(v)``, which is exact for ints,
    Fractions and floats alike. Returns None when the basis matrix is
    singular, x_B is not feasible (an artificial must sit at 0 exactly) or
    some column prices out with a negative reduced cost.
    """
    if basis is None:
        return None
    cost, columns, rhs = _exact_data(c, a_eq, b_eq, a_ub, b_ub)
    total = len(cost)
    factored = _factor(basis, columns, rhs)
    if factored is None:
        return None
    binv, x_b = factored
    if any(v < 0 or (j >= total and v != 0) for j, v in zip(basis, x_b)):
        return None
    y = _duals(basis, cost, binv)
    if _first_negative(y, cost, columns, range(total)) is not None:
        return None
    return _certificate(len(c), basis, x_b, y, cost)


def exact_solve(basis, c, a_eq=None, b_eq=None, a_ub=None, b_ub=None) -> Certificate:
    """An exactly optimal basis of the LP with this data, read as exact
    rationals, by primal simplex from the primal feasible ``basis``.

    ``basis`` names one column per row, structural (index < len(c)) or slack
    (len(c) + i for the i-th <= row). Raises ValueError when it is not such
    a list, its matrix is singular or its x_B has a negative entry, and when
    the LP is unbounded.
    """
    cost, columns, rhs = _exact_data(c, a_eq, b_eq, a_ub, b_ub)
    m, total = len(rhs), len(cost)
    basis = list(basis)
    if len(basis) != m or len(set(basis)) != m or not all(0 <= j < total for j in basis):
        raise ValueError(f"a basis names {m} distinct columns below {total}")
    factored = _factor(basis, columns, rhs)
    if factored is None:
        raise ValueError("singular basis")
    binv, x_b = factored
    if any(v < 0 for v in x_b):
        raise ValueError("basis is not primal feasible")
    float_cost = np.array(cost, dtype=float)
    float_a = np.zeros((m, total))
    for j, (d, col) in enumerate(columns):
        for i, v in col:
            float_a[i, j] = v / d
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
                return _certificate(len(c), basis, x_b, y, cost)
        d, col = columns[entering]
        u = [sum((row[i] * v for i, v in col), Fraction(0)) / d for row in binv]
        # exact ratio test; ties leave by the smallest basic column (Bland)
        leaving, step = -1, None
        for i, (ui, xi) in enumerate(zip(u, x_b)):
            if ui > 0:
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


def _exact_data(c, a_eq, b_eq, a_ub, b_ub):
    """The LP read as exact rationals in standard form: costs, columns and
    the right-hand side, with a unit slack column of cost 0 after the
    structural columns for each <= row. A column is (d, [(row, k)]) for the
    nonzero entries k / d, where d is the lcm of the column's denominators."""
    eq_rows = [] if a_eq is None else list(a_eq)
    ub_rows = [] if a_ub is None else list(a_ub)
    rhs = [_exact(v) for v in (b_eq if eq_rows else ())]
    rhs += [_exact(v) for v in (b_ub if ub_rows else ())]
    cost = [_exact(v) for v in c]
    entries = [[] for _ in cost]
    for i, row in enumerate(eq_rows + ub_rows):
        for j, v in enumerate(row):
            if v:
                entries[j].append((i, _exact(v)))
    columns = []
    for col in entries:
        d = math.lcm(*(v.denominator for _, v in col))
        columns.append((d, [(i, v.numerator * (d // v.denominator)) for i, v in col]))
    cost += [0] * len(ub_rows)
    columns += [(1, [(i, 1)]) for i in range(len(eq_rows), len(rhs))]
    return cost, columns, rhs


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
    """y = c_B B^-1, skipping the zero costs of slacks and artificials."""
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
