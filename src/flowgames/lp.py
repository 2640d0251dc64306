"""Dense two-phase primal simplex over floats, with exact certification.

Written in-house because downstream code needs a genuine basic feasible
solution (the returned basis certifies support bounds) and bit-reproducible
tie-breaking, which off-the-shelf interior-point or presolving solvers do
not guarantee. Scale target is desk-sized problems: hundreds of columns.

``lp_solve`` pivots in floats with Bland's rule. Bland's rule is finite only
in exact arithmetic: on degenerate LPs (the design LP's obedience rows all
have right-hand side 0) float roundoff can make it revisit a basis, so each
phase records the bases it visits and stops with status "cycled" at the first
revisit. ``certify`` decides exactly, in ``Fraction``s, whether a float basis
is optimal for the exact data: it factors only the m x m basis, solves for
x_B and the duals y, and prices every column once against y.
``certified_optimum`` takes exact data, certifies a Bland solve of its float
image and, when that fails, solves once more with Dantzig pricing, which
falls back to Bland's entering rule after ``STALL_PIVOTS`` non-improving
pivots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._numpy import np

PIVOT_TOL = 1e-10
MAX_PIVOTS = 50000
# consecutive non-improving Dantzig pivots before Bland's entering rule
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


def lp_solve(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None, *, _dantzig: bool = False) -> LPResult:
    """Minimize c.x subject to a_eq x = b_eq, a_ub x <= b_ub, x >= 0.

    Pivots with Bland's rule; ``_dantzig`` (the retry of
    ``certified_optimum``) enters the most negative reduced cost instead,
    with Bland's rule after a stall.
    """
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
    status, pivots = _pivot_loop(tableau, basis, total, _dantzig)
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
    status, phase2 = _pivot_loop(tableau, basis, total, _dantzig)
    pivots += phase2
    if status != "optimal":
        return LPResult(status, None, None, None, pivots)

    x_full = np.zeros(total)
    for i, bi in enumerate(basis):
        if bi < total:
            x_full[bi] = tableau[i, -1]
    x = x_full[:n]
    return LPResult("optimal", x, float(c @ x), tuple(sorted(basis)), pivots)


def _pivot_loop(tableau, basis, allowed: int, dantzig: bool) -> tuple[str, int]:
    m = tableau.shape[0] - 1
    seen = {frozenset(basis)}
    stalled = 0
    for pivots in range(MAX_PIVOTS):
        row = tableau[m, :allowed]
        if dantzig and stalled < STALL_PIVOTS:
            entering = int(np.argmin(row))
            if not row[entering] < -PIVOT_TOL:
                return "optimal", pivots
        else:
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
        before = tableau[m, -1]
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        key = frozenset(basis)
        if key in seen:
            return "cycled", pivots + 1
        seen.add(key)
        # the last tableau entry is -objective, so it rises on improvement
        stalled = stalled + 1 if tableau[m, -1] <= before else 0
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
    eq_rows = [] if a_eq is None else list(a_eq)
    ub_rows = [] if a_ub is None else list(a_ub)
    rhs = [_exact(v) for v in (b_eq if eq_rows else ())]
    rhs += [_exact(v) for v in (b_ub if ub_rows else ())]
    n_eq = len(eq_rows)
    m = len(rhs)
    cost = [_exact(v) for v in c]
    n = len(cost)
    total = n + len(ub_rows)
    # sparse structural columns: (row, value) for each nonzero entry
    columns = [[] for _ in range(n)]
    for i, row in enumerate(eq_rows + ub_rows):
        for j, v in enumerate(row):
            if v:
                columns[j].append((i, _exact(v)))
    bmat = [[0] * m for _ in range(m)]
    for k, j in enumerate(basis):
        if j < n:
            for i, v in columns[j]:
                bmat[i][k] = v
        else:  # unit column: a slack, or an artificial on a redundant row
            bmat[n_eq + j - n if j < total else j - total][k] = 1
    x_b = _solve_exact(bmat, rhs)
    if x_b is None:
        return None
    for j, v in zip(basis, x_b):
        if v < 0 or (j >= total and v != 0):
            return None
    cost_b = [cost[j] if j < n else 0 for j in basis]
    y = _solve_exact([list(col) for col in zip(*bmat)], cost_b)
    if any(y[n_eq + k] > 0 for k in range(len(ub_rows))):  # slack reduced cost -y
        return None
    # price in integers: y = y_int / scale, and each column's sum y . a_j is
    # accumulated as num / (den * scale) without normalizing
    scale = math.lcm(*(v.denominator for v in y))
    y_int = [v.numerator * (scale // v.denominator) for v in y]
    for j in range(n):
        num, den = 0, 1
        for i, v in columns[j]:
            q = v.denominator
            num = num * q + y_int[i] * v.numerator * den
            den *= q
        if cost[j].numerator * den * scale < num * cost[j].denominator:
            return None
    x = [Fraction(0)] * n
    for j, v in zip(basis, x_b):
        if j < n:
            x[j] = v
    objective = sum((cost[j] * x[j] for j in range(n) if x[j]), Fraction(0))
    return Certificate(tuple(x), tuple(y), objective, tuple(basis))


def certified_optimum(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None) -> Certificate | None:
    """An exactly optimal basis of the LP with this exact data, or None.

    Solves the float image of the data with Bland's rule and certifies the
    final basis; if that solve did not end at a certifiable basis (it
    cycled, reported infeasibility, or its basis fails ``certify``), solves
    once more from scratch with Dantzig pricing and certifies that.
    """
    floats = [None if v is None else np.array(v, dtype=float) for v in (c, a_eq, b_eq, a_ub, b_ub)]
    for dantzig in (False, True):
        certificate = certify(lp_solve(*floats, _dantzig=dantzig).basis, c, a_eq, b_eq, a_ub, b_ub)
        if certificate is not None:
            return certificate
    return None


def _exact(v):
    return v if type(v) in (int, Fraction) else Fraction(v)


def _solve_exact(mat, rhs) -> list | None:
    """Gauss-Jordan elimination over Fractions; None when mat is singular."""
    m = len(rhs)
    aug = [list(row) + [r] for row, r in zip(mat, rhs)]
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
                for j in range(k, m + 1):
                    if pivot_row[j]:
                        row[j] -= f * pivot_row[j]
    return [row[m] for row in aug]
