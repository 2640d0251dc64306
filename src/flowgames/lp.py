"""One exact primal simplex for every LP in the package.

Written in-house because downstream code needs a genuine basic feasible
solution (the returned basis bounds the support) and bit-reproducible
tie-breaking, which off-the-shelf interior-point or presolving solvers do
not guarantee.

``exact_solve`` reads every entry and cost as an exact rational
(``Fraction(v)`` is exact for ints, Fractions and floats alike) into columns
of integer numerators over a positive denominator, each with its cost's
numerator over the same denominator: the one form in which ``_column_solve``
takes every LP (the design LP, the W1 transport LP and ``ccwe_grid_gap``
call it directly). It keeps B^-1 and x_B fraction-free: integer numerators
over one common denominator, with every entry and the denominator divided
by their gcd after each pivot (integer-preserving elimination in the
manner of Edmonds 1967). Duals, pricing and the ratio test are integer work
too; ``Fraction``s are made only for the returned ``Certificate``. It starts
from a primal feasible basis the caller gives (pivoted in from the unit basis)
or, without one, runs phase 1 from artificials on the equality rows and
slacks on the <= rows. Both phases share one pivot loop. It enters the column
with the most negative float reduced cost (the first on a tie), once that
column's exact reduced cost is confirmed negative; the duals' floats are int
quotients, correctly rounded like a ``Fraction``'s. When floats see no such
column, or after ``STALL_PIVOTS`` consecutive degenerate pivots, it enters by
Bland's rule on exact prices. The ratio test is exact, with Bland's
tie-break, so the solve always terminates (Bland 1977). It stops where exact
pricing finds no negative reduced cost, so the returned basis is exactly
optimal.

The float reduced costs only rank candidates, so one path serves every LP:
sparse Python float rows, adding y_i times row i for each nonzero dual y_i,
so a round costs at most one multiply-add per nonzero. A dense array image
prices a warm solve of a large LP faster (on a 2-core x86 host, design LPs of
7,474 to 1.1 million nonzeros took 1.2-1.6 times as long in Python), but
loading the array library costs 0.07-0.19 s in a fresh process, which is
how the CLI runs, and there no design measured, up to 1.1 million
nonzeros, was slower.

``_lemke`` solves a linear complementarity problem, the form of an affine
equilibrium, on the same integer rows and :func:`_pivot`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .model import _Record

PIVOT_TOL = 1e-10
# consecutive degenerate exact pivots before pricing by Bland's rule alone
STALL_PIVOTS = 30


class Certificate(_Record):
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
    Raises ValueError when the LP has no rows or is unbounded, when a row or
    right-hand side does not match ``c`` or its matrix in length, or on an
    entry that is not a finite number.
    """
    return _column_solve(basis, *_exact_data(c, a_eq, b_eq, a_ub, b_ub))


def _column_solve(basis, c, columns, rhs, n_ub) -> Certificate:
    """:func:`exact_solve` on an LP in column form: (d, [(row, k)]) per
    structural column j (see :func:`_column`), entries k / d with integer k
    and d > 0, and cost c[j] / d with c[j] an int; the last ``n_ub`` rows
    are <= rows. ``Fraction``s are made only for the returned certificate.

    Pricing ranks columns by their float reduced costs over the sparse
    rows of :func:`_float_image` (see :func:`_price`); every pick is
    confirmed by exact pricing and optimality by an exact scan, so the
    floats' rounding can only change the pick between near-tied columns,
    never the exactness of the returned basis."""
    n, m, total = len(c), len(rhs), len(c) + n_ub
    n_eq = m - n_ub
    cost = list(c) + [0] * n_ub
    rhs = [_exact(v) for v in rhs]
    columns = list(columns) + [(1, [(i, 1)]) for i in range(n_eq, m)]
    if not m:
        raise ValueError("LP needs at least one row")
    float_a = _float_image(columns, m)
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
    # c . x = c_B B^-1 b = y . b, in ints: y_int . b over y_den * scale
    objective = Fraction(sum(v * bi for v, bi in zip(y, b)), y_den * scale)
    return Certificate(tuple(x), tuple(Fraction(v, y_den) for v in y), objective, tuple(basis))


def _simplex_phase(basis, rows, den, cost, columns, float_a):
    """Pivot from a primal feasible basis, updating ``basis`` and the rows
    [B^-1 | B^-1 b] over ``den`` (see :func:`_factor`) in place, until exact
    pricing finds no column with a negative reduced cost; returns (den, y_int,
    y_den) there, the duals being y_int / y_den.

    ``float_a`` is the columns' :func:`_float_image`, which :func:`_price`
    ranks them over each round; with no column there is nothing to rank.
    Column j = (d, entries) costs cost[j] / d, an int over the column's own
    d. ``cost`` may run past the columns: an artificial (a basis index past
    the last column) costs its int entry there, never enters, and leaves at
    step 0 as soon as an entering column touches its row while it sits at 0,
    so it stays at 0 once there.
    """
    total = len(columns)
    # int true division rounds correctly: the float of each exact cost
    float_cost = [k / d for k, (d, _) in zip(cost, columns)]
    stalled = 0
    while True:
        y, y_den = _duals(basis, cost, columns, rows, den)
        entering = None
        if total and stalled < STALL_PIVOTS:
            # most negative float reduced cost, the first on a tie, if its
            # exact one is negative; int true division rounds correctly, so
            # these are y's floats
            reduced, j = _price([v / y_den for v in y], float_cost, float_a)
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


def _price(y_f, float_cost, float_a):
    """(reduced, j): the float reduced costs ``float_cost - y_f . a`` of the
    columns of :func:`_float_image` and the index of the first least one.

    The rows are added up in ascending order, skipping zero duals, so a
    round costs the entries of the rows with a nonzero dual, and each
    column's y_f . a is bit for bit the left-to-right float sum of
    y_f[i] * a over its entries (i, a) in ascending row order: a skipped row
    adds an exact zero."""
    acc = [0.0] * len(float_cost)
    for yi, (js, values) in zip(y_f, float_a):
        if yi:
            for j, a in zip(js, values):
                acc[j] += yi * a
    reduced = [c - a for c, a in zip(float_cost, acc)]
    return reduced, reduced.index(min(reduced))


def _float_image(columns, m: int):
    """The float image of the columns (d, [(row, k)]) that pricing ranks
    with: a list of ``m`` sparse float rows, each the pair ([column],
    [k / d])."""
    js, values = [[] for _ in range(m)], [[] for _ in range(m)]
    for j, (d, col) in enumerate(columns):
        for i, v in col:
            js[i].append(j)
            values[i].append(v / d)
    return list(zip(js, values))


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


def _lemke(columns, q):
    """The z >= 0 with w = q + M z >= 0 and z . w = 0, as ``Fraction``s, by
    Lemke's method; None when its run ends on a ray. M is given by its
    columns of (row, value) entries and ``q`` by its values, all exact.

    The tableau w - M z - e z0 = q keeps the simplex's rows [B^-1 | B^-1 q]
    over one denominator (see :func:`_pivot`), from the basis of w. The
    ratio test is Eaves's (1971): the least (x_B, B^-1) row over u_i among
    u_i > 0, unique as B^-1 is nonsingular, so no basis repeats. On a
    positive semidefinite M a ray means there is no solution (Cottle, Pang &
    Stone 1992)."""
    n = len(q)
    q = [_exact(v) for v in q]
    scale = math.lcm(*(v.denominator for v in q))
    rows = [[int(i == k) for k in range(n)] + [v.numerator * (scale // v.denominator)] for i, v in enumerate(q)]
    z = [Fraction(0)] * n
    if all(v >= 0 for v in q):
        return z
    # w_i is variable i, z_j is n + j and z0 is 2n
    cols = [(1, [(i, 1)]) for i in range(n)]
    cols += [(d, [(i, -k) for i, k in col]) for d, _, col in map(_column, columns)]
    cols.append((1, [(i, -1) for i in range(n)]))
    basis, den, entering = list(range(n)), 1, 2 * n
    while True:
        d, col = cols[entering]
        u = [sum(row[i] * v for i, v in col) for row in rows]  # B^-1 a times den * d
        # z0 enters first, each u_i -1, on the least row: the least level at
        # which every w is nonnegative
        rivals = [i for i, ui in enumerate(u) if ui > 0 or entering == 2 * n]
        if not rivals:
            return None
        big = math.lcm(*(abs(u[i]) for i in rivals))
        leaving = min(rivals, key=lambda i: [v * (big // abs(u[i])) for v in rows[i][-1:] + rows[i][:-1]])
        den = _pivot(rows, den, u, leaving, d)
        out, basis[leaving] = basis[leaving], entering
        if out == 2 * n:
            break
        entering = out + n if out < n else out - n  # the complement of the one that left
    for j, row in zip(basis, rows):
        if n <= j < 2 * n:
            z[j - n] = Fraction(row[-1], den * scale)
    return z


def _exact_data(c, a_eq, b_eq, a_ub, b_ub):
    """An LP's costs and rows as :func:`_column_solve`'s arguments after the
    basis: its cost numerators, its columns, its right-hand side and its
    number of <= rows; raises ValueError when a matrix and its right-hand
    side differ in length or a row does not have ``len(c)`` entries."""
    n, rows, rhs = len(c), [], []
    for name, a, b in (("eq", a_eq, b_eq), ("ub", a_ub, b_ub)):
        a, b = list(() if a is None else a), list(() if b is None else b)
        if len(a) != len(b):
            raise ValueError(f"b_{name} has {len(b)} entries for the {len(a)} rows of a_{name}")
        for i, row in enumerate(a):
            if len(row) != n:
                raise ValueError(f"row {i} of a_{name} has {len(row)} entries for {n} costs")
        rows += a
        rhs += b
    # ``b`` is now b_ub: the <= rows come last
    columns = [_column(enumerate(row[j] for row in rows), c[j]) for j in range(n)]
    return [k for _, k, _ in columns], [(d, col) for d, _, col in columns], rhs, len(b)


def _column(entries, cost=0, d=1):
    """(D, k_c, [(row, k)]) of a column whose entries (row, v) stand for
    v / d (so v is an int where d > 1) and whose cost is ``cost``, every value
    read exactly: integers over D, a common multiple of d and every
    denominator, with cost = k_c / D and v / d = k / D for each nonzero v."""
    cost = _exact(cost)
    exact = [(i, _exact(v)) for i, v in entries if v]
    big = math.lcm(d, cost.denominator, *(v.denominator * d for _, v in exact))
    k_c = cost.numerator * (big // cost.denominator)
    return big, k_c, [(i, v.numerator * (big // (v.denominator * d))) for i, v in exact]


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


def _duals(basis, cost, columns, rows, den):
    """y = c_B B^-1 as (y_int, y_den) in lowest terms, skipping zero costs:
    cost[j] is over column j's d, an artificial's (a basis index past the
    columns) over 1, and a basis index past ``cost`` costs 0."""
    total, paid = len(columns), len(cost)
    cb = [(cost[j], columns[j][0] if j < total else 1, row) for j, row in zip(basis, rows) if j < paid and cost[j]]
    c_den = math.lcm(*(d for _, d, _ in cb))
    y = [0] * len(rows)
    for c, d, row in cb:
        k = c * (c_den // d)
        y = [a + k * v for a, v in zip(y, row)]  # zip stops before x_B
    y_den = c_den * den
    g = math.gcd(y_den, *y)
    return [v // g for v in y], y_den // g


def _first_negative(y, y_den, cost, columns, order):
    """The first column in ``order`` whose exact reduced cost c_j - y . a_j
    is negative, or None: with y = y_int / y_den and the column (d, entries)
    costing cost[j] / d, y . a_j = sum(y_int[i] * k) / (y_den * d), so the
    sign is that of cost[j] * y_den - sum(y_int[i] * k)."""
    for j in order:
        if cost[j] * y_den < sum(y[i] * k for i, k in columns[j][1]):
            return j
    return None


def _exact(v):
    if type(v) in (int, Fraction):
        return v
    try:
        return Fraction(v)
    except (OverflowError, ValueError):
        raise ValueError(f"LP entry {v!r} is not a finite number") from None
