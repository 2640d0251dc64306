import ast
import collections
import itertools
import json
import math
import random
import re
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import flowgames as fg
import flowgames.lp as lp

from conftest import bundled_text


def test_min_over_simplex_picks_cheapest_vertex():
    cert = fg.exact_solve(None, [3, 1, 2], a_eq=[[1, 1, 1]], b_eq=[1])
    assert cert.objective == 1
    assert cert.x == (0, 1, 0)


def test_inequality_rows_get_slack():
    cert = fg.exact_solve(None, [-1, -1], a_ub=[[1, 1]], b_ub=[1])
    assert cert.objective == -1


def test_mixed_equality_and_inequality():
    # min x2 on the segment x1 + x2 = 1 with x1 <= 1/4
    cert = fg.exact_solve(None, [0, 1], a_eq=[[1, 1]], b_eq=[1], a_ub=[[1, 0]], b_ub=[F(1, 4)])
    assert cert.objective == F(3, 4)
    assert cert.x == (F(1, 4), F(3, 4))


def test_infeasible_detected():
    # x1 + x2 = 1 and x1 + x2 <= 1/2
    with pytest.raises(ValueError, match="infeasible"):
        fg.exact_solve(None, [1, 1], a_eq=[[1, 1]], b_eq=[1], a_ub=[[1, 1]], b_ub=[F(1, 2)])


def test_negative_right_hand_side_is_refused():
    with pytest.raises(ValueError, match="nonnegative right-hand side"):
        fg.exact_solve(None, [1], a_eq=[[1]], b_eq=[-1])
    with pytest.raises(ValueError, match="nonnegative right-hand side"):
        fg.exact_solve(None, [1], a_ub=[[1]], b_ub=[-1])


def test_unbounded_detected():
    with pytest.raises(ValueError, match="unbounded"):
        fg.exact_solve(None, [-1, 0], a_ub=[[0, 1]], b_ub=[1])


def test_duplicate_rows_stay_solvable():
    row = [1, 1]
    cert = fg.exact_solve(None, [1, 2], a_eq=[row, row], b_eq=[1, 1])
    assert cert.objective == 1
    assert cert.x == (1, 0)
    # the redundant row keeps its artificial (column 2 + row) basic at 0
    assert len([j for j in cert.basis if j >= 2]) == 1


def test_artificial_at_zero_leaves_before_it_could_rise():
    # phase 1 ends at x1 = 1 with the second row's artificial basic at 0;
    # in phase 2, x2 enters with a negative entry in that artificial's row,
    # so the artificial leaves at step 0 rather than rise to 1 with x2
    cert = fg.exact_solve(None, [1, 0], a_eq=[[1, 1], [1, 0]], b_eq=[1, 1])
    assert cert.objective == 1
    assert cert.x == (1, 0)
    assert sorted(cert.basis) == [0, 1]


@pytest.mark.parametrize(
    "data, message",
    [
        (dict(a_eq=[[1, 1]], b_eq=[1, 1]), "b_eq has 2 entries for the 1 rows of a_eq"),
        (dict(a_eq=[[1, 1], [1, 0]], b_eq=[1]), "b_eq has 1 entries for the 2 rows of a_eq"),
        (dict(a_eq=[[1]], b_eq=[1]), "row 0 of a_eq has 1 entries for 2 costs"),
        (dict(a_eq=[[1, 1], [1, 1, 1]], b_eq=[1, 1]), "row 1 of a_eq has 3 entries for 2 costs"),
        (dict(a_ub=[[1, 1]]), "b_ub has 0 entries for the 1 rows of a_ub"),
        (dict(a_eq=[[1, 1]], b_eq=[1], b_ub=[1]), "b_ub has 1 entries for the 0 rows of a_ub"),
        (dict(a_eq=[[1, math.inf]], b_eq=[1]), "LP entry inf is not a finite number"),
        (dict(a_eq=[[1, 1]], b_eq=[math.nan]), "LP entry nan is not a finite number"),
    ],
    ids=["b-longer", "b-shorter", "row-shorter", "row-longer", "a-without-b", "b-without-a", "inf", "nan"],
)
def test_exact_solve_refuses_mismatched_or_infinite_data(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        fg.exact_solve(None, [1, 2], **data)


def test_needs_at_least_one_row():
    with pytest.raises(ValueError, match="at least one row"):
        fg.exact_solve(None, [1, 2])


def test_equality_rows_without_a_column():
    # no structural column and no slack, so nothing to price: b = 0 is the
    # empty optimum, its artificial left at 0 in the basis, and b = 1 is
    # infeasible
    assert fg.exact_solve(None, [], [[]], [0]) == lp.Certificate((), (0,), 0, (0,))
    with pytest.raises(ValueError, match="LP is infeasible"):
        fg.exact_solve(None, [], [[]], [1])


def test_data_beyond_float_range_solve_exactly():
    # a cost or an entry of 10**400 once stopped pricing with an OverflowError
    assert fg.exact_solve(None, [10**400, 1], [[1, 1]], [1]) == lp.Certificate((0, 1), (1,), 1, (1,))
    # column 0 enters first, at x_0 = 1 / 10**400, and then leaves for column 1
    cert = fg.exact_solve(None, [-1, -1], a_ub=[[10**400, 1]], b_ub=[1])
    assert cert == lp.Certificate((0, 1), (-1,), -1, (1,))


def test_strong_duality_at_optimum():
    # the certificate's x is exactly feasible, y is dual feasible and c.x == y.b
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = 6
        c = [F(int(v), 10) for v in rng.integers(-10, 11, n)]
        interior = [F(int(v), 10) for v in rng.integers(1, 11, n)]
        a = [[F(1)] * n, [F(int(v), 10) for v in rng.integers(-10, 11, n)]]
        b = [sum(r * x for r, x in zip(row, interior)) for row in a]
        # phase 1 takes a nonnegative right-hand side
        a = [row if v >= 0 else [-r for r in row] for row, v in zip(a, b)]
        b = [abs(v) for v in b]
        cert = fg.exact_solve(None, c, a_eq=a, b_eq=b)
        assert all(x >= 0 for x in cert.x)
        assert [sum(r * x for r, x in zip(row, cert.x)) for row in a] == b
        assert cert.objective == sum(cj * x for cj, x in zip(c, cert.x))
        assert cert.objective == sum(y * v for y, v in zip(cert.y, b))
        assert all(cj >= sum(y * row[j] for y, row in zip(cert.y, a)) for j, cj in enumerate(c))


def test_exact_solve_reads_floats_exactly():
    # 0.1 is not 1/10 in binary; the certificate keeps the float's exact value
    cert = fg.exact_solve(None, [0.1], a_eq=[[1.0]], b_eq=[1.0])
    assert cert.objective == F(0.1) != F(1, 10)
    # a float column, as the obedience builder gives for float atoms, lifted
    # by lp._column to int numerators over one denominator with its cost
    d, k, col = lp._column([(0, 0.1)], 1)
    cert = lp._column_solve(None, [k], [(d, col)], [1.0], 0)
    assert cert.x == (1 / F(0.1),) != (F(10),)


BEALE_C = [F(-3, 4), F(20), F(-1, 2), F(6)]
BEALE_A = [[F(1, 4), F(-8), F(-1), F(9)], [F(1, 2), F(-12), F(-1, 2), F(3)], [F(0), F(0), F(1), F(0)]]
BEALE_B = [F(0), F(0), F(1)]


def test_beale_cycling_example():
    # Beale (1955): Dantzig's rule can cycle here through six degenerate
    # pivots; the lexicographic ratio test never repeats a basis
    # phase 1 starts at the slacks (4, 5, 6), already feasible
    cert = fg.exact_solve(None, BEALE_C, a_ub=BEALE_A, b_ub=BEALE_B)
    assert cert.objective == F(-5, 4)
    assert cert.x == (1, 0, 1, 0)
    assert fg.exact_solve((4, 5, 6), BEALE_C, a_ub=BEALE_A, b_ub=BEALE_B) == cert
    # started at its own optimal basis, the solve makes no pivot
    assert fg.exact_solve(cert.basis, BEALE_C, a_ub=BEALE_A, b_ub=BEALE_B) == cert


def test_exact_solve_needs_a_feasible_nonsingular_start():
    c, a_eq, b_eq, a_ub, b_ub = [F(1), F(2)], [[F(1), F(1)]], [F(1)], [[F(1), F(-1)]], [F(0)]
    assert fg.exact_solve((1, 2), c, a_eq, b_eq, a_ub, b_ub).x == (F(1, 2), F(1, 2))
    # {x1, slack}: x1 = 1 puts the slack at -1
    with pytest.raises(ValueError, match="not primal feasible"):
        fg.exact_solve((0, 2), c, a_eq, b_eq, a_ub, b_ub)
    # singular: both rows only see x1
    with pytest.raises(ValueError, match="singular"):
        fg.exact_solve((0, 1), c, [[F(1), F(0)], [F(2), F(0)]], [F(1), F(2)])
    with pytest.raises(ValueError, match="distinct columns"):
        fg.exact_solve((1, 1), c, a_eq, b_eq, a_ub, b_ub)
    # each entry is an int: not a float, a string or a bool, though 1.0 and
    # True equal 1
    for basis in ((1.0, 2), ("1", 2), (True, 2)):
        with pytest.raises(ValueError, match="distinct columns"):
            fg.exact_solve(basis, c, a_eq, b_eq, a_ub, b_ub)
    # min -x1 with x1 - x2 <= 1 grows without bound along x1 = x2 + 1
    with pytest.raises(ValueError, match="unbounded"):
        fg.exact_solve((2,), [F(-1), F(0)], a_ub=[[F(1), F(-1)]], b_ub=[F(1)])


def _vertex_optimum(c, a, b):
    # brute force over basic solutions of a full-rank 2 x n system
    n = len(c)
    best = None
    for cols in itertools.combinations(range(n), 2):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_basic = np.linalg.solve(sub, b)
        if (x_basic < -1e-10).any():
            continue
        x = np.zeros(n)
        x[list(cols)] = x_basic
        value = float(c @ x)
        if best is None or value < best:
            best = value
    return best


def test_agrees_with_vertex_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = 5
        c = rng.uniform(-2, 2, n)
        interior = rng.uniform(0.1, 1.0, n)
        a = np.vstack([np.ones(n), rng.uniform(-1, 1, n)])
        b = a @ interior  # feasible by construction, bounded by the simplex row
        oracle = _vertex_optimum(c, a, b)
        # phase 1 takes a nonnegative right-hand side
        a[b < 0] *= -1.0
        cert = fg.exact_solve(None, c, a_eq=a, b_eq=np.abs(b))
        assert oracle is not None
        assert abs(float(cert.objective) - oracle) <= 1e-8


def test_agrees_with_highs_on_degenerate_lps_and_restarts():
    # small LPs whose right-hand sides are mostly 0, solved from phase 1 and
    # again from the optimal basis of another cost, a feasible start that is
    # often degenerate: the optimum, or infeasibility, is scipy's HiGHS's
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(5)
    kinds = collections.Counter()
    for _ in range(300):
        n, n_eq, n_ub = rng.randint(2, 6), rng.randint(0, 2), rng.randint(1, 3)
        a_eq = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n_eq)]
        b_eq = [rng.choice((0, 0, 0, 1)) for _ in range(n_eq)]
        # the last row, sum x <= b, bounds the LP
        a_ub = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n_ub)] + [[1] * n]
        b_ub = [rng.choice((0, 0, 0, 1, 2)) for _ in range(n_ub)] + [rng.randint(1, 3)]
        c, other = ([rng.randint(-3, 3) for _ in range(n)] for _ in range(2))
        highs = optimize.linprog(c, a_ub, b_ub, a_eq or None, b_eq or None, method="highs")
        if highs.status == 2:
            with pytest.raises(ValueError, match="infeasible"):
                fg.exact_solve(None, c, a_eq, b_eq, a_ub, b_ub)
            kinds["infeasible"] += 1
            continue
        assert highs.status == 0
        cert = fg.exact_solve(None, c, a_eq, b_eq, a_ub, b_ub)
        assert abs(float(cert.objective) - highs.fun) <= 1e-9
        kinds["optimal"] += 1
        start = fg.exact_solve(None, other, a_eq, b_eq, a_ub, b_ub).basis
        # a basis that keeps an artificial on a redundant row is no start
        if max(start) < n + n_ub + 1:
            assert fg.exact_solve(start, c, a_eq, b_eq, a_ub, b_ub).objective == cert.objective
            kinds["restarted"] += 1
    assert min(kinds.values()) >= 30 and len(kinds) == 3, kinds


def _lcp_columns(m):
    return [[(i, row[j]) for i, row in enumerate(m) if row[j]] for j in range(len(m))]


def _complementary_solutions(m, q):
    """Every z of a complementary basis of w = q + M z with z, w >= 0: for
    each index set a with M[a, a] nonsingular, z_a = -M[a, a]^-1 q_a and
    z = 0 elsewhere, kept when z and w are nonnegative (Gauss-Jordan in
    Fractions)."""
    n, found = len(q), []
    for a in itertools.chain.from_iterable(itertools.combinations(range(n), k) for k in range(n + 1)):
        solved = _fraction_solve([[F(m[i][j]) for i in a] for j in a], [[-F(q[i]) for i in a]])
        if solved is not None:
            z = [F(0)] * n
            for i, v in zip(a, solved[0]):
                z[i] = v
            w = [q[i] + sum(m[i][j] * z[j] for j in range(n)) for i in range(n)]
            if min(z + w) >= 0:
                found.append(z)
    return found


def _fraction_solve(columns, rhs):
    """X with B X = R, B the square matrix of ``columns`` and R that of the
    columns ``rhs``, all Fractions, by Gauss-Jordan elimination; None when B
    is singular."""
    m = len(columns)
    rows = [[col[i] for col in columns] + [v[i] for v in rhs] for i in range(m)]
    for c in range(m):
        pivot = next((r for r in range(c, m) if rows[r][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(m):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b if b else a for a, b in zip(rows[r], rows[c])]
    return [[row[m + k] for row in rows] for k in range(len(rhs))]


def test_lemke_agrees_with_complementary_basis_enumeration():
    # monotone LCPs, M = A^T A plus a skew part, of sizes 1-5: Lemke ends on
    # a solution exactly when a complementary basis is one, and on one of them
    rng = random.Random(3)
    kinds = collections.Counter()
    for _ in range(600):
        n = rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
        m = [[sum(row[i] * row[j] for row in a) for j in range(n)] for i in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            skew = rng.randint(-2, 2)
            m[i][j] += skew
            m[j][i] -= skew
        q = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        z = lp._lemke(_lcp_columns(m), q)
        solutions = _complementary_solutions(m, q)
        if z is None:
            assert not solutions, (m, q)
            kinds["ray"] += 1
        else:
            assert all(type(v) is F for v in z) and z in solutions, (m, q, z)
            kinds["zero" if not any(z) else "solved"] += 1
    assert min(kinds.values()) >= 20 and len(kinds) == 3, kinds


def test_lemke_breaks_a_ratio_tie_lexicographically(monkeypatch):
    # z0 enters on row 1; then z2 enters, and row 0 (w1 at 2, u 2) ties row 1
    # (z0 at 1, u 1) at ratio 1. Their B^-1 rows over u, (1/2, -1/2) and
    # (0, -1), put row 1 first, though it comes later, so z0 leaves and the
    # run ends at z = (0, 1), w = (0, 0)
    pivots = []
    pivot = lp._pivot

    def recorded(rows, den, u, leaving, d):
        pivots.append(([row[-1] for row in rows], list(u), leaving))
        return pivot(rows, den, u, leaving, d)

    monkeypatch.setattr(lp, "_pivot", recorded)
    assert lp._lemke(_lcp_columns([[2, -1], [-1, 1]]), [1, -1]) == [0, 1]
    assert pivots == [([1, -1], [-1, -1], 1), ([2, 1], [2, 1], 1)]


def test_lemke_ends_on_a_ray():
    # w_1 = -1 - z_1 < 0 for every z >= 0: no solution
    assert lp._lemke([[(0, -1)]], [-1]) is None
    # M_11 = -1, so M is not copositive: z = (2, 1, 0) solves this LCP, but
    # Lemke's run from q ends on a ray
    m = [[-1, 1, 1], [1, 0, -2], [2, -2, 2]]
    assert _complementary_solutions(m, [1, -2, -1]) == [[2, 1, 0]]
    assert lp._lemke(_lcp_columns(m), [1, -2, -1]) is None
    # q >= 0 is solved by z = 0 with no pivot
    assert lp._lemke(_lcp_columns(m), [0, 1, 0]) == [0, 0, 0]


SIMPLEX_GOLDEN = Path(__file__).parent / "golden" / "simplex_certificates.json"


def _certificate_record(cert) -> dict:
    return {
        "basis": list(cert.basis),
        "x": {str(j): str(v) for j, v in enumerate(cert.x) if v},
        "y": [str(v) for v in cert.y],
        "objective": str(cert.objective),
    }


def simplex_certificates(solves=None) -> dict:
    """Every Certificate of the design workload's 40 LPs, of three
    ``ccwe_grid_gap`` calls and of the W1 solves of two ``convergence_run``s,
    in solve order; ``solves``, when given, collects (group, solve, args) of
    each LP."""
    from unittest import mock

    import flowgames.atomic as atomic
    import flowgames.design as design
    from flowgames.generators import random_bcwe, random_congestion_game

    def recording(solve, group):
        def wrapped(*args):
            cert = solve(*args)
            out[group].append(_certificate_record(cert))
            if solves is not None:
                solves.append((group, solve, args))
            return cert

        return wrapped

    out = {"design": [], "ccwe_grid_gap": [], "w1": []}
    with mock.patch.object(design, "_column_solve", recording(design._column_solve, "design")):
        for n_actions, resolution in ((4, 8), (3, 16)):
            for i in range(20):
                game = random_congestion_game(i, n_actions=n_actions, n_states=2)
                grid = fg.build_grid(game, resolution)
                fg.solve_program_p(fg.DesignerProblem(game, fg.social_cost_expr(game), grid))
    gaps = recording(design._column_solve, "ccwe_grid_gap")
    with mock.patch.object(design, "_column_solve", gaps):
        for seed, n_actions, resolution in ((0, 2, 8), (1, 2, 16), (2, 3, 8)):
            fg.ccwe_grid_gap(random_congestion_game(seed, n_actions=n_actions), "0", resolution)
    with mock.patch.object(atomic, "_column_solve", recording(atomic._column_solve, "w1")):
        elfarol = fg.parse_game_file(bundled_text("elfarol.game"))
        outcome = fg.parse_outcome_file(bundled_text("elfarol_cwe.outcome"), elfarol)
        fg.convergence_run(elfarol, outcome, (5, 7, 9, 11, 13))
        game = random_congestion_game(0, n_actions=3, n_states=2)
        fg.convergence_run(game, random_bcwe(game, 0), (5, 7, 9, 11, 13))
    return out


def _assert_exactly_optimal(record, c, columns, rhs, n_ub):
    """The certificate ``record`` of the column-form LP (see
    lp._column_solve) is exactly optimal, checked in Fractions: x is
    feasible, every structural and slack reduced cost is >= 0, and c . x =
    y . b = the objective."""
    n_eq = len(rhs) - n_ub
    x = [F(record["x"].get(str(j), 0)) for j in range(len(c))]
    y, b = [F(v) for v in record["y"]], [F(v) for v in rhs]
    activity = [F(0)] * len(b)
    for xj, (d, col) in zip(x, columns):
        for i, k in col:
            activity[i] += xj * F(k, d)
    assert min(x, default=0) >= 0
    assert activity[:n_eq] == b[:n_eq] and all(v <= bi for v, bi in zip(activity[n_eq:], b[n_eq:]))
    assert all(F(cj, d) >= sum(y[i] * F(k, d) for i, k in col) for cj, (d, col) in zip(c, columns))
    assert all(v <= 0 for v in y[n_eq:])  # a slack's reduced cost is -y_i
    objective = F(record["objective"])
    assert objective == sum(F(cj, d) * xj for cj, (d, _), xj in zip(c, columns, x)) == sum(map(F.__mul__, y, b))


def test_simplex_certificates_match_golden():
    # the golden file was recorded from an independent (Fraction) B^-1: every
    # basis, primal, dual and objective must come out the same
    solves = []
    certificates = simplex_certificates(solves)
    assert certificates == json.loads(SIMPLEX_GOLDEN.read_text())
    # and, whatever the golden file says, each certificate is exactly optimal
    records = [(group, record) for group, records in certificates.items() for record in records]
    assert [group for group, _ in records] == [group for group, _, _ in solves]
    for (_, record), (_, _, (_, c, columns, rhs, n_ub)) in zip(records, solves):
        _assert_exactly_optimal(record, c, columns, rhs, n_ub)


def _golden_lps():
    """(group, solve, args) of every LP behind simplex_certificates.json and
    of the two designs of the cli benchmark (design --game pigou_info, design
    --game elfarol --resolution 4)."""
    lps = []
    simplex_certificates(lps)
    for name, resolution in (("pigou_info", 8), ("elfarol", 4)):
        game = fg.parse_game_file(bundled_text(f"{name}.game"))
        grid = fg.build_grid(game, resolution)
        lps.append(("cli", fg.solve_program_p, (fg.DesignerProblem(game, fg.social_cost_expr(game), grid),)))
    return lps


@pytest.fixture(scope="module")
def golden_lps():
    return _golden_lps()


@pytest.fixture(scope="module")
def ladder_lp():
    """(group, solve, args) of the design LP of a 4-action, 2-state game at
    resolution 16, a rung of the design ladder past the workload's LPs."""
    from flowgames.generators import random_congestion_game

    game = random_congestion_game(0, n_actions=4, n_states=2)
    problem = fg.DesignerProblem(game, fg.social_cost_expr(game), fg.build_grid(game, 16))
    return "ladder", fg.solve_program_p, (problem,)


def test_lp_module_makes_no_float():
    # pricing is exact: no true division and no float() call in lp.py
    tree = ast.parse(Path(lp.__file__).read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Div)]
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert not [f for f in calls if isinstance(f, ast.Name) and f.id == "float"]


def _reference_pick(y, y_den, cost, columns):
    """The column of least reduced cost c_j - y . a_j among the negative
    ones, the first on a tie, or None; every reduced cost is a Fraction,
    y . a_j = sum(y_int[i] * k) / (y_den * d) summed column by column."""
    reduced = [F(c, d) - F(sum(y[i] * k for i, k in col), y_den * d) for c, (d, col) in zip(cost, columns)]
    return min((j for j, r in enumerate(reduced) if r < 0), key=reduced.__getitem__, default=None)


# column 1 has no entry
ZERO_COLUMN_LP = ("zero column", fg.exact_solve, (None, [2, 0, 1], [[1, 0, 1]], [1], [[1, 0, -1]], [F(1, 2)]))


def test_every_round_enters_the_exact_reference_pick(golden_lps, ladder_lp, monkeypatch):
    # every pricing round of the golden LPs, the ladder LP, an LP with an
    # all-zero column and Beale's cycling LP enters the least exact reduced
    # cost (Dantzig's rule), and stops only when none is negative
    price, rounds = lp._price, collections.Counter()

    def priced(y, y_den, cost, columns, by_row):
        entering = price(y, y_den, cost, columns, by_row)
        assert entering == _reference_pick(y, y_den, cost, columns), group
        rounds[group] += 1
        return entering

    monkeypatch.setattr(lp, "_price", priced)
    beale = ("beale", fg.exact_solve, (None, BEALE_C, None, None, BEALE_A, BEALE_B))
    for group, solve, args in [*golden_lps, ladder_lp, ZERO_COLUMN_LP, beale]:
        solve(*args)
    assert set(rounds) == {"design", "ccwe_grid_gap", "w1", "cli", "ladder", "zero column", "beale"}


def _dense(column, m):
    d, entries = column
    dense = [F(0)] * m
    for i, k in entries:
        dense[i] = F(k, d)
    return dense


def _northwest_transport():
    """A 3 x 3 transport LP with unit supplies and demands (the last demand
    row, redundant, dropped) and its northwest-corner basis, which steps
    down where a supply and a demand run out together: (c, a_eq, b_eq,
    basis). Its rows (x_i, B^-1_i) are not all lexicographically positive."""
    cells = [(i, j) for i in range(3) for j in range(3)]
    a_eq = [[int(i == r) for i, _ in cells] for r in range(3)] + [[int(j == r) for _, j in cells] for r in range(2)]
    c = [4, 1, 3, 2, 5, 1, 3, 2, 6]
    basis = [cells.index(cell) for cell in ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2))]
    return c, a_eq, [1] * 5, basis


def test_every_pivot_leaves_by_the_lexicographic_reference(golden_lps, ladder_lp, monkeypatch):
    # every ratio test leaves by the least (x_i, (B^-1 B_0)_i) / u_i over
    # u_i > 0, each computed anew in Fractions from the LP's columns, B_0
    # being the basis the phase started from or, after an artificial at 0
    # left, the basis that pivot made; and no basis repeats within a phase
    factor, phase, price, leave = lp._factor, lp._simplex_phase, lp._price, lp._leaving
    now, pivots = {}, collections.Counter()

    def column(j):
        m, total = len(now["b"]), len(now["columns"])
        return _dense(now["columns"][j] if j < total else (1, [(j - total, 1)]), m)

    def factored(basis, columns, b, n_eq):
        now["b"] = [F(v) for v in b]
        return factor(basis, columns, b, n_eq)

    def phased(basis, rows, den, cost, columns, by_row):
        now.update(basis=basis, columns=columns, start=list(basis), seen=set(), entered=None)
        return phase(basis, rows, den, cost, columns, by_row)

    def priced(y, y_den, cost, columns, by_row):
        basis = now["basis"]
        if now["entered"] is not None:
            # the last pivot made no ratio test: an artificial at 0 left
            (gone,) = set(now["last"]) - set(basis)
            x = _fraction_solve([column(j) for j in now["last"]], [now["b"]])[0]
            assert gone >= len(columns) and x[now["last"].index(gone)] == 0, group
            now["start"] = list(basis)
            pivots[group, "restart"] += 1
        assert frozenset(basis) not in now["seen"], group
        now["seen"].add(frozenset(basis))
        entering = price(y, y_den, cost, columns, by_row)
        now.update(entered=entering, last=list(basis))
        return entering

    def leaving(rows, u, start):
        pick, m = leave(rows, u, start), len(u)
        assert [_dense(col, m) for col in start] == [column(j) for j in now["start"]], group
        x, w, *b0 = _fraction_solve(
            [column(j) for j in now["basis"]], [now["b"], column(now["entered"])] + [column(j) for j in now["start"]]
        )
        # u is B^-1 a times a positive number
        k = next(i for i, v in enumerate(w) if v)
        assert u[k] * w[k] > 0 and all(ui * w[k] == u[k] * wi for ui, wi in zip(u, w)), group
        rivals = [i for i in range(m) if w[i] > 0]
        assert pick == min(rivals, key=lambda i: [x[i] / w[i]] + [v[i] / w[i] for v in b0], default=None), group
        now["entered"] = None
        pivots[group, "tied" if [x[i] / w[i] for i in rivals].count(x[pick] / w[pick]) > 1 else "unique"] += 1
        return pick

    for name, f in (("_factor", factored), ("_simplex_phase", phased), ("_price", priced), ("_leaving", leaving)):
        monkeypatch.setattr(lp, name, f)
    c, a_eq, b_eq, northwest = _northwest_transport()
    start = [[F(row[j]) for row in a_eq] for j in northwest]
    inverse = _fraction_solve(start, [[F(int(i == k)) for i in range(5)] for k in range(5)])
    x = _fraction_solve(start, [[F(v) for v in b_eq]])[0]
    assert any(next(v for v in [x[i]] + [col[i] for col in inverse] if v) < 0 for i in range(5))
    lps = [
        *golden_lps,
        ladder_lp,
        ZERO_COLUMN_LP,
        ("beale", fg.exact_solve, (None, BEALE_C, None, None, BEALE_A, BEALE_B)),
        ("beale", fg.exact_solve, ((4, 5, 6), BEALE_C, None, None, BEALE_A, BEALE_B)),
        ("northwest", fg.exact_solve, (northwest, c, a_eq, b_eq)),
        ("transport", fg.exact_solve, (None, c, a_eq, b_eq)),
    ]
    objectives = {}
    for group, solve, args in lps:
        objectives[group] = solve(*args).objective
    assert objectives["northwest"] == objectives["transport"] == 5
    groups = {"design", "ccwe_grid_gap", "w1", "cli", "ladder", "zero column", "beale", "northwest", "transport"}
    assert {group for group, _ in pivots} == groups
    # ties past x_B, and from phase 1 artificials that leave at 0
    assert min(pivots[group, "tied"] for group in ("design", "w1", "beale", "northwest")) > 0
    assert pivots["northwest", "unique"] > 0 and pivots["transport", "restart"] > 0
