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


@pytest.mark.parametrize("pure_bland", [False, True])
def test_beale_cycling_example(pure_bland, monkeypatch):
    # Beale (1955): Dantzig's rule cycles here (six degenerate pivots) until
    # STALL_PIVOTS of them hand over to Bland's rule; with STALL_PIVOTS at 0
    # every entering column is chosen by Bland's rule
    if pure_bland:
        monkeypatch.setattr(lp, "STALL_PIVOTS", 0)
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


def _lcp_columns(m):
    return [[(i, row[j]) for i, row in enumerate(m) if row[j]] for j in range(len(m))]


def _complementary_solutions(m, q):
    """Every z of a complementary basis of w = q + M z with z, w >= 0: for
    each index set a with M[a, a] nonsingular, z_a = -M[a, a]^-1 q_a and
    z = 0 elsewhere, kept when z and w are nonnegative (Gauss-Jordan in
    Fractions)."""
    n, found = len(q), []
    for a in itertools.chain.from_iterable(itertools.combinations(range(n), k) for k in range(n + 1)):
        rows = [[F(m[i][j]) for j in a] + [-F(q[i])] for i in a]
        for col in range(len(a)):
            pivot = next((r for r in range(col, len(a)) if rows[r][col]), None)
            if pivot is None:
                break
            rows[col], rows[pivot] = rows[pivot], rows[col]
            rows[col] = [v / rows[col][col] for v in rows[col]]
            for r in range(len(a)):
                if r != col and rows[r][col]:
                    rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
        else:
            z = [F(0)] * n
            for i, row in zip(a, rows):
                z[i] = row[-1]
            w = [q[i] + sum(m[i][j] * z[j] for j in range(n)) for i in range(n)]
            if min(z + w) >= 0:
                found.append(z)
    return found


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


def test_simplex_certificates_match_golden():
    # the golden file was recorded from an independent (Fraction) B^-1: every
    # basis, primal, dual and objective must come out the same
    assert simplex_certificates() == json.loads(SIMPLEX_GOLDEN.read_text())


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


def test_every_lp_is_priced_over_python_rows(golden_lps, ladder_lp, monkeypatch):
    # one pricing path: the design workload's 40 LPs (1,944-3,242 nonzeros),
    # the W1 transport LPs, the cli designs (52 and 15 nonzeros) and the
    # ladder LP (21,554) all rank columns over sparse Python float rows
    image, sizes = lp._float_image, {}

    def sized(columns, m):
        out = image(columns, m)
        # slacks included
        nnz = sum(len(col) for _, col in columns)
        assert type(out) is list and len(out) == m, group
        assert sum(len(js) for js, _ in out) == nnz == sum(len(values) for _, values in out), group
        assert all(type(v) is float for _, values in out for v in values), group
        sizes[group].append(nnz)
        return out

    monkeypatch.setattr(lp, "_float_image", sized)
    for group, solve, args in [*golden_lps, ladder_lp]:
        sizes.setdefault(group, [])
        solve(*args)
    assert len(sizes["design"]) == 40 and (min(sizes["design"]), max(sizes["design"])) == (1944, 3242)
    assert len(sizes["w1"]) == 15 and sizes["cli"] == [52, 15] and sizes["ladder"] == [21554]
    assert set(sizes) == {"design", "ccwe_grid_gap", "w1", "cli", "ladder"}


def _column_sum(terms) -> float:
    # left to right from 0.0, as the builtin sum adds floats before Python
    # 3.12, which compensates the rounding
    total = 0.0
    for term in terms:
        total += term
    return total


def test_row_pricing_is_the_column_sums_bit_for_bit(golden_lps, ladder_lp, monkeypatch):
    # every pricing round of the golden LPs, the ladder LP and an LP with an
    # all-zero column prices at float(v) of each exact cost v and gives the
    # reduced costs, and so the pick, of summing each column's entries in
    # row order
    image, price, phase, columns, rounds, exact = lp._float_image, lp._price, lp._simplex_phase, [], {}, []

    def imaged(cols, m):
        columns[:] = [[(i, k / d) for i, k in col] for d, col in cols]
        return image(cols, m)

    def phased(basis, rows, den, cost, cols, float_a):
        # each cost is an int numerator over its column's d
        exact[:] = [F(k, d) for k, (d, _) in zip(cost, cols)]
        return phase(basis, rows, den, cost, cols, float_a)

    def priced(y, cost, float_a):
        assert [v.hex() for v in cost] == [float(v).hex() for v in exact], group
        reduced, j = price(y, cost, float_a)
        expected = [c - _column_sum(y[i] * a for i, a in col) for c, col in zip(cost, columns)]
        assert reduced == expected and j == expected.index(min(expected)), group
        rounds[group] = rounds.get(group, 0) + 1
        return reduced, j

    monkeypatch.setattr(lp, "_float_image", imaged)
    monkeypatch.setattr(lp, "_price", priced)
    monkeypatch.setattr(lp, "_simplex_phase", phased)
    # column 1 has no entry
    zero = ("zero column", fg.exact_solve, (None, [2, 0, 1], [[1, 0, 1]], [1], [[1, 0, -1]], [F(1, 2)]))
    for group, solve, args in [*golden_lps, ladder_lp, zero]:
        solve(*args)
    assert set(rounds) == {"design", "ccwe_grid_gap", "w1", "cli", "ladder", "zero column"}
