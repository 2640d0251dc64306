import itertools
from fractions import Fraction as F

import numpy as np
import pytest

import flowgames as fg
import flowgames.lp as lp
from flowgames.generators import random_congestion_game


def test_min_over_simplex_picks_cheapest_vertex():
    res = fg.lp_solve([3.0, 1.0, 2.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0])
    assert res.status == "optimal"
    assert abs(res.objective - 1.0) <= 1e-9
    assert np.allclose(res.x, [0.0, 1.0, 0.0], atol=1e-9)


def test_inequality_rows_get_slack():
    res = fg.lp_solve([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    assert res.status == "optimal"
    assert abs(res.objective + 1.0) <= 1e-9


def test_mixed_equality_and_inequality():
    # min x2 on the segment x1 + x2 = 1 with x1 <= 1/4
    res = fg.lp_solve(
        [0.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], a_ub=[[1.0, 0.0]], b_ub=[0.25]
    )
    assert res.status == "optimal"
    assert abs(res.objective - 0.75) <= 1e-9


def test_infeasible_detected():
    res = fg.lp_solve([1.0], a_eq=[[1.0]], b_eq=[-1.0])
    assert res.status == "infeasible"
    assert res.x is None


def test_unbounded_detected():
    res = fg.lp_solve([-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])
    assert res.status == "unbounded"


def test_duplicate_rows_stay_solvable():
    row = [1.0, 1.0]
    res = fg.lp_solve([1.0, 2.0], a_eq=[row, row], b_eq=[1.0, 1.0])
    assert res.status == "optimal"
    assert abs(res.objective - 1.0) <= 1e-9


def test_needs_at_least_one_row():
    with pytest.raises(ValueError):
        fg.lp_solve([1.0, 2.0])


def test_strong_duality_at_optimum():
    # rational data: the certified x is exactly feasible and c.x == y.b
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = 6
        c = [F(int(v), 10) for v in rng.integers(-10, 11, n)]
        interior = [F(int(v), 10) for v in rng.integers(1, 11, n)]
        a = [[F(1)] * n, [F(int(v), 10) for v in rng.integers(-10, 11, n)]]
        b = [sum(r * x for r, x in zip(row, interior)) for row in a]
        res = fg.lp_solve([float(v) for v in c], a_eq=np.array(a, dtype=float), b_eq=[float(v) for v in b])
        assert res.status == "optimal"
        cert = fg.certify(res.basis, c, a_eq=a, b_eq=b)
        assert cert is not None
        assert all(x >= 0 for x in cert.x)
        assert [sum(r * x for r, x in zip(row, cert.x)) for row in a] == b
        assert cert.objective == sum(cj * x for cj, x in zip(c, cert.x))
        assert cert.objective == sum(y * v for y, v in zip(cert.y, b))
        assert abs(res.objective - float(cert.objective)) <= 1e-12


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
    slacks = (4, 5, 6)
    cert = fg.exact_solve(slacks, BEALE_C, a_ub=BEALE_A, b_ub=BEALE_B)
    assert cert.objective == F(-5, 4)
    assert cert.x == (1, 0, 1, 0)
    assert fg.certify(cert.basis, BEALE_C, a_ub=BEALE_A, b_ub=BEALE_B) == cert


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


def _float_design_lp(seed, n_actions, resolution):
    """The float image of the designer's LP on a random congestion game."""
    game = random_congestion_game(seed, n_actions=n_actions, n_states=2)
    grid = fg.build_grid(game, resolution)
    atoms = [(s, game.prior_of(s), f) for s in game.states for f in grid[s]]
    c = [float(p * fg.social_cost(game, f, s)) for s, p, f in atoms]
    a_eq = [[1.0 if s == t else 0.0 for s, _, _ in atoms] for t in game.states]
    a_ub = [[float(t) for t in terms] for _, terms in fg.obedience_rows(game, atoms)]
    return c, a_eq, [1.0] * len(a_eq), a_ub, [0.0] * len(a_ub)


def test_float_bland_cycling_stops_at_first_revisited_basis():
    # A4r8-g10 of the design benchmark: float Bland pivots ran to the cap
    c, a_eq, b_eq, a_ub, b_ub = _float_design_lp(10, 4, 8)
    res = fg.lp_solve(c, a_eq, b_eq, a_ub, b_ub)
    assert res.status == "cycled"
    assert res.x is None and res.basis is None
    assert res.pivots < 1000


def test_pivot_cap_is_a_status(monkeypatch):
    monkeypatch.setattr(lp, "MAX_PIVOTS", 1)
    res = fg.lp_solve([3.0, 1.0, 2.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0])
    assert res.status == "pivot_limit"
    assert res.pivots == 1


def test_pivots_are_counted():
    res = fg.lp_solve([3.0, 1.0, 2.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0])
    # phase 1 brings in the first column, phase 2 swaps it for the second
    assert res.pivots == 2


def test_certify_rejects_bases_that_are_not_optimal():
    c, a_eq, b_eq = [F(1), F(2)], [[F(1), F(1)]], [F(1)]
    assert fg.certify((0,), c, a_eq, b_eq).objective == 1
    assert fg.certify((1,), c, a_eq, b_eq) is None  # feasible, but x1 prices out below 0
    assert fg.certify(None, c, a_eq, b_eq) is None
    # with x1 - x2 <= -3 added, the basis {x1, slack} puts the slack at -4
    a_ub, b_ub = [[F(1), F(-1)]], [F(-3)]
    assert fg.certify((0, 2), c, a_eq, b_eq, a_ub, b_ub) is None
    # min x1 with x1 + x2 = 2 and x1 <= 1: the basis {x1, x2} holds the
    # inequality tight, and its slack prices out below 0
    c, a_eq, b_eq, a_ub, b_ub = [F(1), F(0)], [[F(1), F(1)]], [F(2)], [[F(1), F(0)]], [F(1)]
    assert fg.certify((0, 1), c, a_eq, b_eq, a_ub, b_ub) is None
    assert fg.certify((1, 2), c, a_eq, b_eq, a_ub, b_ub).x == (0, 2)
    # singular: both rows only see x1
    assert fg.certify((0, 1), c, [[F(1), F(0)], [F(2), F(0)]], [F(1), F(2)]) is None


def test_certify_reads_floats_exactly():
    # 0.1 is not 1/10 in binary; the certificate keeps the float's exact value
    cert = fg.certify((0,), [0.1], a_eq=[[1.0]], b_eq=[1.0])
    assert cert.objective == F(0.1) != F(1, 10)


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
        res = fg.lp_solve(c, a_eq=a, b_eq=b)
        oracle = _vertex_optimum(c, a, b)
        assert res.status == "optimal"
        assert oracle is not None
        assert abs(res.objective - oracle) <= 1e-8
