import itertools
import json
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


def test_needs_at_least_one_row():
    with pytest.raises(ValueError, match="at least one row"):
        fg.exact_solve(None, [1, 2])


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
    # a native column (d None), as the obedience builder gives for float atoms
    cert = lp._column_solve(None, [1], [(None, [(0, 0.1)])], [1.0], 0)
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


SIMPLEX_GOLDEN = Path(__file__).parent / "golden" / "simplex_certificates.json"


def _certificate_record(cert) -> dict:
    return {
        "basis": list(cert.basis),
        "x": {str(j): str(v) for j, v in enumerate(cert.x) if v},
        "y": [str(v) for v in cert.y],
        "objective": str(cert.objective),
    }


def simplex_certificates() -> dict:
    """Every Certificate of the design workload's 40 LPs, of three
    ``ccwe_grid_gap`` calls and of the W1 solves of two ``convergence_run``s,
    in solve order."""
    from unittest import mock

    import flowgames.atomic as atomic
    import flowgames.design as design
    from flowgames.generators import random_bcwe, random_congestion_game

    def recording(solve, into):
        def wrapped(*args):
            cert = solve(*args)
            into.append(_certificate_record(cert))
            return cert

        return wrapped

    out = {"design": [], "ccwe_grid_gap": [], "w1": []}
    with mock.patch.object(design, "_column_solve", recording(design._column_solve, out["design"])):
        for n_actions, resolution in ((4, 8), (3, 16)):
            for i in range(20):
                game = random_congestion_game(i, n_actions=n_actions, n_states=2)
                grid = fg.build_grid(game, resolution)
                fg.solve_program_p(fg.DesignerProblem(game, fg.social_cost_expr(game), grid))
    gaps = recording(design._column_solve, out["ccwe_grid_gap"])
    with mock.patch.object(design, "_column_solve", gaps):
        for seed, n_actions, resolution in ((0, 2, 8), (1, 2, 16), (2, 3, 8)):
            fg.ccwe_grid_gap(random_congestion_game(seed, n_actions=n_actions), "0", resolution)
    with mock.patch.object(atomic, "exact_solve", recording(atomic.exact_solve, out["w1"])):
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
